#include "src/analysis/termination.h"

#include <algorithm>
#include <cstdint>

namespace tdx {

bool AtomsCompatible(const Atom& head, const Atom& body) {
  if (head.rel != body.rel) return false;
  const std::size_t n = std::min(head.terms.size(), body.terms.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Term& h = head.terms[i];
    const Term& b = body.terms[i];
    if (!h.is_var() && !b.is_var() && !(h.value() == b.value())) return false;
  }
  return true;
}

bool MayActivate(const Tgd& a, const Tgd& b) {
  for (const Atom& head : a.head.atoms) {
    for (const Atom& body : b.body.atoms) {
      if (AtomsCompatible(head, body)) return true;
    }
  }
  return false;
}

std::vector<std::vector<std::size_t>> StronglyConnectedComponents(
    const std::vector<std::vector<std::size_t>>& adj) {
  // Iterative Tarjan (explicit stack: fuzzed mappings must not be able to
  // overflow the call stack).
  const std::size_t n = adj.size();
  std::vector<std::size_t> index(n, SIZE_MAX), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> components;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != SIZE_MAX) continue;
    std::vector<Frame> frames{Frame{root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge == 0) {
        index[f.v] = low[f.v] = next_index++;
        stack.push_back(f.v);
        on_stack[f.v] = true;
      }
      bool descended = false;
      while (f.edge < adj[f.v].size()) {
        const std::size_t w = adj[f.v][f.edge++];
        if (index[w] == SIZE_MAX) {
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[w]) low[f.v] = std::min(low[f.v], index[w]);
      }
      if (descended) continue;
      if (low[f.v] == index[f.v]) {
        std::vector<std::size_t> component;
        while (true) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          if (w == f.v) break;
        }
        components.push_back(std::move(component));
      }
      const std::size_t finished = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[finished]);
      }
    }
  }
  return components;
}

std::vector<std::vector<std::size_t>> PrecedenceComponents(
    const std::vector<Tgd>& tgds) {
  const std::size_t n = tgds.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (MayActivate(tgds[i], tgds[j])) adj[i].push_back(j);
    }
  }
  return StronglyConnectedComponents(adj);
}

TerminationCertificate CertifyTermination(const std::vector<Tgd>& target_tgds,
                                          const Schema& schema) {
  TerminationCertificate cert;
  if (target_tgds.empty()) {
    cert.criterion = TerminationCriterion::kNoTargetTgds;
    return cert;
  }

  const PositionGraph rich =
      PositionGraph::Build(target_tgds, schema, PositionGraph::Kind::kRich);
  if (!rich.FindSpecialCycle().has_value()) {
    cert.criterion = TerminationCriterion::kRichlyAcyclic;
    return cert;
  }

  const PositionGraph weak =
      PositionGraph::Build(target_tgds, schema, PositionGraph::Kind::kWeak);
  const std::optional<SpecialCycle> cycle = weak.FindSpecialCycle();
  if (!cycle.has_value()) {
    cert.criterion = TerminationCriterion::kWeaklyAcyclic;
    return cert;
  }

  // Stratification: every precedence SCC must be weakly acyclic on its own.
  bool stratified = true;
  for (const std::vector<std::size_t>& component :
       PrecedenceComponents(target_tgds)) {
    std::vector<Tgd> stratum;
    stratum.reserve(component.size());
    for (std::size_t i : component) stratum.push_back(target_tgds[i]);
    const PositionGraph g =
        PositionGraph::Build(stratum, schema, PositionGraph::Kind::kWeak);
    if (g.FindSpecialCycle().has_value()) {
      stratified = false;
      break;
    }
  }
  if (stratified) {
    cert.criterion = TerminationCriterion::kStratified;
    cert.witness = "not weakly acyclic (" + weak.FormatCycle(schema, *cycle) +
                   "), but every precedence stratum is";
    return cert;
  }

  cert.criterion = TerminationCriterion::kUnknown;
  cert.witness = weak.FormatCycle(schema, *cycle);
  return cert;
}

}  // namespace tdx
