#include "src/analysis/schedule.h"

#include <unordered_set>

#include "src/analysis/diagnostic.h"  // JsonEscape

namespace tdx {

std::string_view ScheduleRuleKindName(ScheduleRuleKind kind) {
  switch (kind) {
    case ScheduleRuleKind::kStTgd:
      return "st-tgd";
    case ScheduleRuleKind::kTargetTgd:
      return "target-tgd";
    case ScheduleRuleKind::kEgd:
      return "egd";
  }
  return "?";
}

namespace {

std::string RuleDisplay(const ScheduleRule& rule) {
  std::string out(ScheduleRuleKindName(rule.kind));
  out += " '";
  out += rule.name;
  out += "'";
  return out;
}

std::string_view EdgeReasonName(ScheduleEdgeReason reason) {
  switch (reason) {
    case ScheduleEdgeReason::kFeeds:
      return "feeds";
    case ScheduleEdgeReason::kInterferes:
      return "interferes";
  }
  return "?";
}

}  // namespace

std::string ChaseSchedule::ToText() const {
  std::string out = "chase schedule: " + std::to_string(strata.size()) +
                    (strata.size() == 1 ? " stratum" : " strata") + " over " +
                    std::to_string(rules.size()) +
                    (rules.size() == 1 ? " rule" : " rules") +
                    "; egd fixpoint: ";
  if (rules.empty()) {
    out += "skipped (no egds)\n";
    return out;
  }
  bool has_egds = false;
  for (const ScheduleRule& rule : rules) {
    if (rule.kind == ScheduleRuleKind::kEgd) has_egds = true;
  }
  if (egd_fixpoint_live()) {
    out += "live (" + std::to_string(live_egds.size()) + " of " +
           std::to_string(live_egds.size() +
                          [this] {
                            std::size_t skipped = 0;
                            for (const ScheduleRule& r : rules) {
                              if (r.kind == ScheduleRuleKind::kEgd &&
                                  (!r.live || r.effect_free)) {
                                ++skipped;
                              }
                            }
                            return skipped;
                          }()) +
           " egds participate)\n";
  } else if (has_egds) {
    out += "skipped (every egd is dead or effect-free)\n";
  } else {
    out += "skipped (no egds)\n";
  }

  // Self-loops mark recursive rules; multi-rule strata are cycles.
  std::unordered_set<std::size_t> self_loop;
  for (const ScheduleEdge& edge : edges) {
    if (edge.from == edge.to) self_loop.insert(edge.from);
  }
  for (std::size_t s = 0; s < strata.size(); ++s) {
    out += "  stratum " + std::to_string(s) + ":";
    for (std::size_t id : strata[s]) {
      const ScheduleRule& rule = rules[id];
      out += " " + RuleDisplay(rule);
      if (strata[s].size() == 1 && self_loop.count(id) != 0) {
        out += " (recursive)";
      }
    }
    if (strata[s].size() > 1) out += " (cycle)";
    out += "\n";
  }

  bool any_skipped = false;
  for (const ScheduleRule& rule : rules) {
    if (rule.live && !rule.effect_free) continue;
    if (!any_skipped) {
      out += "skipped rules:\n";
      any_skipped = true;
    }
    out += "  " + RuleDisplay(rule) + ": " + rule.skip_reason + "\n";
  }

  if (!edges.empty()) {
    out += "justification edges:\n";
    for (const ScheduleEdge& edge : edges) {
      out += "  " + RuleDisplay(rules[edge.from]) + " -> " +
             RuleDisplay(rules[edge.to]);
      if (edge.reason == ScheduleEdgeReason::kFeeds) {
        out += " (feeds '" + edge.relation + "')";
      } else {
        out += " (may rewrite nulls in '" + edge.relation + "')";
      }
      out += "\n";
    }
  }
  return out;
}

std::string ChaseSchedule::ToJson() const {
  std::string out = "{\"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const ScheduleRule& rule = rules[i];
    if (i > 0) out += ", ";
    out += "{\"id\": " + std::to_string(i) + ", \"kind\": \"" +
           std::string(ScheduleRuleKindName(rule.kind)) + "\", \"index\": " +
           std::to_string(rule.index) + ", \"name\": \"" +
           JsonEscape(rule.name) + "\", \"stratum\": " +
           std::to_string(rule.stratum) + ", \"live\": " +
           (rule.live ? "true" : "false") + ", \"effect_free\": " +
           (rule.effect_free ? "true" : "false");
    if (!rule.skip_reason.empty()) {
      out += ", \"skip_reason\": \"" + JsonEscape(rule.skip_reason) + "\"";
    }
    out += "}";
  }
  out += "], \"strata\": [";
  for (std::size_t s = 0; s < strata.size(); ++s) {
    if (s > 0) out += ", ";
    out += "[";
    for (std::size_t k = 0; k < strata[s].size(); ++k) {
      if (k > 0) out += ", ";
      out += std::to_string(strata[s][k]);
    }
    out += "]";
  }
  out += "], \"edges\": [";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const ScheduleEdge& edge = edges[i];
    if (i > 0) out += ", ";
    out += "{\"from\": " + std::to_string(edge.from) + ", \"to\": " +
           std::to_string(edge.to) + ", \"reason\": \"" +
           std::string(EdgeReasonName(edge.reason)) + "\", \"relation\": \"" +
           JsonEscape(edge.relation) + "\"}";
  }
  out += "], \"egd_fixpoint\": \"";
  out += egd_fixpoint_live() ? "live" : "skipped";
  out += "\"}";
  return out;
}

}  // namespace tdx
