#include "src/analysis/schedule.h"

#include <unordered_set>
#include <utility>

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

obs::Json ChaseSchedule::ToJson() const {
  using obs::Json;
  Json rules_json = Json::Array();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const ScheduleRule& rule = rules[i];
    Json object = Json::Object();
    object.Set("id", Json::Uint(i));
    object.Set("kind", Json::Str(std::string(ScheduleRuleKindName(rule.kind))));
    object.Set("index", Json::Uint(rule.index));
    object.Set("name", Json::Str(rule.name));
    object.Set("stratum", Json::Uint(rule.stratum));
    object.Set("live", Json::Bool(rule.live));
    object.Set("effect_free", Json::Bool(rule.effect_free));
    if (!rule.skip_reason.empty()) {
      object.Set("skip_reason", Json::Str(rule.skip_reason));
    }
    rules_json.Append(std::move(object));
  }
  Json strata_json = Json::Array();
  for (const std::vector<std::size_t>& stratum : strata) {
    Json members = Json::Array();
    for (const std::size_t rule : stratum) members.Append(Json::Uint(rule));
    strata_json.Append(std::move(members));
  }
  Json edges_json = Json::Array();
  for (const ScheduleEdge& edge : edges) {
    Json object = Json::Object();
    object.Set("from", Json::Uint(edge.from));
    object.Set("to", Json::Uint(edge.to));
    object.Set("reason", Json::Str(std::string(EdgeReasonName(edge.reason))));
    object.Set("relation", Json::Str(edge.relation));
    edges_json.Append(std::move(object));
  }
  Json out = Json::Object();
  out.Set("rules", std::move(rules_json));
  out.Set("strata", std::move(strata_json));
  out.Set("edges", std::move(edges_json));
  out.Set("egd_fixpoint", Json::Str(egd_fixpoint_live() ? "live" : "skipped"));
  return out;
}

}  // namespace tdx
