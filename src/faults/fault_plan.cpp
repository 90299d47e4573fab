#include "faults/fault_plan.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ag::faults {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("FaultPlan: " + what);
}

}  // namespace

namespace {

// "crashes[3]" — every rejection names the offending plan entry so a bad
// sweep points straight at it instead of at "a node somewhere".
[[nodiscard]] std::string at(const char* list, std::size_t index) {
  return std::string(list) + "[" + std::to_string(index) + "]";
}

}  // namespace

void FaultPlan::validate(std::size_t node_count) const {
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const CrashEvent& e = crashes[i];
    if (e.node >= node_count) {
      fail(at("crashes", i) + " targets node " + std::to_string(e.node) +
           " but the network has " + std::to_string(node_count) + " nodes");
    }
    if (e.at_s < 0.0) fail(at("crashes", i) + " time must be non-negative");
  }
  // Per-node crash intervals must not overlap or even touch: a node
  // cannot crash while it is already down, and a crash landing on the
  // exact reboot instant is ambiguous (the event queue is FIFO at equal
  // timestamps, so the crash could fire before the reboot and be lost).
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < crashes.size(); ++j) {
      const CrashEvent& a = crashes[i];
      const CrashEvent& b = crashes[j];
      if (a.node != b.node) continue;
      const double a_end = a.down_for_s <= 0.0 ? std::numeric_limits<double>::infinity()
                                               : a.at_s + a.down_for_s;
      const double b_end = b.down_for_s <= 0.0 ? std::numeric_limits<double>::infinity()
                                               : b.at_s + b.down_for_s;
      if (a.at_s <= b_end && b.at_s <= a_end) {
        fail(at("crashes", j) + " crashes node " + std::to_string(a.node) +
             " while " + at("crashes", i) + " still has it down");
      }
    }
  }
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const PartitionEvent& e = partitions[i];
    if (e.at_s < 0.0) fail(at("partitions", i) + " time must be non-negative");
    if (e.heal_after_s <= 0.0) {
      fail(at("partitions", i) + " heal_after_s must be positive");
    }
  }
  // Same closed-interval rule as crashes: a cut starting at the exact
  // heal instant of another could fire before that heal and be lost.
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    for (std::size_t j = i + 1; j < partitions.size(); ++j) {
      const PartitionEvent& a = partitions[i];
      const PartitionEvent& b = partitions[j];
      if (a.at_s <= b.at_s + b.heal_after_s && b.at_s <= a.at_s + a.heal_after_s) {
        fail(at("partitions", j) + " overlaps or touches " + at("partitions", i) +
             "; the channel models a single cut at a time");
      }
    }
  }
  for (std::size_t i = 0; i < membership.size(); ++i) {
    const MembershipEvent& e = membership[i];
    if (e.node >= node_count) {
      fail(at("membership", i) + " targets node " + std::to_string(e.node) +
           " but the network has " + std::to_string(node_count) + " nodes");
    }
    if (e.at_s < 0.0) fail(at("membership", i) + " time must be non-negative");
  }
  for (std::size_t i = 0; i < adversaries.size(); ++i) {
    const AdversaryAssignment& e = adversaries[i];
    if (e.node >= node_count) {
      fail(at("adversaries", i) + " targets node " + std::to_string(e.node) +
           " but the network has " + std::to_string(node_count) + " nodes");
    }
    if (e.drop_fraction < 0.0 || e.drop_fraction > 1.0) {
      fail(at("adversaries", i) + " drop_fraction must be in [0, 1]");
    }
    for (std::size_t j = i + 1; j < adversaries.size(); ++j) {
      if (adversaries[j].node == e.node) {
        fail(at("adversaries", j) + " re-assigns node " + std::to_string(e.node) +
             " already compromised by " + at("adversaries", i));
      }
    }
  }
}

void synthesize_into(FaultPlan& plan, const FaultSpec& spec, std::size_t node_count,
                     std::size_t member_count, std::size_t source_index,
                     double duration_s, sim::Rng rng) {
  // Churn: leave+rejoin cycles drawn uniformly over the middle of the
  // run, one member (never the source) per cycle. Cycle start times are
  // sorted so the per-member disjointness bookkeeping works in time
  // order, and a busy member is redrawn a few times rather than dropped —
  // otherwise the realized churn would fall systematically short of
  // spec.churn_per_min.
  if (spec.churn_per_min > 0.0 && member_count > 1) {
    const auto cycles = static_cast<std::size_t>(spec.churn_per_min * duration_s / 60.0 + 0.5);
    std::vector<double> at_s(cycles);
    for (double& t : at_s) t = rng.uniform(0.15 * duration_s, 0.85 * duration_s);
    std::sort(at_s.begin(), at_s.end());
    std::vector<double> busy_until(member_count, 0.0);
    for (const double at : at_s) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        // Uniform over the members excluding the source.
        auto member = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(member_count) - 2));
        if (source_index < member_count && member >= source_index) ++member;
        if (at < busy_until[member]) continue;  // mid-cycle; redraw
        busy_until[member] = at + spec.churn_downtime_s;
        plan.leave(member, at);
        const double back = at + spec.churn_downtime_s;
        if (back < duration_s) plan.join(member, back);
        break;
      }
    }
  }

  // Crashes: a fixed fraction of distinct non-source nodes, each crashed
  // once somewhere in the middle of the run.
  if (spec.crash_fraction > 0.0 && node_count > 1) {
    std::vector<std::size_t> candidates;
    candidates.reserve(node_count - 1);
    for (std::size_t i = 0; i < node_count; ++i) {
      if (i != source_index) candidates.push_back(i);
    }
    auto victims = static_cast<std::size_t>(
        spec.crash_fraction * static_cast<double>(node_count) + 0.5);
    victims = std::min(victims, candidates.size());
    // Partial Fisher-Yates: the first `victims` entries end up a uniform
    // sample without replacement.
    for (std::size_t i = 0; i < victims; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(candidates.size()) - 1));
      std::swap(candidates[i], candidates[j]);
      const double at = rng.uniform(0.2 * duration_s, 0.7 * duration_s);
      plan.crash(candidates[i], at, spec.crash_downtime_s, kCrashPolicy);
    }
  }

  // One partition episode, centered in the run.
  if (spec.partition_duration_s > 0.0) {
    const double at = std::max(0.0, (duration_s - spec.partition_duration_s) / 2.0);
    plan.partition_at_x(-1.0, at, spec.partition_duration_s);
  }
}

void synthesize_adversaries_into(FaultPlan& plan, const FaultSpec& spec,
                                 std::size_t node_count, std::size_t source_index,
                                 sim::Rng rng) {
  if (!spec.adversaries_any() || node_count < 2) return;
  std::vector<std::size_t> candidates;
  candidates.reserve(node_count - 1);
  for (std::size_t i = 0; i < node_count; ++i) {
    if (i != source_index) candidates.push_back(i);
  }
  auto compromised = static_cast<std::size_t>(
      spec.adversary_fraction * static_cast<double>(node_count) + 0.5);
  compromised = std::min(compromised, candidates.size());
  // Partial Fisher-Yates, same idiom as crash synthesis: the first
  // `compromised` entries end up a uniform sample without replacement.
  for (std::size_t i = 0; i < compromised; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(candidates.size()) - 1));
    std::swap(candidates[i], candidates[j]);
    plan.adversary(candidates[i], spec.adversary_mode, spec.adversary_drop);
  }
}

}  // namespace ag::faults
