// Multi-seed experiment driver: runs one configuration across seeds and
// aggregates per-member delivery exactly the way the paper's figures do
// (average line + min/max error bars over the full set of receivers).
#ifndef AG_HARNESS_EXPERIMENT_H
#define AG_HARNESS_EXPERIMENT_H

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/network.h"
#include "harness/scenario.h"
#include "stats/run_result.h"
#include "stats/run_schema.h"
#include "stats/summary.h"

namespace ag::harness {

struct SeriesPoint {
  double x{0.0};            // swept parameter value
  stats::Summary received;  // per-member received packets, pooled over every
                            // member of every seed
  std::vector<stats::FieldMean> means;  // seed mean of every folded schema
                                        // field, in schema order
  stats::Groups groups{0};  // schema groups this point carries
  std::vector<stats::RunResult> runs;   // raw results (one per seed)

  // Seed mean of the schema field `key`; throws std::out_of_range when no
  // schema line folds that key.
  [[nodiscard]] double mean(std::string_view key) const;
};

// Folds per-seed results (in seed order) into one point, field by field as
// stats/run_schema.h says. Shared by the serial run_point and the parallel
// ExperimentBuilder so both produce bit-identical aggregates for the same
// seeds. A point with no runs (every seed failed) reports an empty run.
[[nodiscard]] SeriesPoint aggregate_point(double x, std::vector<stats::RunResult> runs);

// Writes the fields of `groups` in point `p` as `, "key": value` pairs:
// group by group in stats::Group order, the summary group's receive
// summary first, then each group's folded fields in schema order. Numbers
// print at the stream's precision.
void write_point_fields(std::ostream& out, const SeriesPoint& p, stats::Groups groups);

// `s` as the body of a JSON string literal.
[[nodiscard]] std::string json_escaped(std::string_view s);

// Runs `config` with seeds 1..seeds and aggregates.
[[nodiscard]] SeriesPoint run_point(ScenarioConfig config, std::uint32_t seeds, double x);

// Number of seeds per point: AG_SEEDS env var, else `fallback`. Zero,
// negative, or non-numeric AG_SEEDS values are rejected with a warning on
// stderr instead of silently running zero seeds.
[[nodiscard]] std::uint32_t seeds_from_env(std::uint32_t fallback = 5);

}  // namespace ag::harness

#endif  // AG_HARNESS_EXPERIMENT_H
