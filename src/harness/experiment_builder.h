// Fluent experiment API over the protocol registry: declare a parameter
// sweep once, run it for any set of protocols across seeds — serially or
// on a thread pool (each Network is self-contained, so seeds parallelize
// freely) — and emit the results as a table, CSV, or machine-readable
// JSON (the BENCH_*.json files).
//
//   auto r = Experiment::sweep("range_m", {45, 55, 65, 75, 85})
//                .protocols({Protocol::maodv_gossip, Protocol::maodv})
//                .seeds(10)
//                .parallel()
//                .run();
//   r.print("Figure 2", "range(m)");
//   r.write_json("BENCH_fig2.json");
//
// The sweep also decomposes into shards — one per (protocol, x, seed)
// cell, indexed in slot order — for the crash-resumable multi-process
// driver (shard_driver.h): `cell_count()/cell_id()/run_cell()` expose the
// grid, and `assemble()` folds per-cell results (with holes for failed
// shards) into the same ExperimentResult `run()` produces, bit-identical
// when every cell is present.
#ifndef AG_HARNESS_EXPERIMENT_BUILDER_H
#define AG_HARNESS_EXPERIMENT_BUILDER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/figure.h"
#include "harness/scenario.h"

namespace ag::harness {

// Identity of one shardable sweep cell: cell index i maps to protocol
// p = i / (values * seeds), value v = (i / seeds) % values, seed
// s = i % seeds + 1 — the exact slot order run() aggregates in.
struct CellId {
  std::string protocol;  // registry name
  double x{0.0};         // swept parameter value
  std::uint32_t seed{0};
};

// One shard that exhausted its retry budget: recorded in the merged
// BENCH JSON's `failed_shards` section instead of aborting the sweep.
struct FailedShard {
  std::size_t shard{0};
  CellId cell;
  std::uint32_t attempts{0};
  std::string reason;  // "exit 134", "timeout after 5 s", "corrupt output"
};

// Sharded-run accounting carried into ExperimentResult. The JSON section
// it feeds is emitted ONLY when shards actually failed: a sharded run
// whose every cell eventually completed (retries included) stays
// byte-identical to the in-process serial run — the repo's equivalence
// discipline. Retry counts for healthy runs live in the manifest journal.
struct ShardingInfo {
  std::uint64_t shards{0};   // cells in the decomposition
  std::uint64_t retried{0};  // attempts beyond the first, across shards
  std::vector<FailedShard> failed;
};

struct ExperimentResult {
  std::string name;       // experiment id ("fig2", "ablation_gossip_rate")
  std::string param;      // swept parameter name
  std::uint32_t seeds{0};
  std::vector<FigureSeries> series;  // one per protocol, registry names
  ShardingInfo sharding;  // empty `failed` on in-process and healthy runs

  // Table and CSV output reuse the figure helpers (CSV lands atomically:
  // temp file + rename).
  void print(const std::string& title, const std::string& x_label) const;
  [[nodiscard]] bool write_csv(const std::string& path) const;
  // Machine-readable series: {"experiment", "param", "seeds", "series":
  // [{"name", "points": [{"x", received stats, delivery, goodput, tx}]}]}.
  // Written atomically (temp file + rename) so an interrupted bench can
  // never leave a truncated BENCH_*.json behind. A trailing "sharding"
  // object (shards/retried/failed counts + per-shard entries) appears
  // only when sharding.failed is non-empty.
  [[nodiscard]] bool write_json(const std::string& path) const;
};

class ExperimentBuilder {
 public:
  using ApplyFn = std::function<void(ScenarioConfig&, double)>;

  // Sweep a named ScenarioConfig knob: "range_m", "max_speed_mps",
  // "node_count", "member_fraction", "gossip_interval_ms", or a fault
  // axis — "churn_per_min", "crash_fraction", "partition_s". Unknown
  // names throw std::invalid_argument immediately.
  ExperimentBuilder(std::string param, std::vector<double> values);
  // Sweep an arbitrary knob: `apply(config, x)` mutates the config.
  ExperimentBuilder(std::string param, std::vector<double> values, ApplyFn apply);

  ExperimentBuilder& base(ScenarioConfig config);
  ExperimentBuilder& protocols(std::vector<Protocol> protocols);
  // Seeds per point; when never set (or set to 0), run() falls back to
  // seeds_from_env().
  ExperimentBuilder& seeds(std::uint32_t n);
  // Run seeds/points/protocols on `threads` workers (0 = one per
  // hardware thread). Results are aggregated in seed order, so parallel
  // runs are bit-identical to serial ones.
  ExperimentBuilder& parallel(unsigned threads = 0);
  ExperimentBuilder& name(std::string experiment_name);
  // Progress callback, invoked (from the coordinating thread in serial
  // runs, worker threads in parallel ones) after each completed seed run.
  ExperimentBuilder& on_progress(std::function<void(std::size_t done, std::size_t total)> fn);

  [[nodiscard]] const std::string& experiment_name() const { return name_; }

  // --- shard decomposition (one cell per protocol × value × seed) ---
  // Cells are indexed in the slot order run() aggregates in, so a merged
  // sharded run reproduces the serial result bit for bit.
  [[nodiscard]] std::size_t cell_count() const;
  // cell_id and run_cell throw std::out_of_range on a bad index.
  [[nodiscard]] CellId cell_id(std::size_t index) const;
  // Runs exactly one cell in-process (the worker half of the sharded
  // driver).
  [[nodiscard]] stats::RunResult run_cell(std::size_t index) const;
  // Folds per-cell results (indexed by cell, holes = failed shards whose
  // seeds are dropped from their point's aggregate) into the result
  // run() would produce. With every cell present and `sharding.failed`
  // empty, the output is bit-identical to run().
  [[nodiscard]] ExperimentResult assemble(
      std::vector<std::optional<stats::RunResult>> cells,
      ShardingInfo sharding = {}) const;

  // In-process run. Polls harness::interrupt_requested() between jobs:
  // on SIGINT/SIGTERM the workers stop claiming cells and run() returns
  // early — callers must check the flag before writing outputs.
  [[nodiscard]] ExperimentResult run() const;

 private:
  [[nodiscard]] std::vector<Protocol> resolved_protocols() const;
  [[nodiscard]] std::uint32_t resolved_seeds() const;
  struct Cell {
    Protocol protocol{};
    double x{0.0};
    std::uint32_t seed{0};
  };
  // Cell `index` of the grid as protocol, swept value and seed; throws
  // std::out_of_range, naming the grid size, on a bad index.
  [[nodiscard]] Cell cell(std::size_t index) const;

  std::string param_;
  std::vector<double> values_;
  ApplyFn apply_;
  ScenarioConfig base_{};
  std::vector<Protocol> protocols_;
  std::uint32_t seeds_{0};  // 0 = unset; resolved via seeds_from_env() in run()
  unsigned threads_{1};
  std::string name_{"experiment"};
  std::function<void(std::size_t, std::size_t)> progress_;
};

// Entry point matching the fluent style: Experiment::sweep(...).run().
class Experiment {
 public:
  [[nodiscard]] static ExperimentBuilder sweep(std::string param,
                                               std::vector<double> values) {
    return ExperimentBuilder{std::move(param), std::move(values)};
  }
  [[nodiscard]] static ExperimentBuilder sweep(std::string param,
                                               std::vector<double> values,
                                               ExperimentBuilder::ApplyFn apply) {
    return ExperimentBuilder{std::move(param), std::move(values), std::move(apply)};
  }
};

}  // namespace ag::harness

#endif  // AG_HARNESS_EXPERIMENT_BUILDER_H
