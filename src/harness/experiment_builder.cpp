#include "harness/experiment_builder.h"

#include <atomic>
#include <iomanip>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/atomic_io.h"
#include "harness/interrupt.h"
#include "harness/protocol_registry.h"

namespace ag::harness {

namespace {

ExperimentBuilder::ApplyFn named_knob(const std::string& param) {
  if (param == "range_m") {
    return [](ScenarioConfig& c, double x) { c.with_range(x); };
  }
  if (param == "max_speed_mps") {
    return [](ScenarioConfig& c, double x) { c.with_max_speed(x); };
  }
  if (param == "node_count") {
    return [](ScenarioConfig& c, double x) {
      c.with_nodes(static_cast<std::size_t>(x));
    };
  }
  if (param == "member_fraction") {
    return [](ScenarioConfig& c, double x) { c.member_fraction = x; };
  }
  if (param == "gossip_interval_ms") {
    return [](ScenarioConfig& c, double x) {
      c.gossip.round_interval = sim::Duration::ms(static_cast<std::int64_t>(x));
    };
  }
  // Fault axes (see faults::FaultSpec): membership churn rate, crashed
  // node fraction, and partition episode length.
  if (param == "churn_per_min") {
    return [](ScenarioConfig& c, double x) { c.faults.spec.churn_per_min = x; };
  }
  if (param == "crash_fraction") {
    return [](ScenarioConfig& c, double x) { c.faults.spec.crash_fraction = x; };
  }
  if (param == "partition_s") {
    return [](ScenarioConfig& c, double x) { c.faults.spec.partition_duration_s = x; };
  }
  // DTN/session axes: custody store budget in messages (0 disables the
  // custody tier entirely) and the user duty-cycle fraction.
  if (param == "custody_max_msgs") {
    return [](ScenarioConfig& c, double x) {
      c.custody.enabled = x > 0.0;
      c.custody.max_messages = static_cast<std::uint32_t>(x);
    };
  }
  if (param == "session_duty") {
    return [](ScenarioConfig& c, double x) { c.sessions.duty = x; };
  }
  // Adversary axis: fraction of nodes compromised (mode/trust come from
  // the base config — with_adversaries / with_trust).
  if (param == "adversary_fraction") {
    return [](ScenarioConfig& c, double x) { c.faults.spec.adversary_fraction = x; };
  }
  throw std::invalid_argument(
      "unknown sweep parameter \"" + param +
      "\" (known: range_m, max_speed_mps, node_count, member_fraction, "
      "gossip_interval_ms, churn_per_min, crash_fraction, partition_s, "
      "custody_max_msgs, session_duty, adversary_fraction); use "
      "Experiment::sweep(param, values, apply) for custom knobs");
}

}  // namespace

ExperimentBuilder::ExperimentBuilder(std::string param, std::vector<double> values)
    : param_{std::move(param)}, values_{std::move(values)}, apply_{named_knob(param_)} {}

ExperimentBuilder::ExperimentBuilder(std::string param, std::vector<double> values,
                                     ApplyFn apply)
    : param_{std::move(param)}, values_{std::move(values)}, apply_{std::move(apply)} {}

ExperimentBuilder& ExperimentBuilder::base(ScenarioConfig config) {
  base_ = config;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::protocols(std::vector<Protocol> protocols) {
  protocols_ = std::move(protocols);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seeds(std::uint32_t n) {
  seeds_ = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::parallel(unsigned threads) {
  threads_ = threads == 0 ? std::thread::hardware_concurrency() : threads;
  if (threads_ == 0) threads_ = 1;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::name(std::string experiment_name) {
  name_ = std::move(experiment_name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::on_progress(
    std::function<void(std::size_t, std::size_t)> fn) {
  progress_ = std::move(fn);
  return *this;
}

std::vector<Protocol> ExperimentBuilder::resolved_protocols() const {
  if (!protocols_.empty()) return protocols_;
  return {base_.protocol};
}

std::uint32_t ExperimentBuilder::resolved_seeds() const {
  return seeds_ == 0 ? seeds_from_env() : seeds_;
}

std::size_t ExperimentBuilder::cell_count() const {
  return resolved_protocols().size() * values_.size() * resolved_seeds();
}

ExperimentBuilder::Cell ExperimentBuilder::cell(std::size_t index) const {
  const std::vector<Protocol> protocols = resolved_protocols();
  const std::uint32_t seeds = resolved_seeds();
  const std::size_t per_protocol = values_.size() * seeds;
  if (index >= protocols.size() * per_protocol) {
    throw std::out_of_range("ExperimentBuilder: cell index " +
                            std::to_string(index) + " out of range (grid has " +
                            std::to_string(protocols.size() * per_protocol) +
                            " cells)");
  }
  return {protocols[index / per_protocol], values_[(index % per_protocol) / seeds],
          static_cast<std::uint32_t>(index % seeds) + 1};
}

CellId ExperimentBuilder::cell_id(std::size_t index) const {
  const Cell at = cell(index);
  return {ProtocolRegistry::instance().name_of(at.protocol), at.x, at.seed};
}

stats::RunResult ExperimentBuilder::run_cell(std::size_t index) const {
  const Cell at = cell(index);
  ScenarioConfig c = base_;
  apply_(c, at.x);
  c.with_protocol(at.protocol);
  c.with_seed(at.seed);
  return run_scenario(c);
}

ExperimentResult ExperimentBuilder::assemble(
    std::vector<std::optional<stats::RunResult>> cells, ShardingInfo sharding) const {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const std::vector<Protocol> protocols = resolved_protocols();
  const std::uint32_t seeds = resolved_seeds();
  const std::size_t runs_per_point = seeds;
  cells.resize(protocols.size() * values_.size() * runs_per_point);

  ExperimentResult out;
  out.name = name_;
  out.param = param_;
  out.seeds = seeds;
  out.sharding = std::move(sharding);
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    FigureSeries series{registry.name_of(protocols[p]), {}};
    for (std::size_t v = 0; v < values_.size(); ++v) {
      const std::size_t base_slot = (p * values_.size() + v) * runs_per_point;
      // Failed shards leave holes: their seeds drop out of the point's
      // aggregate (degraded but honest — the run never aborts).
      std::vector<stats::RunResult> runs;
      runs.reserve(runs_per_point);
      for (std::size_t s = 0; s < runs_per_point; ++s) {
        if (cells[base_slot + s].has_value()) {
          runs.push_back(std::move(*cells[base_slot + s]));
        }
      }
      series.points.push_back(aggregate_point(values_[v], std::move(runs)));
    }
    out.series.push_back(std::move(series));
  }
  return out;
}

ExperimentResult ExperimentBuilder::run() const {
  const std::size_t total = cell_count();
  std::vector<std::optional<stats::RunResult>> results(total);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  auto worker = [&] {
    while (!interrupt_requested()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= total) return;
      results[i] = run_cell(i);
      const std::size_t completed = done.fetch_add(1) + 1;
      if (progress_) progress_(completed, total);
    }
  };

  const unsigned threads =
      static_cast<unsigned>(std::min<std::size_t>(threads_, total));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  return assemble(std::move(results));
}

void ExperimentResult::print(const std::string& title, const std::string& x_label) const {
  print_figure(title, x_label, series);
}

bool ExperimentResult::write_csv(const std::string& path) const {
  return write_figure_csv(path, series);
}

bool ExperimentResult::write_json(const std::string& path) const {
  AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << std::setprecision(12);
  out << "{\n";
  out << "  \"experiment\": \"" << json_escaped(name) << "\",\n";
  out << "  \"param\": \"" << json_escaped(param) << "\",\n";
  out << "  \"seeds\": " << seeds << ",\n";
  out << "  \"series\": [\n";
  for (std::size_t s = 0; s < series.size(); ++s) {
    out << "    {\"name\": \"" << json_escaped(series[s].name) << "\", \"points\": [\n";
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      const SeriesPoint& p = series[s].points[i];
      out << "      {\"x\": " << p.x;
      // Each group prints where the point carries it: custody, sessions
      // and adversary fields only when a run had that subsystem, so
      // figures without them keep their pre-subsystem bytes.
      write_point_fields(out, p, p.groups);
      out << "}" << (i + 1 < series[s].points.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (s + 1 < series.size() ? "," : "") << "\n";
  }
  // Degraded sharded runs only: a sharded run whose every cell completed
  // (even after retries) emits no section here, so its JSON stays
  // byte-identical to the in-process serial run.
  if (!sharding.failed.empty()) {
    out << "  ],\n";
    out << "  \"sharding\": {\"shards\": " << sharding.shards
        << ", \"retried\": " << sharding.retried
        << ", \"failed\": " << sharding.failed.size()
        << ", \"failed_shards\": [\n";
    for (std::size_t f = 0; f < sharding.failed.size(); ++f) {
      const FailedShard& fs = sharding.failed[f];
      out << "    {\"shard\": " << fs.shard << ", \"protocol\": \""
          << json_escaped(fs.cell.protocol) << "\", \"x\": " << fs.cell.x
          << ", \"seed\": " << fs.cell.seed << ", \"attempts\": " << fs.attempts
          << ", \"reason\": \"" << json_escaped(fs.reason) << "\"}"
          << (f + 1 < sharding.failed.size() ? "," : "") << "\n";
    }
    out << "  ]}\n";
  } else {
    out << "  ]\n";
  }
  out << "}\n";
  return file.commit();
}

}  // namespace ag::harness
