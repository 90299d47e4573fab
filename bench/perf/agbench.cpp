// agbench: the simulator's end-to-end and per-layer performance benchmark.
//
//   agbench --seed=S [--workload=NAME] [--seconds=T] [--trace]
//   agbench --self-test
//
// With --workload, runs that workload's fixed list of scenario runs
// back-to-back on one thread, pass after pass, for about T seconds, checks
// every run, and prints one JSON object as its last line of output:
//   {"correct": ..., "attempted": runs, "failed": runs, "metrics": {...}}
// The metrics are the end-to-end ones, or with --trace the per-layer ones:
// exact counts from an untraced pass, and host time per layer from traced
// passes alternating with untraced ones (see seams.h). End-to-end times are
// corrected for the host's changing speed with reference bursts run
// between the scenario runs (see host_speed.h). Without --workload,
// runs every workload in turn, each in its own child process, so each
// reports its own peak memory.
//
// Every run is checked: delivery within [0, 1], no member receiving more
// than it was eligible for, events executed, an identical digest of its
// result on every pass, traced or not, and with --seed=1 a workload digest
// equal to the one in expected_seed1.json. A run failing any check counts
// in `failed`. The benchmark refuses to run when any of the simulator's
// reference-engine escape hatches is active.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/network.h"
#include "host_speed.h"
#include "mac/csma_mac.h"
#include "net/data_plane.h"
#include "phy/channel.h"
#include "seams.h"
#include "sim/event_category.h"
#include "workloads.h"

namespace {

using ag::harness::ScenarioConfig;
using ag::stats::RunResult;
using agbench::Calibration;
using agbench::Tracer;

constexpr std::size_t kMinPasses = 3;

// ------------------------------------------------------------- command line

struct Options {
  std::string workload;  // empty: every workload, one child process each
  std::uint64_t seed{1};
  std::uint32_t seconds{30};
  bool trace{false};
  bool self_test{false};
};

[[noreturn]] void usage_error(const char* exe, const std::string& message) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --seed=S [--workload=NAME] [--seconds=T] [--trace]\n"
               "       %s --self-test\nworkloads:",
               exe, message.c_str(), exe, exe);
  for (const agbench::Workload& w : agbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// A positive decimal integer no larger than `max`, or nullopt.
std::optional<std::uint64_t> parse_positive(const std::string& text, std::uint64_t max) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0 || v > max) return std::nullopt;
  return v;
}

// Flags take their value as --flag=value or as the next argument.
Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      has_value = true;
    }
    const auto take_value = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) usage_error(argv[0], arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = take_value();
      if (agbench::find_workload(opt.workload) == nullptr) {
        usage_error(argv[0], "unknown workload \"" + opt.workload + "\"");
      }
    } else if (arg == "--seed") {
      const std::string text = take_value();
      const auto v = parse_positive(text, std::uint64_t{1} << 32);
      if (!v) usage_error(argv[0], "bad --seed \"" + text + "\"");
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const std::string text = take_value();
      const auto v = parse_positive(text, 3600);
      if (!v) usage_error(argv[0], "bad --seconds \"" + text + "\"");
      opt.seconds = static_cast<std::uint32_t>(*v);
    } else if (arg == "--trace") {
      if (!has_value && i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                         std::strcmp(argv[i + 1], "1") == 0)) {
        value = argv[++i];
        has_value = true;
      }
      if (has_value && value != "0" && value != "1") {
        usage_error(argv[0], "bad --trace \"" + value + "\"");
      }
      opt.trace = !has_value || value == "1";
    } else if (arg == "--self-test" && !has_value) {
      opt.self_test = true;
    } else {
      usage_error(argv[0], "unknown argument \"" + std::string(argv[i]) + "\"");
    }
  }
  return opt;
}

// ------------------------------------------------------------ engine guard

struct EngineModes {
  bool batched_phy = ag::phy::batched_phy_enabled();
  bool batched_backoff = ag::mac::batched_backoff_enabled();
  bool dense_tables = ag::net::dense_tables_enabled();
  bool spatial_index = !ag::phy::spatial_index_env_off();

  [[nodiscard]] bool all_on() const {
    return batched_phy && batched_backoff && dense_tables && spatial_index;
  }
  [[nodiscard]] std::string json() const {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    return std::string("{\"batched_phy\": ") + b(batched_phy) +
           ", \"batched_backoff\": " + b(batched_backoff) +
           ", \"dense_tables\": " + b(dense_tables) +
           ", \"spatial_index\": " + b(spatial_index) + "}";
  }
};

// ------------------------------------------------------------ run checking

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{1469598103934665603ull};
};

// Simulated work of one run, comparable across engine modes: executed
// events plus the MAC and phy events the analytic engines elided, which is
// what the per-event reference engines execute (up to countdowns still
// running at the cutoff).
std::uint64_t effective_events(const RunResult& r) {
  return r.totals.sim_events + r.totals.mac_events_elided() + r.totals.phy_events_elided();
}

// The run's behaviour: what it delivered, and every counter that is the
// same in every engine mode. Engine bookkeeping is left out -- events
// executed or elided, backoff slots credited (the analytic MAC credits a
// countdown still running at the cutoff later than the per-slot one), table
// probes, packet-pool hits -- so a change that makes the simulator faster
// without changing what it simulates keeps the digest.
std::uint64_t digest_of(const RunResult& r) {
  Digest d;
  d.add(r.seed);
  d.add(std::uint64_t{r.packets_sent});
  for (const ag::stats::MemberResult& m : r.members) {
    d.add(std::uint64_t{m.node.value()});
    d.add(m.received);
    d.add(m.via_gossip);
    d.add(m.replies_received);
    d.add(m.replies_useful);
    d.add(m.eligible);
    d.add(m.mean_latency_s);
  }
  const ag::stats::NetworkTotals& t = r.totals;
  for (const std::uint64_t v :
       {t.channel_transmissions, t.phy_deliveries, t.phy_suppressed_down,
        t.phy_suppressed_partition, t.mac_unicast, t.mac_broadcast, t.mac_collisions,
        t.mac_queue_drops, t.rreq_originated, t.rerr_sent, t.grph_sent, t.mact_sent,
        t.data_forwarded, t.gossip_walks, t.gossip_replies, t.nm_updates,
        t.repairs_started, t.partitions, t.leaders_elected}) {
    d.add(v);
  }
  const ag::stats::FaultStats& f = r.faults;
  for (const std::uint64_t v : {f.crashes, f.reboots, f.leaves, f.joins, f.partitions, f.heals}) {
    d.add(v);
  }
  d.add(f.node_down_s);
  d.add(f.partitioned_s);
  return d.value();
}

// Empty when the result is plausible; otherwise what is wrong with it.
std::string check_invariants(const RunResult& r) {
  const double delivery = r.delivery_ratio();
  if (!(delivery >= 0.0 && delivery <= 1.0)) {
    return "delivery ratio " + std::to_string(delivery) + " outside [0, 1]";
  }
  for (const ag::stats::MemberResult& m : r.members) {
    if (m.received > r.eligible_of(m)) {
      return "member " + std::to_string(m.node.value()) + " received " +
             std::to_string(m.received) + " of " + std::to_string(r.eligible_of(m)) +
             " eligible";
    }
  }
  if (r.totals.sim_events == 0) return "no simulator events executed";
  return {};
}

// ------------------------------------------------------------ timed passes

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(agbench::now_ns() - t0_ns) * 1e-9;
}

struct RunOutcome {
  RunResult result;
  std::uint64_t digest{0};
  double setup_s{0.0};      // Network construction
  double wall_s{0.0};       // construction, run, result and teardown
  double reference_s{0.0};  // the reference bursts just before and after
  std::string error;        // empty when every check on the run itself passed
};

RunOutcome run_one(const ScenarioConfig& config, Tracer* tracer) {
  RunOutcome out;
  const std::int64_t t0 = agbench::now_ns();
  try {
    ag::harness::Network net{config};
    std::optional<agbench::MacSeam> mac_seam;
    if (tracer != nullptr) mac_seam.emplace(*tracer, net);
    out.setup_s = seconds_since(t0);
    net.run();
    out.result = net.result();
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  out.wall_s = seconds_since(t0);
  if (!out.error.empty()) return out;
  out.digest = digest_of(out.result);
  out.error = check_invariants(out.result);
  return out;
}

struct Pass {
  double wall_s{0.0};     // the runs' host time
  double elapsed_s{0.0};  // the whole pass, reference bursts included
  std::vector<RunOutcome> runs;
};

// Runs every config once, with a reference burst before the first run and
// after each.
Pass run_pass(const std::vector<ScenarioConfig>& configs, Tracer* tracer) {
  std::vector<ag::harness::Protocol> protocols;
  for (const ScenarioConfig& c : configs) protocols.push_back(c.protocol);
  std::optional<agbench::RouterSeam> router_seam;
  if (tracer != nullptr) router_seam.emplace(*tracer, protocols);
  Pass pass;
  pass.runs.reserve(configs.size());
  const std::int64_t t0 = agbench::now_ns();
  double before = agbench::reference_burst_s();
  for (const ScenarioConfig& c : configs) {
    RunOutcome run = run_one(c, tracer);
    const double after = agbench::reference_burst_s();
    run.reference_s = 0.5 * (before + after);
    before = after;
    pass.wall_s += run.wall_s;
    pass.runs.push_back(std::move(run));
  }
  pass.elapsed_s = seconds_since(t0);
  return pass;
}

// The times of every run over all passes of one kind, traced or not, in
// seconds of the baseline machine: each host time is scaled by the
// reference bursts' baseline time over their time beside the run (see
// host_speed.h). The other tenants' load slows a run and its bursts alike,
// so the scaled times hold steady where the host times swing by up to 1.9x.
// Passes repeat identical work, and each run's median over them is what
// the metrics sum.
struct Timings {
  std::vector<double> pass_walls;               // host seconds of the runs
  std::vector<double> pass_elapsed;             // host seconds, bursts included
  std::vector<double> references;               // every run's reference_s
  std::vector<std::vector<double>> run_walls;   // [run][pass]
  std::vector<std::vector<double>> run_setups;  // [run][pass]

  void add(const Pass& pass) {
    pass_walls.push_back(pass.wall_s);
    pass_elapsed.push_back(pass.elapsed_s);
    run_walls.resize(pass.runs.size());
    run_setups.resize(pass.runs.size());
    for (std::size_t k = 0; k < pass.runs.size(); ++k) {
      const RunOutcome& run = pass.runs[k];
      const double scale = agbench::kReferenceBurstBaselineS / run.reference_s;
      references.push_back(run.reference_s);
      run_walls[k].push_back(run.wall_s * scale);
      run_setups[k].push_back(run.setup_s * scale);
    }
  }
  // Each run's median time, summed.
  [[nodiscard]] double pass_s() const { return sum_of_medians(run_walls); }
  // Each run's median set-up time, summed.
  [[nodiscard]] double setup_s() const { return sum_of_medians(run_setups); }

 private:
  static double sum_of_medians(const std::vector<std::vector<double>>& per_run) {
    double s = 0.0;
    for (const std::vector<double>& v : per_run) s += median(v);
    return s;
  }
};

// Runs attempted and failed, with the first few reasons.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;

  // Checks a pass against the reference pass's digests (none for the
  // reference pass itself).
  void check(const Pass& pass, const std::vector<std::uint64_t>* reference,
             const char* label) {
    for (std::size_t k = 0; k < pass.runs.size(); ++k) {
      const RunOutcome& run = pass.runs[k];
      ++attempted;
      std::string error = run.error;
      if (error.empty() && reference != nullptr && run.digest != (*reference)[k]) {
        error = "digest differs from the first untraced pass";
      }
      if (error.empty()) continue;
      ++failed;
      if (errors.size() < 8) {
        // Printed inside a JSON string.
        std::replace(error.begin(), error.end(), '"', '\'');
        std::replace(error.begin(), error.end(), '\\', '/');
        errors.push_back(std::string(label) + " run " + std::to_string(k) + ": " + error);
      }
    }
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// The expected digest of `workload` at seed 1, from expected_seed1.json.
std::optional<std::string> golden_digest(const std::string& workload) {
  std::ifstream in{AGBENCH_GOLDEN_FILE};
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string key = "\"" + workload + "\"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t open = text.find('"', text.find(':', at + key.size()));
  const std::size_t close = open == std::string::npos ? open : text.find('"', open + 1);
  if (close == std::string::npos) return std::nullopt;
  return text.substr(open + 1, close - open - 1);
}

// ----------------------------------------------------------------- metrics

// The process's peak resident memory (VmHWM). getrusage's ru_maxrss would
// not do: Linux carries the pre-exec image's peak into it, so a parent
// larger than the benchmark, such as the Python runner, would show through.
double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class MetricWriter {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    add_raw(name, buf, unit);
  }
  void add(const std::string& name, std::uint64_t value, const char* unit) {
    add_raw(name, std::to_string(value), unit);
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  void add_raw(const std::string& name, const std::string& value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + unit + "\"}";
  }
  std::string body_;
};

// Exact per-layer counts, summed over one pass's runs.
void add_counts(MetricWriter& m, const Pass& pass) {
  ag::stats::NetworkTotals sum;
  std::uint64_t effective = 0;
  std::uint64_t slots_elided = 0;
  double delivery = 0.0;
  double latency_sum_s = 0.0;
  std::uint64_t received = 0;
  std::uint64_t via_gossip = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t replies_useful = 0;
  std::uint64_t crashes = 0;
  std::uint64_t partitions = 0;
  for (const RunOutcome& run : pass.runs) {
    const RunResult& r = run.result;
    const ag::stats::NetworkTotals& t = r.totals;
    effective += effective_events(r);
    sum.sim_events += t.sim_events;
    for (std::size_t c = 0; c < ag::sim::kEventCategoryCount; ++c) {
      sum.ev_executed[c] += t.ev_executed[c];
    }
    sum.channel_transmissions += t.channel_transmissions;
    sum.phy_deliveries += t.phy_deliveries;
    sum.phy_rx_elided += t.phy_rx_elided;
    sum.phy_rx_coalesced += t.phy_rx_coalesced;
    slots_elided += t.mac_slots_elided();
    sum.mac_difs_elided += t.mac_difs_elided;
    sum.mac_collisions += t.mac_collisions;
    sum.mac_queue_drops += t.mac_queue_drops;
    sum.mac_unicast += t.mac_unicast;
    sum.mac_broadcast += t.mac_broadcast;
    sum.table_probes += t.table_probes;
    sum.pool_hits += t.pool_hits;
    sum.pool_misses += t.pool_misses;
    sum.rreq_originated += t.rreq_originated;
    sum.data_forwarded += t.data_forwarded;
    sum.repairs_started += t.repairs_started;
    sum.grph_sent += t.grph_sent;
    sum.gossip_walks += t.gossip_walks;
    sum.gossip_replies += t.gossip_replies;
    delivery += r.delivery_ratio();
    for (const ag::stats::MemberResult& mr : r.members) {
      received += mr.received;
      via_gossip += mr.via_gossip;
      replies_received += mr.replies_received;
      replies_useful += mr.replies_useful;
      latency_sum_s += mr.mean_latency_s * static_cast<double>(mr.received);
    }
    crashes += r.faults.crashes;
    partitions += r.faults.partitions;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m.add("sim.events", sum.sim_events, "count");
  m.add("sim.effective_events", effective, "count");
  for (std::size_t c = 0; c < ag::sim::kEventCategoryCount; ++c) {
    m.add(std::string("sim.executed.") + ag::sim::event_category_name(c), sum.ev_executed[c],
          "count");
  }
  m.add("phy.transmissions", sum.channel_transmissions, "count");
  m.add("phy.deliveries", sum.phy_deliveries, "count");
  m.add("phy.rx_elided", sum.phy_rx_elided, "count");
  m.add("phy.rx_coalesced", sum.phy_rx_coalesced, "count");
  m.add("phy.elided_share", ratio(d(sum.phy_rx_elided + sum.phy_rx_coalesced),
                                  d(sum.phy_deliveries)), "ratio");
  m.add("mac.slots_elided", slots_elided, "count");
  m.add("mac.difs_elided", sum.mac_difs_elided, "count");
  m.add("mac.collisions", sum.mac_collisions, "count");
  m.add("mac.queue_drops", sum.mac_queue_drops, "count");
  m.add("mac.unicast", sum.mac_unicast, "count");
  m.add("mac.broadcast", sum.mac_broadcast, "count");
  m.add("net.table_probes", sum.table_probes, "count");
  m.add("net.pool_hits", sum.pool_hits, "count");
  m.add("net.pool_misses", sum.pool_misses, "count");
  m.add("net.pool_hit_ratio", ratio(d(sum.pool_hits), d(sum.pool_hits + sum.pool_misses)),
        "ratio");
  m.add("router.rreq_originated", sum.rreq_originated, "count");
  m.add("router.data_forwarded", sum.data_forwarded, "count");
  m.add("router.repairs_started", sum.repairs_started, "count");
  m.add("router.grph_sent", sum.grph_sent, "count");
  m.add("gossip.walks", sum.gossip_walks, "count");
  m.add("gossip.replies", sum.gossip_replies, "count");
  m.add("gossip.useful_reply_ratio", ratio(d(replies_useful), d(replies_received)), "ratio");
  m.add("gossip.recovered_share", ratio(d(via_gossip), d(received)), "ratio");
  m.add("faults.crashes", crashes, "count");
  m.add("faults.partitions", partitions, "count");
  // What the paper reports: mean delivery ratio over the runs, and the mean
  // simulated latency of every delivered packet.
  m.add("app.delivery_ratio", delivery / d(pass.runs.size()), "ratio");
  m.add("app.latency_ms_mean", 1e3 * ratio(latency_sum_s, d(received)), "ms");
}

// ---------------------------------------------------------------- workload

int run_workload(const agbench::Workload& w, const Options& opt, const EngineModes& engine) {
  const std::vector<ScenarioConfig> configs = w.configs(opt.seed);
  const std::int64_t start = agbench::now_ns();
  Tally tally;

  // The first untraced pass is the reference every later pass must match.
  const Pass reference = run_pass(configs, nullptr);
  tally.check(reference, nullptr, "pass 0");
  std::vector<std::uint64_t> digests;
  Digest workload_digest;
  for (const RunOutcome& run : reference.runs) {
    digests.push_back(run.digest);
    workload_digest.add(run.digest);
  }

  Timings plain;
  Timings traced;
  plain.add(reference);
  std::optional<Tracer> tracer;
  Calibration cal;
  if (opt.trace) {
    cal = Tracer::calibrate();
    tracer.emplace();
  }
  // Untraced passes while the longest pass so far still fits in the time
  // left (at least kMinPasses); with --trace, traced and untraced passes
  // alternate (at least two each).
  const auto more = [&] {
    const std::size_t done = plain.pass_walls.size();
    const bool enough = opt.trace ? done >= 2 && traced.pass_walls.size() >= 2
                                  : done >= kMinPasses;
    const double longest = std::max(
        *std::max_element(plain.pass_elapsed.begin(), plain.pass_elapsed.end()),
        traced.pass_elapsed.empty()
            ? 0.0
            : *std::max_element(traced.pass_elapsed.begin(), traced.pass_elapsed.end()));
    return !enough || seconds_since(start) + longest <= opt.seconds;
  };
  while (more()) {
    const bool trace_next = opt.trace && traced.pass_walls.size() < plain.pass_walls.size();
    const std::string label =
        "pass " + std::to_string(plain.pass_walls.size() + traced.pass_walls.size());
    const Pass pass = run_pass(configs, trace_next ? &*tracer : nullptr);
    tally.check(pass, &digests, label.c_str());
    (trace_next ? traced : plain).add(pass);
  }

  std::string golden = "unchecked";
  if (opt.seed == 1) {
    const std::optional<std::string> expected = golden_digest(w.name);
    golden = expected && *expected == hex64(workload_digest.value()) ? "match" : "mismatch";
  }
  const bool correct = tally.failed == 0 && golden != "mismatch";

  MetricWriter m;
  std::string seams;
  if (!opt.trace) {
    // Receptions (frame-receiver pairs the channel delivers) are part of the
    // digest, so a change that keeps behaviour keeps the numerator exactly
    // and the rate measures host time alone. Host cost per reception also
    // varies less between seeds than per effective event, which counts the
    // nearly free elided backoff slots.
    std::uint64_t receptions = 0;
    for (const RunOutcome& run : reference.runs) receptions += run.result.totals.phy_deliveries;
    m.add("receptions_per_s", static_cast<double>(receptions) / plain.pass_s(), "1/s");
    m.add("setup_s", plain.setup_s(), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    add_counts(m, reference);
    const double n = static_cast<double>(traced.pass_walls.size());
    double traced_total = 0.0;
    for (const double t : traced.pass_walls) traced_total += t;
    double layers_s = 0.0;
    for (std::size_t l = 0; l < agbench::kLayerCount; ++l) {
      const double self = tracer->self_s(l, cal) / n;
      const double calls = static_cast<double>(tracer->calls(l)) / n;
      layers_s += self;
      const std::string name = agbench::layer_name(l);
      m.add(name + ".self_s", self, "s");
      m.add(name + ".calls", static_cast<std::uint64_t>(calls + 0.5), "count");
      m.add(name + ".ns_per_call", ratio(self * 1e9, calls), "ns");
    }
    m.add("below_seams.self_s", (traced_total - tracer->overhead_s(cal)) / n - layers_s, "s");
    m.add("harness.setup_s", plain.setup_s(), "s");
    m.add("trace.overhead_ratio", traced.pass_s() / plain.pass_s(), "ratio");
    m.add("trace.span_cost_ns", cal.span_cost_ns(), "ns");
    seams = tracer->seams_json(cal);
  }

  // Detail line for people and for the committed baselines.
  const auto print_walls = [](const char* name, const Timings& t) {
    std::printf(", \"%s_pass_walls_s\": [", name);
    for (std::size_t i = 0; i < t.pass_walls.size(); ++i) {
      std::printf("%s%.6f", i > 0 ? ", " : "", t.pass_walls[i]);
    }
    std::printf("], \"%s_pass_s\": %.6f, \"%s_reference_burst_s\": %.6f", name, t.pass_s(), name,
                median(t.references));
  };
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %s, "
              "\"runs_per_pass\": %zu",
              w.name, opt.seed, opt.trace ? "true" : "false", configs.size());
  print_walls("plain", plain);
  if (opt.trace) print_walls("traced", traced);
  std::printf(", \"digest\": \"%s\", \"golden\": \"%s\", \"engine\": %s, "
              "\"build\": \"%s\", \"errors\": [",
              hex64(workload_digest.value()).c_str(), golden.c_str(), engine.json().c_str(),
              AGBENCH_BUILD_FLAGS);
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", tally.errors[i].c_str());
  }
  std::printf("]%s%s}\n", seams.empty() ? "" : ", \"trace_seams\": ", seams.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed, m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ------------------------------------------------- every workload, in turn

// Runs `exe` with `args` in a child process that shares this one's output;
// returns whether it exited 0.
bool run_child(const char* exe, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("agbench: fork");
    return false;
  }
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    std::perror("agbench: exec");
    _exit(127);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("agbench: waitpid");
      return false;
    }
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int run_all(const char* exe, const Options& opt) {
  bool ok = true;
  for (const agbench::Workload& w : agbench::workloads()) {
    std::vector<std::string> args = {"--workload=" + std::string(w.name),
                                      "--seed=" + std::to_string(opt.seed),
                                      "--seconds=" + std::to_string(opt.seconds)};
    if (opt.trace) args.emplace_back("--trace");
    if (!run_child(exe, args)) {
      std::fprintf(stderr, "agbench: workload %s failed\n", w.name);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

// --------------------------------------------------------------- self-test

// Traced and untraced runs of one small scenario agree bit for bit, and the
// calibrated layer times plus the remainder account for the untraced wall
// time within kAccountedTolerance. On a quiet host the calibrated account
// lands 1-10 % over, and a shared host's load moves it further. The
// tolerance sits well above that range, so it catches a decorator that
// stops timing a layer or a badly-off calibration, not host noise.
constexpr double kAccountedTolerance = 0.20;

int self_test() {
  const std::vector<ScenarioConfig> configs = {agbench::self_test_config(1)};
  const Calibration cal = Tracer::calibrate();
  Tracer tracer;
  constexpr int kPairs = 25;
  std::vector<double> plain;
  std::vector<double> traced;
  std::uint64_t digest = 0;
  int failures = 0;
  for (int i = 0; i < kPairs; ++i) {
    const Pass p = run_pass(configs, nullptr);
    const Pass t = run_pass(configs, &tracer);
    if (i == 0) digest = p.runs[0].digest;
    for (const Pass* pass : {&p, &t}) {
      if (!pass->runs[0].error.empty() || pass->runs[0].digest != digest) {
        std::printf("FAIL pass %d (%s): %s\n", i, pass == &p ? "plain" : "traced",
                    pass->runs[0].error.empty() ? "digest differs"
                                                : pass->runs[0].error.c_str());
        ++failures;
      }
    }
    plain.push_back(p.wall_s);
    traced.push_back(t.wall_s);
  }
  // Layer self times plus below_seams: the traced wall less the tracing cost.
  const double accounted = median(traced) - tracer.overhead_s(cal) / kPairs;
  const double untraced = median(plain);
  std::printf("span cost %.1f ns (self %.1f + child %.1f), call cost %.1f ns; "
              "untraced %.6f s, accounted %.6f s (%+.1f %%)\n",
              cal.span_cost_ns(), cal.self_bias_ns, cal.child_bias_ns, cal.call_cost_ns,
              untraced, accounted, 100.0 * (accounted / untraced - 1.0));
  if (std::abs(accounted / untraced - 1.0) > kAccountedTolerance) {
    std::printf("FAIL accounted time is not within %.0f %% of the untraced wall time\n",
                100.0 * kAccountedTolerance);
    ++failures;
  }
  for (std::size_t l = 0; l < agbench::kLayerCount; ++l) {
    const double self = tracer.self_s(l, cal) / kPairs;
    std::printf("%-7s %10" PRIu64 " calls %.6f s\n", agbench::layer_name(l),
                tracer.calls(l) / kPairs, self);
    if (tracer.calls(l) == 0 || self <= 0.0) {
      std::printf("FAIL layer %s was not traced\n", agbench::layer_name(l));
      ++failures;
    }
  }
  std::printf("%s\n", failures == 0 ? "agbench self-test passed" : "agbench self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const EngineModes engine;
  if (!engine.all_on()) {
    std::fprintf(stderr,
                 "agbench: refusing to measure with a reference engine selected %s; "
                 "unset the AG_* engine escape hatches\n",
                 engine.json().c_str());
    return 3;
  }
  if (opt.self_test) return self_test();
  if (opt.workload.empty()) return run_all(argv[0], opt);
  return run_workload(*agbench::find_workload(opt.workload), opt, engine);
}
