#include "harness/experiment.h"

#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "sim/env.h"

namespace ag::harness {

namespace {

// Folds one point's runs line by line in schema order: the first run lays
// out one sum per folded line, and every later run visits the same lines
// in the same order, adding into the same sums.
class SeedFolder {
 public:
  void begin_run() { next_ = 0; }

  template <std::size_t N>
  void field(const char* /*key*/, const std::uint64_t (&/*per_run_only*/)[N],
             stats::Group /*group*/, stats::Fold /*fold*/) {}
  void field(const char* key, std::uint64_t v, stats::Group group, stats::Fold fold) {
    if (fold == stats::Fold::floor) add(key, group, v);
    if (fold == stats::Fold::mean) add(key, group, static_cast<double>(v));
  }
  void field(const char* key, double v, stats::Group group, stats::Fold fold) {
    if (fold != stats::Fold::none) add(key, group, v);
  }
  void ratio(const char* key, double v, stats::Group group) { add(key, group, v); }
  void gate(const char* /*key*/, bool on, stats::Groups gated) {
    gated_ |= gated;
    if (on) carried_ |= gated;
  }

  // The sums over `seeds` runs turned into means: integer sums by floor
  // division, double sums exactly.
  [[nodiscard]] std::vector<stats::FieldMean> means(std::size_t seeds) && {
    for (stats::FieldMean& m : sums_) {
      std::visit([seeds](auto& sum) { sum /= static_cast<std::decay_t<decltype(sum)>>(seeds); },
                 m.value);
    }
    return std::move(sums_);
  }
  // Every ungated group, plus the gated groups a run switched on.
  [[nodiscard]] stats::Groups groups() const {
    constexpr stats::Groups kAll = (stats::Groups{1} << stats::kGroupCount) - 1;
    return (kAll & ~gated_) | carried_;
  }

 private:
  template <typename T>
  void add(const char* key, stats::Group group, T v) {
    if (next_ == sums_.size()) sums_.push_back({key, group, T{0}});
    std::get<T>(sums_[next_++].value) += v;
  }

  std::vector<stats::FieldMean> sums_;
  std::size_t next_{0};
  stats::Groups gated_{0};
  stats::Groups carried_{0};
};

}  // namespace

SeriesPoint aggregate_point(double x, std::vector<stats::RunResult> runs) {
  SeriesPoint point;
  point.x = x;
  std::vector<double> all_received;
  for (const stats::RunResult& r : runs) {
    for (double v : r.received_per_member()) all_received.push_back(v);
  }
  point.received = stats::summarize(all_received);
  const std::vector<stats::RunResult> empty_run(1);
  const std::vector<stats::RunResult>& folded = runs.empty() ? empty_run : runs;
  SeedFolder folder;
  for (const stats::RunResult& r : folded) {
    folder.begin_run();
    stats::visit_run_ratios(r, folder);
    stats::visit_totals(r.totals, folder);
  }
  point.groups = folder.groups();
  point.means = std::move(folder).means(folded.size());
  point.runs = std::move(runs);
  return point;
}

double SeriesPoint::mean(std::string_view key) const {
  for (const stats::FieldMean& m : means) {
    if (m.key == key) {
      return std::visit([](auto v) { return static_cast<double>(v); }, m.value);
    }
  }
  throw std::out_of_range("SeriesPoint::mean: no folded field \"" + std::string{key} + "\"");
}

void write_point_fields(std::ostream& out, const SeriesPoint& p, stats::Groups groups) {
  for (unsigned g = 0; g < stats::kGroupCount; ++g) {
    const auto group = static_cast<stats::Group>(g);
    if ((groups & stats::groups_of(group)) == 0) continue;
    if (group == stats::Group::summary) {
      out << ", \"received_mean\": " << p.received.mean
          << ", \"received_min\": " << p.received.min
          << ", \"received_max\": " << p.received.max
          << ", \"received_stddev\": " << p.received.stddev
          << ", \"receivers\": " << p.received.n;
    }
    for (const stats::FieldMean& m : p.means) {
      if (m.group != group) continue;
      out << ", \"" << m.key << "\": ";
      std::visit([&out](auto v) { out << v; }, m.value);
    }
  }
}

std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

SeriesPoint run_point(ScenarioConfig config, std::uint32_t seeds, double x) {
  std::vector<stats::RunResult> runs;
  runs.reserve(seeds);
  for (std::uint32_t s = 1; s <= seeds; ++s) {
    runs.push_back(run_scenario(config.with_seed(s)));
  }
  return aggregate_point(x, std::move(runs));
}

std::uint32_t seeds_from_env(std::uint32_t fallback) {
  // All AG_* knob reads live in sim/env.h (ag-lint rule `env`).
  return sim::env_positive_u32("AG_SEEDS", fallback, 1'000'000);
}

}  // namespace ag::harness
