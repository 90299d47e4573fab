// The benchmark's named workloads. Each is a fixed list of scenario runs
// generated from a first seed: run k of the list uses seed + k, so the same
// seed always yields the same inputs, and only the generated
// ScenarioConfigs reach the simulator.
#ifndef AGBENCH_WORKLOADS_H
#define AGBENCH_WORKLOADS_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "harness/scenario.h"

namespace agbench {

struct Workload {
  const char* name;
  std::vector<ag::harness::ScenarioConfig> (*configs)(std::uint64_t seed);
};

// All workloads, in the order the benchmark runs them.
[[nodiscard]] const std::vector<Workload>& workloads();
// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

// The self-test's small scenario: 20 nodes, 30 simulated seconds.
[[nodiscard]] ag::harness::ScenarioConfig self_test_config(std::uint64_t seed);

}  // namespace agbench

#endif  // AGBENCH_WORKLOADS_H
