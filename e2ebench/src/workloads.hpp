// The benchmark's workloads: each is a list of core::FctExperiment cells run
// back to back through core::run_fct_experiment, built from the benchmark
// seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace e2e {

struct Cell {
  std::string label;  ///< scheme name, e.g. "TCN"
  tcn::core::FctExperiment cfg;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Open loop: cfg.num_flows caps tenant arrivals; every arrival past the
  /// cap counts as a failed operation (see README, "Operation accounting").
  bool open_loop = false;
  /// Scheduler admission may reject packets (AIFO). Work-conserving
  /// workloads must show exactly zero rejects.
  bool expect_rejects = false;
};

/// Every workload name, in the order run.py --report prints them.
const std::vector<std::string>& workload_names();

/// Build workload `name` for `seed`. `scale` multiplies every flow count
/// (1.0 = the benchmark size, the smoke run uses less). Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale = 1.0);

/// Base RTT of the cell's topology: four link propagations plus four host
/// stack delays -- the shortest path (host, switch, host) both ways.
tcn::sim::Time base_rtt(const tcn::core::FctExperiment& cfg);

/// Host link rate of the cell's topology in bits/s.
std::uint64_t host_link_rate(const tcn::core::FctExperiment& cfg);

}  // namespace e2e
