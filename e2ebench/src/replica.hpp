// The experiment of core::run_fct_experiment, rebuilt from the public calls
// it is made of so the benchmark can reach the seams between layers:
// topo::build_star / build_leaf_spine, core::make_scheduler_factory /
// make_marker_factory (products wrapped in ProbedScheduler / ProbedMarker),
// NodeShim peers installed with Port::connect, a FlowLauncher decorator and
// the Simulator::run call. Construction order, seeds and scopes follow
// run_fct_experiment step for step, so a replica round reproduces its
// simulated statistics exactly -- which main.cpp checks on every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace e2e {

/// The simulated statistics of one cell: the digest's inputs. Every field
/// but `hops` is also in core::FctReport.
struct CellStats {
  std::uint64_t events = 0;
  std::int64_t sim_end = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  tcn::stats::FctSummary summary;
  std::uint64_t switch_drops = 0;
  std::uint64_t switch_marks = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t calendar_resizes = 0;
  std::uint64_t traffic_arrivals = 0;
  std::uint64_t traffic_active_peak = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t achieved_bytes = 0;
  std::uint64_t slab_fresh = 0;
  std::uint64_t slab_reused = 0;
  std::uint64_t slab_recycled = 0;
  /// Packet-hops: packets offered to an egress port (switch port or host
  /// NIC), read from Port::counters(). Replica only.
  std::uint64_t hops = 0;
};

CellStats stats_of(const tcn::core::FctReport& r);

/// Canonical text of the statistics (doubles at full precision), the
/// byte-identity unit. `with_hops` adds the replica-only field.
std::string canonical(const CellStats& s, bool with_hops);

/// Output checks a replica round computes apart from the program.
struct CheckCounts {
  std::uint64_t flows_checked = 0;
  std::uint64_t fct_violations = 0;  ///< FCT below size*8/rate + base RTT
  std::uint64_t ports_checked = 0;
  std::uint64_t ports_undrained = 0;   ///< bytes still queued at the end
  std::uint64_t ports_unbalanced = 0;  ///< admitted != transmitted
  std::uint64_t tcn_decisions = 0;
  std::uint64_t tcn_violations = 0;
};

struct ReplicaOptions {
  enum class Mode {
    kSetupOnly,  ///< plain factories, stop before the first event
    kChecked,    ///< decorators count and check, nothing is timed
    kTraced,     ///< decorators also time every span
  };
  Mode mode = Mode::kChecked;
  /// Threshold the TCN check compares decisions against; 0 = the cell's
  /// own rtt_lambda. (The smoke run passes a wrong one on purpose.)
  tcn::sim::Time tcn_threshold = 0;
  /// Base RTT the FCT check adds to the serialization bound; 0 = the
  /// topology's.
  tcn::sim::Time base_rtt = 0;
  /// Simulated-time horizon; 0 = the cell's own time_limit.
  tcn::sim::Time time_limit = 0;
};

struct ReplicaResult {
  CellStats stats;
  CheckCounts checks;
  std::unique_ptr<Probe> probe;
  double setup_s = 0.0;       ///< entry to the first simulated event
  double topo_build_s = 0.0;  ///< the build_star / build_leaf_spine call
  std::uint64_t series_ticks = 0;
};

ReplicaResult run_replica(const Cell& cell, const ReplicaOptions& opts);

}  // namespace e2e
