// e2ebench: end-to-end benchmark of the paper's scenarios.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--expect-digest HEX]
//   e2ebench --digest-only --workload NAME --seed N
//   e2ebench --smoke [--seed N]
//
// --trace 0 times whole rounds of the workload's core::run_fct_experiment
// calls for S seconds and reports the end-to-end metrics; --trace 1 does the
// same untimed-by-layer rounds as its baseline, then one traced replica
// round, and reports the per-layer metrics. Both finish with output checks
// and print, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for the workloads, metrics and checks.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "host_speed.hpp"
#include "replica.hpp"
#include "workloads.hpp"

namespace {

using e2e::CellStats;
using e2e::ReplicaOptions;
using e2e::ReplicaResult;
using e2e::Workload;
using Clock = std::chrono::steady_clock;
using Mode = ReplicaOptions::Mode;

// Set-up samples per batch; run_rounds takes one batch before every cell.
constexpr int kSetupRepsPerBatch = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident memory of this process image (VmHWM). Not getrusage's
// ru_maxrss: that keeps the high-water mark of the image before exec, the
// launching interpreter's.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// FNV-1a over the canonical statistics of every cell, in cell order.
std::string digest_of(const std::vector<CellStats>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const CellStats& s : cells) {
    for (const char c : e2e::canonical(s, /*with_hops=*/true) + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return hex64(h);
}

// Named pass/fail results, printed one per line unless quiet.
class Checks {
 public:
  explicit Checks(bool quiet = false) : quiet_(quiet) {}

  void add(const std::string& name, bool pass, const std::string& detail) {
    if (!quiet_) {
      std::printf("check %-18s %s  %s\n", name.c_str(),
                  pass ? "ok  " : "FAIL", detail.c_str());
    }
    all_pass_ = all_pass_ && pass;
    if (!pass) failed_.push_back(name);
  }
  [[nodiscard]] bool all_pass() const noexcept { return all_pass_; }
  [[nodiscard]] bool quiet() const noexcept { return quiet_; }
  /// Whether check `name` was added and failed.
  [[nodiscard]] bool failed(const std::string& name) const {
    return std::find(failed_.begin(), failed_.end(), name) != failed_.end();
  }

 private:
  bool quiet_;
  bool all_pass_ = true;
  std::vector<std::string> failed_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Set-up of the whole workload (every cell's set-up summed) and of its
// topology builds. Samples are taken in small batches between cells, so they
// span the run; each batch's fastest set-up is calibrated by the host-speed
// reference measured right after it (README, "Steadiness").
struct Setup {
  double setup_s = 0.0;       ///< fastest set-up, uncalibrated
  double topo_build_s = 0.0;  ///< fastest topology builds, uncalibrated
  int samples = 0;
  std::vector<double> batch_best;  ///< fastest set-up of each batch
  /// Each batch's fastest set-up scaled by kReferenceNominalS over the
  /// reference time measured right after the batch.
  std::vector<double> calibrated;

  void calibrate(double reference_s) {
    calibrated.push_back(batch_best.back() * e2e::kReferenceNominalS /
                         reference_s);
  }

  void sample(const Workload& w, int reps) {
    ReplicaOptions opts;
    opts.mode = Mode::kSetupOnly;
    batch_best.push_back(0.0);
    for (int i = 0; i < reps; ++i) {
      double setup = 0.0;
      double build = 0.0;
      for (const e2e::Cell& cell : w.cells) {
        const ReplicaResult res = e2e::run_replica(cell, opts);
        setup += res.setup_s;
        build += res.topo_build_s;
      }
      if (i == 0 || setup < batch_best.back()) batch_best.back() = setup;
      if (samples == 0 || setup < setup_s) setup_s = setup;
      if (samples == 0 || build < topo_build_s) topo_build_s = build;
      ++samples;
    }
  }
};

// Whole rounds of the workload through the program's entry point.
struct Rounds {
  std::vector<double> walls;  ///< per round: its cells' calls, seconds
  /// Per round: each cell's call scaled by kReferenceNominalS over the
  /// reference time measured around it, summed; seconds. Empty unless the
  /// rounds were calibrated.
  std::vector<double> calibrated;
  std::vector<double> references;  ///< every reference time, seconds
  /// Per cell: its fastest call over all rounds, seconds.
  std::vector<double> cell_best;
  std::vector<std::vector<CellStats>> stats;  ///< per round, per cell
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Round time from each cell's fastest call.
  [[nodiscard]] double best_wall() const {
    double sum = 0.0;
    for (const double b : cell_best) sum += b;
    return sum;
  }
};

// Rounds within `seconds`: a round starts only if one as long as the last
// still fits (the first always runs). With `setup`, a batch of set-up
// samples is taken before every cell, and every cell's call is calibrated:
// timed between two runs of the host-speed reference.
Rounds run_rounds(const Workload& w, double seconds, Setup* setup = nullptr) {
  Rounds r;
  const bool calibrate = setup != nullptr;
  const Clock::time_point t0 = Clock::now();
  double last_round = 0.0;
  do {
    const Clock::time_point round_start = Clock::now();
    double wall = 0.0;
    double calibrated = 0.0;
    std::vector<CellStats> stats;
    r.cell_best.resize(w.cells.size(), 0.0);
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const e2e::Cell& cell = w.cells[c];
      double ref_before = 0.0;
      if (calibrate) {
        setup->sample(w, kSetupRepsPerBatch);
        ref_before = e2e::reference_s();
        setup->calibrate(ref_before);
      }
      const Clock::time_point t = Clock::now();
      const tcn::core::FctReport rep = tcn::core::run_fct_experiment(cell.cfg);
      const double cell_wall = seconds_since(t);
      if (calibrate) {
        const double ref_after = e2e::reference_s();
        r.references.push_back(ref_before);
        r.references.push_back(ref_after);
        calibrated += cell_wall * e2e::kReferenceNominalS /
                      (0.5 * (ref_before + ref_after));
      }
      wall += cell_wall;
      if (r.walls.empty() || cell_wall < r.cell_best[c]) {
        r.cell_best[c] = cell_wall;
      }
      stats.push_back(e2e::stats_of(rep));
      // An operation is one flow. Open loop: arrivals past the cap fail.
      r.attempted += rep.flows_started;
      r.failed += rep.flows_started - rep.flows_completed;
      if (w.open_loop && rep.flows_started > cell.cfg.num_flows) {
        r.failed += rep.flows_started - cell.cfg.num_flows;
      }
    }
    r.walls.push_back(wall);
    if (calibrate) r.calibrated.push_back(calibrated);
    r.stats.push_back(std::move(stats));
    last_round = seconds_since(round_start);
  } while (seconds_since(t0) + last_round <= seconds);
  return r;
}

std::vector<ReplicaResult> run_replicas(const Workload& w,
                                        const ReplicaOptions& opts) {
  std::vector<ReplicaResult> out;
  for (const e2e::Cell& cell : w.cells) {
    out.push_back(e2e::run_replica(cell, opts));
  }
  return out;
}

std::vector<CellStats> stats_of(const std::vector<ReplicaResult>& reps) {
  std::vector<CellStats> out;
  for (const ReplicaResult& r : reps) out.push_back(r.stats);
  return out;
}

// Output checks over one replica round and the untimed rounds it must
// reproduce, added to `checks`.
void check_outputs(const Workload& w, const std::vector<ReplicaResult>& reps,
                   const Rounds& rounds, Checks& checks) {
  const std::vector<CellStats>& first = rounds.stats.front();
  bool same = true;
  for (const auto& round : rounds.stats) {
    for (std::size_t c = 0; c < round.size(); ++c) {
      same = same && e2e::canonical(round[c], false) ==
                         e2e::canonical(first[c], false);
    }
  }
  checks.add("determinism", same,
             std::to_string(rounds.stats.size()) +
                 " rounds of the same seeds, byte-identical statistics");
  bool identical = true;
  for (std::size_t c = 0; c < reps.size(); ++c) {
    const bool eq = e2e::canonical(reps[c].stats, false) ==
                    e2e::canonical(first[c], false);
    if (!eq && !checks.quiet()) {
      std::printf("  %s run_fct_experiment: %s\n  %s replica:            %s\n",
                  w.cells[c].label.c_str(),
                  e2e::canonical(first[c], false).c_str(),
                  w.cells[c].label.c_str(),
                  e2e::canonical(reps[c].stats, false).c_str());
    }
    identical = identical && eq;
  }
  checks.add("replica_identity", identical,
             "replica statistics equal run_fct_experiment's");

  e2e::CheckCounts sum;
  std::uint64_t completed = 0;
  std::uint64_t rejects = 0;
  std::uint64_t probe_rejects = 0;
  bool any_tcn = false;
  for (std::size_t c = 0; c < reps.size(); ++c) {
    const auto& k = reps[c].checks;
    sum.flows_checked += k.flows_checked;
    sum.fct_violations += k.fct_violations;
    sum.ports_checked += k.ports_checked;
    sum.ports_undrained += k.ports_undrained;
    sum.ports_unbalanced += k.ports_unbalanced;
    sum.tcn_decisions += k.tcn_decisions;
    sum.tcn_violations += k.tcn_violations;
    completed += reps[c].stats.flows_completed;
    rejects += reps[c].stats.sched_drops;
    probe_rejects += reps[c].probe->sched_rejects;
    any_tcn = any_tcn || w.cells[c].cfg.scheme == tcn::core::Scheme::kTcn;
  }
  if (any_tcn) {
    checks.add("tcn_decisions",
               sum.tcn_violations == 0 && sum.tcn_decisions > 0,
               std::to_string(sum.tcn_violations) + " of " +
                   std::to_string(sum.tcn_decisions) +
                   " decisions differ from (now - enqueue_ts > T)");
  }
  checks.add("fct_lower_bound",
             sum.fct_violations == 0 && sum.flows_checked == completed &&
                 completed > 0,
             std::to_string(sum.fct_violations) + " of " +
                 std::to_string(sum.flows_checked) +
                 " flows below size*8/rate + base RTT");
  checks.add("ports_drained",
             sum.ports_undrained == 0 && sum.ports_unbalanced == 0,
             std::to_string(sum.ports_undrained) + " undrained, " +
                 std::to_string(sum.ports_unbalanced) + " admitted != sent, of " +
                 std::to_string(sum.ports_checked) + " ports");
  if (w.open_loop) {
    bool equal = true;
    for (const ReplicaResult& r : reps) {
      equal = equal && r.stats.offered_bytes == r.stats.achieved_bytes &&
              r.stats.offered_bytes > 0;
    }
    for (const CellStats& s : first) {
      equal = equal && s.offered_bytes == s.achieved_bytes;
    }
    checks.add("offered_achieved", equal,
               "offered bytes == achieved bytes on every cell");
  }
  const bool rejects_ok = (w.expect_rejects ? rejects > 0 : rejects == 0) &&
                          rejects == probe_rejects;
  checks.add("sched_rejects", rejects_ok,
             std::to_string(rejects) + " scheduler rejects (" +
                 (w.expect_rejects ? "expected > 0" : "expected 0") + ")");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  ///< required for a benchmark run
  int trace = 0;
  std::string expect_digest;
  bool digest_only = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
    } else if (flag == "--expect-digest") {
      a.expect_digest = value();
    } else if (flag == "--digest-only") {
      a.digest_only = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.smoke && a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!a.smoke && !a.digest_only && a.seconds < 0.0) {
    throw std::invalid_argument("--seconds is required");
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  return a;
}

std::uint64_t sum_events(const std::vector<CellStats>& cells) {
  std::uint64_t n = 0;
  for (const CellStats& s : cells) n += s.events;
  return n;
}


int run_benchmark(const Args& a) {
  const Workload w = e2e::make_workload(a.workload, a.seed);
  Checks checks;

  Setup setup;
  const Rounds rounds = run_rounds(w, a.seconds, &setup);
  const double wall = median(rounds.walls);
  const double best = rounds.best_wall();
  // Peak memory of the program's own rounds, before any replica round.
  const double rss_mb = peak_rss_mb();

  ReplicaOptions opts;
  opts.mode = a.trace == 1 ? Mode::kTraced : Mode::kChecked;
  const Clock::time_point t_replica = Clock::now();
  const std::vector<ReplicaResult> reps = run_replicas(w, opts);
  const double replica_wall = seconds_since(t_replica);
  check_outputs(w, reps, rounds, checks);

  const std::string digest = digest_of(stats_of(reps));
  std::printf("digest %s seed=%" PRIu64 " %s\n", w.name.c_str(), a.seed,
              digest.c_str());
  if (!a.expect_digest.empty()) {
    checks.add("reference_digest", digest == a.expect_digest,
               "reference " + a.expect_digest);
  }

  std::uint64_t hops = 0;
  for (const ReplicaResult& r : reps) hops += r.stats.hops;
  const std::uint64_t events = sum_events(rounds.stats[0]);
  std::printf("rounds %zu  wall median %.4f s  best %.4f s  hops %" PRIu64
              "  events %" PRIu64 "  setup samples %d (fastest %.6f s)\n",
              rounds.walls.size(), wall, best, hops, events, setup.samples,
              setup.setup_s);
  std::printf("calibrated round median %.4f s  reference median %.3f ms  "
              "calibrated setup median %.6f s\n",
              median(rounds.calibrated), 1e3 * median(rounds.references),
              median(setup.calibrated));
  std::printf("round walls:");
  for (const double rw : rounds.walls) std::printf(" %.4f", rw);
  std::printf("\nset-up batch minima:");
  for (const double b : setup.batch_best) std::printf(" %.6f", b);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    metrics = {
        {"setup_s", median(setup.calibrated), "s"},
        {"hops_per_s",
         static_cast<double>(hops) / median(rounds.calibrated), "hops/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
  } else {
    // Per-layer metrics from the traced replica round.
    e2e::LayerStat loop, sw_rx, host_rx, sched, aqm, launch;
    std::uint64_t rejects = 0, drops = 0, marks = 0, timeouts = 0;
    std::uint64_t packets = 0, pool_fresh = 0, peak_pending = 0, resizes = 0;
    std::uint64_t arrivals = 0, slab_fresh = 0, active_peak = 0, ticks = 0;
    auto add = [](e2e::LayerStat& to, const e2e::LayerStat& from) {
      to.calls += from.calls;
      to.total_ns += from.total_ns;
      to.self_ns += from.self_ns;
    };
    for (const ReplicaResult& r : reps) {
      add(loop, r.probe->loop);
      add(sw_rx, r.probe->switch_rx);
      add(host_rx, r.probe->host_rx);
      add(sched, r.probe->sched);
      add(aqm, r.probe->aqm);
      add(launch, r.probe->launch);
      rejects += r.probe->sched_rejects;
      const CellStats& s = r.stats;
      drops += s.switch_drops;
      marks += s.switch_marks;
      timeouts += s.summary.timeouts;
      packets += s.pool_fresh + s.pool_reused;
      pool_fresh += s.pool_fresh;
      peak_pending = std::max(peak_pending, s.peak_pending);
      resizes += s.calendar_resizes;
      arrivals += s.traffic_arrivals;
      slab_fresh += s.slab_fresh;
      active_peak = std::max(active_peak, s.traffic_active_peak);
      ticks += r.series_ticks;
    }
    auto per = [](std::int64_t ns, std::uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
    };
    // Telemetry cost: the open-loop cells again with metrics and sampling
    // off, for a third of the run length (at least one round).
    double obs_cost = 0.0;
    if (w.open_loop) {
      Workload off = w;
      for (e2e::Cell& c : off.cells) {
        c.cfg.collect_metrics = false;
        c.cfg.timeseries = {};
      }
      const Rounds off_rounds = run_rounds(off, a.seconds / 3);
      obs_cost = best - off_rounds.best_wall();
    }
    std::printf("layer self time per hop (traced round, %.4f s):\n",
                replica_wall);
    const std::pair<const char*, const e2e::LayerStat*> layers[] = {
        {"sim loop (event core, port tx, host stack, TCP)", &loop},
        {"net.switch.receive", &sw_rx},
        {"net.host.receive", &host_rx},
        {"sched", &sched},
        {"aqm", &aqm},
        {"transport.launch", &launch}};
    for (const auto& [name, l] : layers) {
      std::printf("  %-50s %8.2f ns/hop\n", name, per(l->self_ns, hops));
    }
    // The self times partition the traced Simulator::run span.
    std::printf("  %-50s %8.2f ns/hop\n", "Simulator::run (sum of the above)",
                per(loop.total_ns, hops));
    const auto& first = reps.front();
    metrics = {
        {"wall_s", wall, "s"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.events_per_s", static_cast<double>(events) / best, "ev/s"},
        {"sim.peak_pending", static_cast<double>(peak_pending), "count"},
        {"sim.calendar_resizes", static_cast<double>(resizes), "count"},
        {"sim.loop_self_ns_per_event", per(loop.self_ns, events), "ns"},
        {"net.hops", static_cast<double>(hops), "count"},
        {"net.switch.receive_calls", static_cast<double>(sw_rx.calls), "count"},
        {"net.switch.receive_ns", per(sw_rx.self_ns, sw_rx.calls), "ns"},
        {"net.host.receive_ns", per(host_rx.self_ns, host_rx.calls), "ns"},
        {"sched.calls", static_cast<double>(sched.calls), "count"},
        {"sched.ns_per_call", per(sched.self_ns, sched.calls), "ns"},
        {"sched.rejects", static_cast<double>(rejects), "count"},
        {"aqm.calls", static_cast<double>(aqm.calls), "count"},
        {"aqm.ns_per_call", per(aqm.self_ns, aqm.calls), "ns"},
        {"transport.launch_ns", per(launch.self_ns, launch.calls), "ns"},
        {"transport.packets", static_cast<double>(packets), "count"},
        {"transport.pool_fresh", static_cast<double>(pool_fresh), "count"},
        {"traffic.arrivals", static_cast<double>(arrivals), "count"},
        {"traffic.slab_fresh", static_cast<double>(slab_fresh), "count"},
        {"traffic.active_peak", static_cast<double>(active_peak), "count"},
        {"topo.build_s", setup.topo_build_s, "s"},
        {"obs.cost_s", obs_cost, "s"},
        {"obs.series_ticks", static_cast<double>(ticks), "count"},
        {"trace.overhead_ratio", replica_wall / wall, "ratio"},
        {"host.reference_ms", 1e3 * median(rounds.references), "ms"},
        {"net.drops", static_cast<double>(drops), "count"},
        {"aqm.marks", static_cast<double>(marks), "count"},
        {"transport.rto_timeouts", static_cast<double>(timeouts), "count"},
        {"net.sojourn_p99_us", first.probe->sojourn.quantile(0.99) / 1e3, "us"},
        {"fct.avg_us", first.stats.summary.avg_all_us, "us"},
        {"fct.small_p99_us", first.stats.summary.p99_small_us, "us"},
        {"fct.large_avg_us", first.stats.summary.avg_large_us, "us"},
    };
  }
  print_result(checks.all_pass(), rounds.attempted, rounds.failed, metrics);
  return 0;
}

int run_digest_only(const Args& a) {
  const Workload w = e2e::make_workload(a.workload, a.seed);
  const auto reps = run_replicas(w, ReplicaOptions{});
  std::printf("digest %s seed=%" PRIu64 " %s\n", w.name.c_str(), a.seed,
              digest_of(stats_of(reps)).c_str());
  return 0;
}

// Reduced-size run of every check on every workload, then negative cases
// that must make checks fail -- evidence that each check can fail.
int run_smoke(const Args& a) {
  constexpr double kScale = 0.25;
  Checks checks;
  bool negatives_ok = true;
  auto expect_fail = [&](const std::string& name, bool failed,
                         const std::string& detail) {
    std::printf("negative %-22s %s  %s\n", name.c_str(),
                failed ? "fails as expected" : "DID NOT FAIL", detail.c_str());
    negatives_ok = negatives_ok && failed;
  };

  for (const std::string& name : e2e::workload_names()) {
    std::printf("== %s (smoke, seed %" PRIu64 ")\n", name.c_str(), a.seed);
    const Workload w = e2e::make_workload(name, a.seed, kScale);
    const Rounds rounds = run_rounds(w, 0.0);
    const Rounds again = run_rounds(w, 0.0);
    Rounds both = rounds;
    both.stats.push_back(again.stats[0]);
    const auto checked = run_replicas(w, ReplicaOptions{});
    check_outputs(w, checked, both, checks);
    ReplicaOptions traced;
    traced.mode = Mode::kTraced;
    const auto traced_reps = run_replicas(w, traced);
    check_outputs(w, traced_reps, both, checks);
    checks.add("digest_traced",
               digest_of(stats_of(checked)) == digest_of(stats_of(traced_reps)),
               "traced and checked rounds digest alike");

    // Another seed's outputs where this seed's belong: the digest, the
    // determinism check (one round from the other seed) and the replica
    // identity check (the other seed's replica round) must all reject them.
    const Workload other = e2e::make_workload(name, a.seed + 1, kScale);
    const auto other_reps = run_replicas(other, ReplicaOptions{});
    const std::string other_seed = "seed " + std::to_string(a.seed + 1);
    expect_fail("digest_other_seed",
                digest_of(stats_of(checked)) != digest_of(stats_of(other_reps)),
                other_seed + " digests differently");
    Rounds mixed = both;
    mixed.stats.push_back(run_rounds(other, 0.0).stats[0]);
    Checks mixed_checks(/*quiet=*/true);
    check_outputs(w, checked, mixed, mixed_checks);
    expect_fail("determinism_mixed", mixed_checks.failed("determinism"),
                "a round of " + other_seed + " among this seed's rounds");
    Checks swapped_checks(/*quiet=*/true);
    check_outputs(w, other_reps, both, swapped_checks);
    expect_fail("replica_other_seed",
                swapped_checks.failed("replica_identity"),
                "the replica round of " + other_seed);

    const e2e::Cell& cell = w.cells.front();
    // T/10 instead of T: any departure queued between T/10 and T is a
    // decision the check must reject. Small runs may queue little, so try
    // each cell until one has such a departure.
    std::uint64_t t_violations = 0;
    for (const e2e::Cell& c : w.cells) {
      ReplicaOptions wrong_t;
      wrong_t.tcn_threshold = c.cfg.params.rtt_lambda / 10;
      t_violations = e2e::run_replica(c, wrong_t).checks.tcn_violations;
      if (t_violations > 0) break;
    }
    expect_fail("tcn_wrong_threshold", t_violations > 0,
                std::to_string(t_violations) + " violations against T/10");

    ReplicaOptions long_rtt;
    long_rtt.base_rtt = 1000 * e2e::base_rtt(cell.cfg);
    const auto f_res = e2e::run_replica(cell, long_rtt);
    expect_fail("fct_bound_1000x_rtt", f_res.checks.fct_violations > 0,
                std::to_string(f_res.checks.fct_violations) +
                    " flows under a 1000x base RTT bound");

    // Runs stopped part way: some cut must find packets still queued (and,
    // open loop, bytes offered but not yet delivered).
    bool undrained = false;
    bool short_delivery = false;
    for (int div = 2; div <= 64; div *= 2) {
      ReplicaOptions cut;
      cut.time_limit = checked.front().stats.sim_end / div;
      const auto c_res = e2e::run_replica(cell, cut);
      undrained = undrained || c_res.checks.ports_undrained +
                                       c_res.checks.ports_unbalanced > 0;
      short_delivery = short_delivery || c_res.stats.offered_bytes !=
                                             c_res.stats.achieved_bytes;
    }
    expect_fail("ports_drained_cut_run", undrained,
                "runs stopped at 1/2 .. 1/64 of their simulated time");
    if (w.open_loop) {
      expect_fail("offered_achieved_cut", short_delivery,
                  "runs stopped at 1/2 .. 1/64 of their simulated time");
    }
    Workload flipped = w;
    flipped.expect_rejects = !w.expect_rejects;
    Checks flipped_checks(/*quiet=*/true);
    check_outputs(flipped, checked, both, flipped_checks);
    expect_fail("sched_rejects_flipped",
                flipped_checks.failed("sched_rejects"),
                "the same round against the opposite reject expectation");
  }
  const bool ok = checks.all_pass() && negatives_ok;
  std::printf("smoke %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.smoke) return run_smoke(a);
    if (a.digest_only) return run_digest_only(a);
    return run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
