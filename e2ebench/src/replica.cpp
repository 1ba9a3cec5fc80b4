#include "replica.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/switch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "pias/pias.hpp"
#include "sim/simulator.hpp"
#include "stats/fct.hpp"
#include "topo/network.hpp"
#include "traffic/engine.hpp"
#include "traffic/flow_slab.hpp"
#include "transport/connection_pool.hpp"
#include "transport/flow.hpp"
#include "workload/traffic_gen.hpp"

namespace e2e {
namespace {

namespace core = tcn::core;
namespace net = tcn::net;
namespace sim = tcn::sim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// run_fct_experiment's open-loop pending-event guard (same value), armed
// here too so the replica's event loop pays the same budget branch.
constexpr std::size_t kOpenLoopPendingBudget = 2'000'000;

template <typename Fn>
void for_each_port(tcn::topo::Network& network, Fn&& fn) {
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    auto& sw = network.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) fn(sw.port(p), true);
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    fn(network.host(h).nic(), false);
  }
}

// Index of the port of `sw` that leads to `node`: the ingress a packet
// from `node` arrives on. Both topologies have one link per node pair.
std::size_t port_towards(net::Switch& sw, const net::Node* node) {
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    if (sw.port(p).peer() == node) return p;
  }
  throw std::logic_error("replica: no link back from " +
                         std::string(sw.name()));
}

// Re-point every port at a timing shim of its peer, keeping the ingress
// index the topology builder gave it (a host's NIC is its ingress 0).
void install_shims(tcn::topo::Network& network, Probe& probe,
                   std::vector<std::unique_ptr<NodeShim>>& shims) {
  std::unordered_map<const net::Node*, NodeShim*> shim_of;
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    auto& sw = network.switch_at(s);
    shims.push_back(std::make_unique<NodeShim>(sw, probe, probe.switch_rx));
    shim_of[&sw] = shims.back().get();
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    auto& host = network.host(h);
    shims.push_back(std::make_unique<NodeShim>(host, probe, probe.host_rx));
    shim_of[&host] = shims.back().get();
  }
  // Resolve every link before re-pointing any: port_towards reads peers.
  struct Link {
    net::Port* port;
    NodeShim* shim;
    std::size_t ingress;
  };
  std::vector<Link> links;
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    auto& sw = network.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      net::Node* peer = sw.port(p).peer();
      auto* peer_sw = dynamic_cast<net::Switch*>(peer);
      links.push_back({&sw.port(p), shim_of.at(peer),
                       peer_sw != nullptr ? port_towards(*peer_sw, &sw) : 0});
    }
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    auto& host = network.host(h);
    auto* sw = dynamic_cast<net::Switch*>(host.nic().peer());
    if (sw == nullptr) throw std::logic_error("replica: host not on a switch");
    links.push_back({&host.nic(), shim_of.at(sw), port_towards(*sw, &host)});
  }
  for (const Link& l : links) l.port->connect(l.shim, l.ingress);
}

}  // namespace

CellStats stats_of(const core::FctReport& r) {
  CellStats s;
  s.events = r.events;
  s.sim_end = r.sim_end;
  s.flows_started = r.flows_started;
  s.flows_completed = r.flows_completed;
  s.summary = r.summary;
  s.switch_drops = r.switch_drops;
  s.switch_marks = r.switch_marks;
  s.sched_drops = r.sched_drops;
  s.fault_drops = r.fault_drops;
  s.pool_fresh = r.pool_fresh;
  s.pool_reused = r.pool_reused;
  s.pool_recycled = r.pool_recycled;
  s.peak_pending = r.sim_peak_pending;
  s.calendar_resizes = r.sim_calendar_resizes;
  s.traffic_arrivals = r.traffic_arrivals;
  s.traffic_active_peak = r.traffic_active_peak;
  s.offered_bytes = r.traffic_offered_bytes;
  s.achieved_bytes = r.traffic_achieved_bytes;
  s.slab_fresh = r.slab_fresh;
  s.slab_reused = r.slab_reused;
  s.slab_recycled = r.slab_recycled;
  return s;
}

std::string canonical(const CellStats& s, bool with_hops) {
  const auto& f = s.summary;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "events=%" PRIu64 " sim_end=%" PRId64 " flows=%" PRIu64 "/%" PRIu64
      " fct=%zu,%.17g,%zu,%.17g,%.17g,%zu,%.17g,%" PRIu64 ",%" PRIu64
      " drops=%" PRIu64 " marks=%" PRIu64 " rejects=%" PRIu64
      " fault_drops=%" PRIu64 " pool=%" PRIu64 ",%" PRIu64 ",%" PRIu64
      " pending=%" PRIu64 " resizes=%" PRIu64 " traffic=%" PRIu64 ",%" PRIu64
      ",%" PRIu64 ",%" PRIu64 " slab=%" PRIu64 ",%" PRIu64 ",%" PRIu64,
      s.events, s.sim_end, s.flows_completed, s.flows_started, f.count,
      f.avg_all_us, f.small_count, f.avg_small_us, f.p99_small_us,
      f.large_count, f.avg_large_us, f.timeouts, f.small_timeouts,
      s.switch_drops, s.switch_marks, s.sched_drops, s.fault_drops,
      s.pool_fresh, s.pool_reused, s.pool_recycled, s.peak_pending,
      s.calendar_resizes, s.traffic_arrivals, s.traffic_active_peak,
      s.offered_bytes, s.achieved_bytes, s.slab_fresh, s.slab_reused,
      s.slab_recycled);
  std::string out(buf);
  if (with_hops) out += " hops=" + std::to_string(s.hops);
  return out;
}

ReplicaResult run_replica(const Cell& cell, const ReplicaOptions& opts) {
  using Mode = ReplicaOptions::Mode;
  const Clock::time_point t_start = Clock::now();
  const core::FctExperiment& cfg = cell.cfg;
  const bool decorate = opts.mode != Mode::kSetupOnly;
  const bool open_loop = cfg.traffic.enabled();

  ReplicaResult res;
  res.probe = std::make_unique<Probe>(opts.mode == Mode::kTraced);
  Probe& probe = *res.probe;
  if (cfg.scheme == core::Scheme::kTcn) {
    probe.tcn_threshold =
        opts.tcn_threshold > 0 ? opts.tcn_threshold : cfg.params.rtt_lambda;
  }
  // Shims outlive the simulator: ports hold raw pointers to them.
  std::vector<std::unique_ptr<NodeShim>> shims;

  // Per-run scopes, in run_fct_experiment's order.
  net::PacketUidScope uid_scope;
  tcn::traffic::FlowUidScope flow_uid_scope;
  net::PacketPool packet_pool;
  net::PacketPool::Scope packet_pool_scope(packet_pool);
  tcn::obs::MetricsRegistry registry;
  std::optional<tcn::obs::MetricsRegistry::Scope> metrics_scope;
  if (cfg.collect_metrics) metrics_scope.emplace(registry);
  std::optional<tcn::obs::TimeSeries> series;
  std::optional<tcn::obs::TimeSeries::Scope> series_scope;
  if (cfg.timeseries.enabled()) {
    series.emplace(cfg.timeseries);
    series_scope.emplace(*series);
  }

  const bool rank_priority = (cfg.sched.kind == core::SchedKind::kSpPifo ||
                              cfg.sched.kind == core::SchedKind::kAifo) &&
                             cfg.sched.rank == core::RankProgram::kPriority;
  const bool hybrid = cfg.sched.kind == core::SchedKind::kSpDwrr ||
                      cfg.sched.kind == core::SchedKind::kSpWfq;
  const std::size_t num_sp = hybrid || rank_priority ? cfg.sched.num_sp : 0;
  const std::size_t num_service_queues =
      cfg.num_service_queues > 0 ? cfg.num_service_queues : cfg.num_services;
  core::SchedConfig sched = cfg.sched;
  sched.num_queues = num_sp + num_service_queues;

  sim::Simulator sim;
  const auto sched_factory = core::make_scheduler_factory(sched);
  const auto marker_factory = core::make_marker_factory(cfg.scheme, cfg.params);
  tcn::topo::SchedulerFactory sched_build = sched_factory;
  tcn::topo::MarkerFactory marker_build = marker_factory;
  if (decorate) {
    sched_build = [&] {
      return std::make_unique<ProbedScheduler>(sched_factory(), probe);
    };
    // The marker factory sees the real scheduler: MQ-ECN hooks its rounds.
    const bool is_tcn = cfg.scheme == core::Scheme::kTcn;
    marker_build = [&, is_tcn](net::Scheduler& s, const net::PortConfig& pc) {
      auto& inner = static_cast<ProbedScheduler&>(s).inner();
      return std::make_unique<ProbedMarker>(marker_factory(inner, pc), probe,
                                            is_tcn);
    };
  }

  const Clock::time_point t_build = Clock::now();
  tcn::topo::Network network = [&] {
    if (cfg.topology == core::FctExperiment::Topology::kStarConverge) {
      tcn::topo::StarConfig star = cfg.star;
      star.num_queues = sched.num_queues;
      return tcn::topo::build_star(sim, star, sched_build, marker_build);
    }
    tcn::topo::LeafSpineConfig ls = cfg.leaf_spine;
    ls.num_queues = sched.num_queues;
    return tcn::topo::build_leaf_spine(sim, ls, sched_build, marker_build);
  }();
  res.topo_build_s = seconds_since(t_build);
  if (decorate) install_shims(network, probe, shims);

  // Open-loop runs always arm the pending guard, and an armed budget puts
  // run_fct_experiment's flight recorder on every port.
  tcn::obs::FlightRecorder flight_recorder(cfg.flight_recorder_depth);
  if (open_loop && cfg.flight_recorder_depth > 0) {
    for_each_port(network,
                  [&](net::Port& port, bool) { port.set_observer(&flight_recorder); });
  }

  const std::uint64_t rate = host_link_rate(cfg);
  const sim::Time rtt = opts.base_rtt > 0 ? opts.base_rtt : base_rtt(cfg);
  tcn::stats::FctCollector fct;
  tcn::stats::StreamingFctCollector streaming_fct;
  std::size_t flows_completed = 0;
  const auto on_flow_done = [&](const tcn::transport::FlowResult& r) {
    if (open_loop) {
      streaming_fct.add(r);
    } else {
      fct.add(r);
    }
    ++flows_completed;
    // Serializing `size` bytes at the host rate, plus one base RTT for the
    // last byte to arrive and its ACK to return.
    const auto serialize = static_cast<sim::Time>(std::floor(
        static_cast<double>(r.size) * 8e9 / static_cast<double>(rate)));
    ++res.checks.flows_checked;
    if (r.fct < serialize + rtt) ++res.checks.fct_violations;
  };
  tcn::transport::FlowManager fm(on_flow_done);
  tcn::transport::ConnectionPool pool(on_flow_done);
  tcn::workload::FlowLauncher launcher =
      cfg.persistent_connections
          ? tcn::workload::FlowLauncher(
                [&pool](net::Host& src, net::Host& dst,
                        tcn::transport::FlowSpec spec) {
                  pool.submit(src, dst, std::move(spec));
                })
          : tcn::workload::FlowLauncher(
                [&fm](net::Host& src, net::Host& dst,
                      tcn::transport::FlowSpec spec) {
                  fm.start_flow(src, dst, std::move(spec));
                });
  if (decorate) {
    launcher = [&probe, inner = std::move(launcher)](
                   net::Host& src, net::Host& dst,
                   tcn::transport::FlowSpec spec) {
      probe.timer.span(probe.launch,
                       [&] { inner(src, dst, std::move(spec)); });
    };
  }

  sim::Rng queue_rng(cfg.seed ^ 0x517cc1b727220a95ULL);
  auto spec_fn = [&](std::uint32_t service,
                     std::uint64_t size) -> tcn::transport::FlowSpec {
    tcn::transport::FlowSpec spec;
    spec.size = size;
    spec.service = service;
    spec.tcp = cfg.tcp;
    const auto service_dscp = static_cast<std::uint8_t>(
        num_sp + (num_service_queues == cfg.num_services
                      ? service % num_service_queues
                      : queue_rng.uniform_int(0, num_service_queues - 1)));
    if (cfg.pias) {
      spec.data_dscp =
          tcn::pias::two_priority(0, service_dscp, cfg.pias_threshold);
      spec.ack_dscp = 0;
    } else {
      spec.data_dscp = tcn::transport::constant_dscp(service_dscp);
      spec.ack_dscp = service_dscp;
    }
    return spec;
  };

  tcn::workload::GenConfig gen_cfg;
  gen_cfg.load = cfg.load;
  gen_cfg.num_flows = cfg.num_flows;
  gen_cfg.num_services = cfg.num_services;
  gen_cfg.seed = cfg.seed;
  std::unique_ptr<tcn::workload::ConvergeGenerator> converge;
  std::unique_ptr<tcn::workload::AllToAllGenerator> all2all;
  std::optional<tcn::traffic::FlowSlab> flow_slab;
  std::optional<tcn::traffic::FlowSlab::Scope> flow_slab_scope;
  std::unique_ptr<tcn::traffic::TrafficEngine> engine;

  if (open_loop) {
    flow_slab.emplace();
    flow_slab_scope.emplace(*flow_slab);
    tcn::traffic::EngineConfig ecfg;
    ecfg.load = cfg.load;
    ecfg.max_flows = cfg.num_flows;
    ecfg.seed = cfg.seed;
    ecfg.converge =
        cfg.topology == core::FctExperiment::Topology::kStarConverge;
    engine = std::make_unique<tcn::traffic::TrafficEngine>(
        sim, network.host_ptrs(), cfg.traffic, ecfg, spec_fn, on_flow_done);
    engine->start();
  } else if (cfg.topology == core::FctExperiment::Topology::kStarConverge) {
    std::vector<net::Host*> senders;
    for (std::size_t i = 1; i < network.num_hosts(); ++i) {
      senders.push_back(&network.host(i));
    }
    converge = std::make_unique<tcn::workload::ConvergeGenerator>(
        sim, launcher, std::move(senders), &network.host(0),
        &tcn::workload::distribution(cfg.service_workloads[0]), gen_cfg,
        spec_fn);
    converge->start();
  } else {
    std::vector<const sim::Ecdf*> dists;
    for (std::uint32_t s = 0; s < cfg.num_services; ++s) {
      dists.push_back(&tcn::workload::distribution(
          cfg.service_workloads[s % cfg.service_workloads.size()]));
    }
    const std::uint32_t num_services = cfg.num_services;
    all2all = std::make_unique<tcn::workload::AllToAllGenerator>(
        sim, launcher, network.host_ptrs(), std::move(dists), gen_cfg,
        [num_services](std::size_t src, std::size_t dst) {
          return static_cast<std::uint32_t>((src + dst) % num_services);
        },
        spec_fn);
    all2all->start();
  }
  if (series) series->start(sim);
  if (open_loop) {
    sim::RunBudget budget;
    budget.max_pending = kOpenLoopPendingBudget;
    sim.set_budget(budget);
  }

  res.setup_s = seconds_since(t_start);
  if (opts.mode == Mode::kSetupOnly) return res;

  const sim::Time limit = opts.time_limit > 0   ? opts.time_limit
                          : cfg.time_limit > 0 ? cfg.time_limit
                                               : sim::kTimeMax;
  probe.timer.span(probe.loop, [&] { sim.run(limit); });

  CellStats& s = res.stats;
  s.summary = open_loop ? streaming_fct.summary() : fct.summary();
  s.flows_started = open_loop ? engine->arrivals()
                    : cfg.persistent_connections ? pool.messages_submitted()
                                                 : fm.flows_started();
  s.flows_completed = flows_completed;
  if (open_loop) {
    s.traffic_arrivals = engine->arrivals();
    s.traffic_active_peak = engine->active_peak();
    s.offered_bytes = engine->offered_bytes();
    s.achieved_bytes = engine->achieved_bytes();
    s.slab_fresh = flow_slab->fresh_allocs();
    s.slab_reused = flow_slab->reuses();
    s.slab_recycled = flow_slab->recycles();
  }
  s.events = sim.events_executed();
  s.sim_end = sim.now();
  s.pool_fresh = packet_pool.fresh_allocs();
  s.pool_reused = packet_pool.reuses();
  s.pool_recycled = packet_pool.recycles();
  s.peak_pending = sim.peak_pending();
  s.calendar_resizes = sim.calendar_resizes();
  for_each_port(network, [&](net::Port& port, bool is_switch) {
    const auto& c = port.counters();
    if (is_switch) {
      s.switch_drops += c.drops;
      s.switch_marks += c.marks;
      s.sched_drops += c.sched_drops;
    }
    s.fault_drops += c.fault_drops;
    s.hops += c.enq_packets + c.drops + c.sched_drops + c.fault_drops;
    ++res.checks.ports_checked;
    if (port.total_bytes() != 0) ++res.checks.ports_undrained;
    if (c.enq_packets != c.tx_packets) ++res.checks.ports_unbalanced;
  });
  res.checks.tcn_decisions = probe.tcn_decisions;
  res.checks.tcn_violations = probe.tcn_violations;
  if (series) res.series_ticks = series->ticks();
  return res;
}

}  // namespace e2e
