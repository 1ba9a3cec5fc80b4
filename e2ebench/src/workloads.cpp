#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "topo/network.hpp"

namespace e2e {
namespace {

using tcn::core::FctExperiment;
using tcn::core::Scheme;
using tcn::core::SchedKind;
namespace sim = tcn::sim;
namespace workload = tcn::workload;

// Sizes at scale 1.0: each workload runs its cells for kSubSeeds program
// seeds with this many flows per cell, so one round takes a few seconds on
// one core while covering enough independent flow lists that the metrics
// depend little on which benchmark seed ran (README, "Workloads").
constexpr std::uint64_t kStarSubSeeds = 4;
constexpr std::size_t kStarFlowsPerScheme = 250;
constexpr std::uint64_t kLeafSpineSubSeeds = 8;
constexpr std::size_t kLeafSpineFlows = 50;
constexpr std::uint64_t kOpenLoopSubSeeds = 8;
constexpr std::size_t kOpenLoopFlowCap = 250;

// Benchmark seed s runs program seeds s*n .. s*n + n-1.
std::uint64_t program_seed(std::uint64_t seed, std::uint64_t n,
                           std::uint64_t k) {
  return seed * n + k;
}

std::string seed_label(const char* scheme, std::uint64_t program_seed) {
  return std::string(scheme) + "/seed" + std::to_string(program_seed);
}

std::size_t scaled(std::size_t flows, double scale) {
  const auto n = static_cast<std::size_t>(std::llround(flows * scale));
  return n < 10 ? 10 : n;
}

// The 9-host 1G testbed of Sec. 6.1 (the values of bench/figures.hpp's
// testbed_base, restated so the benchmark does not depend on bench/).
FctExperiment testbed() {
  FctExperiment cfg;
  cfg.topology = FctExperiment::Topology::kStarConverge;
  cfg.star.num_hosts = 9;
  cfg.star.link_rate_bps = 1'000'000'000;
  cfg.star.buffer_bytes = 96'000;
  cfg.star.host_delay = tcn::topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = static_cast<sim::Time>(51.2 * sim::kMicrosecond);
  cfg.params.codel_interval = 1024 * sim::kMicrosecond;
  cfg.tcp.cc = tcn::transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 10;
  cfg.num_services = 4;
  cfg.service_workloads = {workload::Kind::kWebSearch};
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

// The 144-host 12x12 10G leaf-spine of Sec. 6.2 (bench/figures.hpp's
// leafspine_base): PIAS, cold connection per flow, 7 services over the
// four Fig. 4 workloads.
FctExperiment leafspine() {
  FctExperiment cfg;
  cfg.topology = FctExperiment::Topology::kLeafSpine;
  cfg.leaf_spine = tcn::topo::LeafSpineConfig{};
  cfg.params.rtt_lambda = 78 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 65 * 1'500;
  cfg.params.codel_target = static_cast<sim::Time>(17 * sim::kMicrosecond);
  cfg.params.codel_interval = 341 * sim::kMicrosecond;
  cfg.tcp.cc = tcn::transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 5 * sim::kMillisecond;
  cfg.tcp.rto_init = 5 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 16;
  cfg.num_services = 7;
  cfg.service_workloads = {workload::Kind::kWebSearch,
                           workload::Kind::kDataMining,
                           workload::Kind::kHadoop, workload::Kind::kCache};
  cfg.pias = true;
  cfg.persistent_connections = false;
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

Workload fig06_star(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "fig06-star";
  FctExperiment base = testbed();
  base.sched.kind = SchedKind::kDwrr;
  base.load = 0.9;
  base.num_flows = scaled(kStarFlowsPerScheme, scale);
  const std::pair<const char*, Scheme> schemes[] = {
      {"TCN", Scheme::kTcn},
      {"CoDel", Scheme::kCodel},
      {"MQ-ECN", Scheme::kMqEcn},
      {"RED-queue", Scheme::kRedPerQueue}};
  for (std::uint64_t k = 0; k < kStarSubSeeds; ++k) {
    for (const auto& [label, scheme] : schemes) {
      FctExperiment cfg = base;
      cfg.scheme = scheme;
      cfg.seed = program_seed(seed, kStarSubSeeds, k);
      w.cells.push_back({seed_label(label, cfg.seed), cfg});
    }
  }
  return w;
}

Workload fig10_leafspine(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "fig10-leafspine";
  FctExperiment cfg = leafspine();
  cfg.sched.kind = SchedKind::kSpDwrr;
  cfg.sched.num_sp = 1;
  cfg.scheme = Scheme::kTcn;
  cfg.load = 0.9;
  cfg.num_flows = scaled(kLeafSpineFlows, scale);
  for (std::uint64_t k = 0; k < kLeafSpineSubSeeds; ++k) {
    cfg.seed = program_seed(seed, kLeafSpineSubSeeds, k);
    w.cells.push_back({seed_label("TCN", cfg.seed), cfg});
  }
  return w;
}

Workload openloop_aifo(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "openloop-aifo";
  w.open_loop = true;
  w.expect_rejects = true;
  FctExperiment cfg = testbed();
  cfg.sched.kind = SchedKind::kAifo;
  cfg.sched.aifo_window = 128;
  cfg.sched.aifo_k = 0.8;
  cfg.scheme = Scheme::kTcn;
  cfg.load = 0.7;
  cfg.num_flows = scaled(kOpenLoopFlowCap, scale);
  // Same as --traffic "poisson:web:websearch:0.7;mmpp:dm:datamining:0.3"
  // (MMPP at its defaults: burst x4, duty 0.25, 10 ms dwell).
  tcn::traffic::TenantSpec web;
  web.name = "web";
  web.workload = workload::Kind::kWebSearch;
  web.share = 0.7;
  tcn::traffic::TenantSpec dm;
  dm.name = "dm";
  dm.workload = workload::Kind::kDataMining;
  dm.share = 0.3;
  dm.arrival = tcn::traffic::TenantSpec::Arrival::kMmpp;
  cfg.traffic.tenants = {web, dm};
  cfg.collect_metrics = true;
  cfg.timeseries.interval = 100 * sim::kMicrosecond;
  for (std::uint64_t k = 0; k < kOpenLoopSubSeeds; ++k) {
    cfg.seed = program_seed(seed, kOpenLoopSubSeeds, k);
    w.cells.push_back({seed_label("TCN", cfg.seed), cfg});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig06-star", "fig10-leafspine", "openloop-aifo"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale) {
  if (name == "fig06-star") return fig06_star(seed, scale);
  if (name == "fig10-leafspine") return fig10_leafspine(seed, scale);
  if (name == "openloop-aifo") return openloop_aifo(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

sim::Time base_rtt(const FctExperiment& cfg) {
  if (cfg.topology == FctExperiment::Topology::kStarConverge) {
    return 4 * cfg.star.link_prop + 4 * cfg.star.host_delay;
  }
  return 4 * cfg.leaf_spine.link_prop + 4 * cfg.leaf_spine.host_delay;
}

std::uint64_t host_link_rate(const FctExperiment& cfg) {
  return cfg.topology == FctExperiment::Topology::kStarConverge
             ? cfg.star.link_rate_bps
             : cfg.leaf_spine.link_rate_bps;
}

}  // namespace e2e
