// Instrumentation the benchmark wraps around the simulator's public seams:
// a nested span timer, timing/checking decorators for net::Scheduler and
// net::Marker, and a net::Node shim for Switch::receive / Host::receive.
//
// Self time: a span's duration minus the durations of the decorated spans
// that ran inside it. The root span is Simulator::run, so its self time is
// the event loop's own share (event core, port transmit, host stack, TCP).
//
// With timing off every decorator is a plain forwarder plus its checks, so
// the same classes serve the checked (untimed) round.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace e2e {

struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< sum of span durations
  std::int64_t self_ns = 0;   ///< minus decorated child spans inside them
};

class SpanTimer {
 public:
  explicit SpanTimer(bool enabled) : enabled_(enabled) { stack_.reserve(16); }

  /// Run `f` as one call of `layer`, timing it when enabled.
  template <typename F>
  decltype(auto) span(LayerStat& layer, F&& f) {
    ++layer.calls;
    if (!enabled_) return f();
    const Frame frame(*this, layer);
    return f();
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Opens a span on construction and closes it on destruction, so spans
  // nest and close correctly whatever `f` returns.
  class Frame {
   public:
    Frame(SpanTimer& t, LayerStat& layer)
        : timer_(t), layer_(layer), start_(Clock::now()) {
      timer_.stack_.push_back(0);
    }
    ~Frame() {
      const std::int64_t d =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count();
      const std::int64_t children = timer_.stack_.back();
      timer_.stack_.pop_back();
      layer_.total_ns += d;
      layer_.self_ns += d - children;
      if (!timer_.stack_.empty()) timer_.stack_.back() += d;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    SpanTimer& timer_;
    LayerStat& layer_;
    Clock::time_point start_;
  };

  bool enabled_;
  std::vector<std::int64_t> stack_;  ///< child time of each open span
};

/// Everything one replica round records: layer spans, counts and checks.
struct Probe {
  explicit Probe(bool timed) : timer(timed) {}

  SpanTimer timer;
  LayerStat loop;       ///< Simulator::run
  LayerStat switch_rx;  ///< Switch::receive
  LayerStat host_rx;    ///< Host::receive
  LayerStat sched;      ///< every net::Scheduler call on switch ports
  LayerStat aqm;        ///< every net::Marker call on switch ports
  LayerStat launch;     ///< workload::FlowLauncher (closed loop)
  std::uint64_t sched_rejects = 0;

  /// TCN decision check: every dequeue decision of a TCN marker must equal
  /// (now - enqueue_ts > tcn_threshold). Negative = no TCN marker.
  tcn::sim::Time tcn_threshold = -1;
  std::uint64_t tcn_decisions = 0;
  std::uint64_t tcn_violations = 0;

  tcn::obs::LogHistogram sojourn;  ///< departing packets, ns
};

/// Forwards every call to the wrapped scheduler inside a `sched` span.
/// Ports see it through the virtual path (the default self_variant), which
/// behaves identically to their static dispatch.
class ProbedScheduler final : public tcn::net::Scheduler {
 public:
  ProbedScheduler(std::unique_ptr<tcn::net::Scheduler> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] tcn::net::Scheduler& inner() noexcept { return *inner_; }

  void bind(const std::vector<tcn::net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override {
    Scheduler::bind(queues, link_rate_bps);
    inner_->bind(queues, link_rate_bps);
  }

  bool admit(std::size_t q, const tcn::net::Packet& p, tcn::sim::Time now,
             std::uint64_t port_bytes, std::uint64_t buffer_limit) override {
    const bool ok = probe_.timer.span(probe_.sched, [&] {
      return inner_->admit(q, p, now, port_bytes, buffer_limit);
    });
    if (!ok) ++probe_.sched_rejects;
    return ok;
  }

  void on_enqueue(std::size_t q, const tcn::net::Packet& p,
                  tcn::sim::Time now) override {
    probe_.timer.span(probe_.sched, [&] { inner_->on_enqueue(q, p, now); });
  }

  std::size_t select(tcn::sim::Time now) override {
    return probe_.timer.span(probe_.sched, [&] { return inner_->select(now); });
  }

  void on_dequeue(std::size_t q, const tcn::net::Packet& p,
                  tcn::sim::Time now) override {
    probe_.timer.span(probe_.sched, [&] { inner_->on_dequeue(q, p, now); });
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<tcn::net::Scheduler> inner_;
  Probe& probe_;
};

/// Forwards every marking decision inside an `aqm` span, records each
/// departing packet's sojourn, and checks TCN decisions against the
/// threshold independently of the marker.
class ProbedMarker final : public tcn::net::Marker {
 public:
  ProbedMarker(std::unique_ptr<tcn::net::Marker> inner, Probe& probe,
               bool is_tcn)
      : inner_(std::move(inner)), probe_(probe), is_tcn_(is_tcn) {}

  bool on_enqueue(const tcn::net::MarkContext& ctx,
                  const tcn::net::Packet& p) override {
    return probe_.timer.span(probe_.aqm,
                             [&] { return inner_->on_enqueue(ctx, p); });
  }

  bool on_dequeue(const tcn::net::MarkContext& ctx,
                  const tcn::net::Packet& p) override {
    const bool mark = probe_.timer.span(
        probe_.aqm, [&] { return inner_->on_dequeue(ctx, p); });
    const tcn::sim::Time sojourn = ctx.now - p.enqueue_ts;
    probe_.sojourn.record(sojourn);
    if (is_tcn_ && probe_.tcn_threshold >= 0) {
      ++probe_.tcn_decisions;
      if (mark != (sojourn > probe_.tcn_threshold)) ++probe_.tcn_violations;
    }
    return mark;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<tcn::net::Marker> inner_;
  Probe& probe_;
  bool is_tcn_;
};

/// Stands in for a Switch or Host as a port's peer, timing receive().
class NodeShim final : public tcn::net::Node {
 public:
  NodeShim(tcn::net::Node& inner, Probe& probe, LayerStat& layer)
      : inner_(inner), probe_(probe), layer_(layer) {}

  void receive(tcn::net::PacketPtr p, std::size_t ingress) override {
    probe_.timer.span(layer_,
                      [&] { inner_.receive(std::move(p), ingress); });
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }

 private:
  tcn::net::Node& inner_;
  Probe& probe_;
  LayerStat& layer_;
};

}  // namespace e2e
