// Host-speed reference: a fixed workload of the benchmark's own, timed beside
// every call into the simulator, that tells how fast the host runs this kind
// of code at that moment.
//
// The host's cores and caches are shared with other work, which slows the
// simulator by up to half for seconds to minutes at a time; the fastest call
// in a run cannot undo a slowdown that lasts the whole run (README,
// "Steadiness"). A binary heap of keys churned through push and pop is
// branchy, cache-resident code that slows with the simulator under that
// load, while its own code never changes: the benchmark divides each
// cell's host time by the reference time measured just before and after it.
#pragma once

namespace e2e {

/// Reference time on a quiet host of the kind the README describes, in
/// seconds: the scale of a calibrated time. Any fixed value would do; this
/// one keeps calibrated times close to the host's fastest real ones.
constexpr double kReferenceNominalS = 0.008;

/// Runs the reference once and returns its host time in seconds.
double reference_s();

}  // namespace e2e
