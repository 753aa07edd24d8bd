// The interface every benchmark workload implements, and the per-layer
// figures it reports. main.cpp owns the run protocol: set up several
// times, measure a window (untraced, or half untraced then half traced),
// check outputs, print metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What one timed window produced.
struct Window {
  std::int64_t pictures = 0;   ///< pictures carried end to end
  double wall_s = 0.0;         ///< window length, seconds
  std::vector<double> step_ms; ///< one closed-loop step each
  /// Pictures per second over consecutive intervals of the window (one
  /// per round of the workload's cycle); their median is pictures_per_s,
  /// which a burst of load from other processes moves less than the mean.
  std::vector<double> rate_samples;
};

/// Per-layer figures: metric name -> value (units are fixed in main.cpp).
using LayerFigures = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input and warms the system; counted only toward
  /// setup_s. Called once per workload object.
  virtual void setup() = 0;

  /// Runs closed-loop steps for at least `seconds`, recording spans into
  /// `spans` (a disabled recorder records nothing). Output checks whose
  /// evidence is consumed during the window are recorded into `failures`.
  virtual Window run_window(double seconds, SpanRecorder& spans,
                            FailureLedger& failures) = 0;

  /// Output checks that need the whole run (after every window).
  virtual void check(FailureLedger& failures) = 0;

  /// Per-layer figures of `traced` (the traced window) from `spans` and
  /// the workload's own counters.
  virtual void layer_figures(const Window& traced, const SpanRecorder& spans,
                             LayerFigures& out) = 0;

  /// Rows for the ledger beyond the span self times (e.g. the statmux
  /// epoch split), as "label: value" lines.
  virtual std::vector<std::string> ledger_notes() const { return {}; }
};

/// live_cif always runs one worker per stream (four).
std::unique_ptr<Workload> make_live_cif(std::uint64_t seed);
std::unique_ptr<Workload> make_trace_study(std::uint64_t seed, int threads);
std::unique_ptr<Workload> make_mux_steady(std::uint64_t seed, int threads);
std::unique_ptr<Workload> make_mux_churn(std::uint64_t seed, int threads);

}  // namespace perfbench
