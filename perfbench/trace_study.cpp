// trace_study: what the paper's evaluation and a capacity planner run. No
// encoder, no statmux. A step evaluates one grid point (D, K, H, basic or
// modified) over the four paper sequences plus four seeded 50k-picture
// scene-process traces (a working set larger than the caches):
// runtime::BatchSmoother::run_into -> core::
// check_theorem1 -> net::run_live_pipeline, the last two as pool tasks.
// At the paper's parameter point the step also runs run_faulted_pipeline
// on the paper sequences with a seeded sim::FaultPlan.
#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/theorem.h"
#include "net/transport.h"
#include "runtime/batch.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "trace/sequences.h"
#include "trace/synthetic.h"
#include "workload.h"

namespace perfbench {
namespace {

using lsm::core::SmootherParams;
using lsm::core::Variant;
using lsm::trace::Trace;

constexpr int kLongTraces = 4;
constexpr int kLongPictures = 50000;

struct GridPoint {
  double D = 0.2;
  int K = 1;
  int h_patterns = 1;  ///< H = h_patterns * N of each trace
  Variant variant = Variant::kBasic;
};

/// Every point satisfies K >= 1 and D >= (K+1) tau, so Theorem 1 applies
/// to every schedule the study produces.
std::vector<GridPoint> make_grid() {
  std::vector<GridPoint> grid;
  for (const double D : {0.1, 0.2, 0.4}) {
    for (const int K : {1, 2}) {
      for (const int h : {1, 2}) {
        for (const Variant v : {Variant::kBasic, Variant::kMovingAverage}) {
          grid.push_back(GridPoint{D, K, h, v});
        }
      }
    }
  }
  return grid;
}

bool is_paper_point(const GridPoint& p) {
  return p.D == 0.2 && p.K == 1 && p.h_patterns == 1 &&
         p.variant == Variant::kBasic;
}

class TraceStudy final : public Workload {
 public:
  TraceStudy(std::uint64_t seed, int threads)
      : seed_(seed), threads_(threads), grid_(make_grid()) {}

  void setup() override {
    batch_.reset();
    traces_ = lsm::trace::paper_sequences();
    paper_count_ = traces_.size();
    lsm::sim::Rng rng(derive_seed(seed_, 21));
    const int patterns[kLongTraces][2] = {{9, 3}, {6, 2}, {12, 3}, {9, 3}};
    for (int k = 0; k < kLongTraces; ++k) {
      lsm::trace::SyntheticConfig config;
      config.name = "scene" + std::to_string(k);
      config.width = 352;
      config.height = 288;
      config.seed = derive_seed(seed_, 200 + static_cast<std::uint64_t>(k));
      int frames = 0;
      while (frames < kLongPictures) {
        lsm::trace::SceneSpec scene;
        scene.frames = std::min<int>(
            static_cast<int>(rng.uniform_int(60, 900)), kLongPictures - frames);
        scene.complexity = rng.uniform(0.5, 1.8);
        scene.motion_begin = rng.uniform(0.0, 1.0);
        scene.motion_end = rng.uniform(0.0, 1.0);
        config.scenes.push_back(scene);
        frames += scene.frames;
      }
      traces_.push_back(lsm::trace::synthesize(
          config, lsm::trace::GopPattern(patterns[k][0], patterns[k][1])));
    }
    // The default fault density, over the longest paper sequence.
    lsm::sim::FaultSpec spec;
    spec.seed = derive_seed(seed_, 300);
    for (std::size_t k = 0; k < paper_count_; ++k) {
      spec.horizon = std::max(spec.horizon, traces_[k].duration());
    }
    plan_ = lsm::sim::FaultPlan::generate(spec);
    batch_ = std::make_unique<lsm::runtime::BatchSmoother>(threads_);
    // Start the grid walk at a seeded point.
    step_ = static_cast<std::int64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(grid_.size()) - 1));
    results_.clear();
  }

  Window run_window(double seconds, SpanRecorder& spans,
                    FailureLedger& failures) override {
    Window window;
    violations_ = underflows_ = faulted_pictures_ = faulted_late_ = 0;
    changes_ = decisions_ = 0;
    smooth_ns_ = batch_wall_ns_ = 0;
    const lsm::runtime::PerfCounters before = batch_->counters().total();
    const std::uint64_t start = now_ns();
    const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
    // Whole grid cycles, one rate sample each: points differ in cost.
    std::uint64_t cycle_start = start;
    std::int64_t cycle_pictures = 0;
    while (now_ns() - start < budget ||
           window.step_ms.size() % grid_.size() != 0) {
      const std::uint64_t t0 = now_ns();
      const std::int64_t pictures = run_step(spans);
      const std::uint64_t t1 = now_ns();
      window.pictures += pictures;
      cycle_pictures += pictures;
      window.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      if (window.step_ms.size() % grid_.size() == 0) {
        window.rate_samples.push_back(
            static_cast<double>(cycle_pictures) /
            (static_cast<double>(t1 - cycle_start) * 1e-9));
        cycle_start = t1;
        cycle_pictures = 0;
      }
    }
    window.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    const lsm::runtime::PerfCounters after = batch_->counters().total();
    smooth_ns_ = after.wall_ns - before.wall_ns;
    decisions_ = static_cast<std::int64_t>(after.pictures - before.pictures);
    changes_ =
        static_cast<std::int64_t>(after.rate_changes - before.rate_changes);
    failures.attempt(window.pictures);
    failures.fail("Theorem 1 violation", violations_.load());
    failures.fail("transport underflow", underflows_.load());
    failures.fail("smoothing decisions != pictures",
                  decisions_ != window.pictures);
    return window;
  }

  void check(FailureLedger& failures) override {
    failures.attempt();
    failures.fail("faulted pipeline never ran", faulted_pictures_ == 0);
  }

  void layer_figures(const Window& traced, const SpanRecorder& spans,
                     LayerFigures& out) override {
    const LayerTable table(spans.spans());
    const auto self = [&](const char* name) { return table.self_ns(name); };
    const auto share = [&](const char* name) { return table.share(name); };
    const double pictures = static_cast<double>(traced.pictures);
    out["core.smooth.ns_per_decision"] =
        static_cast<double>(smooth_ns_) / static_cast<double>(decisions_);
    out["core.smooth.share"] = share("core.smooth");
    out["core.smooth.rate_changes_per_picture"] =
        static_cast<double>(changes_) / static_cast<double>(decisions_);
    out["core.theorem.ns_per_picture"] = self("core.theorem") / pictures;
    out["core.theorem.share"] = share("core.theorem");
    out["core.theorem.violations"] = static_cast<double>(violations_.load());
    out["net.transport.ns_per_picture"] =
        (self("net.transport") + self("net.transport.faulted")) / pictures;
    out["net.transport.share"] =
        share("net.transport") + share("net.transport.faulted");
    out["net.transport.underflows"] = static_cast<double>(underflows_.load());
    out["net.transport.late_ratio_faulted"] =
        faulted_pictures_ > 0 ? static_cast<double>(faulted_late_.load()) /
                                    static_cast<double>(faulted_pictures_)
                              : 0.0;
    out["runtime.batch.worker_busy_ratio"] =
        batch_wall_ns_ > 0
            ? static_cast<double>(smooth_ns_) /
                  (static_cast<double>(batch_wall_ns_) * threads_)
            : 0.0;
  }

 private:
  /// One grid point over every trace. Returns the pictures carried through
  /// smoothing, the check and the transport.
  std::int64_t run_step(SpanRecorder& spans) {
    const GridPoint& point =
        grid_[static_cast<std::size_t>(step_ % static_cast<std::int64_t>(
                                                   grid_.size()))];
    ++step_;
    jobs_.clear();
    for (const Trace& trace : traces_) {
      SmootherParams params;
      params.D = point.D;
      params.K = point.K;
      params.H = point.h_patterns * trace.pattern().N();
      params.tau = trace.tau();
      jobs_.push_back(lsm::runtime::BatchJob{&trace, params, point.variant});
    }

    // Smoothing: thread time split into the kernels' own work (the batch
    // counters) and the rest of the pool's time in the call.
    const std::uint64_t smooth_before = batch_->counters().total().wall_ns;
    const std::uint64_t b0 = now_ns();
    batch_->run_into(jobs_, results_);
    const std::uint64_t b1 = now_ns();
    batch_wall_ns_ += b1 - b0;
    if (spans.enabled()) {
      const std::uint64_t work =
          batch_->counters().total().wall_ns - smooth_before;
      const std::uint64_t pool = (b1 - b0) * static_cast<std::uint64_t>(threads_);
      spans.add("core.smooth", -1, b0, b0 + work);
      spans.add("runtime.batch", -1, b0, b0 + (pool > work ? pool - work : 0));
    }

    // Check and transport, one pool task per schedule.
    const bool paper_point = is_paper_point(point);
    std::vector<std::function<void()>> tasks;
    std::int64_t pictures = 0;
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      const Trace* trace = jobs_[k].trace;
      pictures += trace->picture_count();
      const bool faulted = paper_point && k < paper_count_;
      tasks.push_back([this, &spans, trace, k, faulted] {
        const std::uint64_t t0 = now_ns();
        const lsm::core::SmoothingResult& result = results_[k];
        {
          const ScopedSpan span(spans, "core.theorem");
          if (!lsm::core::check_theorem1(result, *trace).all_ok()) {
            ++violations_;
          }
        }
        lsm::net::PipelineConfig config;
        config.params = result.params;
        {
          const ScopedSpan span(spans, "net.transport");
          underflows_ += lsm::net::run_live_pipeline(*trace, config).underflows;
        }
        if (faulted) {
          const ScopedSpan span(spans, "net.transport.faulted");
          lsm::net::FaultedPipelineConfig faulted_config;
          faulted_config.base = config;
          const lsm::net::FaultedPipelineReport report =
              lsm::net::run_faulted_pipeline(*trace, faulted_config, plan_);
          faulted_pictures_ += trace->picture_count();
          faulted_late_ += report.report.underflows;
        }
        task_ns_ += now_ns() - t0;
      });
    }
    task_ns_ = 0;
    const std::uint64_t c0 = now_ns();
    batch_->pool().submit_batch(tasks);
    batch_->pool().wait_idle();
    const std::uint64_t c1 = now_ns();
    if (spans.enabled()) {
      // The pool's thread time in the phase that no task used.
      const std::uint64_t capacity =
          (c1 - c0) * static_cast<std::uint64_t>(threads_);
      const std::uint64_t busy = task_ns_.load();
      spans.add("runtime.pool_idle", -1, c0,
                c0 + (capacity > busy ? capacity - busy : 0));
    }
    return pictures;
  }

  std::uint64_t seed_;
  int threads_;
  std::vector<GridPoint> grid_;
  std::vector<Trace> traces_;  ///< the paper sequences, then the long ones
  std::size_t paper_count_ = 0;
  lsm::sim::FaultPlan plan_;
  std::unique_ptr<lsm::runtime::BatchSmoother> batch_;
  std::vector<lsm::runtime::BatchJob> jobs_;
  std::vector<lsm::core::SmoothingResult> results_;
  std::int64_t step_ = 0;

  std::atomic<std::int64_t> violations_{0};
  std::atomic<std::int64_t> underflows_{0};
  std::atomic<std::int64_t> faulted_pictures_{0};
  std::atomic<std::int64_t> faulted_late_{0};
  std::atomic<std::uint64_t> task_ns_{0};
  std::int64_t changes_ = 0;
  std::int64_t decisions_ = 0;
  std::uint64_t smooth_ns_ = 0;
  std::uint64_t batch_wall_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_trace_study(std::uint64_t seed, int threads) {
  return std::make_unique<TraceStudy>(seed, threads);
}

}  // namespace perfbench
