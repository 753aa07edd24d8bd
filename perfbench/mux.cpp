// mux_steady and mux_churn: the sharded StatmuxService under a closed-loop
// epoch driver at the real per-picture cadence (period_ticks = 1, so every
// resident stream is dirty every tick).
//
//   mux_steady  ~50k endless streams; the advance path does all the work.
//   mux_churn   ~20k finite sessions of 60-120 pictures, each replaced as
//               it ends, a seeded share departing early: admission and
//               departure run every tick beside the advance path.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/streaming.h"
#include "net/statmux.h"
#include "runtime/pool.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using lsm::core::PictureSend;
using lsm::core::StreamingSmoother;
using lsm::net::StatmuxService;
using lsm::net::StreamSpec;

constexpr int kShards = 8;
constexpr int kHealthEvery = 30;  ///< epochs between health_json() scrapes
/// Warm-up: past the smoother's trim threshold (~84 pictures at one
/// picture per tick) and one full 256-tick level-0 lap of the timing
/// wheel, the same rule as bench/mux_scale.
constexpr int kWarmupEpochs = 110 + 1 + 256;

/// The three GOP patterns of the paper's sequences.
constexpr int kPatterns[3][2] = {{9, 3}, {6, 2}, {12, 3}};

/// Every stream's smoothing parameters: the paper's D = 0.2 s, K = 1,
/// H = N at 30 pictures/s.
lsm::core::SmootherParams stream_params(int gop_n) {
  lsm::core::SmootherParams params;
  params.tau = 1.0 / 30.0;
  params.D = 0.2;
  params.K = 1;
  params.H = gop_n;
  return params;
}

/// One finite session of mux_churn, as the driver planned it.
struct Session {
  std::uint32_t id = 0;
  std::int64_t admit_tick = 0;   ///< tick of the first picture
  int pictures = 0;              ///< picture_count
  std::int64_t depart_tick = -1; ///< early departure epoch, -1 = none
  std::uint64_t feed_seed = 0;
  int pattern = 0;
};

class MuxWorkload final : public Workload {
 public:
  MuxWorkload(std::uint64_t seed, int threads, bool churn)
      : seed_(seed), threads_(threads), churn_(churn),
        streams_(churn ? 20000 : 50000) {}

  void setup() override {
    // A repeated set-up starts from nothing: the same seed, no service.
    service_.reset();
    pool_.reset();
    rng_ = lsm::sim::Rng(derive_seed(seed_, 31));
    next_id_ = 1;
    ticks_ = 0;
    replace_ = true;
    refused_ = 0;
    plan_ = Plan{};
    departures_.clear();
    for (std::vector<Session>& due : calendar_) due.clear();

    pool_ = std::make_unique<lsm::runtime::ThreadPool>(threads_);
    lsm::net::StatmuxConfig config;
    config.shards = kShards;
    config.threads = threads_;
    config.ring_capacity =
        static_cast<std::size_t>(streams_ / kShards) * 2 + 64;
    config.max_streams_per_shard = streams_;
    config.link_rate_bps = 1e15;  // admission never binds on rate
    config.rate_history_limit = 1024;
    service_ = std::make_unique<StatmuxService>(config, pool_.get());

    const double rss_before = current_rss_bytes();
    for (int k = 0; k < streams_; ++k) {
      // Initial sessions start at a seeded tick so their ends spread over
      // a session lifetime instead of all landing together.
      const std::int64_t start =
          churn_ ? rng_.uniform_int(0, 119) : std::int64_t{0};
      admit_new(start);
    }
    while (ticks_ < kWarmupEpochs) tick(nullptr, -1);
    // Later set-ups reuse the heap the first one released, so only the
    // first measures the memory residency costs.
    if (rss_growth_bytes_ == 0.0) {
      rss_growth_bytes_ = current_rss_bytes() - rss_before;
    }
  }

  Window run_window(double seconds, SpanRecorder& spans,
                    FailureLedger& failures) override {
    Window window;
    busy_before_ = shard_busy();
    const lsm::net::StatmuxStats before = service_->stats();
    admit_ns_ = 0;
    admit_calls_ = 0;
    health_ns_ = 0;
    health_calls_ = 0;
    driver_ns_ = 0;
    parallel_ns_ = 0;
    epochs_ = 0;
    dirty_total_ = 0;
    const std::uint64_t start = now_ns();
    const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
    // Whole health cycles (kHealthEvery epochs and one scrape), one rate
    // sample each.
    std::uint64_t cycle_start = start;
    std::int64_t cycle_decisions = before.decisions;
    while (now_ns() - start < budget || epochs_ % kHealthEvery != 0) {
      const int root = spans.open("step");
      const std::uint64_t t0 = now_ns();
      tick(&spans, root);
      const std::uint64_t t1 = now_ns();
      spans.close(root);
      window.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      dirty_total_ += service_->last_dirty_streams();
      ++epochs_;
      if (epochs_ % kHealthEvery == 0) {
        const ScopedSpan span(spans, "obs.health_json");
        const std::uint64_t h0 = now_ns();
        service_->health_json();
        const std::uint64_t h1 = now_ns();
        health_ns_ += h1 - h0;
        ++health_calls_;
        const std::int64_t decisions = service_->stats().decisions;
        window.rate_samples.push_back(
            static_cast<double>(decisions - cycle_decisions) /
            (static_cast<double>(h1 - cycle_start) * 1e-9));
        cycle_start = h1;
        cycle_decisions = decisions;
      }
    }
    window.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    const lsm::net::StatmuxStats after = service_->stats();
    window.pictures = after.decisions - before.decisions;
    failures.attempt(window.pictures + admit_calls_);
    return window;
  }

  void check(FailureLedger& failures) override {
    const lsm::net::StatmuxStats stats = service_->stats();
    failures.fail("statmux admission refused", refused_);
    failures.fail("statmux admission rejected",
                  stats.rejected_duplicate + stats.rejected_capacity +
                      stats.rejected_rate);
    failures.fail("statmux delay-slack clamp",
                  static_cast<std::int64_t>(
                      service_->delay_slack_sketch().clamped()));
    if (!churn_) {
      // Every endless stream pushes one picture per tick; each holds back
      // at most a bounded decision backlog.
      const std::int64_t expected = static_cast<std::int64_t>(streams_) *
                                    static_cast<std::int64_t>(ticks_);
      failures.attempt(3);
      failures.fail("statmux picture count", stats.pictures != expected);
      failures.fail("statmux residency",
                    service_->active_streams() != streams_);
      const std::int64_t backlog = stats.pictures - stats.decisions;
      failures.fail("statmux decision backlog",
                    backlog < 0 || backlog > static_cast<std::int64_t>(
                                                 streams_) * 16);
      return;
    }
    // Drain: no replacements, pending early departures still apply, until
    // every session has ended. Then every finished session must have one
    // decision per picture, and every departed one the decisions a
    // standalone smoother makes on the pictures it received.
    replace_ = false;
    const std::int64_t limit = ticks_ + 200;
    while (service_->active_streams() > 0 && ticks_ < limit) {
      tick(nullptr, -1);
    }
    const lsm::net::StatmuxStats end = service_->stats();
    std::int64_t decisions = plan_.finished_pictures;
    std::int64_t changes = 0;
    for (const Departure& d : departures_) {
      decisions += replay(d.feed_seed, d.pattern, d.pushed, changes);
    }
    const std::int64_t departed = static_cast<std::int64_t>(departures_.size());
    failures.attempt(5);
    failures.fail("statmux sessions left resident",
                  service_->active_streams() != 0);
    failures.fail("statmux admitted != sessions",
                  end.admitted != plan_.sessions);
    failures.fail("statmux finished != sessions - departed",
                  end.finished != plan_.sessions - departed ||
                      end.departed != departed);
    failures.fail("statmux pictures != planned", end.pictures != plan_.pictures);
    failures.fail("statmux decisions != pictures of finished sessions",
                  end.decisions != decisions);
  }

  void layer_figures(const Window& traced, const SpanRecorder&,
                     LayerFigures& out) override {
    const double decisions = static_cast<double>(traced.pictures);
    const std::vector<double> busy = shard_busy();
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t s = 0; s < busy.size(); ++s) {
      const double d = busy[s] - busy_before_[s];
      sum += d;
      max = std::max(max, d);
    }
    const double mean = sum / static_cast<double>(busy.size());
    const double epochs = static_cast<double>(std::max<std::int64_t>(1, epochs_));
    const double wall_ns = traced.wall_s * 1e9;
    out["net.statmux.ns_per_decision"] = wall_ns / decisions;
    out["net.statmux.shard_busy_ns_per_decision"] = sum * 1e9 / decisions;
    out["net.statmux.driver_ms_per_epoch"] =
        static_cast<double>(driver_ns_) * 1e-6 / epochs;
    out["net.statmux.shard_imbalance"] = mean > 0.0 ? max / mean : 1.0;
    out["net.statmux.dirty_per_epoch"] =
        static_cast<double>(dirty_total_) / epochs;
    out["net.statmux.wheel_entries"] =
        static_cast<double>(service_->wheel_entries());
    out["net.statmux.admit_ns"] =
        admit_calls_ > 0 ? static_cast<double>(admit_ns_) /
                               static_cast<double>(admit_calls_)
                         : 0.0;
    const lsm::net::StatmuxStats stats = service_->stats();
    out["net.statmux.admit_refused"] = static_cast<double>(refused_);
    out["net.statmux.rejected"] = static_cast<double>(
        stats.rejected_duplicate + stats.rejected_capacity +
        stats.rejected_rate);
    out["net.statmux.slack_clamped"] =
        static_cast<double>(service_->delay_slack_sketch().clamped());
    out["net.statmux.bytes_per_stream"] =
        rss_growth_bytes_ / static_cast<double>(streams_);
    out["obs.health_json.ms"] =
        health_calls_ > 0 ? static_cast<double>(health_ns_) * 1e-6 /
                                static_cast<double>(health_calls_)
                          : 0.0;

    // The smoother kernel's own cost on the same feed, replayed on a
    // standalone StreamingSmoother. Its share of the shard busy time is the
    // part of the advance path that is smoothing.
    const KernelCost kernel = kernel_cost();
    out["core.smooth.ns_per_decision"] = kernel.ns_per_decision;
    out["core.smooth.share"] =
        sum > 0.0 ? kernel.ns_per_decision * decisions / (sum * 1e9) : 0.0;
    out["core.smooth.rate_changes_per_picture"] =
        kernel.rate_changes_per_picture;
    out["core.theorem.violations"] = out["net.statmux.slack_clamped"];
    ledger_ = {
        "epochs: " + std::to_string(epochs_),
        "epoch wall ms (mean): " +
            std::to_string(wall_ns * 1e-6 / epochs),
        "shards' parallel ms per epoch (max of busiest shard, busy sum / "
        "threads): " +
            std::to_string(static_cast<double>(parallel_ns_) * 1e-6 / epochs),
        "driver serial ms per epoch (wall - parallel part): " +
            std::to_string(static_cast<double>(driver_ns_) * 1e-6 / epochs),
        "shard busy sum / (threads x wall): " +
            std::to_string(sum * 1e9 / (wall_ns * threads_)),
        "shard imbalance (busiest / mean): " +
            std::to_string(mean > 0.0 ? max / mean : 1.0),
        "smoother kernel ns per decision (standalone replay): " +
            std::to_string(kernel.ns_per_decision),
        "statmux wall ns per decision: " + std::to_string(wall_ns / decisions),
    };
  }

  std::vector<std::string> ledger_notes() const override { return ledger_; }

 private:
  struct KernelCost {
    double ns_per_decision = 0.0;
    double rate_changes_per_picture = 0.0;
  };

  StreamSpec spec_of(const Session& s) const {
    StreamSpec spec;
    spec.id = s.id;
    spec.gop_n = kPatterns[s.pattern][0];
    spec.gop_m = kPatterns[s.pattern][1];
    spec.params = stream_params(spec.gop_n);
    spec.feed_seed = s.feed_seed;
    spec.picture_count = s.pictures;
    spec.period_ticks = 1;
    spec.phase_ticks = static_cast<int>(s.admit_tick);
    return spec;
  }

  /// Plans and admits one session whose first picture arrives at `start`.
  void admit_new(std::int64_t start) {
    Session s;
    s.id = next_id_++;
    s.admit_tick = start;
    s.feed_seed = derive_seed(seed_, 1000 + s.id);
    s.pattern = static_cast<int>(rng_.uniform_int(0, 2));
    if (churn_) {
      s.pictures = static_cast<int>(rng_.uniform_int(60, 120));
      if (rng_.uniform() < 0.15) {
        s.depart_tick = start + rng_.uniform_int(1, s.pictures - 2);
      }
    }
    const std::uint64_t t0 = now_ns();
    const bool ok = service_->admit(spec_of(s));
    admit_ns_ += now_ns() - t0;
    ++admit_calls_;
    if (!ok) {
      ++refused_;
      return;
    }
    if (churn_) {
      ++plan_.sessions;
      if (s.depart_tick >= 0) {
        const int pushed = static_cast<int>(s.depart_tick - start);
        plan_.pictures += pushed;
        departures_.push_back(Departure{s.feed_seed, s.pattern, pushed});
        calendar_at(s.depart_tick).push_back(s);
      } else {
        plan_.pictures += s.pictures;
        plan_.finished_pictures += s.pictures;
        calendar_at(start + s.pictures).push_back(s);
      }
    }
  }

  std::vector<Session>& calendar_at(std::int64_t tick) {
    const std::size_t slot = static_cast<std::size_t>(tick) % calendar_.size();
    return calendar_[slot];
  }

  /// One driver tick: this tick's departures and replacement admissions,
  /// then run_epoch(). Sessions ending at this tick either depart now
  /// (early) or finished during the previous epoch; each is replaced.
  void tick(SpanRecorder* spans, int parent) {
    if (churn_) {
      const int span =
          spans != nullptr ? spans->open("net.statmux.admit", parent) : -1;
      // admit_new() files new sessions 1 to 120 ticks ahead, never into
      // this tick's slot of the 256-slot ring, so the loop may call it.
      std::vector<Session>& due = calendar_at(ticks_);
      for (const Session& s : due) {
        if (s.depart_tick == ticks_) {
          const std::uint64_t t0 = now_ns();
          const bool ok = service_->depart(s.id);
          admit_ns_ += now_ns() - t0;
          ++admit_calls_;
          if (!ok) ++refused_;
        }
        if (replace_) admit_new(ticks_);
      }
      due.clear();
      if (spans != nullptr) spans->close(span);
    }
    const bool traced = spans != nullptr && spans->enabled();
    std::vector<double> busy0;
    if (traced) busy0 = shard_busy();
    const std::uint64_t e0 = now_ns();
    const int epoch =
        spans != nullptr ? spans->open("net.statmux.epoch", parent) : -1;
    service_->run_epoch();
    if (spans != nullptr) spans->close(epoch);
    const std::uint64_t e1 = now_ns();
    if (traced) {
      // Split the epoch into the shards' parallel part and the driver's
      // serial part (dispatch, merge, link model). The parallel part is
      // the busiest shard, or the shards' summed busy time spread over
      // the pool when there are more shards than threads.
      const std::vector<double> busy1 = shard_busy();
      double max = 0.0;
      double sum = 0.0;
      for (std::size_t s = 0; s < busy1.size(); ++s) {
        max = std::max(max, busy1[s] - busy0[s]);
        sum += busy1[s] - busy0[s];
      }
      const double parallel = std::max(max, sum / threads_);
      const std::uint64_t parallel_ns =
          std::min<std::uint64_t>(e1 - e0, static_cast<std::uint64_t>(parallel * 1e9));
      parallel_ns_ += parallel_ns;
      driver_ns_ += (e1 - e0) - parallel_ns;
      spans->add("net.statmux.shards", epoch, e0, e0 + parallel_ns);
    }
    ++ticks_;
  }

  std::vector<double> shard_busy() const {
    std::vector<double> busy(static_cast<std::size_t>(kShards));
    for (int s = 0; s < kShards; ++s) {
      busy[static_cast<std::size_t>(s)] = service_->shard_busy_seconds(s);
    }
    return busy;
  }

  /// Pushes pictures 1..`pushed` of the feed `feed` with pattern
  /// `pattern` through a standalone smoother, draining after each push as
  /// a shard does (no finish()). Returns the decisions released; adds the
  /// rate changes among them to `changes`.
  static std::int64_t replay(std::uint64_t feed, int pattern, int pushed,
                             std::int64_t& changes) {
    const lsm::trace::GopPattern gop(kPatterns[pattern][0],
                                     kPatterns[pattern][1]);
    const lsm::core::DefaultSizes defaults;
    StreamingSmoother smoother(gop, stream_params(gop.N()), defaults);
    std::vector<PictureSend> sends;
    std::int64_t decided = 0;
    double last_rate = -1.0;
    for (int i = 1; i <= pushed; ++i) {
      smoother.push(lsm::net::synthetic_picture_size(feed, i, gop.type_of(i),
                                                     defaults));
      sends.clear();
      decided += smoother.drain_into(sends);
      for (const PictureSend& send : sends) {
        changes += send.rate != last_rate ? 1 : 0;
        last_rate = send.rate;
      }
    }
    return decided;
  }

  /// The smoother kernel's cost on 256 streams of the same synthetic feed.
  KernelCost kernel_cost() const {
    constexpr int kStreams = 256;
    constexpr int kPictures = 600;
    std::int64_t decisions = 0;
    std::int64_t changes = 0;
    const std::uint64_t t0 = now_ns();
    for (int k = 0; k < kStreams; ++k) {
      decisions += replay(derive_seed(seed_, 1000 + k + 1), k % 3, kPictures,
                          changes);
    }
    const double ns = static_cast<double>(now_ns() - t0);
    KernelCost cost;
    cost.ns_per_decision = ns / static_cast<double>(decisions);
    cost.rate_changes_per_picture =
        static_cast<double>(changes) / static_cast<double>(decisions);
    return cost;
  }

  std::uint64_t seed_;
  int threads_;
  bool churn_;
  int streams_;
  lsm::sim::Rng rng_;
  std::unique_ptr<lsm::runtime::ThreadPool> pool_;
  std::unique_ptr<StatmuxService> service_;

  std::uint32_t next_id_ = 1;
  std::int64_t ticks_ = 0;
  bool replace_ = true;
  /// The driver's plan, summed as sessions are admitted: what the service
  /// must report once every session has ended.
  struct Plan {
    std::int64_t sessions = 0;
    std::int64_t pictures = 0;           ///< pictures pushed, all sessions
    std::int64_t finished_pictures = 0;  ///< pictures of finishing sessions
  };
  /// A session that departs early, for check() to replay.
  struct Departure {
    std::uint64_t feed_seed = 0;
    int pattern = 0;
    int pushed = 0;  ///< pictures it received before departing
  };
  Plan plan_;
  std::vector<Departure> departures_;
  /// Ring of per-tick lists of the sessions ending at that tick; a session
  /// ends at most 120 ticks after it is planned.
  std::vector<std::vector<Session>> calendar_ =
      std::vector<std::vector<Session>>(256);

  std::int64_t refused_ = 0;
  double rss_growth_bytes_ = 0.0;
  std::uint64_t admit_ns_ = 0;
  std::int64_t admit_calls_ = 0;
  std::uint64_t health_ns_ = 0;
  std::int64_t health_calls_ = 0;
  std::uint64_t driver_ns_ = 0;
  std::uint64_t parallel_ns_ = 0;
  std::int64_t epochs_ = 0;
  std::int64_t dirty_total_ = 0;
  std::vector<double> busy_before_;
  std::vector<std::string> ledger_;
};

}  // namespace

std::unique_ptr<Workload> make_mux_steady(std::uint64_t seed, int threads) {
  return std::make_unique<MuxWorkload>(seed, threads, false);
}

std::unique_ptr<Workload> make_mux_churn(std::uint64_t seed, int threads) {
  return std::make_unique<MuxWorkload>(seed, threads, true);
}

}  // namespace perfbench
