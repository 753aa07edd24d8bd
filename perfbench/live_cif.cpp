// live_cif: the paper's Figure 1 on real bytes, as a closed loop. Four
// seeded 176x144 synthetic videos (N=9, M=3, scene changes, mixed
// motion), one worker thread per stream. A step is one GOP:
// Encoder::encode_into on a warm workspace -> parse_stream ->
// StreamingSmoother push/drain_into. After each pass over its video a
// worker finishes the smoother, checks the schedule, runs the parsed
// trace through run_live_pipeline and packetizes it; when all four passes
// are in, the cells go through simulate_cell_mux.
#include <atomic>
#include <barrier>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "core/theorem.h"
#include "mpeg/encoder.h"
#include "mpeg/parser.h"
#include "mpeg/videogen.h"
#include "net/mux.h"
#include "net/packetize.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using lsm::core::PictureSend;
using lsm::trace::GopPattern;

constexpr int kStreams = 4;
constexpr int kGopsPerPass = 10;
constexpr int kGop = 9;

lsm::core::SmootherParams paper_params() {
  lsm::core::SmootherParams params;
  params.K = 1;
  params.H = kGop;
  params.D = 0.2;
  params.tau = 1.0 / 30.0;
  return params;
}

/// Decisions of a pass whose lookahead window [i, i+H-1] lies inside the
/// pass. The live smoother decides the rest without knowing where the
/// sequence ends (streaming.h: the window is never truncated before
/// finish()), while smooth_basic truncates it there, so only these are
/// comparable bitwise; Theorem 1 is checked on all of them.
constexpr std::size_t kOracleDecisions = kGopsPerPass * kGop - kGop + 1;

/// True when the first `count` sends of `a` and `b` exist and are
/// bitwise equal.
bool same_prefix(const std::vector<PictureSend>& a,
                 const std::vector<PictureSend>& b, std::size_t count) {
  if (a.size() < count || b.size() < count) return false;
  for (std::size_t k = 0; k < count; ++k) {
    const PictureSend& x = a[k];
    const PictureSend& y = b[k];
    if (x.index != y.index || x.bits != y.bits ||
        std::memcmp(&x.start, &y.start, sizeof x.start) != 0 ||
        std::memcmp(&x.depart, &y.depart, sizeof x.depart) != 0 ||
        std::memcmp(&x.rate, &y.rate, sizeof x.rate) != 0 ||
        std::memcmp(&x.delay, &y.delay, sizeof x.delay) != 0) {
      return false;
    }
  }
  return true;
}

/// Everything one worker owns: its video, split into GOPs, and the warm
/// encoder and smoother state it reuses pass after pass.
struct Stream {
  std::vector<std::vector<lsm::mpeg::Frame>> gops;
  lsm::mpeg::EncodeWorkspace workspace;
  lsm::mpeg::EncodeResult encoded;
  std::unique_ptr<lsm::core::StreamingSmoother> smoother;
  std::vector<lsm::trace::Bits> pass_sizes;  ///< display order
  std::vector<PictureSend> sends;
  std::vector<lsm::net::Cell> cells;

  // Tallies of the current window.
  std::int64_t pictures = 0;
  std::int64_t bits = 0;
  std::int64_t mismatches = 0;
  std::int64_t violations = 0;
  std::int64_t underflows = 0;
  std::int64_t oracle_mismatches = 0;
  std::int64_t rate_changes = 0;
  std::int64_t decisions = 0;
  std::vector<double> step_ms;
};

class LiveCif final : public Workload {
 public:
  explicit LiveCif(std::uint64_t seed)
      : seed_(seed),
        encoder_([] {
          lsm::mpeg::EncoderConfig config;
          config.pattern = GopPattern(kGop, 3);
          return config;
        }()) {}

  void setup() override {
    streams_.clear();
    streams_.resize(kStreams);
    lsm::sim::Rng rng(derive_seed(seed_, 11));
    sampled_ = static_cast<int>(rng.uniform_int(0, kStreams - 1));
    double total_rate = 0.0;
    for (int s = 0; s < kStreams; ++s) {
      Stream& stream = streams_[static_cast<std::size_t>(s)];
      lsm::mpeg::VideoConfig video;
      video.width = 176;
      video.height = 144;
      video.seed = derive_seed(seed_, 100 + static_cast<std::uint64_t>(s));
      // Every video holds the same four scenes in a seeded order, with
      // seeded textures: the seed changes the bytes, not the amount of
      // coding work, so seeds compare like for like.
      video.scenes = {{24, 1.5, 0.8}, {21, 0.7, 0.15}, {24, 1.1, 0.5},
                      {21, 0.9, 0.3}};
      for (std::size_t k = video.scenes.size() - 1; k > 0; --k) {
        std::swap(video.scenes[k],
                  video.scenes[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
      }
      const std::vector<lsm::mpeg::Frame> frames_all =
          lsm::mpeg::generate_video(video);
      for (int g = 0; g < kGopsPerPass; ++g) {
        stream.gops.emplace_back(frames_all.begin() + g * kGop,
                                 frames_all.begin() + (g + 1) * kGop);
      }
      stream.smoother = std::make_unique<lsm::core::StreamingSmoother>(
          GopPattern(kGop, 3), paper_params());
      // Warm the workspace and size the link: one untimed pass of encodes.
      std::int64_t bits = 0;
      for (const auto& gop : stream.gops) {
        encoder_.encode_into(gop, stream.encoded, stream.workspace);
        for (const auto& picture : stream.encoded.pictures) {
          bits += picture.bits;
        }
      }
      total_rate += static_cast<double>(bits) /
                    (kGopsPerPass * kGop * paper_params().tau);
    }
    // The shared link runs at 1.1x the four streams' mean rate.
    mux_config_.service_rate_bps = 1.1 * total_rate;
    mux_config_.buffer_cells = 200;
  }

  Window run_window(double seconds, SpanRecorder& spans,
                    FailureLedger& failures) override {
    for (Stream& stream : streams_) {
      stream.pictures = stream.bits = stream.mismatches = 0;
      stream.violations = stream.underflows = stream.oracle_mismatches = 0;
      stream.rate_changes = stream.decisions = 0;
      stream.step_ms.clear();
    }
    mux_arrived_ = mux_dropped_ = 0;
    passes_ = 0;
    std::atomic<bool> stop{false};
    std::vector<double> rates;
    const std::uint64_t start = now_ns();
    const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t end = start;
    std::int64_t round_pictures = 0;
    auto on_passes_done = [&]() noexcept {
      const int span = spans.open("net.mux");
      std::vector<std::vector<lsm::net::Cell>> sources;
      for (Stream& stream : streams_) sources.push_back(std::move(stream.cells));
      const lsm::net::MuxResult mux =
          lsm::net::simulate_cell_mux(sources, mux_config_);
      spans.close(span);
      mux_arrived_ += mux.arrived;
      mux_dropped_ += mux.dropped;
      ++passes_;
      const std::uint64_t round_start = end;
      end = now_ns();
      std::int64_t pictures = 0;
      for (const Stream& stream : streams_) pictures += stream.pictures;
      rates.push_back(static_cast<double>(pictures - round_pictures) /
                      (static_cast<double>(end - round_start) * 1e-9));
      round_pictures = pictures;
      if (end - start >= budget) stop.store(true);
    };
    std::barrier sync(kStreams, on_passes_done);
    std::vector<std::thread> workers;
    for (int s = 0; s < kStreams; ++s) {
      workers.emplace_back([&, s] {
        while (!stop.load()) {
          run_pass(s, spans);
          sync.arrive_and_wait();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    Window window;
    window.wall_s = static_cast<double>(end - start) * 1e-9;
    window.rate_samples = std::move(rates);
    std::int64_t mismatches = 0, violations = 0, underflows = 0, oracle = 0;
    for (Stream& stream : streams_) {
      window.pictures += stream.pictures;
      window.step_ms.insert(window.step_ms.end(), stream.step_ms.begin(),
                            stream.step_ms.end());
      mismatches += stream.mismatches;
      violations += stream.violations;
      underflows += stream.underflows;
      oracle += stream.oracle_mismatches;
    }
    failures.attempt(window.pictures);
    failures.fail("parse size mismatch", mismatches);
    failures.fail("Theorem 1 violation", violations);
    failures.fail("transport underflow", underflows);
    failures.fail("streaming decisions != smooth_basic", oracle);
    return window;
  }

  void check(FailureLedger& failures) override {
    failures.attempt();
    failures.fail("no complete pass in the window", passes_ == 0);
  }

  void layer_figures(const Window& traced, const SpanRecorder& spans,
                     LayerFigures& out) override {
    const LayerTable table(spans.spans());
    const auto self = [&](const char* name) { return table.self_ns(name); };
    const auto share = [&](const char* name) { return table.share(name); };
    const double pictures = static_cast<double>(traced.pictures);
    std::int64_t bits = 0, mismatches = 0, violations = 0, underflows = 0;
    std::int64_t changes = 0, decisions = 0;
    for (const Stream& stream : streams_) {
      bits += stream.bits;
      mismatches += stream.mismatches;
      violations += stream.violations;
      underflows += stream.underflows;
      changes += stream.rate_changes;
      decisions += stream.decisions;
    }
    out["mpeg.encode.ns_per_picture"] = self("mpeg.encode") / pictures;
    out["mpeg.encode.share"] = share("mpeg.encode");
    out["mpeg.encode.bits_per_picture"] = static_cast<double>(bits) / pictures;
    out["mpeg.parse.ns_per_picture"] = self("mpeg.parse") / pictures;
    out["mpeg.parse.share"] = share("mpeg.parse");
    out["mpeg.parse.size_mismatches"] = static_cast<double>(mismatches);
    out["core.smooth.ns_per_decision"] =
        self("core.smooth") / static_cast<double>(decisions);
    out["core.smooth.share"] = share("core.smooth");
    out["core.smooth.rate_changes_per_picture"] =
        static_cast<double>(changes) / static_cast<double>(decisions);
    out["core.theorem.ns_per_picture"] = self("core.theorem") / pictures;
    out["core.theorem.share"] = share("core.theorem");
    out["core.theorem.violations"] = static_cast<double>(violations);
    out["net.transport.ns_per_picture"] = self("net.transport") / pictures;
    out["net.transport.share"] = share("net.transport");
    out["net.transport.underflows"] = static_cast<double>(underflows);
    out["net.mux.ns_per_cell"] =
        self("net.mux") / static_cast<double>(mux_arrived_);
    out["net.mux.cells_per_picture"] =
        static_cast<double>(mux_arrived_) / pictures;
    out["net.mux.loss_ratio"] =
        mux_arrived_ > 0 ? static_cast<double>(mux_dropped_) /
                               static_cast<double>(mux_arrived_)
                         : 0.0;
    ledger_ = {
        "worker span time / (workers x wall): " +
            std::to_string(static_cast<double>(table.total_ns()) /
                           (kStreams * traced.wall_s * 1e9)) +
            " (the rest is waiting at the pass barrier)",
    };
  }

  std::vector<std::string> ledger_notes() const override { return ledger_; }

 private:
  void run_pass(int s, SpanRecorder& spans) {
    Stream& stream = streams_[static_cast<std::size_t>(s)];
    stream.pass_sizes.assign(kGopsPerPass * kGop, 0);
    stream.sends.clear();
    for (int g = 0; g < kGopsPerPass; ++g) {
      const int root = spans.open("step");
      const std::uint64_t t0 = now_ns();
      {
        const ScopedSpan span(spans, "mpeg.encode", root);
        encoder_.encode_into(stream.gops[static_cast<std::size_t>(g)],
                             stream.encoded, stream.workspace);
      }
      lsm::mpeg::ParseResult parsed;
      {
        const ScopedSpan span(spans, "mpeg.parse", root);
        parsed = lsm::mpeg::parse_stream(stream.encoded.stream);
      }
      const auto& coded = stream.encoded.pictures;
      bool sizes_ok = parsed.pictures.size() == coded.size();
      for (std::size_t k = 0; sizes_ok && k < coded.size(); ++k) {
        const lsm::mpeg::ParsedPicture& p = parsed.pictures[k];
        sizes_ok = p.bits == coded[k].bits &&
                   p.display_index == coded[k].display_index &&
                   p.display_index >= 0 && p.display_index < kGop;
      }
      if (!sizes_ok) {
        spans.close(root);
        stream.mismatches += kGop;
        continue;
      }
      for (const lsm::mpeg::ParsedPicture& p : parsed.pictures) {
        stream.pass_sizes[static_cast<std::size_t>(g * kGop +
                                                   p.display_index)] = p.bits;
        stream.bits += p.bits;
      }
      {
        const ScopedSpan span(spans, "core.smooth", root);
        for (int i = 0; i < kGop; ++i) {
          stream.smoother->push(
              stream.pass_sizes[static_cast<std::size_t>(g * kGop + i)]);
        }
        stream.smoother->drain_into(stream.sends);
      }
      const std::uint64_t t1 = now_ns();
      spans.close(root);
      stream.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      stream.pictures += kGop;
    }

    const int root = spans.open("pass_end");
    {
      const ScopedSpan span(spans, "core.smooth", root);
      stream.smoother->finish();
      stream.smoother->drain_into(stream.sends);
      stream.smoother->reset(GopPattern(kGop, 3), paper_params());
    }
    const lsm::trace::Trace trace("live" + std::to_string(s),
                                  GopPattern(kGop, 3), stream.pass_sizes,
                                  paper_params().tau, 176, 144);
    lsm::core::SmoothingResult result;
    result.sends = stream.sends;
    result.params = paper_params();
    double last_rate = -1.0;
    for (const PictureSend& send : result.sends) {
      stream.rate_changes += send.rate != last_rate ? 1 : 0;
      last_rate = send.rate;
    }
    stream.decisions += static_cast<std::int64_t>(result.sends.size());
    if (s == sampled_) {
      const ScopedSpan span(spans, "check.smooth_basic", root);
      const lsm::core::SmoothingResult oracle =
          lsm::core::smooth_basic(trace, paper_params());
      stream.oracle_mismatches +=
          same_prefix(result.sends, oracle.sends, kOracleDecisions) ? 0 : 1;
    }
    {
      const ScopedSpan span(spans, "core.theorem", root);
      stream.violations += lsm::core::check_theorem1(result, trace).all_ok() ? 0 : 1;
    }
    {
      const ScopedSpan span(spans, "net.transport", root);
      lsm::net::PipelineConfig config;
      config.params = paper_params();
      stream.underflows += lsm::net::run_live_pipeline(trace, config).underflows;
    }
    {
      const ScopedSpan span(spans, "net.mux", root);
      stream.cells = lsm::net::packetize(result, s);
    }
    spans.close(root);
  }

  std::uint64_t seed_;
  const lsm::mpeg::Encoder encoder_;
  lsm::net::MuxConfig mux_config_;
  std::vector<Stream> streams_;
  int sampled_ = 0;
  std::int64_t passes_ = 0;
  std::int64_t mux_arrived_ = 0;
  std::int64_t mux_dropped_ = 0;
  std::vector<std::string> ledger_;
};

}  // namespace

std::unique_ptr<Workload> make_live_cif(std::uint64_t seed) {
  return std::make_unique<LiveCif>(seed);
}

}  // namespace perfbench
