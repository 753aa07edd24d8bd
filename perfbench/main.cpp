// perfbench_e2e: one run of one workload of the end-to-end pipeline
// benchmark.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--ledger <path>]
//
// Protocol: set the workload up several times from the seed (setup_s is
// the median), then measure a closed-loop window of --seconds. With
// --trace 0 the window is untraced and the end-to-end metrics are
// printed. With --trace 1 the first half of the window is untraced and
// the second half traced; the per-layer metrics come from the traced
// half, trace_overhead_ratio compares the two halves, and the ledger of
// self time per layer is written to --ledger. Output checks run after the
// window; the last stdout line is the result object, and the exit code is
// non-zero when any check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd_dispatch.h"
#include "harness.h"
#include "workload.h"

namespace {

using namespace perfbench;

/// Set-ups per run: at least kMinSetups, then more while the set-ups so
/// far took under kSetupBudgetS (up to kMaxSetups), so a cheap set-up's
/// median rests on many samples and a costly one's on three.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ledger;
};

/// Per-layer metrics in output order, with units. Every workload prints
/// all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"mpeg.encode.ns_per_picture", "ns"},
      {"mpeg.encode.share", "ratio"},
      {"mpeg.encode.bits_per_picture", "bits"},
      {"mpeg.parse.ns_per_picture", "ns"},
      {"mpeg.parse.share", "ratio"},
      {"mpeg.parse.size_mismatches", "count"},
      {"core.smooth.ns_per_decision", "ns"},
      {"core.smooth.share", "ratio"},
      {"core.smooth.rate_changes_per_picture", "ratio"},
      {"core.theorem.ns_per_picture", "ns"},
      {"core.theorem.share", "ratio"},
      {"core.theorem.violations", "count"},
      {"net.transport.ns_per_picture", "ns"},
      {"net.transport.share", "ratio"},
      {"net.transport.underflows", "count"},
      {"net.transport.late_ratio_faulted", "ratio"},
      {"net.mux.ns_per_cell", "ns"},
      {"net.mux.cells_per_picture", "count"},
      {"net.mux.loss_ratio", "ratio"},
      {"net.statmux.ns_per_decision", "ns"},
      {"net.statmux.shard_busy_ns_per_decision", "ns"},
      {"net.statmux.driver_ms_per_epoch", "ms"},
      {"net.statmux.shard_imbalance", "ratio"},
      {"net.statmux.dirty_per_epoch", "count"},
      {"net.statmux.wheel_entries", "count"},
      {"net.statmux.admit_ns", "ns"},
      {"net.statmux.admit_refused", "count"},
      {"net.statmux.rejected", "count"},
      {"net.statmux.slack_clamped", "count"},
      {"net.statmux.bytes_per_stream", "bytes"},
      {"runtime.batch.worker_busy_ratio", "ratio"},
      {"obs.health_json.ms", "ms"},
      {"trace_overhead_ratio", "ratio"},
      {"failed_ratio", "ratio"},
  };
  return metrics;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "<live_cif|trace_study|mux_steady|mux_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--ledger <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--ledger") {
      options.ledger = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return options;
}

std::unique_ptr<Workload> make(const Options& options, int threads) {
  if (options.workload == "live_cif") {
    return make_live_cif(options.seed);
  }
  if (options.workload == "trace_study") {
    return make_trace_study(options.seed, threads);
  }
  if (options.workload == "mux_steady") {
    return make_mux_steady(options.seed, threads);
  }
  if (options.workload == "mux_churn") {
    return make_mux_churn(options.seed, threads);
  }
  usage("unknown workload");
}

void write_ledger(const Options& options, const std::string& host,
                  const Window& traced, const SpanRecorder& spans,
                  const Workload& workload, double overhead) {
  const LayerTable table(spans.spans());
  const double pictures =
      static_cast<double>(std::max<std::int64_t>(1, traced.pictures));
  std::string text = "# perfbench ledger: " + options.workload + " seed " +
                     std::to_string(options.seed) + "\n\nhost: " + host +
                     "\n\ntraced window: " + std::to_string(traced.wall_s) +
                     " s, " + std::to_string(traced.pictures) +
                     " pictures, trace_overhead_ratio " +
                     std::to_string(overhead) + "\n\n";
  text += "| layer | spans | self ms | ns/picture | share |\n";
  text += "|---|---:|---:|---:|---:|\n";
  for (const auto& [name, layer] : table.layers()) {
    char row[256];
    std::snprintf(row, sizeof row, "| %s | %lld | %.3f | %.1f | %.4f |\n",
                  name.c_str(), static_cast<long long>(layer.spans),
                  static_cast<double>(layer.self_ns) * 1e-6,
                  static_cast<double>(layer.self_ns) / pictures,
                  table.share(name));
    text += row;
  }
  const std::vector<std::string> notes = workload.ledger_notes();
  if (!notes.empty()) {
    text += "\n";
    for (const std::string& note : notes) text += "- " + note + "\n";
  }
  std::fputs(text.c_str(), stderr);
  if (!options.ledger.empty()) {
    std::ofstream out(options.ledger);
    out << text;
    if (!out) std::fprintf(stderr, "cannot write %s\n", options.ledger.c_str());
  }
}

int run(const Options& options) {
  const unsigned cores = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(std::clamp(cores, 1u, 4u));
  const std::string host = host_fingerprint_json(
      lsm::simd::simd_level_name(lsm::simd::active_simd_level()), threads);
  std::printf("# host: %s\n", host.c_str());
  const CpuTimes cpu_start = cpu_times();

  std::unique_ptr<Workload> workload = make(options, threads);
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    const std::uint64_t t0 = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_total += setup_s.back();
  }

  FailureLedger failures;
  MetricSet metrics;
  if (!options.trace) {
    SpanRecorder off(false);
    Window window = workload->run_window(options.seconds, off, failures);
    workload->check(failures);
    // The tail is printed, not gated: its run-to-run spread on a host
    // with hypervisor steal exceeds the largest bound a metric may have.
    const double tail = highest_supported_percentile(window.step_ms.size());
    std::printf("# steps: %zu, p90 %.4f ms, p%g %.4f ms; set-ups: %zu\n",
                window.step_ms.size(), percentile(window.step_ms, 0.9),
                tail * 100.0, percentile(window.step_ms, tail), setup_s.size());
    std::printf("# pictures: %lld in %.3f s, %zu rate intervals\n",
                static_cast<long long>(window.pictures), window.wall_s,
                window.rate_samples.size());
    if (window.rate_samples.size() < 5) {
      failures.attempt();
      failures.fail("fewer than 5 rate intervals");
    }
    metrics.add("pictures_per_s", percentile(window.rate_samples, 0.5),
                "pictures/s");
    metrics.add("step_ms_p50", percentile(window.step_ms, 0.5), "ms");
    metrics.add("setup_s", percentile(setup_s, 0.5), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    SpanRecorder off(false);
    SpanRecorder on(true);
    const Window plain =
        workload->run_window(options.seconds / 2.0, off, failures);
    const Window traced =
        workload->run_window(options.seconds / 2.0, on, failures);
    LayerFigures figures;
    workload->layer_figures(traced, on, figures);
    workload->check(failures);
    const double overhead =
        (traced.wall_s / static_cast<double>(traced.pictures)) /
        (plain.wall_s / static_cast<double>(plain.pictures));
    figures["trace_overhead_ratio"] = overhead;
    figures["failed_ratio"] = failures.ratio();
    write_ledger(options, host, traced, on, *workload, overhead);
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = figures.find(name);
      metrics.add(name, it == figures.end() ? 0.0 : it->second, unit);
      if (it != figures.end()) figures.erase(it);
    }
    for (const auto& entry : figures) {
      std::fprintf(stderr, "unlisted layer metric %s\n", entry.first.c_str());
      failures.attempt();
      failures.fail("unlisted layer metric");
    }
  }
  // Time the hypervisor gave this machine's CPUs to someone else during
  // the run: a run with a large share read slow for reasons outside it.
  const CpuTimes cpu_end = cpu_times();
  const double total = cpu_end.total - cpu_start.total;
  std::printf("# run: {\"steal_share\": %.4f, \"busy_share\": %.4f}\n",
              total > 0.0 ? (cpu_end.steal - cpu_start.steal) / total : 0.0,
              total > 0.0 ? (cpu_end.busy - cpu_start.busy) / total : 0.0);
  for (const auto& [what, count] : failures.classes()) {
    std::fprintf(stderr, "CHECK FAILED: %s (%lld)\n", what.c_str(),
                 static_cast<long long>(count));
  }
  const bool correct = failures.failed() == 0;
  std::printf("%s\n", metrics.result_json(correct, failures).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", error.what());
    return 1;
  }
}
