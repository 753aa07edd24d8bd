// Measurement harness of the end-to-end pipeline benchmark: wall-clock
// spans with self-time accounting, the percentile rule, failure
// accounting, metric output, seeds and the host fingerprint. Nothing here
// touches the lsm libraries; perfbench/selftest.cpp tests it alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, ns (std::chrono::steady_clock).
std::uint64_t now_ns();

/// splitmix64 step: derives an independent seed for input `tag` from the
/// run's one seed argument, so every input is a pure function of it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// --- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample with at least q*n samples at or below it. 0 when empty.
double percentile(std::vector<double>& samples, double q);

/// The highest of p50/p90/p99/p99.9 that leaves at least 10 samples above
/// it, i.e. n * (1 - q) >= 10; 0 when even p50 does not.
double highest_supported_percentile(std::size_t n);

// --- Failure accounting ----------------------------------------------------

/// Attempted and failed operations of one run, by failure class.
class FailureLedger {
 public:
  void attempt(std::int64_t count = 1) { attempted_ += count; }
  /// Records `count` failures of class `what` (0 is a no-op).
  void fail(const std::string& what, std::int64_t count = 1);

  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept;
  /// failed / attempted; 0 when nothing was attempted.
  double ratio() const noexcept;
  const std::map<std::string, std::int64_t>& classes() const noexcept {
    return failures_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::map<std::string, std::int64_t> failures_;
};

// --- Spans -------------------------------------------------------------------

/// One timed interval around a call into a layer. `parent` is the index of
/// the span that caused it (-1 for a root); a child may run on another
/// thread than its parent.
struct Span {
  std::string layer;
  int parent = -1;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// In-memory span recorder. Disabled recorders record nothing: open()
/// returns -1 and close(-1) is a no-op, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  int open(std::string_view layer, int parent = -1);
  void close(int id);
  /// Adds a finished span measured elsewhere (e.g. a shard's busy time).
  int add(std::string_view layer, int parent, std::uint64_t begin_ns,
          std::uint64_t end_ns);

  /// Spans recorded so far. Call only after every recording thread joined.
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view layer, int parent = -1)
      : recorder_(recorder), id_(recorder.open(layer, parent)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Self time and span count summed per layer.
struct LayerTime {
  std::uint64_t self_ns = 0;
  std::int64_t spans = 0;
};

/// The per-layer view of a set of spans: each layer's summed self time
/// and its share of all layers' self time.
class LayerTable {
 public:
  explicit LayerTable(const std::vector<Span>& spans);

  const std::map<std::string, LayerTime>& layers() const noexcept {
    return layers_;
  }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  /// Self time of `layer`, ns; 0 when it recorded no span.
  double self_ns(const std::string& layer) const;
  /// self_ns(layer) / total_ns(); 0 when nothing was recorded.
  double share(const std::string& layer) const;

 private:
  std::map<std::string, LayerTime> layers_;
  std::uint64_t total_ns_ = 0;
};

// --- Metrics and output ----------------------------------------------------

/// True when `name` matches [A-Za-z0-9_.-]+, starts with a letter or digit,
/// and has at most 64 characters.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run, in insertion order. add() rejects an invalid or
/// repeated name and a non-finite value by throwing std::invalid_argument.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string result_json(bool correct, const FailureLedger& failures) const;

 private:
  std::vector<Metric> metrics_;
};

// --- Host --------------------------------------------------------------------

/// Peak resident set size of this process, MiB (getrusage).
double peak_rss_mb();
/// Current resident set size of this process, bytes (/proc/self/statm).
double current_rss_bytes();

/// Cumulative jiffies of all CPUs (/proc/stat).
struct CpuTimes {
  double busy = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran something else
  double total = 0.0;
};
CpuTimes cpu_times();

/// CPU model, cores, SIMD tier, compiler, build type, 1-minute load
/// average and the busy share of all CPUs over 0.3 s at start, as one JSON
/// object. `loaded` flags a quarter or more of the CPUs busy before the
/// run: figures taken then are suspect. (The busy share, not the load
/// average, decides: in a virtual machine the load average can stay high
/// while every CPU idles.)
std::string host_fingerprint_json(const std::string& simd_level,
                                  int threads_used);

}  // namespace perfbench
