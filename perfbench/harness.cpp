#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

/// JSON string literal with the characters JSON requires escaped.
std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Samples strictly above the nearest-rank q-th: n - ceil(q n).
    const double above =
        static_cast<double>(n) - std::ceil(q * static_cast<double>(n));
    if (above >= 10.0) best = q;
  }
  return best;
}

void FailureLedger::fail(const std::string& what, std::int64_t count) {
  if (count != 0) failures_[what] += count;
}

std::int64_t FailureLedger::failed() const noexcept {
  std::int64_t total = 0;
  for (const auto& entry : failures_) total += entry.second;
  return total;
}

double FailureLedger::ratio() const noexcept {
  return attempted_ > 0 ? static_cast<double>(failed()) /
                              static_cast<double>(attempted_)
                        : 0.0;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::uint64_t> result(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::uint64_t duration =
        span.end_ns > span.begin_ns ? span.end_ns - span.begin_ns : 0;
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t b = std::max(spans[c].begin_ns, span.begin_ns);
      const std::uint64_t e = std::min(spans[c].end_ns, span.end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.begin_ns;
    for (const auto& [b, e] : cover) {
      const std::uint64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    result[i] = duration - covered;
  }
  return result;
}

int SpanRecorder::open(std::string_view layer, int parent) {
  if (!enabled_) return -1;
  const std::uint64_t begin = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(layer), parent, begin, begin});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const std::uint64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

int SpanRecorder::add(std::string_view layer, int parent,
                      std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(layer), parent, begin_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

LayerTable::LayerTable(const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers_[spans[i].layer];
    layer.self_ns += self[i];
    ++layer.spans;
    total_ns_ += self[i];
  }
}

double LayerTable::self_ns(const std::string& layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0.0 : static_cast<double>(it->second.self_ns);
}

double LayerTable::share(const std::string& layer) const {
  return total_ns_ > 0 ? self_ns(layer) / static_cast<double>(total_ns_)
                       : 0.0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite metric: " + name);
  }
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      throw std::invalid_argument("repeated metric: " + name);
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string MetricSet::result_json(bool correct,
                                   const FailureLedger& failures) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << failures.attempted()
      << ", \"failed\": " << failures.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << json_quote(metrics_[i].name)
        << ": {\"value\": " << value
        << ", \"unit\": " << json_quote(metrics_[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

double load_average_1min() {
  std::ifstream loadavg("/proc/loadavg");
  double load = 0.0;
  loadavg >> load;
  return load;
}

/// Share of all CPUs' time that was busy over a short sample: the load
/// other processes put on the host just before the run starts.
double cpu_busy_share() {
  const CpuTimes before = cpu_times();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const CpuTimes after = cpu_times();
  return after.total > before.total
             ? (after.busy - before.busy) / (after.total - before.total)
             : 0.0;
}

}  // namespace

CpuTimes cpu_times() {
  // user nice system idle iowait irq softirq steal
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  double idle = 0.0;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    times.total += value;
    if (field == 3 || field == 4) idle += value;
    if (field == 7) times.steal = value;
  }
  times.busy = times.total - idle;
  return times;
}

std::string host_fingerprint_json(const std::string& simd_level,
                                  int threads_used) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const double load = load_average_1min();
  const double busy = cpu_busy_share();
  char load_text[64];
  std::snprintf(load_text, sizeof load_text, "%.2f, \"cpu_busy_at_start\": %.3f",
                load, busy);
  std::ostringstream out;
  out << "{\"cpu_model\": " << json_quote(cpu_model())
      << ", \"nproc\": " << cores << ", \"threads_used\": " << threads_used
      << ", \"simd_level\": " << json_quote(simd_level)
      << ", \"compiler\": " << json_quote(kCompiler)
      << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE)
      << ", \"loadavg_1m_at_start\": " << load_text << ", \"loaded\": "
      << (busy >= 0.25 ? "true" : "false") << "}";
  return out.str();
}

}  // namespace perfbench
