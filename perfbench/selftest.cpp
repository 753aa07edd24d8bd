// Self-test of the benchmark harness (harness.h): the percentile rule,
// span self-time subtraction, failure accounting and the metric-name
// pattern. run.py runs it before every benchmark run; a failing harness
// must not produce a score. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void test_percentiles() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  expect(percentile(samples, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(samples, 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(samples, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(samples, 1.0) == 100.0, "p100 is the maximum");
  std::vector<double> one = {7.0};
  expect(percentile(one, 0.99) == 7.0, "one sample is every percentile");
  std::vector<double> none;
  expect(percentile(none, 0.5) == 0.0, "empty input reads 0");

  // The highest percentile with at least 10 samples above it.
  expect(highest_supported_percentile(19) == 0.0, "19 samples: none");
  expect(highest_supported_percentile(20) == 0.5, "20 samples: p50");
  expect(highest_supported_percentile(99) == 0.5, "99 samples: p50");
  expect(highest_supported_percentile(100) == 0.9, "100 samples: p90");
  expect(highest_supported_percentile(999) == 0.9, "999 samples: p90");
  expect(highest_supported_percentile(1000) == 0.99, "1000 samples: p99");
  expect(highest_supported_percentile(10000) == 0.999, "10000: p99.9");
}

void test_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping, e.g. on
  // two threads) and [90,120] (running past the parent's end); one
  // grandchild [12,18] inside the first child.
  std::vector<Span> spans = {
      {"root", -1, 0, 100},  {"a", 0, 10, 30}, {"b", 0, 20, 50},
      {"c", 0, 90, 120},     {"g", 1, 12, 18},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  // Covered part of root: [10,50] and [90,100] -> 50 of 100.
  expect(self[0] == 50, "root self time subtracts the children's union");
  expect(self[1] == 14, "child self time subtracts its grandchild");
  expect(self[2] == 30, "a leaf keeps its whole duration");
  expect(self[3] == 30, "a child's own self time is not clipped");
  expect(self[4] == 6, "grandchild self time");

  spans.push_back({"a", -1, 200, 210});
  const LayerTable table(spans);
  expect(table.layers().at("a").self_ns == 24 &&
             table.layers().at("a").spans == 2,
         "LayerTable sums self time per layer");
  expect(table.total_ns() == 50 + 24 + 30 + 30 + 6, "LayerTable total");
  expect(table.share("root") == 50.0 / 140.0, "LayerTable share");
  expect(table.self_ns("absent") == 0.0 && table.share("absent") == 0.0,
         "a layer without spans reads 0");

  // Disabled recorders record nothing.
  SpanRecorder off(false);
  const int id = off.open("x");
  off.close(id);
  expect(id == -1 && off.spans().empty(), "disabled recorder is inert");
  SpanRecorder on(true);
  {
    const ScopedSpan outer(on, "outer");
    const ScopedSpan inner(on, "inner", outer.id());
  }
  expect(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
             on.spans()[0].end_ns >= on.spans()[1].end_ns,
         "scoped spans nest");
}

void test_failures() {
  FailureLedger ledger;
  expect(ledger.ratio() == 0.0, "nothing attempted: ratio 0");
  ledger.attempt(200);
  ledger.fail("underflow", 0);
  expect(ledger.failed() == 0 && ledger.classes().empty(),
         "zero failures record no class");
  ledger.fail("underflow", 3);
  ledger.fail("clamp");
  ledger.fail("underflow", 1);
  expect(ledger.failed() == 5, "failures sum over classes");
  expect(ledger.classes().at("underflow") == 4, "failures sum per class");
  expect(std::fabs(ledger.ratio() - 5.0 / 200.0) < 1e-15,
         "failed_ratio is failed / attempted");
}

void test_metric_names() {
  expect(valid_metric_name("pictures_per_s"), "plain name");
  expect(valid_metric_name("net.statmux.admit_ns"), "dotted name");
  expect(valid_metric_name("p99-9"), "dash");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");

  MetricSet set;
  set.add("x.y", 1.5, "ms");
  bool threw = false;
  try {
    set.add("x.y", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a repeated name is rejected");
  threw = false;
  try {
    set.add("bad name", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an invalid name is rejected");
  threw = false;
  try {
    set.add("nan", std::nan(""), "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a non-finite value is rejected");

  FailureLedger ledger;
  ledger.attempt(4);
  ledger.fail("clamp");
  expect(set.result_json(false, ledger) ==
             "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
             "\"metrics\": {\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line shape");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_failures();
  test_metric_names();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
