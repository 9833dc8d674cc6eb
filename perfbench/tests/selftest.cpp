// Self-tests of the benchmark's statistics and span arithmetic:
// the tail-percentile rule (at least ten samples beyond the reported
// percentile), nearest-rank percentiles, and self time = span duration
// minus the part its children cover. Exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
  ++failures;
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(near(perfbench::percentile(v, 0.99), 99));
  CHECK(near(perfbench::percentile(v, 0.5), 50));
  CHECK(near(perfbench::percentile(v, 1.0), 100));
  CHECK(near(perfbench::percentile(v, 0.0), 1));
  CHECK(near(perfbench::median(v), 50.5));
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({}), 0));
  CHECK(perfbench::samples_beyond(100, 0.99) == 1);
  CHECK(perfbench::samples_beyond(1000, 0.99) == 10);
  CHECK(perfbench::samples_beyond(0, 0.99) == 0);
  // The rank must not skip when q * n rounds a hair above an integer.
  CHECK(perfbench::samples_beyond(1000, 0.95) == 50);
}

void test_tail_rule() {
  const double ladder[] = {0.99, 0.98, 0.95, 0.9, 0.75};
  for (std::size_t n = 1; n <= 30000; n += (n < 2000 ? 1 : 37)) {
    const double q = perfbench::tail_quantile(n);
    if (q == 0.5) {
      // Only when even p75 leaves fewer than ten samples beyond.
      CHECK(perfbench::samples_beyond(n, 0.75) < 10);
      continue;
    }
    CHECK(perfbench::samples_beyond(n, q) >= 10);
    // It is the highest rung that does: the one above leaves fewer.
    for (std::size_t i = 1; i < std::size(ladder); ++i) {
      if (near(ladder[i], q)) CHECK(perfbench::samples_beyond(n, ladder[i - 1]) < 10);
    }
  }
  CHECK(near(perfbench::tail_quantile(1000), 0.99));
  CHECK(near(perfbench::tail_quantile(999), 0.98));
  CHECK(near(perfbench::tail_quantile(100000), 0.99));
  CHECK(near(perfbench::tail_quantile(200), 0.95));
  CHECK(near(perfbench::tail_quantile(10), 0.5));
}

perfbench::Span span(std::int64_t s, std::int64_t e, std::int32_t parent) {
  perfbench::Span x;
  x.name = "s";
  x.start_ns = s;
  x.end_ns = e;
  x.parent = parent;
  return x;
}

void test_self_time() {
  // Parent [0, 100000) ns with children [10k, 30k), [20k, 50k) (they
  // overlap), [60k, 70k) and [90k, 120k) (sticks out, clipped to 100k);
  // a grandchild covers only its own parent.
  const std::vector<perfbench::Span> spans = {
      span(0, 100000, -1),      span(10000, 30000, 0), span(20000, 50000, 0),
      span(60000, 70000, 0),    span(90000, 120000, 0),
      span(61000, 69000, 3),
  };
  const std::vector<double> self = perfbench::self_times_us(spans);
  // Covered: [10k, 50k) + [60k, 70k) + [90k, 100k) = 60k ns.
  CHECK(near(self[0], 40));
  CHECK(near(self[1], 20));
  CHECK(near(self[3], 2));  // 10k minus the 8k grandchild
  CHECK(near(self[5], 8));
  // A span with no children keeps its whole duration.
  CHECK(near(self[4], 30));
}

void test_tracer() {
  perfbench::Tracer off(false);
  {
    perfbench::Scope s(off, "x", 1);
  }
  CHECK(off.spans().empty());
  perfbench::Tracer on(true);
  {
    perfbench::Scope outer(on, "outer", 7);
    {
      perfbench::Scope inner(on, "inner", 7);
      inner.tag("hit");
    }
  }
  CHECK(on.spans().size() == 2);
  CHECK(on.spans()[1].parent == 0);
  CHECK(std::string(on.spans()[1].tag) == "hit");
  CHECK(on.spans()[0].end_ns >= on.spans()[1].end_ns);
  CHECK(perfbench::span_durations_us(on.spans(), "inner", "hit").size() == 1);
  CHECK(perfbench::span_durations_us(on.spans(), "inner", "miss").empty());
}

void test_report() {
  perfbench::Report r;
  r.count("a", true);
  r.count("a", false, true);
  r.count("b", true, true);
  CHECK(r.attempted() == 3);
  CHECK(r.failed() == 1);
  CHECK(!r.correct());
  perfbench::Report ok;
  ok.count("a", true, true);
  CHECK(ok.correct());
  ok.mismatch("x");
  CHECK(!ok.correct());
  CHECK(ok.failed() == 1);
  std::vector<double> us;
  for (int i = 0; i < 1000; ++i) us.push_back(i);
  ok.latency("primary", "journey", us, 1000);
  CHECK(ok.tails["primary_tail_us"].beyond == 10);
  CHECK(near(ok.metrics["primary_tail_us"].value, 989));
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_self_time();
  test_tracer();
  test_report();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
