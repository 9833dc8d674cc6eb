// Shared pieces of the benchmark program: arguments, seeded sampling,
// latency statistics, the in-memory span recorder, and the report the
// program prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  unsigned seconds{10};
  bool trace{false};
  /// Directory for the trace, the persisted graph and the WAL; must lie
  /// inside the checkout the benchmark runs from.
  std::string out_dir{".bench_build/perfbench/out"};
};

// ---------------------------------------------------------------------------
// Seeded sampling. Everything a workload feeds the program derives from
// --seed through these, so one seed always gives one op stream.
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Seed for one named input stream of a run (graph, pool, stream, ...).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Uniform double in [0, 1) from the top 53 bits of one draw (portable,
/// unlike std::uniform_real_distribution).
template <typename Rng>
[[nodiscard]] double uniform01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

template <typename Rng>
[[nodiscard]] std::uint64_t below(Rng& rng, std::uint64_t n) {
  return rng() % n;
}

/// Zipf(s) over ranks [0, n): rank r drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  template <typename Rng>
  [[nodiscard]] std::size_t operator()(Rng& rng) const {
    return sample(uniform01(rng));
  }
  [[nodiscard]] std::size_t sample(double u) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Latency statistics.
// ---------------------------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The tail percentile reported for an op class expected to have
/// `nominal` samples: the highest of p99 / p98 / p95 / p90 / p75 / p50
/// that leaves at least ten samples beyond it. It depends only on the
/// nominal count, never on a run's actual count, so every run of a
/// workload reports the same percentile. The ladder stops at p99: on a
/// host whose speed drifts, serve_journeys' p99.9 over ~2 * 10^5 samples
/// spread 30% between runs.
[[nodiscard]] double tail_quantile(std::size_t nominal);

// ---------------------------------------------------------------------------
// Spans. The program records one span around each call it makes into a
// layer's public functions (name, start, end, parent span, op id and a
// tag such as "hit" / "miss"). Only the thread that owns the Tracer
// records; spans stay in memory and are written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};
  std::uint32_t op{0};
  const char* tag{""};
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a span whose parent is the innermost open span; -1 when off.
  std::int32_t begin(const char* name, std::uint32_t op);
  void end(std::int32_t id, const char* tag = "");
  /// Records a finished span with explicit times (a served request ends
  /// on another thread; the generator stamps it when it sees it ready).
  std::int32_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent,
                      std::uint32_t op, const char* tag = "");

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// One JSON object per line: name, start/end (ns), parent, op, tag.
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span over one call; free when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint32_t op)
      : t_(t), id_(t.begin(name, op)) {}
  ~Scope() { t_.end(id_, tag_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void tag(const char* tag) { tag_ = tag; }

 private:
  Tracer& t_;
  std::int32_t id_;
  const char* tag_{""};
};

/// Self time of every span, in us: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child sticking out of its parent is clipped).
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Per span name (and tag, as "name[tag]"): count, median duration and
/// median self time in us.
struct SpanSummary {
  std::size_t count{0};
  double p50_us{0};
  double self_p50_us{0};
};
[[nodiscard]] std::map<std::string, SpanSummary> summarize(
    const std::vector<Span>& spans);

/// Durations (us) of the spans called `name`, optionally only those
/// with tag `tag`.
[[nodiscard]] std::vector<double> span_durations_us(
    const std::vector<Span>& spans, const std::string& name,
    const char* tag = nullptr);

// ---------------------------------------------------------------------------
// The report: every metric by name and unit, per-class op counts, the
// exact and the timing-dependent counts, and the correctness verdict.
// ---------------------------------------------------------------------------

struct ClassCounts {
  std::uint64_t attempted{0};
  std::uint64_t succeeded{0};
  std::uint64_t failed{0};
  std::uint64_t truncated{0};
};

struct Metric {
  double value{0};
  std::string unit;
};

struct TailInfo {
  double quantile{0};
  std::size_t samples{0};
  std::size_t beyond{0};
};

struct Report {
  std::string workload;
  std::map<std::string, Metric> metrics;
  std::map<std::string, ClassCounts> classes;
  /// Counts the program produces deterministically for a seed: a replay
  /// at the same seed must reproduce them exactly.
  std::map<std::string, double> exact;
  /// Counts that depend on thread timing (reported, never compared).
  std::map<std::string, double> inexact;
  /// Settings and facts of the run (thread counts, WAL directory, ...).
  std::map<std::string, std::string> config;
  /// Which op class each end-to-end role measures in this workload.
  std::map<std::string, std::string> roles;
  std::map<std::string, TailInfo> tails;
  /// Traced runs: the span summary (see summarize()).
  std::map<std::string, SpanSummary> spans;
  std::uint64_t mismatches{0};
  std::uint64_t gate_checked{0};
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records p50 and the tail of one op class under `<role>_p50_us` and
  /// `<role>_tail_us`, with the tail's percentile and sample count.
  void latency(const std::string& role, const std::string& op_class,
               const std::vector<double>& us, std::size_t nominal);
  /// Counts one op's outcome in its class.
  void count(const std::string& op_class, bool ok, bool truncated = false);
  /// Copies the `<role>_tail_us` metrics of an untraced pass into this
  /// (traced) report as `latency.<role>_tail_us`.
  void tails_from(const Report& untraced);
  void mismatch(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] bool correct() const {
    return mismatches == 0 && failed() == 0 && errors.empty();
  }
  [[nodiscard]] std::string to_json() const;
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Median of `reps` timed calls of fn (seconds); fn may keep state.
/// `untimed` runs before each call, outside the timing (say, to tear
/// down the previous rep).
template <typename Untimed, typename Fn>
[[nodiscard]] double median_seconds(int reps, Untimed&& untimed, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    untimed(i);
    const std::int64_t t0 = now_ns();
    fn(i);
    s.push_back(ns_to_s(now_ns() - t0));
  }
  return median(std::move(s));
}

template <typename Fn>
[[nodiscard]] double median_seconds(int reps, Fn&& fn) {
  return median_seconds(reps, [](int) {}, std::forward<Fn>(fn));
}

/// Whether a seeded sample includes op `i` (1 in `every`; none for 0).
[[nodiscard]] inline bool sampled(std::uint64_t seed, std::size_t i,
                                  std::uint64_t every) {
  return every != 0 &&
         splitmix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))) % every == 0;
}

// Workload entry points (one translation unit each).
Report run_serve_journeys(const Args& args);
Report run_analytics_sweep(const Args& args);
Report run_live_schedule(const Args& args);

}  // namespace perfbench
