// analytics_sweep — a frozen QueryEngine called directly from one thread.
//
// Each op is a closure over a fixed-size source block under Wait,
// BoundedWait or NoWait (a cold block, or one of a few hot blocks that
// repeat so cache hits copy out multi-MB row sets), or a k_reachability
// / centrality call over the block just computed (its closure rows are
// then a cache hit). The graph is a make_zipf_periodic graph with a
// short period and one constant latency, so the packed push/pull kernel
// is eligible. Time goes to the kernels, the worker pool and the cache's
// largest values; the server, the overlay and the WAL do nothing here.
#include <algorithm>
#include <memory>
#include <random>
#include <bit>
#include <unordered_map>

#include "common.hpp"
#include "tvg/generators.hpp"
#include "tvg/hashing.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/serialization.hpp"

namespace perfbench {
namespace {

using namespace tvg;

constexpr std::uint64_t kGraphSeed = 0xa7a1;
constexpr std::uint64_t kWarmupSeed = 0xa7a2;
constexpr std::size_t kNodes = 2048;
constexpr std::size_t kBlock = 128;  // sources per closure (two lane words)
constexpr std::size_t kHotBlocks = 6;
constexpr std::size_t kCachedBlocks = 32;  // max_bytes in row blocks
constexpr unsigned kClosureThreads = 2;    // caller + 1 pool worker
constexpr Time kHorizon = 16;
constexpr double kShareCold = 0.40;  // shares of kPattern below
constexpr double kShareHot = 0.40;   // the rest are analytic calls
constexpr std::size_t kWarmupCold = 8;
constexpr double kOpsPerSecond = 130;  // nominal measured ops per second
constexpr std::uint64_t kGateEvery = 32;
constexpr std::uint64_t kGateEveryTraced = 8;
constexpr int kSetupReps = 5;
constexpr int kRestartReps = 11;

constexpr std::size_t kBlockBytes = kBlock * kNodes * sizeof(Time);

enum class Kind : std::uint8_t { kCold, kHot, kKReach, kCentrality };

struct Op {
  Kind kind{Kind::kCold};
  ClosureQuery closure;  // the block (for analytics: the block analysed)
};

/// The graph is a fixed data set (a constant seed); --seed picks the
/// source blocks, so every seed measures the same graph.
TimeVaryingGraph make_graph() {
  ZipfPeriodicParams p;
  p.nodes = kNodes;
  p.avg_degree = 8.0;
  p.zipf_exponent = 1.0;
  p.period = 8;
  p.density = 0.5;
  p.latency = 1;
  p.seed = kGraphSeed;
  return make_zipf_periodic(p);
}

CacheConfig cache_config() {
  CacheConfig c;
  c.capacity = 256;
  c.max_bytes = kCachedBlocks * (kBlockBytes + 4096);
  c.shards = 1;  // one byte budget, so the hot blocks fit as a set
  return c;
}

Policy policy_of(std::size_t k) {
  switch (k % 3) {
    case 0:
      return Policy::wait();
    case 1:
      return Policy::bounded_wait(2);
    default:
      return Policy::no_wait();
  }
}

ClosureQuery random_block(std::mt19937_64& rng, Policy policy) {
  ClosureQuery q;
  std::vector<char> taken(kNodes, 0);
  while (q.sources.size() < kBlock) {
    const auto v = static_cast<NodeId>(below(rng, kNodes));
    if (taken[v] != 0) continue;
    taken[v] = 1;
    q.sources.push_back(v);
  }
  q.start_time = static_cast<Time>(below(rng, 8));
  q.policy = policy;
  q.limits = SearchLimits::up_to(q.start_time + kHorizon);
  q.threads = kClosureThreads;
  return q;
}

const char* policy_name(const Policy& p) {
  switch (p.kind) {
    case WaitingPolicy::kWait:
      return "wait";
    case WaitingPolicy::kBoundedWait:
      return "bounded";
    case WaitingPolicy::kNoWait:
      return "nowait";
  }
  return "?";
}

/// Hot blocks, then the whole op stream (warm-up prefix of cold blocks,
/// then the measured ops).
struct Stream {
  std::vector<ClosureQuery> hot;
  std::vector<Op> ops;
};

/// Op kinds follow a fixed 20-slot pattern (8 cold, 8 hot, 4 analytic)
/// and cold blocks cycle through the three policies, so every seed runs
/// the same mix; hot blocks repeat round-robin, so none is evicted
/// between two uses. The hot blocks and the warm-up blocks are fixed
/// data (a constant seed), so set-up does the same work for every seed;
/// the seed picks the sources and start times of the measured blocks.
constexpr char kPattern[] = "CHCAHCHCAHCHCAHCHCAH";
static_assert(sizeof(kPattern) == 21);

Stream make_stream(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 warm(kWarmupSeed);
  std::mt19937_64 rng(derive_seed(seed, 2));
  Stream s;
  for (std::size_t i = 0; i < kHotBlocks; ++i) {
    s.hot.push_back(random_block(warm, policy_of(i)));
  }
  ClosureQuery last = s.hot.front();
  std::size_t colds = 0;
  std::size_t analytics = 0;
  std::size_t hots = 0;
  for (std::size_t i = 0; i < kWarmupCold + n; ++i) {
    Op op;
    const char slot = i < kWarmupCold ? 'C' : kPattern[(i - kWarmupCold) % 20];
    if (slot == 'C') {
      op.kind = Kind::kCold;
      op.closure = random_block(i < kWarmupCold ? warm : rng, policy_of(colds++));
      last = op.closure;
    } else if (slot == 'H') {
      op.kind = Kind::kHot;
      op.closure = s.hot[hots++ % kHotBlocks];
    } else {
      // 3 of 4 analytic calls are k_reachability: a 1:1 mix of two
      // differently priced calls would put the median between them.
      op.kind = analytics++ % 4 == 3 ? Kind::kCentrality : Kind::kKReach;
      op.closure = last;
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

/// The value one op returns.
struct Result {
  ClosureResult closure;
  KReachabilityResult kreach;
  CentralityResult centrality;
};

/// A 64-bit digest of every value in a result; the gate keeps digests
/// instead of multi-MB row blocks, so sampling does not move peak RSS.
std::uint64_t digest(const Result& r) {
  std::uint64_t h = kHashSeed;
  for (const auto& row : r.closure.rows) {
    h = hash_mix(h, row.size());
    for (const Time t : row) h = hash_mix(h, static_cast<std::uint64_t>(t));
  }
  h = hash_mix(h, r.closure.truncated ? 1 : 0);
  for (const std::uint32_t c : r.kreach.counts) h = hash_mix(h, c);
  for (const NodeId v : r.kreach.nodes) h = hash_mix(h, v);
  h = hash_mix(h, r.kreach.truncated ? 1 : 0);
  for (const double x : r.centrality.score) h = hash_mix(h, std::bit_cast<std::uint64_t>(x));
  return hash_mix(h, r.centrality.truncated ? 1 : 0);
}

Result execute(const QueryEngine& engine, const Op& op, bool& truncated) {
  Result r;
  switch (op.kind) {
    case Kind::kCold:
    case Kind::kHot:
      r.closure = engine.closure(op.closure);
      truncated = r.closure.truncated;
      break;
    case Kind::kKReach:
      r.kreach = engine.k_reachability(KReachabilityQuery{op.closure, 4});
      truncated = r.kreach.truncated;
      break;
    case Kind::kCentrality: {
      CentralityQuery q;
      q.closure = op.closure;
      q.iterations = 4;
      r.centrality = engine.centrality(q);
      truncated = r.centrality.truncated;
      break;
    }
  }
  return r;
}

const char* class_name(Kind k) {
  switch (k) {
    case Kind::kCold:
      return "closure_cold";
    case Kind::kHot:
      return "closure_hot";
    case Kind::kKReach:
      return "k_reachability";
    case Kind::kCentrality:
      return "centrality";
  }
  return "?";
}

const char* span_name(Kind k) {
  switch (k) {
    case Kind::kCold:
    case Kind::kHot:
      return "query_engine.closure";
    case Kind::kKReach:
      return "query_engine.k_reachability";
    case Kind::kCentrality:
      return "query_engine.centrality";
  }
  return "?";
}

struct Pass {
  std::vector<double> latency_us;  // per measured op
  std::int64_t wall_ns{0};
  std::unordered_map<std::size_t, std::uint64_t> sampled;  // gate digests
  CacheStats cache;        // deltas over the pass
  WorkerPool::Stats pool;  // deltas over the pass
  std::vector<double> cold_tasks;    // traced: pool tasks per cold closure
  std::vector<double> cold_wakeups;  // traced: idle wakeups per cold closure
};

/// Runs stream ops [begin, end) from this thread; single-threaded calls,
/// so each call's cache_stats() delta says hit or miss exactly.
Pass sweep(const QueryEngine& engine, const Stream& s, std::size_t begin,
           std::size_t end, Report& report, Tracer& tracer,
           std::uint64_t gate_seed, std::uint64_t gate_every) {
  Pass pass;
  pass.latency_us.reserve(end - begin);
  const CacheStats c0 = engine.cache_stats();
  const WorkerPool::Stats w0 = engine.worker_stats();
  const std::int64_t start = now_ns();
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = s.ops[i];
    std::uint64_t misses0 = 0;
    std::uint64_t tasks0 = 0;
    std::uint64_t wakeups0 = 0;
    if (tracer.on()) {
      misses0 = engine.cache_stats().misses;
      const WorkerPool::Stats w = engine.worker_stats();
      tasks0 = w.tasks_claimed;
      wakeups0 = w.idle_wakeups;
    }
    const std::int64_t t0 = now_ns();
    const std::int32_t id = tracer.begin(span_name(op.kind), static_cast<std::uint32_t>(i));
    bool truncated = false;
    bool ok = true;
    Result r;
    try {
      r = execute(engine, op, truncated);
    } catch (const std::exception&) {
      ok = false;
    }
    const std::int64_t t1 = now_ns();
    if (tracer.on()) {
      // An analytic call misses on its own key; "post" means its closure
      // rows were a hit, so the call is copy-out plus post-processing.
      const std::uint64_t misses = engine.cache_stats().misses - misses0;
      const WorkerPool::Stats w = engine.worker_stats();
      tracer.end(id, misses == 0                ? "hit"
                     : op.kind <= Kind::kHot    ? policy_name(op.closure.policy)
                     : misses == 1              ? "post"
                                                : "miss");
      if (op.kind == Kind::kCold) {
        pass.cold_tasks.push_back(static_cast<double>(w.tasks_claimed - tasks0));
        pass.cold_wakeups.push_back(static_cast<double>(w.idle_wakeups - wakeups0));
      }
    }
    pass.latency_us.push_back(ns_to_us(t1 - t0));
    report.count(class_name(op.kind), ok, truncated);
    if (ok && sampled(gate_seed, i, gate_every)) pass.sampled.emplace(i, digest(r));
  }
  pass.wall_ns = now_ns() - start;
  const CacheStats c1 = engine.cache_stats();
  const WorkerPool::Stats w1 = engine.worker_stats();
  pass.cache.hits = c1.hits - c0.hits;
  pass.cache.misses = c1.misses - c0.misses;
  pass.cache.evictions = c1.evictions - c0.evictions;
  pass.pool.tasks_claimed = w1.tasks_claimed - w0.tasks_claimed;
  pass.pool.idle_wakeups = w1.idle_wakeups - w0.idle_wakeups;
  pass.pool.batches_executed = w1.batches_executed - w0.batches_executed;
  pass.pool.threads_spawned = w1.threads_spawned;
  return pass;
}

/// Computes the hot blocks and the warm-up cold blocks: fills the cache
/// to its steady state, spawns the pool's worker and grows the
/// workspace pool before the first measured op.
void warm_up(const QueryEngine& engine, const Stream& s, Report& report) {
  try {
    for (const ClosureQuery& q : s.hot) (void)engine.closure(q);
    for (std::size_t i = 0; i < kWarmupCold; ++i) (void)engine.closure(s.ops[i].closure);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("warm-up failed: ") + e.what());
  }
}

/// Re-runs the gate sample on a 1-thread, cache-disabled engine: rows
/// and analytic results must be bit-identical. Kernel times land in the
/// tracer, tagged with the closure's policy.
void gate(const TimeVaryingGraph& g, const Stream& s, const Pass& pass,
          Report& report, Tracer& tracer) {
  const QueryEngine oracle(g, 1, CacheConfig::disabled());
  for (const auto& [i, got] : pass.sampled) {
    Op op = s.ops[i];
    op.closure.threads = 1;
    bool truncated = false;
    Result want;
    {
      Scope span(tracer, "oracle.kernel", static_cast<std::uint32_t>(i));
      want = execute(oracle, op, truncated);
      if (op.kind <= Kind::kHot) span.tag(policy_name(op.closure.policy));
    }
    ++report.gate_checked;
    if (digest(want) != got) report.mismatch("op " + std::to_string(i));
  }
}

double restart_seconds(const std::string& path) {
  return median_seconds(kRestartReps, [&](int) {
    const TimeVaryingGraph g = from_text(read_text_file(path));
    const QueryEngine engine(g, kClosureThreads, cache_config());
    ClosureQuery q;
    q.sources = {0};
    q.limits = SearchLimits::up_to(kHorizon);
    q.threads = kClosureThreads;
    (void)engine.closure(q);
  });
}

void latencies(Report& report, const Stream& s, const Pass& pass, std::size_t n) {
  std::vector<double> cold;
  std::vector<double> hot;
  std::vector<double> analytic;
  for (std::size_t i = 0; i < n; ++i) {
    const Kind k = s.ops[kWarmupCold + i].kind;
    (k == Kind::kCold ? cold : k == Kind::kHot ? hot : analytic)
        .push_back(pass.latency_us[i]);
  }
  const auto nominal = [&](double share) {
    return static_cast<std::size_t>(static_cast<double>(n) * share);
  };
  report.latency("primary", "closure_cold", cold, nominal(kShareCold));
  report.latency("secondary", "closure_hot (cache hit)", hot, nominal(kShareHot));
  report.latency("tertiary", "k_reachability/centrality", analytic,
                 nominal(1 - kShareCold - kShareHot));
}

void exact_counts(Report& report, const Pass& pass) {
  report.exact["cache.hits"] = static_cast<double>(pass.cache.hits);
  report.exact["cache.misses"] = static_cast<double>(pass.cache.misses);
  report.exact["cache.evictions"] = static_cast<double>(pass.cache.evictions);
  report.exact["pool.tasks_claimed"] = static_cast<double>(pass.pool.tasks_claimed);
  report.exact["pool.batches"] = static_cast<double>(pass.pool.batches_executed);
  report.inexact["pool.idle_wakeups"] = static_cast<double>(pass.pool.idle_wakeups);
  for (const auto& [name, c] : report.classes) {
    report.exact[name + ".truncated"] = static_cast<double>(c.truncated);
  }
}

}  // namespace

Report run_analytics_sweep(const Args& args) {
  Report report;
  const auto n = static_cast<std::size_t>(kOpsPerSecond * args.seconds);
  const Stream s = make_stream(args.seed, n);
  const std::uint64_t gate_seed = derive_seed(args.seed, 3);
  const std::size_t begin = kWarmupCold;
  const std::size_t end = kWarmupCold + n;
  report.config = {
      {"closure_threads", std::to_string(kClosureThreads) + " (caller + pool)"},
      {"callers", "1"},
      {"block", std::to_string(kBlock) + " sources, " +
                    std::to_string(kBlockBytes >> 20) + " MiB of rows"},
      {"cache", "max_bytes " + std::to_string(kCachedBlocks) + " blocks, 1 shard"},
      {"graph", "fixed make_zipf_periodic " + std::to_string(kNodes) +
                    " nodes, degree 8, period 8, latency 1"},
      {"measured_ops", std::to_string(n)},
  };

  if (!args.trace) {
    std::unique_ptr<TimeVaryingGraph> g;
    std::unique_ptr<QueryEngine> engine;
    const double setup_s = median_seconds(
        kSetupReps,
        [&](int) {
          engine.reset();
          g.reset();
        },
        [&](int) {
          g = std::make_unique<TimeVaryingGraph>(make_graph());
          engine = std::make_unique<QueryEngine>(*g, kClosureThreads, cache_config());
          warm_up(*engine, s, report);
        });
    Tracer off(false);
    const Pass pass = sweep(*engine, s, begin, end, report, off, gate_seed, kGateEvery);
    // ru_maxrss only grows: read now, before the gate's oracle runs.
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    engine.reset();
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", static_cast<double>(n) / ns_to_s(pass.wall_ns), "1/s");
    latencies(report, s, pass, n);
    exact_counts(report, pass);
    gate(*g, s, pass, report, off);
    return report;
  }

  Tracer tracer(true);
  Tracer off(false);
  std::int64_t t = now_ns();
  const TimeVaryingGraph g = make_graph();
  const double build_s = ns_to_s(now_ns() - t);
  t = now_ns();
  auto engine = std::make_unique<QueryEngine>(g, kClosureThreads, cache_config());
  const double construct_s = ns_to_s(now_ns() - t);
  warm_up(*engine, s, report);
  Report untraced;
  const Pass base = sweep(*engine, s, begin, end, untraced, off, gate_seed, 0);
  engine = std::make_unique<QueryEngine>(g, kClosureThreads, cache_config());
  warm_up(*engine, s, report);
  const Pass pass = sweep(*engine, s, begin, end, report, tracer, gate_seed, kGateEveryTraced);
  const std::size_t spawned = engine->worker_threads_spawned();
  engine.reset();
  exact_counts(report, pass);
  gate(g, s, pass, report, tracer);

  const auto& spans = tracer.spans();
  const std::vector<double> hit_us = span_durations_us(spans, "query_engine.closure", "hit");
  std::vector<double> post_us = span_durations_us(spans, "query_engine.k_reachability", "post");
  const std::vector<double> centrality_us =
      span_durations_us(spans, "query_engine.centrality", "post");
  post_us.insert(post_us.end(), centrality_us.begin(), centrality_us.end());
  std::size_t closures = 0;
  std::size_t truncated = 0;
  for (const auto& [name, c] : report.classes) {
    if (name.rfind("closure", 0) == 0) {
      closures += c.attempted;
      truncated += c.truncated;
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double hit_p50 = median(hit_us);
  const double untraced_ops = static_cast<double>(n) / ns_to_s(base.wall_ns);
  const double traced_ops = static_cast<double>(n) / ns_to_s(pass.wall_ns);
  report.metric("result_cache.hit_ratio",
                static_cast<double>(pass.cache.hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, pass.cache.hits + pass.cache.misses)),
                "ratio");
  report.metric("result_cache.evictions", static_cast<double>(pass.cache.evictions), "count");
  report.metric("result_cache.closure_hit_p50_us", hit_p50, "us");
  for (const char* p : {"wait", "bounded", "nowait"}) {
    report.metric(std::string("query_engine.closure_us_per_source.") + p,
                  median(span_durations_us(spans, "oracle.kernel", p)) / kBlock, "us");
  }
  report.metric("query_engine.analytics_post_p50_us", median(post_us) - hit_p50, "us");
  report.metric("query_engine.truncated_share",
                static_cast<double>(truncated) / static_cast<double>(std::max<std::size_t>(1, closures)),
                "ratio");
  report.metric("worker_pool.tasks_per_closure", mean(pass.cold_tasks), "count");
  report.metric("worker_pool.idle_wakeups_per_closure", mean(pass.cold_wakeups),
                "count");
  report.metric("worker_pool.threads_spawned", static_cast<double>(spawned), "count");
  report.metric("generators.build_s", build_s, "s");
  report.metric("query_engine.construct_s", construct_s, "s");
  const std::string path = args.out_dir + "/analytics_sweep.graph.txt";
  write_text_file(path, to_text(g));
  report.metric("query_engine.restart_s", restart_seconds(path), "s");
  latencies(untraced, s, base, n);
  report.tails_from(untraced);
  report.metric("trace.ops_per_s_untraced", untraced_ops, "1/s");
  report.metric("trace.ops_per_s_traced", traced_ops, "1/s");
  report.metric("trace.overhead_share", 1 - traced_ops / untraced_ops, "ratio");
  report.spans = summarize(tracer.spans());
  tracer.write_jsonl(args.out_dir + "/analytics_sweep.trace.jsonl");
  return report;
}

}  // namespace perfbench
