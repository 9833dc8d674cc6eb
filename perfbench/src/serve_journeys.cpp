// serve_journeys — a frozen QueryEngine behind a 2-worker Server.
//
// One generator thread keeps a fixed window of requests outstanding
// (closed loop). Requests are Zipf-skewed picks from a pool of distinct
// requests larger than the cache's capacity, so hits, misses and
// evictions all happen: targeted journeys (foremost / shortest, and
// fastest over a departure window) in the kNormal lane, and accepts
// batches of words with shared prefixes in the kBatch lane, under
// no-wait, bounded-wait and wait. Every edge repeats with a period above
// ScheduleIndex::kMaxBitmaskBits, so next_present answers through the
// endpoint-run search. The packed closure, the overlay and the WAL do
// nothing here: a change to those must read as no change.
#include <future>
#include <algorithm>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/schedule_index.hpp"
#include "tvg/serialization.hpp"
#include "tvg/server.hpp"

namespace perfbench {
namespace {

using namespace tvg;

constexpr std::size_t kNodes = 2000;
constexpr std::size_t kEdges = 10000;
constexpr Time kPeriodLo = 640;  // every period > kMaxBitmaskBits
constexpr Time kPeriodHi = 1280;
static_assert(kPeriodLo > ScheduleIndex::kMaxBitmaskBits);

constexpr std::uint64_t kGraphSeed = 0x5e7e;
constexpr std::uint64_t kPoolSeed = 0x5e7f;
constexpr std::uint64_t kWarmupSeed = 0x5e80;
constexpr std::size_t kPool = 4096;  // distinct requests (> cache capacity)
constexpr double kZipfS = 1.0;
constexpr std::size_t kCacheCapacity = 1024;
constexpr std::size_t kCacheShards = 8;
constexpr unsigned kServerWorkers = 2;
constexpr unsigned kEngineThreads = 1;  // + generator = 4 threads busy
constexpr std::size_t kWindow = 8;      // requests outstanding
constexpr std::size_t kWarmupOps = 5000;
constexpr double kOpsPerSecond = 13000;  // nominal measured ops per second
constexpr double kShareFastest = 0.10;
constexpr double kShareAccept = 0.25;
constexpr std::uint64_t kGateEvery = 128;
constexpr int kSetupReps = 5;
constexpr int kRestartReps = 11;

enum class Kind : std::uint8_t { kJourney, kFastest, kAccept };

const char* class_name(Kind k) {
  switch (k) {
    case Kind::kJourney:
      return "journey";
    case Kind::kFastest:
      return "fastest";
    case Kind::kAccept:
      return "accept";
  }
  return "?";
}

struct Request {
  Kind kind{Kind::kJourney};
  JourneyQuery query;
  AcceptSpec spec;
  std::vector<Word> words;
};

/// The graph is a fixed data set (a constant seed), so every seed
/// measures the same graph.
TimeVaryingGraph make_graph() {
  std::mt19937_64 rng(kGraphSeed);
  TimeVaryingGraph g;
  g.add_nodes(kNodes);
  for (std::size_t i = 0; i < kEdges; ++i) {
    const auto from = static_cast<NodeId>(below(rng, kNodes));
    auto to = static_cast<NodeId>(below(rng, kNodes - 1));
    if (to >= from) ++to;
    const Symbol label = (rng() & 1) != 0 ? 'a' : 'b';
    const Time period =
        kPeriodLo + static_cast<Time>(below(rng, kPeriodHi - kPeriodLo));
    std::vector<TimeInterval> windows;
    const std::size_t k = 3 + below(rng, 6);
    for (std::size_t w = 0; w < k; ++w) {
      const Time lo = static_cast<Time>(below(rng, period - 48));
      windows.push_back(TimeInterval{lo, lo + 8 + static_cast<Time>(below(rng, 40))});
    }
    g.add_edge(from, to, label,
               Presence::periodic(period, IntervalSet(std::move(windows))),
               Latency::constant(1 + static_cast<Time>(below(rng, 6))));
  }
  return g;
}

/// Request kind by popularity rank: a fixed 20-rank pattern, so every
/// seed has the same mix at every rank (accepts 25%, fastest 10%).
Kind kind_for_rank(std::size_t r) {
  switch (r % 20) {
    case 1:
    case 5:
    case 9:
    case 13:
    case 17:
      return Kind::kAccept;
    case 3:
    case 11:
      return Kind::kFastest;
    default:
      return Kind::kJourney;
  }
}

/// Waiting policy by rank (3 and 20 are coprime, so every kind sees all
/// three policies in equal shares).
Policy policy_for_rank(std::size_t r) {
  switch (r % 3) {
    case 0:
      return Policy::wait();
    case 1:
      return Policy::bounded_wait(static_cast<Time>(8 << (r / 3 % 3)));
    default:
      return Policy::no_wait();
  }
}

/// pool[r] is the request at popularity rank r. Like the graph, the
/// pool is a fixed data set; --seed draws the request stream from it.
std::vector<Request> make_pool() {
  std::mt19937_64 rng(kPoolSeed);
  std::vector<Request> pool(kPool);
  for (std::size_t rank = 0; rank < kPool; ++rank) {
    Request& r = pool[rank];
    r.kind = kind_for_rank(rank);
    const Policy policy = policy_for_rank(rank);
    const auto src = static_cast<NodeId>(below(rng, kNodes));
    const auto dst = static_cast<NodeId>(below(rng, kNodes));
    const Time t0 = static_cast<Time>(below(rng, 2000));
    SearchLimits limits = SearchLimits::up_to(t0 + 300);
    limits.max_configs = 5000;
    limits.max_fastest_candidates = 8;
    if (r.kind == Kind::kAccept) {
      for (int i = 0; i < 4; ++i) {
        r.spec.initial.push_back(static_cast<NodeId>(below(rng, kNodes)));
      }
      for (int i = 0; i < 256; ++i) {
        r.spec.accepting.push_back(static_cast<NodeId>(below(rng, kNodes)));
      }
      r.spec.start_time = t0;
      r.spec.policy = policy;
      r.spec.horizon = t0 + 300;
      r.spec.max_configs = 8000;
      r.spec.departures_per_edge = 8;
      Word prefix;
      for (int i = 0; i < 3; ++i) prefix += (rng() & 1) != 0 ? 'a' : 'b';
      for (int w = 0; w < 8; ++w) {
        Word word = prefix;
        const std::size_t extra = 2 + below(rng, 4);
        for (std::size_t i = 0; i < extra; ++i) {
          word += (rng() & 1) != 0 ? 'a' : 'b';
        }
        r.words.push_back(std::move(word));
      }
    } else if (r.kind == Kind::kFastest) {
      r.query = JourneyQuery::fastest(src, dst, t0, t0 + 4)
                    .under(policy)
                    .within(limits);
    } else {
      r.query = (rank % 7 == 0 ? JourneyQuery::shortest(src, dst, t0)
                               : JourneyQuery::foremost(src, t0).to(dst))
                    .under(policy)
                    .within(limits);
    }
  }
  return pool;
}

/// Pool ranks of the whole stream: a warm-up prefix, then n measured
/// ops. The warm-up prefix is fixed data (a constant seed), so set-up
/// does the same work for every seed; --seed draws the measured ops.
std::vector<std::uint32_t> make_stream(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 warm(kWarmupSeed);
  std::mt19937_64 rng(derive_seed(seed, 3));
  const Zipf zipf(kPool, kZipfS);
  std::vector<std::uint32_t> stream(kWarmupOps + n);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint32_t>(zipf(i < kWarmupOps ? warm : rng));
  }
  return stream;
}

CacheConfig cache_config() {
  CacheConfig c;
  c.capacity = kCacheCapacity;
  c.shards = kCacheShards;
  return c;
}

ServerConfig server_config() {
  ServerConfig c;
  c.workers = kServerWorkers;
  return c;
}

/// Engine + server over one graph; built in dependency order and torn
/// down in reverse (the server joins its workers first).
struct Served {
  QueryEngine engine;
  Server server;
  explicit Served(const TimeVaryingGraph& g)
      : engine(g, kEngineThreads, cache_config()),
        server(engine, server_config()) {}
};

struct Outcome {
  bool ok{false};
  bool truncated{false};
  std::size_t configs{0};
};

Outcome journey_outcome(const JourneyResult& r) { return {true, r.truncated, 0}; }

Outcome accept_outcome(const std::vector<AcceptOutcome>& r) {
  Outcome o{true, false, r.empty() ? 0 : r.front().configs_explored};
  for (const AcceptOutcome& a : r) o.truncated = o.truncated || a.truncated;
  return o;
}

/// What one served pass leaves behind for the metrics and the gate.
struct Pass {
  std::vector<double> latency_us;  // per stream op in [begin, end)
  std::int64_t wall_ns{0};
  std::uint64_t configs{0};        // sum of configs_explored over accepts
  std::unordered_map<std::size_t, JourneyResult> journeys;  // gate sample
  std::unordered_map<std::size_t, std::vector<AcceptOutcome>> accepts;
};

/// Runs stream ops [begin, end) through the server with kWindow
/// requests outstanding. A request is timed from submit until the
/// generator first sees its future ready (the window is polled, never
/// waited on in FIFO order).
Pass serve(Served& s, const std::vector<Request>& pool,
           const std::vector<std::uint32_t>& stream, std::size_t begin,
           std::size_t end, Report& report, Tracer& tracer,
           std::uint64_t gate_seed, std::uint64_t gate_every) {
  struct Slot {
    bool busy{false};
    std::size_t op{0};
    std::int64_t t0{0};
    std::int64_t submitted{0};
    std::future<JourneyResult> journey;
    std::future<std::vector<AcceptOutcome>> accept;
  };
  Pass pass;
  pass.latency_us.assign(end - begin, 0);
  std::vector<Slot> slots(kWindow);
  std::size_t next = begin;
  std::size_t done = 0;

  auto submit = [&](Slot& slot) {
    const Request& r = pool[stream[next]];
    slot.busy = true;
    slot.op = next++;
    slot.t0 = now_ns();
    if (r.kind == Kind::kAccept) {
      slot.accept = s.server.submit(r.spec, r.words,
                                    SubmitOptions::in_lane(Lane::kBatch));
    } else {
      slot.journey =
          s.server.submit(r.query, SubmitOptions::in_lane(Lane::kNormal));
    }
    slot.submitted = now_ns();
  };

  auto finish = [&](Slot& slot, std::int64_t t1) {
    const Request& r = pool[stream[slot.op]];
    const bool gate = sampled(gate_seed, slot.op, gate_every);
    Outcome o;
    try {
      if (r.kind == Kind::kAccept) {
        auto v = slot.accept.get();
        o = accept_outcome(v);
        pass.configs += o.configs;
        if (gate) pass.accepts.emplace(slot.op, std::move(v));
      } else {
        auto v = slot.journey.get();
        o = journey_outcome(v);
        if (gate) pass.journeys.emplace(slot.op, std::move(v));
      }
    } catch (const std::exception&) {
      o.ok = false;  // Overloaded, DeadlineExceeded or a query error
    }
    report.count(class_name(r.kind), o.ok, o.truncated);
    pass.latency_us[slot.op - begin] = ns_to_us(t1 - slot.t0);
    if (tracer.on()) {
      const std::int32_t id =
          tracer.record(r.kind == Kind::kAccept ? "op.accept" : "op.journey",
                        slot.t0, t1, -1, static_cast<std::uint32_t>(slot.op));
      tracer.record("server.submit", slot.t0, slot.submitted, id,
                    static_cast<std::uint32_t>(slot.op));
    }
    slot.busy = false;
    ++done;
  };

  const std::int64_t start = now_ns();
  for (Slot& slot : slots) {
    if (next < end) submit(slot);
  }
  while (done < end - begin) {
    bool any = false;
    for (Slot& slot : slots) {
      if (!slot.busy) continue;
      const bool ready =
          pool[stream[slot.op]].kind == Kind::kAccept
              ? slot.accept.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready
              : slot.journey.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
      if (!ready) continue;
      finish(slot, now_ns());
      any = true;
      if (next < end) submit(slot);
    }
    if (!any) std::this_thread::yield();
  }
  pass.wall_ns = now_ns() - start;
  return pass;
}

/// Fills the cache to its steady state and grows the workspace pool
/// with the warm-up prefix of the stream. Warm-up failures are run
/// errors.
void warm_up(Served& served, const std::vector<Request>& pool,
             const std::vector<std::uint32_t>& stream, Report& report) {
  Report scratch;
  Tracer off(false);
  (void)serve(served, pool, stream, 0, kWarmupOps, scratch, off, 0, 0);
  if (scratch.failed() != 0) report.errors.push_back("warm-up op failed");
}

/// Re-runs the gate sample on a 1-thread, cache-disabled engine; every
/// difference is an oracle mismatch.
void gate(const TimeVaryingGraph& g, const std::vector<Request>& pool,
          const std::vector<std::uint32_t>& stream, const Pass& pass,
          Report& report) {
  const QueryEngine oracle(g, 1, CacheConfig::disabled());
  for (const auto& [op, got] : pass.journeys) {
    ++report.gate_checked;
    if (!(oracle.run(pool[stream[op]].query) == got)) {
      report.mismatch("journey op " + std::to_string(op));
    }
  }
  for (const auto& [op, got] : pass.accepts) {
    const Request& r = pool[stream[op]];
    ++report.gate_checked;
    if (!(oracle.accepts(r.spec, r.words) == got)) {
      report.mismatch("accepts op " + std::to_string(op));
    }
  }
}

double restart_seconds(const std::string& path) {
  return median_seconds(kRestartReps, [&](int) {
    const TimeVaryingGraph g = from_text(read_text_file(path));
    const QueryEngine engine(g, kEngineThreads, cache_config());
    (void)engine.run(JourneyQuery::foremost(0, 0).to(1));
  });
}

void truncated_counts(Report& report) {
  for (const auto& [name, c] : report.classes) {
    report.exact[name + ".truncated"] = static_cast<double>(c.truncated);
  }
}

void latencies(Report& report, const std::vector<Request>& pool,
               const std::vector<std::uint32_t>& stream, const Pass& pass,
               std::size_t n) {
  std::vector<double> by_kind[3];
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(pool[stream[kWarmupOps + i]].kind);
    by_kind[k].push_back(pass.latency_us[i]);
  }
  const auto nominal = [&](double share) {
    return static_cast<std::size_t>(static_cast<double>(n) * share);
  };
  report.latency("primary", "journey", by_kind[0],
                 nominal(1 - kShareAccept - kShareFastest));
  report.latency("secondary", "accept", by_kind[2], nominal(kShareAccept));
  report.latency("tertiary", "fastest", by_kind[1], nominal(kShareFastest));
}

}  // namespace

Report run_serve_journeys(const Args& args) {
  Report report;
  const auto n = static_cast<std::size_t>(kOpsPerSecond * args.seconds);
  const std::vector<Request> pool = make_pool();
  const std::vector<std::uint32_t> stream = make_stream(args.seed, n);
  const std::uint64_t gate_seed = derive_seed(args.seed, 4);
  report.config = {
      {"server_workers", std::to_string(kServerWorkers)},
      {"engine_threads", std::to_string(kEngineThreads)},
      {"generator_threads", "1"},
      {"window", std::to_string(kWindow)},
      {"loop", "closed"},
      {"cache", "capacity " + std::to_string(kCacheCapacity) + ", " +
                    std::to_string(kCacheShards) + " shards"},
      {"pool", std::to_string(kPool) + " distinct, zipf " + std::to_string(kZipfS)},
      {"graph", "fixed: " + std::to_string(kNodes) + " nodes, " + std::to_string(kEdges) +
                    " edges, periods " + std::to_string(kPeriodLo) + "-" +
                    std::to_string(kPeriodHi)},
      {"measured_ops", std::to_string(n)},
  };

  if (!args.trace) {
    // Set up kSetupReps times and report the median; the last set-up is
    // the one measured. The previous set-up is torn down, untimed, before
    // the next one starts.
    std::unique_ptr<TimeVaryingGraph> g;
    std::unique_ptr<Served> served;
    const double setup_s = median_seconds(
        kSetupReps,
        [&](int) {
          served.reset();
          g.reset();
        },
        [&](int) {
          g = std::make_unique<TimeVaryingGraph>(make_graph());
          served = std::make_unique<Served>(*g);
          warm_up(*served, pool, stream, report);
        });
    Tracer off(false);
    const Pass pass = serve(*served, pool, stream, kWarmupOps, kWarmupOps + n,
                            report, off, gate_seed, kGateEvery);
    // ru_maxrss only grows: read now, before the gate's oracle runs.
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    const ServerStats ss = served->server.stats();
    const CacheStats cs = served->engine.cache_stats();
    served.reset();

    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", static_cast<double>(n) / ns_to_s(pass.wall_ns), "1/s");
    latencies(report, pool, stream, pass, n);
    report.exact["accept.configs_explored"] = static_cast<double>(pass.configs);
    report.inexact["cache.hits"] = static_cast<double>(cs.hits);
    report.inexact["cache.misses"] = static_cast<double>(cs.misses);
    report.inexact["cache.evictions"] = static_cast<double>(cs.evictions);
    report.inexact["server.lane_depth_high_water"] =
        static_cast<double>(ss.lane_depth_high_water);
    report.inexact["server.shed"] = static_cast<double>(ss.shed);
    report.inexact["server.expired"] = static_cast<double>(ss.expired);
    truncated_counts(report);
    gate(*g, pool, stream, pass, report);
    return report;
  }

  // Traced run: an untraced pass for the overhead baseline, then a
  // fresh engine and server replaying the same seed with spans on, then
  // the direct and kernel passes the layer metrics come from.
  Tracer tracer(true);
  Tracer off(false);
  std::int64_t t = now_ns();
  const TimeVaryingGraph g = make_graph();
  const double build_s = ns_to_s(now_ns() - t);
  t = now_ns();
  auto served = std::make_unique<Served>(g);  // compiles the index + CSR
  const double construct_s = ns_to_s(now_ns() - t);
  warm_up(*served, pool, stream, report);
  Report untraced;
  const Pass base = serve(*served, pool, stream, kWarmupOps, kWarmupOps + n,
                          untraced, off, gate_seed, 0);
  served = std::make_unique<Served>(g);
  warm_up(*served, pool, stream, report);
  const Pass pass = serve(*served, pool, stream, kWarmupOps, kWarmupOps + n,
                          report, tracer, gate_seed, kGateEvery);
  const ServerStats ss = served->server.stats();
  served.reset();

  // Direct pass over a prefix of the same stream: one caller and a fresh
  // cache of the same shape, so cache_stats() deltas attribute each call
  // to hit or miss exactly.
  const std::size_t prefix = n / 4;
  std::vector<double> direct_us(prefix, 0);
  std::vector<double> hit_us;
  std::vector<double> miss_us;         // journeys, fastest included
  std::vector<double> accept_miss_us;
  CacheStats before;
  CacheStats after;
  {
    const QueryEngine engine(g, kEngineThreads, cache_config());
    auto call = [&](const Request& r) {
      if (r.kind == Kind::kAccept) {
        (void)engine.accepts(r.spec, r.words);
      } else {
        (void)engine.run(r.query);
      }
    };
    for (std::size_t i = 0; i < kWarmupOps; ++i) call(pool[stream[i]]);
    before = engine.cache_stats();
    for (std::size_t i = 0; i < prefix; ++i) {
      const Request& r = pool[stream[kWarmupOps + i]];
      const std::uint64_t hits0 = engine.cache_stats().hits;
      const std::int64_t t0 = now_ns();
      const std::int32_t id = tracer.begin(
          r.kind == Kind::kAccept ? "query_engine.accepts" : "query_engine.run",
          static_cast<std::uint32_t>(kWarmupOps + i));
      call(r);
      const std::int64_t t1 = now_ns();
      const bool hit = engine.cache_stats().hits > hits0;
      tracer.end(id, hit ? "hit" : "miss");
      direct_us[i] = ns_to_us(t1 - t0);
      if (r.kind == Kind::kAccept) {
        if (!hit) accept_miss_us.push_back(direct_us[i]);
      } else {
        (hit ? hit_us : miss_us).push_back(direct_us[i]);
      }
    }
    after = engine.cache_stats();
  }
  const std::uint64_t direct_hits = after.hits - before.hits;
  const std::uint64_t direct_misses = after.misses - before.misses;
  const std::uint64_t direct_evictions = after.evictions - before.evictions;
  std::vector<double> overhead_us;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (pool[stream[kWarmupOps + i]].kind == Kind::kAccept) continue;
    overhead_us.push_back(pass.latency_us[i] - direct_us[i]);
  }

  gate(g, pool, stream, pass, report);
  truncated_counts(report);
  const double q = tail_quantile(miss_us.size());

  const double accepts_done =
      static_cast<double>(report.classes["accept"].attempted);
  const double untraced_ops = static_cast<double>(n) / ns_to_s(base.wall_ns);
  const double traced_ops = static_cast<double>(n) / ns_to_s(pass.wall_ns);
  report.metric("server.overhead_p50_us", median(overhead_us), "us");
  report.metric("server.lane_depth_high_water",
                static_cast<double>(ss.lane_depth_high_water), "count");
  report.metric("server.shed", static_cast<double>(ss.shed), "count");
  report.metric("server.expired", static_cast<double>(ss.expired), "count");
  report.metric("server.failed", static_cast<double>(ss.failed), "count");
  report.metric("result_cache.hit_ratio",
                static_cast<double>(direct_hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, direct_hits + direct_misses)),
                "ratio");
  report.metric("result_cache.hit_p50_us", median(hit_us), "us");
  report.metric("result_cache.evictions", static_cast<double>(direct_evictions),
                "count");
  report.metric("query_engine.run_miss_p50_us", median(miss_us), "us");
  report.metric("query_engine.run_miss_tail_us", percentile(miss_us, q), "us");
  report.tails["query_engine.run_miss_tail_us"] =
      TailInfo{q, miss_us.size(), samples_beyond(miss_us.size(), q)};
  report.metric("query_engine.accepts_p50_us", median(accept_miss_us), "us");
  report.metric("query_engine.configs_per_accept",
                static_cast<double>(pass.configs) / std::max(1.0, accepts_done),
                "count");
  report.metric("generators.build_s", build_s, "s");
  report.metric("query_engine.construct_s", construct_s, "s");
  const std::string path = args.out_dir + "/serve_journeys.graph.txt";
  write_text_file(path, to_text(g));
  report.metric("query_engine.restart_s", restart_seconds(path), "s");
  latencies(untraced, pool, stream, base, n);
  report.tails_from(untraced);
  report.metric("trace.ops_per_s_untraced", untraced_ops, "1/s");
  report.metric("trace.ops_per_s_traced", traced_ops, "1/s");
  report.metric("trace.overhead_share", 1 - traced_ops / untraced_ops, "ratio");
  report.exact["accept.configs_explored"] = static_cast<double>(pass.configs);
  report.exact["direct.cache_hits"] = static_cast<double>(direct_hits);
  report.exact["direct.cache_misses"] = static_cast<double>(direct_misses);
  report.exact["direct.cache_evictions"] = static_cast<double>(direct_evictions);
  report.spans = summarize(tracer.spans());
  tracer.write_jsonl(args.out_dir + "/serve_journeys.trace.jsonl");
  return report;
}

}  // namespace perfbench
