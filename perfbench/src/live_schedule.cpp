// live_schedule — a DurableEngine driven from one thread.
//
// The seeded op stream mixes journey reads through
// mutable_engine().run, apply() mutations (patch_presence,
// override_latency, add_edge, remove_edge) and small Wait closure
// blocks. compact() and checkpoint() run synchronously at seeded points;
// every compaction is followed by a mutation, so nearly every closure
// runs over a non-empty delta (the overlay's serial closure path) at a
// point set by the seed, never by timing. The WAL syncs every N appends
// (kEveryN). One recover() runs after the measured phase. The same read
// APIs as the frozen workloads run here over a pending delta and under
// per-edge cache invalidation, with writes beside the reads.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <unordered_map>

#include "common.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/durable_engine.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/serialization.hpp"

namespace perfbench {
namespace {

using namespace tvg;
namespace fs = std::filesystem;

constexpr std::uint64_t kGraphSeed = 0x11fe;
constexpr std::uint64_t kPoolSeed = 0x11ff;
constexpr std::uint64_t kWarmupSeed = 0x1200;
constexpr std::size_t kNodes = 2048;
constexpr std::size_t kEdges = 12000;
constexpr Time kPeriod = 16;
constexpr std::size_t kPool = 2048;  // distinct journey queries
constexpr double kZipfS = 0.5;
// Engine, epochs and pool: the caller plus one pool worker. On the
// 4-vCPU machine the README describes, single-threaded runs drifted
// 30-45% between runs where 2-thread runs of the same ops drifted ~8%.
constexpr unsigned kThreads = 2;
constexpr std::uint64_t kWalEveryN = 32;
constexpr std::size_t kCompactEvery = 256;  // ops between compactions
constexpr std::size_t kCheckpoints = 4;     // per measured phase
constexpr std::size_t kClosureSources = 8;
constexpr double kShareMutate = 0.30;   // shares of kPattern below
constexpr double kShareClosure = 0.15;  // the rest are journey reads
constexpr std::size_t kWarmupOps = 400;
constexpr double kOpsPerSecond = 800;  // nominal measured ops per second
constexpr std::uint64_t kGateEvery = 96;
constexpr std::size_t kCliffBlocks = 12;
constexpr int kSetupReps = 5;
constexpr int kRestartReps = 7;

enum class Kind : std::uint8_t { kJourney, kMutate, kClosure, kCompact, kCheckpoint };

const char* class_name(Kind k) {
  switch (k) {
    case Kind::kJourney:
      return "journey";
    case Kind::kMutate:
      return "mutate";
    case Kind::kClosure:
      return "closure";
    case Kind::kCompact:
      return "compact";
    case Kind::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

struct Op {
  Kind kind{Kind::kJourney};
  std::uint32_t query{0};  // pool index (journeys)
  EdgeMutation mutation;
  ClosureQuery closure;
};

/// The base graph is a fixed data set (a constant seed); --seed picks
/// the reads and the mutations.
TimeVaryingGraph make_graph() {
  RandomPeriodicParams p;
  p.nodes = kNodes;
  p.edges = kEdges;
  p.period = kPeriod;
  p.density = 0.25;
  p.max_latency = 2;
  p.alphabet = "ab";
  p.seed = kGraphSeed;
  p.allow_self_loops = false;
  return make_random_periodic(p);
}

Presence random_presence(std::mt19937_64& rng) {
  const Time period = 6 + static_cast<Time>(below(rng, 7));
  std::vector<Time> points;
  const std::size_t k = 1 + below(rng, 3);
  for (std::size_t i = 0; i < k; ++i) points.push_back(static_cast<Time>(below(rng, period)));
  return Presence::periodic(period, IntervalSet::from_points(std::move(points)));
}

/// pool[r] is the journey at popularity rank r: objective and policy
/// follow the rank. A fixed data set like the base graph; --seed draws
/// which journeys are read when.
std::vector<JourneyQuery> make_pool() {
  std::mt19937_64 rng(kPoolSeed);
  std::vector<JourneyQuery> pool;
  for (std::size_t rank = 0; rank < kPool; ++rank) {
    const auto src = static_cast<NodeId>(below(rng, kNodes));
    const auto dst = static_cast<NodeId>(below(rng, kNodes));
    const Time t0 = static_cast<Time>(below(rng, kPeriod));
    SearchLimits limits = SearchLimits::up_to(t0 + 16);
    limits.max_configs = 16000;
    const Policy policy = rank % 3 == 0   ? Policy::wait()
                          : rank % 3 == 1 ? Policy::bounded_wait(2)
                                          : Policy::no_wait();
    pool.push_back((rank % 4 == 3 ? JourneyQuery::shortest(src, dst, t0)
                                  : JourneyQuery::foremost(src, t0).to(dst))
                       .under(policy)
                       .within(limits));
  }
  return pool;
}

/// Op kinds follow a fixed 20-slot pattern (11 reads, 6 mutations, 3
/// closures) and mutation kinds a fixed 20-step cycle (3 add, 3 remove,
/// 4 latency overrides, 10 presence patches). A compaction every
/// kCompactEvery ops is followed by a mutation; checkpoints sit at the
/// middle of each quarter of the measured phase. The seed picks edge
/// ids, schedules, endpoints, closure sources and which journeys repeat.
constexpr char kPattern[] = "JMJCMJJJMJCMJJMJJCMJ";
constexpr char kMutations[] = "PAPRPLPPAPRLPPLPARPL";
static_assert(sizeof(kPattern) == 21 && sizeof(kMutations) == 21);

/// The whole op stream: kWarmupOps warm-up ops, then n measured ops.
/// Mutations name only edge ids that exist at their point in the stream.
/// The warm-up ops are fixed data (a constant seed), so set-up does the
/// same work for every seed; --seed draws the measured ops.
std::vector<Op> make_stream(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 warm(kWarmupSeed);
  std::mt19937_64 seeded(derive_seed(seed, 3));
  const Zipf zipf(kPool, kZipfS);
  std::size_t edges = kEdges;
  std::size_t mutations = 0;
  std::vector<std::size_t> checkpoints;
  for (std::size_t q = 0; q < kCheckpoints; ++q) {
    checkpoints.push_back(kWarmupOps + (2 * q + 1) * n / (2 * kCheckpoints));
  }
  std::vector<Op> ops(kWarmupOps + n);
  bool force_mutate = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    std::mt19937_64& rng = i < kWarmupOps ? warm : seeded;
    if (i > 0 && i % kCompactEvery == 0) {
      op.kind = Kind::kCompact;
      force_mutate = true;
      continue;
    }
    if (std::find(checkpoints.begin(), checkpoints.end(), i) != checkpoints.end()) {
      op.kind = Kind::kCheckpoint;
      continue;
    }
    const char slot = kPattern[i % 20];
    if (force_mutate || slot == 'M' || i + 1 == kWarmupOps) {
      force_mutate = false;
      op.kind = Kind::kMutate;
      const auto e = static_cast<EdgeId>(below(rng, edges));
      switch (kMutations[mutations++ % 20]) {
        case 'A':
          op.mutation = EdgeMutation::add_edge(
              static_cast<NodeId>(below(rng, kNodes)),
              static_cast<NodeId>(below(rng, kNodes)), (rng() & 1) != 0 ? 'a' : 'b',
              random_presence(rng), Latency::constant(1 + static_cast<Time>(below(rng, 2))));
          ++edges;
          break;
        case 'R':
          op.mutation = EdgeMutation::remove_edge(e);
          break;
        case 'L':
          op.mutation = EdgeMutation::override_latency(
              e, Latency::constant(1 + static_cast<Time>(below(rng, 3))));
          break;
        default:
          op.mutation = EdgeMutation::patch_presence(e, random_presence(rng));
          break;
      }
    } else if (slot == 'C') {
      op.kind = Kind::kClosure;
      for (std::size_t k = 0; k < kClosureSources; ++k) {
        op.closure.sources.push_back(static_cast<NodeId>(below(rng, kNodes)));
      }
      op.closure.start_time = static_cast<Time>(below(rng, kPeriod));
      op.closure.policy = Policy::wait();
      op.closure.limits = SearchLimits::up_to(op.closure.start_time + 64);
      op.closure.threads = kThreads;
    } else {
      op.kind = Kind::kJourney;
      op.query = static_cast<std::uint32_t>(zipf(rng));
    }
  }
  return ops;
}

DurableOptions durable_options() {
  DurableOptions o;
  o.wal.sync = SyncPolicy::kEveryN;
  o.wal.every_n = kWalEveryN;
  o.threads = kThreads;
  return o;
}

struct Pass {
  std::vector<double> latency_us;  // per op in [begin, end)
  std::int64_t wall_ns{0};
  std::vector<EdgeId> ids;         // per op: the id apply() returned
  std::unordered_map<std::size_t, JourneyResult> journeys;  // gate sample
  std::unordered_map<std::size_t, ClosureResult> closures;
  std::uint64_t pending_at_read{0};  // sum over reads
  std::uint64_t reads{0};
  std::uint64_t mutations{0};
  CacheStats cache;  // deltas over the pass
  Wal::Stats wal;    // deltas over the pass
};

Pass drive(DurableEngine& de, const std::vector<JourneyQuery>& pool,
           const std::vector<Op>& ops, std::size_t begin, std::size_t end,
           Report& report, Tracer& tracer, std::uint64_t gate_seed,
           std::uint64_t gate_every) {
  Pass pass;
  pass.latency_us.assign(end - begin, 0);
  pass.ids.assign(end - begin, kInvalidEdge);
  MutableEngine& me = de.mutable_engine();
  const CacheStats c0 = me.cache_stats();
  const Wal::Stats w0 = de.stats().wal;
  const std::int64_t start = now_ns();
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    const auto op_id = static_cast<std::uint32_t>(i);
    const bool gate = sampled(gate_seed, i, gate_every);
    bool ok = true;
    bool truncated = false;
    const bool read = op.kind == Kind::kJourney || op.kind == Kind::kClosure;
    if (read) {
      pass.pending_at_read += me.pending_mutations();
      ++pass.reads;
    }
    const std::uint64_t hits0 = tracer.on() ? me.cache_stats().hits : 0;
    const std::int64_t t0 = now_ns();
    try {
      switch (op.kind) {
        case Kind::kJourney: {
          Scope span(tracer, "mutable_engine.run", op_id);
          JourneyResult r = me.run(pool[op.query]);
          if (tracer.on()) span.tag(me.cache_stats().hits > hits0 ? "hit" : "miss");
          truncated = r.truncated;
          if (gate) pass.journeys.emplace(i, std::move(r));
          break;
        }
        case Kind::kMutate: {
          Scope span(tracer, "durable_engine.apply", op_id);
          pass.ids[i - begin] = de.apply(op.mutation);
          ++pass.mutations;
          break;
        }
        case Kind::kClosure: {
          Scope span(tracer, "mutable_engine.closure", op_id);
          ClosureResult r = me.closure(op.closure);
          truncated = r.truncated;
          if (gate) pass.closures.emplace(i, std::move(r));
          break;
        }
        case Kind::kCompact: {
          Scope span(tracer, "mutable_engine.compact", op_id);
          de.compact();
          break;
        }
        case Kind::kCheckpoint: {
          Scope span(tracer, "durable_engine.checkpoint", op_id);
          de.checkpoint();
          break;
        }
      }
    } catch (const std::exception&) {
      ok = false;
    }
    pass.latency_us[i - begin] = ns_to_us(now_ns() - t0);
    report.count(class_name(op.kind), ok, truncated);
  }
  pass.wall_ns = now_ns() - start;
  const CacheStats c1 = me.cache_stats();
  const Wal::Stats w1 = de.stats().wal;
  pass.cache.hits = c1.hits - c0.hits;
  pass.cache.misses = c1.misses - c0.misses;
  pass.cache.evictions = c1.evictions - c0.evictions;
  pass.cache.invalidations = c1.invalidations - c0.invalidations;
  pass.cache.survivors = c1.survivors - c0.survivors;
  pass.wal.appends = w1.appends - w0.appends;
  pass.wal.syncs = w1.syncs - w0.syncs;
  pass.wal.bytes_written = w1.bytes_written - w0.bytes_written;
  return pass;
}

/// A fresh WAL directory, the graph, the durable engine (which writes
/// checkpoint 0) and the warm-up prefix of the stream.
std::unique_ptr<DurableEngine> set_up(const std::string& dir,
                                      const std::vector<JourneyQuery>& pool,
                                      const std::vector<Op>& ops, Report& report) {
  fs::remove_all(dir);
  auto de = std::make_unique<DurableEngine>(make_graph(), dir, durable_options());
  Report scratch;
  Tracer off(false);
  (void)drive(*de, pool, ops, 0, kWarmupOps, scratch, off, 0, 0);
  if (scratch.failed() != 0) report.errors.push_back("warm-up op failed");
  return de;
}

/// Replays the mutation stream on a cache-disabled MutableEngine and
/// checks each sampled read against a 1-thread, cache-disabled
/// QueryEngine over materialize() at that point of the stream, and each
/// mutation's edge id against the one the durable engine returned.
void gate(const std::vector<JourneyQuery>& pool,
          const std::vector<Op>& ops, std::size_t begin, const Pass& pass,
          Report& report) {
  MutableEngine model(make_graph(), 1, CacheConfig::disabled());
  std::unique_ptr<TimeVaryingGraph> g;
  std::unique_ptr<QueryEngine> oracle;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind == Kind::kMutate) {
      const EdgeId id = model.apply(op.mutation);
      oracle.reset();
      if (i >= begin && id != pass.ids[i - begin]) {
        report.mismatch("edge id of mutation op " + std::to_string(i));
      }
      continue;
    }
    const auto j = pass.journeys.find(i);
    const auto c = pass.closures.find(i);
    if (j == pass.journeys.end() && c == pass.closures.end()) continue;
    if (!oracle) {
      oracle.reset();
      g = std::make_unique<TimeVaryingGraph>(model.materialize());
      oracle = std::make_unique<QueryEngine>(*g, 1, CacheConfig::disabled());
    }
    ++report.gate_checked;
    if (j != pass.journeys.end() && !(oracle->run(pool[op.query]) == j->second)) {
      report.mismatch("journey op " + std::to_string(i));
    }
    if (c != pass.closures.end()) {
      ClosureQuery q = op.closure;
      q.threads = 1;
      if (!(oracle->closure(q) == c->second)) {
        report.mismatch("closure op " + std::to_string(i));
      }
    }
  }
}

void latencies(Report& report, const std::vector<Op>& ops, const Pass& pass,
               std::size_t n) {
  std::vector<double> by_kind[5];
  for (std::size_t i = 0; i < n; ++i) {
    by_kind[static_cast<std::size_t>(ops[kWarmupOps + i].kind)].push_back(pass.latency_us[i]);
  }
  const auto nominal = [&](double share) {
    return static_cast<std::size_t>(static_cast<double>(n) * share);
  };
  report.latency("primary", "journey", by_kind[0],
                 nominal(1 - kShareMutate - kShareClosure));
  report.latency("secondary", "closure (pending delta)", by_kind[2],
                 nominal(kShareClosure));
  report.latency("tertiary", "mutate (durable apply)", by_kind[1], nominal(kShareMutate));
}

void exact_counts(Report& report, const Pass& pass) {
  report.exact["wal.appends"] = static_cast<double>(pass.wal.appends);
  report.exact["wal.syncs"] = static_cast<double>(pass.wal.syncs);
  report.exact["wal.bytes"] = static_cast<double>(pass.wal.bytes_written);
  report.exact["cache.hits"] = static_cast<double>(pass.cache.hits);
  report.exact["cache.misses"] = static_cast<double>(pass.cache.misses);
  report.exact["cache.evictions"] = static_cast<double>(pass.cache.evictions);
  report.exact["cache.invalidations"] = static_cast<double>(pass.cache.invalidations);
  report.exact["cache.survivors"] = static_cast<double>(pass.cache.survivors);
  report.exact["overlay.pending_at_read"] = static_cast<double>(pass.pending_at_read);
  for (const auto& [name, c] : report.classes) {
    report.exact[name + ".truncated"] = static_cast<double>(c.truncated);
  }
}

}  // namespace

Report run_live_schedule(const Args& args) {
  Report report;
  const auto n = static_cast<std::size_t>(kOpsPerSecond * args.seconds);
  const std::vector<JourneyQuery> pool = make_pool();
  const std::vector<Op> ops = make_stream(args.seed, n);
  const std::uint64_t gate_seed = derive_seed(args.seed, 4);
  const std::string dir = args.out_dir + "/live_schedule.wal";
  report.config = {
      {"threads", "2 (caller + 1 pool worker; engine, epochs and closures)"},
      {"wal_dir", dir},
      {"wal_sync", "kEveryN, n = " + std::to_string(kWalEveryN)},
      {"compaction", "synchronous every " + std::to_string(kCompactEvery) +
                         " ops, followed by a mutation"},
      {"checkpoints", std::to_string(kCheckpoints) + " per phase, mid-quarter"},
      {"cache", "MutableEngine default (capacity 1024, 8 shards)"},
      {"graph", "fixed make_random_periodic " + std::to_string(kNodes) + " nodes, " +
                    std::to_string(kEdges) + " edges, period " + std::to_string(kPeriod)},
      {"measured_ops", std::to_string(n)},
  };
  const std::size_t begin = kWarmupOps;
  const std::size_t end = kWarmupOps + n;
  Tracer tracer(args.trace);
  Tracer off(false);

  std::unique_ptr<DurableEngine> de;
  double setup_s = 0;
  double build_s = 0;
  double construct_s = 0;
  Pass base;
  Report untraced;
  if (!args.trace) {
    setup_s = median_seconds(
        kSetupReps,
        [&](int) {
          de.reset();
          fs::remove_all(dir);
        },
        [&](int) { de = set_up(dir, pool, ops, report); });
  } else {
    // Layer set-up costs, then an untraced pass as the tracing-overhead
    // baseline, then a fresh set-up for the traced pass.
    std::int64_t t = now_ns();
    TimeVaryingGraph g = make_graph();
    build_s = ns_to_s(now_ns() - t);
    t = now_ns();
    { const QueryEngine probe(g, kThreads, CacheConfig::disabled()); }
    construct_s = ns_to_s(now_ns() - t);
    de = set_up(dir, pool, ops, report);
    base = drive(*de, pool, ops, begin, end, untraced, off, gate_seed, 0);
    de.reset();
    de = set_up(dir, pool, ops, report);
  }
  const Pass pass = drive(*de, pool, ops, begin, end, report, tracer, gate_seed, kGateEvery);
  // ru_maxrss only grows: read now, before the gate's model and oracles
  // and recover() run.
  if (!args.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const std::string live_text = to_text(de->materialize());
  const std::uint64_t checkpoint_bytes = fs::file_size(
      DurableEngine::checkpoint_path(dir, de->stats().checkpoint_sequence));
  de->sync();
  de.reset();

  exact_counts(report, pass);
  report.exact["durable.checkpoint_bytes"] = static_cast<double>(checkpoint_bytes);
  gate(pool, ops, begin, pass, report);

  // Restart: recover the final directory (checkpoint plus WAL suffix);
  // the recovered graph must equal the live one. Timed in the traced run.
  std::unique_ptr<DurableEngine> recovered;
  const double recover_s = median_seconds(args.trace ? kRestartReps : 1, [&](int) {
    recovered.reset();
    recovered = DurableEngine::recover(dir, durable_options());
  });
  ++report.gate_checked;
  if (to_text(recovered->materialize()) != live_text) {
    report.mismatch("recovered graph differs from the live graph");
  }
  const std::uint64_t replayed = recovered->stats().recovery.replayed_records;
  report.exact["durable.recover_replayed"] = static_cast<double>(replayed);

  const double mutations = static_cast<double>(std::max<std::uint64_t>(1, pass.mutations));
  if (!args.trace) {
    recovered.reset();
    fs::remove_all(dir);
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", static_cast<double>(n) / ns_to_s(pass.wall_ns), "1/s");
    latencies(report, ops, pass, n);
    return report;
  }

  // The overlay closure cliff: the same blocks on one thread (so the
  // serial and the packed kernel compare, not their sharding) over a
  // pending delta, then again after compact(); rows must not change.
  MutableEngine& me = recovered->mutable_engine();
  if (me.pending_mutations() == 0) {
    (void)recovered->apply(EdgeMutation::override_latency(0, Latency::constant(1)));
  }
  std::vector<ClosureQuery> blocks;
  for (std::size_t i = begin; i < end && blocks.size() < kCliffBlocks; ++i) {
    if (ops[i].kind != Kind::kClosure) continue;
    blocks.push_back(ops[i].closure);
    blocks.back().threads = 1;
  }
  std::vector<ClosureResult> pending_rows;
  for (const ClosureQuery& q : blocks) {
    Scope span(tracer, "mutable_engine.closure", 0);
    span.tag("cliff.pending");
    pending_rows.push_back(me.closure(q));
  }
  recovered->compact();
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    Scope span(tracer, "mutable_engine.closure", 0);
    span.tag("cliff.compacted");
    ++report.gate_checked;
    if (!(me.closure(blocks[k]) == pending_rows[k])) {
      report.mismatch("closure rows changed across compact()");
    }
  }
  recovered.reset();
  fs::remove_all(dir);

  // Bare pass: the same journeys, mutations and compactions on a plain
  // MutableEngine (same cache shape, no WAL), timing each apply.
  std::vector<double> bare_us;
  std::vector<double> tax_us;
  {
    MutableEngine bare(make_graph(), kThreads);
    for (std::size_t i = 0; i < end; ++i) {
      const Op& op = ops[i];
      if (op.kind == Kind::kJourney) {
        (void)bare.run(pool[op.query]);
      } else if (op.kind == Kind::kCompact) {
        bare.compact();
      } else if (op.kind == Kind::kMutate) {
        const std::int64_t t0 = now_ns();
        (void)bare.apply(op.mutation);
        if (i < begin) continue;
        const double us = ns_to_us(now_ns() - t0);
        bare_us.push_back(us);
        tax_us.push_back(pass.latency_us[i - begin] - us);
      }
    }
  }

  const auto& spans = tracer.spans();
  const double pending_p50 = median(span_durations_us(spans, "mutable_engine.closure", "cliff.pending"));
  const double compacted_p50 =
      median(span_durations_us(spans, "mutable_engine.closure", "cliff.compacted"));
  const double untraced_ops = static_cast<double>(n) / ns_to_s(base.wall_ns);
  const double traced_ops = static_cast<double>(n) / ns_to_s(pass.wall_ns);
  const double touched = static_cast<double>(pass.cache.invalidations + pass.cache.survivors);
  report.metric("result_cache.hit_ratio",
                static_cast<double>(pass.cache.hits) /
                    std::max(1.0, static_cast<double>(pass.cache.hits + pass.cache.misses)),
                "ratio");
  report.metric("result_cache.evictions", static_cast<double>(pass.cache.evictions),
                "count");
  report.metric("result_cache.hit_p50_us",
                median(span_durations_us(spans, "mutable_engine.run", "hit")), "us");
  report.metric("result_cache.survivor_ratio",
                static_cast<double>(pass.cache.survivors) / std::max(1.0, touched), "ratio");
  report.metric("result_cache.invalidations_per_mutation",
                static_cast<double>(pass.cache.invalidations) / mutations, "count");
  report.metric("delta_overlay.apply_p50_us", median(bare_us), "us");
  report.metric("delta_overlay.pending_at_read_mean",
                static_cast<double>(pass.pending_at_read) /
                    std::max(1.0, static_cast<double>(pass.reads)),
                "count");
  report.metric("delta_overlay.closure_pending_p50_us", pending_p50, "us");
  report.metric("delta_overlay.closure_compacted_p50_us", compacted_p50, "us");
  report.metric("delta_overlay.closure_cliff_ratio",
                compacted_p50 > 0 ? pending_p50 / compacted_p50 : 0, "ratio");
  report.metric("delta_overlay.compact_p50_us",
                median(span_durations_us(spans, "mutable_engine.compact")), "us");
  report.metric("wal.syncs_per_mutation", static_cast<double>(pass.wal.syncs) / mutations,
                "count");
  report.metric("wal.bytes_per_mutation",
                static_cast<double>(pass.wal.bytes_written) / mutations, "count");
  report.metric("durable_engine.wal_tax_p50_us", median(tax_us), "us");
  report.metric("durable_engine.checkpoint_p50_us",
                median(span_durations_us(spans, "durable_engine.checkpoint")), "us");
  report.metric("durable_engine.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
                "count");
  report.metric("durable_engine.recover_replayed", static_cast<double>(replayed), "count");
  report.metric("durable_engine.recover_s", recover_s, "s");
  report.metric("generators.build_s", build_s, "s");
  report.metric("query_engine.construct_s", construct_s, "s");
  latencies(untraced, ops, base, n);
  report.tails_from(untraced);
  report.metric("trace.ops_per_s_untraced", untraced_ops, "1/s");
  report.metric("trace.ops_per_s_traced", traced_ops, "1/s");
  report.metric("trace.overhead_share", 1 - traced_ops / untraced_ops, "ratio");
  report.spans = summarize(tracer.spans());
  tracer.write_jsonl(args.out_dir + "/live_schedule.trace.jsonl");
  return report;
}

}  // namespace perfbench
