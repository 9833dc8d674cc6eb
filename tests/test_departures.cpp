// Regression tests for the shared policy-departure enumerator
// (src/tvg/departures.hpp) around the kTimeInfinity sentinel:
//
//  * an infinite ready time must enumerate nothing under EVERY policy —
//    previously only the kNoWait branch guarded it, and under
//    kBoundedWait the saturated max_departure window degenerated into
//    feeding the sentinel to next_present;
//  * a finite-but-near-infinite ready time must saturate to "no such
//    time" instead of overflowing Time inside next_present (exercised in
//    both the bitmask and the endpoint-run schedule modes; the ASan/
//    UBSan CI job turns the old overflow into a hard failure);
//  * Policy::max_departure saturates at kTimeInfinity;
//  * ordinary finite windows still enumerate exactly the right
//    departures under all three policies.
//
// kTimeInfinity is 2^63 - 1, which is ≡ 0 (mod 7); the period-7 cases
// below rely on that to place pattern hits deterministically right below
// the saturation boundary.
#include <gtest/gtest.h>

#include <vector>

#include "tvg/departures.hpp"
#include "tvg/graph.hpp"
#include "tvg/schedule_index.hpp"

namespace {

using namespace tvg;

std::vector<Time> collect(const ScheduleIndex& sx, EdgeId eid, Time t,
                          Policy policy, Time horizon = kTimeInfinity,
                          std::size_t wait_budget = 8) {
  std::vector<Time> deps;
  for_each_policy_departure(sx, eid, t, policy, horizon, wait_budget,
                            [&](Time dep) {
                              deps.push_back(dep);
                              return true;
                            });
  return deps;
}

/// One edge present at times ≡ offset (mod period). Period 7 compiles to
/// the bitmask mode, period 1000 to the endpoint-run mode.
TimeVaryingGraph periodic_graph(Time period, Time offset) {
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::periodic(period, IntervalSet::from_points({offset})),
             Latency::constant(1));
  return g;
}

TEST(PolicyMaxDeparture, SaturatesAtInfinity) {
  EXPECT_EQ(Policy::no_wait().max_departure(kTimeInfinity), kTimeInfinity);
  EXPECT_EQ(Policy::wait().max_departure(5), kTimeInfinity);
  EXPECT_EQ(Policy::bounded_wait(5).max_departure(kTimeInfinity),
            kTimeInfinity);
  // The sum would overflow; it must clamp to the sentinel instead.
  EXPECT_EQ(Policy::bounded_wait(5).max_departure(kTimeInfinity - 2),
            kTimeInfinity);
  EXPECT_EQ(Policy::bounded_wait(5).max_departure(10), 15);
}

TEST(ForEachPolicyDeparture, InfiniteReadyTimeEnumeratesNothing) {
  for (const Time period : {Time{7}, Time{1000}}) {
    const TimeVaryingGraph g = periodic_graph(period, period - 1);
    const ScheduleIndex& sx = g.schedule_index();
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(4), Policy::wait()}) {
      EXPECT_TRUE(collect(sx, 0, kTimeInfinity, policy).empty())
          << "period=" << period << " policy=" << policy.to_string();
    }
  }
}

TEST(ForEachPolicyDeparture, NearInfinityBitmaskModeSaturates) {
  // Pattern hit at 6 (mod 7): kTimeInfinity - 1 ≡ 6, so the edge's last
  // representable presence is exactly kTimeInfinity - 1.
  const TimeVaryingGraph hit = periodic_graph(7, 6);
  const ScheduleIndex& sx_hit = hit.schedule_index();
  EXPECT_EQ(collect(sx_hit, 0, kTimeInfinity - 1, Policy::wait()),
            (std::vector<Time>{kTimeInfinity - 1}));
  EXPECT_EQ(collect(sx_hit, 0, kTimeInfinity - 3, Policy::bounded_wait(100)),
            (std::vector<Time>{kTimeInfinity - 1}));

  // Pattern hit at 3 (mod 7): from kTimeInfinity - 1 the next hit sits
  // past the representable range — must saturate to "none", not
  // overflow (the pre-fix code computed from + (next - r) raw).
  const TimeVaryingGraph miss = periodic_graph(7, 3);
  const ScheduleIndex& sx_miss = miss.schedule_index();
  EXPECT_TRUE(collect(sx_miss, 0, kTimeInfinity - 1, Policy::wait()).empty());
  EXPECT_TRUE(
      collect(sx_miss, 0, kTimeInfinity - 1, Policy::bounded_wait(50))
          .empty());

  // Period 10: kTimeInfinity ≡ 7, so from kTimeInfinity - 1 (≡ 6) a
  // pattern hit at 9 sits 3 past `from` — in-copy, but past the
  // representable range. The pre-fix bitmask path overflowed here.
  const TimeVaryingGraph over = periodic_graph(10, 9);
  const ScheduleIndex& sx_over = over.schedule_index();
  EXPECT_TRUE(collect(sx_over, 0, kTimeInfinity - 1, Policy::wait()).empty());
  EXPECT_TRUE(
      collect(sx_over, 0, kTimeInfinity - 1, Policy::bounded_wait(7))
          .empty());
}

TEST(ForEachPolicyDeparture, NearInfinityEndpointRunModeSaturates) {
  // Period 1000 > the bitmask limit, so this drives the endpoint-run
  // segments and the EventCursor re-seed path near the saturation
  // boundary. kTimeInfinity ≡ 807 (mod 1000), so from kTimeInfinity - 1
  // (≡ 806) the next hit at 999 would land past kTimeInfinity.
  const TimeVaryingGraph g = periodic_graph(1000, 999);
  const ScheduleIndex& sx = g.schedule_index();
  EXPECT_TRUE(collect(sx, 0, kTimeInfinity - 1, Policy::wait()).empty());
  EXPECT_TRUE(
      collect(sx, 0, kTimeInfinity - 1, Policy::bounded_wait(5000)).empty());
  // A reachable hit below the boundary still enumerates: the last
  // representable presence is kTimeInfinity - 808 (≡ 999 mod 1000).
  const Time last_hit = kTimeInfinity - 808;
  EXPECT_EQ((last_hit - 999) % 1000, 0);
  EXPECT_EQ(collect(sx, 0, last_hit - 10, Policy::wait()),
            (std::vector<Time>{last_hit}));
}

TEST(ForEachPolicyDeparture, FiniteWindowsStillExact) {
  const TimeVaryingGraph g = periodic_graph(7, 3);  // present at 3, 10, 17...
  const ScheduleIndex& sx = g.schedule_index();
  EXPECT_EQ(collect(sx, 0, 3, Policy::no_wait()), (std::vector<Time>{3}));
  EXPECT_TRUE(collect(sx, 0, 4, Policy::no_wait()).empty());
  EXPECT_EQ(collect(sx, 0, 0, Policy::bounded_wait(10)),
            (std::vector<Time>{3, 10}));
  EXPECT_EQ(collect(sx, 0, 0, Policy::bounded_wait(2), /*horizon=*/100),
            (std::vector<Time>{}));
  EXPECT_EQ(collect(sx, 0, 0, Policy::wait(), kTimeInfinity,
                    /*wait_budget=*/3),
            (std::vector<Time>{3, 10, 17}));
  EXPECT_EQ(collect(sx, 0, 0, Policy::wait(), /*horizon=*/12),
            (std::vector<Time>{3, 10}));
  // wait_budget = 1, what the search kernels pass: the earliest
  // departure only, in the bitmask mode (period 7) and the endpoint-run
  // mode (period 1000), where later departures take the cursor.
  EXPECT_EQ(collect(sx, 0, 4, Policy::wait(), kTimeInfinity,
                    /*wait_budget=*/1),
            (std::vector<Time>{10}));
  EXPECT_TRUE(collect(sx, 0, 4, Policy::wait(), /*horizon=*/9,
                      /*wait_budget=*/1)
                  .empty());
  const TimeVaryingGraph runs = periodic_graph(1000, 3);  // 3, 1003, ...
  const ScheduleIndex& sx_runs = runs.schedule_index();
  EXPECT_EQ(collect(sx_runs, 0, 4, Policy::wait(), kTimeInfinity,
                    /*wait_budget=*/1),
            (std::vector<Time>{1003}));
  EXPECT_TRUE(collect(sx_runs, 0, 4, Policy::wait(), /*horizon=*/1002,
                      /*wait_budget=*/1)
                  .empty());
  EXPECT_EQ(collect(sx_runs, 0, 4, Policy::wait(), kTimeInfinity,
                    /*wait_budget=*/3),
            (std::vector<Time>{1003, 2003, 3003}));
}

}  // namespace
