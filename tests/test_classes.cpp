// Unit tests for TVG connectivity classes (recurrence, TCR) and temporal
// metrics.
#include <gtest/gtest.h>

#include <algorithm>

#include "tvg/algorithms.hpp"
#include "tvg/classes.hpp"
#include "tvg/generators.hpp"
#include "tvg/metrics.hpp"
#include "tvg/query_engine.hpp"

namespace tvg {
namespace {

/// All-source foremost rows from a one-shot, one-thread engine.
std::vector<std::vector<Time>> closure_rows(const TimeVaryingGraph& g,
                                            Time start, Policy policy,
                                            SearchLimits limits = {}) {
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  ClosureQuery q;
  q.start_time = start;
  q.policy = policy;
  q.limits = limits;
  return engine.closure(q).rows;
}

TEST(Recurrence, PeriodicEdgesAreRecurrent) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  const EdgeId periodic = g.add_edge(
      0, 1, 'a', Presence::periodic(5, IntervalSet::from_points({1, 3})),
      Latency::constant(1));
  const EdgeId oneshot = g.add_edge(
      0, 1, 'b', Presence::intervals(IntervalSet::single(0, 4)),
      Latency::constant(1));
  EXPECT_TRUE(edge_is_recurrent(g.edge(periodic)));
  EXPECT_FALSE(edge_is_recurrent(g.edge(oneshot)));
  EXPECT_TRUE(edge_is_recurrent(Edge{}));  // default edge: always present
}

TEST(Recurrence, MaxGapOfPeriodicPattern) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  // Present at residues 1 and 3 of period 10: gaps 2 (1->3) and 8 (3->11).
  const EdgeId e = g.add_edge(
      0, 1, 'a', Presence::periodic(10, IntervalSet::from_points({1, 3})),
      Latency::constant(1));
  EXPECT_EQ(edge_max_gap(g.edge(e)), 8);
  // Always-present edges have gap 1.
  const EdgeId always = g.add_edge(0, 1, 'b', Presence::always(),
                                   Latency::constant(1));
  EXPECT_EQ(edge_max_gap(g.edge(always)), 1);
  // Non-recurrent edges have no gap bound.
  const EdgeId dead = g.add_edge(0, 1, 'c', Presence::never(),
                                 Latency::constant(1));
  EXPECT_EQ(edge_max_gap(g.edge(dead)), std::nullopt);
}

TEST(Recurrence, GraphLevelPredicates) {
  RandomPeriodicParams params;
  params.nodes = 5;
  params.edges = 12;
  params.seed = 3;
  const TimeVaryingGraph g = make_random_periodic(params);
  EXPECT_TRUE(all_edges_recurrent(g));
  const auto bound = recurrence_bound(g);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound, 1);
  EXPECT_LE(*bound, params.period);

  RandomScheduledParams sched;
  sched.seed = 3;
  const TimeVaryingGraph h = make_random_scheduled(sched);
  EXPECT_FALSE(all_edges_recurrent(h));  // finite windows die out
  EXPECT_EQ(recurrence_bound(h), std::nullopt);
}

TEST(Recurrence, EmptyGraphIsNotRecurrent) {
  EXPECT_FALSE(all_edges_recurrent(TimeVaryingGraph{}));
}

TEST(Classes, RecurrentRingIsTcr) {
  // A periodic ring: recurrently connected under Wait.
  TimeVaryingGraph g;
  g.add_nodes(3);
  for (NodeId v = 0; v < 3; ++v) {
    g.add_edge(v, (v + 1) % 3, 'x',
               Presence::periodic(4, IntervalSet::from_points({v})),
               Latency::constant(1));
  }
  EXPECT_TRUE(recurrently_connected(g, Policy::wait()));
  // Under NoWait the same ring is NOT recurrently connected (the phase
  // alignment only works from lucky start instants).
  EXPECT_FALSE(recurrently_connected(g, Policy::no_wait()));
  const TvgClassReport report = classify(g, Policy::wait());
  EXPECT_TRUE(report.edge_recurrent);
  EXPECT_TRUE(report.recurrently_connected);
  ASSERT_TRUE(report.recurrence_bound.has_value());
  EXPECT_NE(report.to_string().find("TCR: yes"), std::string::npos);
}

TEST(Classes, OneShotRelayIsOnlyTcFromEarlyStarts) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a', Presence::intervals(IntervalSet::single(0, 2)),
             Latency::constant(1));
  g.add_edge(1, 0, 'a', Presence::intervals(IntervalSet::single(0, 2)),
             Latency::constant(1));
  // Temporally connected from 0: every closure entry is finite.
  for (const auto& row :
       closure_rows(g, 0, Policy::wait(), SearchLimits::up_to(100))) {
    EXPECT_EQ(std::count(row.begin(), row.end(), kTimeInfinity), 0);
  }
  EXPECT_FALSE(recurrently_connected(g, Policy::wait()));
}

TEST(Metrics, EccentricityAndCloseness) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_static_edge(a, b, 'x', 2);
  g.add_static_edge(b, c, 'x', 3);
  g.add_static_edge(c, a, 'x', 1);
  const auto ecc = temporal_eccentricity(g, a, 0, Policy::wait());
  ASSERT_TRUE(ecc.has_value());
  EXPECT_EQ(*ecc, 5);  // a -> c via b
  const double closeness = temporal_closeness(g, a, 0, Policy::wait());
  EXPECT_NEAR(closeness, 1.0 / 3 + 1.0 / 6, 1e-9);
  // Unreachable somewhere -> no eccentricity.
  TimeVaryingGraph h;
  h.add_nodes(2);
  EXPECT_EQ(temporal_eccentricity(h, 0, 0, Policy::wait()), std::nullopt);
}

TEST(Metrics, ContactsAndPresenceMass) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  const EdgeId e = g.add_edge(
      0, 1, 'a', Presence::intervals(IntervalSet({{0, 3}, {5, 6}, {9, 12}})),
      Latency::constant(1));
  EXPECT_EQ(contact_count(g.edge(e), 20), 3u);
  EXPECT_EQ(contact_count(g.edge(e), 6), 2u);
  EXPECT_EQ(total_presence(g, 20), 3 + 1 + 3);
}

TEST(Metrics, SnapshotDensity) {
  TimeVaryingGraph g;
  g.add_nodes(3);  // 6 ordered pairs
  g.add_edge(0, 1, 'a', Presence::intervals(IntervalSet::single(0, 5)),
             Latency::constant(1));
  g.add_edge(1, 2, 'a', Presence::intervals(IntervalSet::single(3, 5)),
             Latency::constant(1));
  EXPECT_NEAR(snapshot_density(g, 0), 1.0 / 6, 1e-9);
  EXPECT_NEAR(snapshot_density(g, 4), 2.0 / 6, 1e-9);
  EXPECT_NEAR(snapshot_density(g, 10), 0.0, 1e-9);
  EXPECT_GT(average_density(g, 10), 0.0);
  EXPECT_LT(average_density(g, 10), 1.0);
}

TEST(Metrics, CharacteristicTemporalDistance) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_static_edge(a, b, 'x', 4);
  const auto ctd = characteristic_temporal_distance(
      closure_rows(g, 0, Policy::wait()), 0);
  ASSERT_TRUE(ctd.has_value());
  EXPECT_NEAR(*ctd, 4.0, 1e-9);  // only a->b is a proper pair
  TimeVaryingGraph empty;
  empty.add_nodes(2);
  EXPECT_EQ(characteristic_temporal_distance(
                closure_rows(empty, 0, Policy::wait()), 0),
            std::nullopt);
}

TEST(Metrics, WaitingImprovesCloseness) {
  // Store-carry-forward again, through the metrics lens.
  TimeVaryingGraph g;
  g.add_nodes(3);
  g.add_edge(0, 1, 'a', Presence::intervals(IntervalSet::single(0, 2)),
             Latency::constant(1));
  g.add_edge(1, 2, 'a', Presence::intervals(IntervalSet::single(8, 10)),
             Latency::constant(1));
  const double wait_closeness =
      temporal_closeness(g, 0, 0, Policy::wait(), 100);
  const double nowait_closeness =
      temporal_closeness(g, 0, 0, Policy::no_wait(), 100);
  EXPECT_GT(wait_closeness, nowait_closeness);
}

}  // namespace
}  // namespace tvg
