// Deterministic component partitioner (net/shard_partition.h): component
// discovery over (item, node) incidences, canonical ordering, balanced
// greedy packing, the torn-partition case (fewer components than bins),
// and input edge cases. Also pins FlowNetwork's component membership, which
// every settle epoch rebuilds by union-find over the affected flows' NIC
// constraints: staggered arrivals give the same timeline in both solver
// regimes, departures keep the completion order, reruns are identical, and
// an escalated mega-component splits back into its NIC partition as soon
// as the fabric stops binding.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/flow_network.h"
#include "net/shard_partition.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace hm::net {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(ShardPartition, ItemsSharingANodeFormOneComponent) {
  // Items 0,1 share node 0; items 2,3 share node 3; item 4 is alone.
  const Edges edges = {{0, 0}, {1, 0}, {2, 3}, {3, 3}, {4, 5}};
  const ShardAssignment asg = partition_items(5, 6, edges, 3);
  EXPECT_EQ(asg.components, 3u);
  EXPECT_EQ(asg.bins_used, 3u);
  EXPECT_EQ(asg.shard_of_item[0], asg.shard_of_item[1]);
  EXPECT_EQ(asg.shard_of_item[2], asg.shard_of_item[3]);
  EXPECT_NE(asg.shard_of_item[0], asg.shard_of_item[2]);
  EXPECT_NE(asg.shard_of_item[0], asg.shard_of_item[4]);
  EXPECT_NE(asg.shard_of_item[2], asg.shard_of_item[4]);
}

TEST(ShardPartition, TransitiveChainsMerge) {
  // 0-1 via node 0, 1-2 via node 1, 2-3 via node 2: one component of 4.
  const Edges edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}};
  const ShardAssignment asg = partition_items(4, 3, edges, 4);
  EXPECT_EQ(asg.components, 1u);
  EXPECT_EQ(asg.bins_used, 1u);
  for (std::uint32_t i = 1; i < 4; ++i)
    EXPECT_EQ(asg.shard_of_item[i], asg.shard_of_item[0]);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Edges edges;
  for (std::uint32_t i = 0; i < 64; ++i) edges.emplace_back(i, i % 16);
  const ShardAssignment a = partition_items(64, 16, edges, 4);
  const ShardAssignment b = partition_items(64, 16, edges, 4);
  EXPECT_EQ(a.shard_of_item, b.shard_of_item);
  EXPECT_EQ(a.components, b.components);
  EXPECT_EQ(a.bins_used, b.bins_used);
}

TEST(ShardPartition, GreedyPackingBalancesLoad) {
  // Component weights 3 (items 0-2 via node 0), 1, 1, 1: heaviest-first
  // least-loaded packing must land 3|3, not 4|2.
  const Edges edges = {{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 3}};
  const ShardAssignment asg = partition_items(6, 4, edges, 2);
  EXPECT_EQ(asg.components, 4u);
  EXPECT_EQ(asg.bins_used, 2u);
  std::vector<int> load(2, 0);
  for (std::uint32_t i = 0; i < 6; ++i) ++load[asg.shard_of_item[i]];
  EXPECT_EQ(load[0], 3);
  EXPECT_EQ(load[1], 3);
}

TEST(ShardPartition, TornPartitionLeavesBinsEmpty) {
  // Two components, eight requested bins: only two bins receive items.
  const Edges edges = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  const ShardAssignment asg = partition_items(4, 2, edges, 8);
  EXPECT_EQ(asg.components, 2u);
  EXPECT_EQ(asg.bins_used, 2u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_LT(asg.shard_of_item[i], 8u);
}

TEST(ShardPartition, EdgeCases) {
  const ShardAssignment empty = partition_items(0, 4, {}, 4);
  EXPECT_EQ(empty.components, 0u);
  EXPECT_EQ(empty.bins_used, 0u);
  EXPECT_TRUE(empty.shard_of_item.empty());

  // bins = 0 is clamped to 1; out-of-range incidences are ignored.
  const Edges bogus = {{0, 99}, {99, 0}, {1, 0}};
  const ShardAssignment asg = partition_items(2, 1, bogus, 0);
  EXPECT_EQ(asg.components, 2u);  // the bogus edges linked nothing
  EXPECT_EQ(asg.bins_used, 1u);
  EXPECT_EQ(asg.shard_of_item[0], 0u);
  EXPECT_EQ(asg.shard_of_item[1], 0u);
}

TEST(ShardPartition, ItemsWithoutEdgesAreSingletons) {
  const ShardAssignment asg = partition_items(3, 2, {}, 2);
  EXPECT_EQ(asg.components, 3u);
  EXPECT_EQ(asg.bins_used, 2u);
}

// --- solver component membership ------------------------------------------

sim::Task run_one_flow(FlowNetwork* net, NodeId src, NodeId dst, double bytes,
                       double* done_at, sim::Simulator* s) {
  co_await net->transfer(src, dst, bytes, TrafficClass::kMemory);
  *done_at = s->now();
}

struct MembershipLog {
  std::vector<double> completions;
  std::uint64_t recomputes = 0;
  std::uint64_t solved_components = 0;
  std::uint64_t touched = 0;
};

/// Launch flows at the given start times on a flat unlimited-fabric
/// topology and report completions plus the solver's membership counters.
MembershipLog run_arrivals(const std::vector<double>& starts, double bytes,
                           bool incremental) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{kUnlimitedRate, 0.0, 8e9, incremental});
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < 2 * starts.size(); ++i) nodes.push_back(net.add_node(100e6));

  MembershipLog log;
  log.completions.assign(starts.size(), -1.0);
  struct Ctx {
    sim::Simulator& s;
    FlowNetwork& net;
    const std::vector<NodeId>& nodes;
    MembershipLog& log;
    double bytes;
    void launch(std::size_t i) {
      s.spawn(run_one_flow(&net, nodes[2 * i], nodes[2 * i + 1], bytes,
                           &log.completions[i], &s));
    }
  } ctx{s, net, nodes, log, bytes};
  for (std::size_t i = 0; i < starts.size(); ++i)
    s.schedule(starts[i], [c = &ctx, i] { c->launch(i); });
  s.run();
  log.recomputes = net.recompute_count();
  log.solved_components = net.solved_component_count();
  log.touched = net.touched_flow_count();
  EXPECT_EQ(net.active_flows(), 0u);
  return log;
}

TEST(ComponentMembership, StaggeredArrivalsMatchFullSolve) {
  // Big flows, staggered arrivals: every epoch after the first is
  // arrival-only (no departure, no topology change) until the completions.
  const std::vector<double> starts = {0.0, 1.0, 2.0, 3.0};
  const MembershipLog inc = run_arrivals(starts, 800e6, true);
  for (double t : inc.completions) EXPECT_GT(t, 3.0);

  // Full-solve mode re-solves every component each epoch, and the timeline
  // is byte-identical anyway — membership maintenance is pure bookkeeping.
  const MembershipLog full = run_arrivals(starts, 800e6, false);
  EXPECT_EQ(inc.completions, full.completions);
  EXPECT_EQ(inc.recomputes, full.recomputes);
}

TEST(ComponentMembership, DeparturesKeepCompletionOrder) {
  // Three flows sharing one egress NIC (n0): a long-lived A plus two short
  // flows B and C that arrive while A is live and depart before the next
  // arrival. Each arrival merges into A's component and each departure
  // shrinks it back to A alone.
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{kUnlimitedRate, 0.0, 8e9, true});
  const NodeId n0 = net.add_node(100e6);
  const NodeId n1 = net.add_node(100e6);
  const NodeId n2 = net.add_node(100e6);
  std::vector<double> done(3, -1.0);
  struct Ctx {
    sim::Simulator& s;
    FlowNetwork& net;
    std::vector<double>& done;
    NodeId n0, n1, n2;
  } ctx{s, net, done, n0, n1, n2};
  s.schedule(0.0, [c = &ctx] {
    c->s.spawn(run_one_flow(&c->net, c->n0, c->n1, 800e6, &c->done[0], &c->s));
  });
  s.schedule(1.0, [c = &ctx] {
    c->s.spawn(run_one_flow(&c->net, c->n0, c->n2, 30e6, &c->done[1], &c->s));
  });
  s.schedule(3.0, [c = &ctx] {
    c->s.spawn(run_one_flow(&c->net, c->n0, c->n2, 30e6, &c->done[2], &c->s));
  });
  s.run();
  EXPECT_EQ(net.active_flows(), 0u);
  // B and C finished while A was still draining; A finished last.
  EXPECT_GT(done[0], done[1]);
  EXPECT_GT(done[0], done[2]);
  EXPECT_GT(done[2], done[1]);
}

TEST(ComponentMembership, IdenticalCountersAcrossReruns) {
  const std::vector<double> starts = {0.0, 0.5, 0.5, 2.0, 2.0, 2.5};
  const MembershipLog a = run_arrivals(starts, 600e6, true);
  const MembershipLog b = run_arrivals(starts, 600e6, true);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.recomputes, b.recomputes);
  EXPECT_EQ(a.solved_components, b.solved_components);
  EXPECT_EQ(a.touched, b.touched);
}

TEST(ComponentMembership, EscalatedComponentSplitsWhenFabricStopsBinding) {
  // Three NIC-disjoint flows A (n0->n1), B (n2->n3), C (n4->n5) at 100 MB/s
  // NICs ask for 300 MB/s of a 260 MB/s fabric: the t=0 epoch escalates
  // and publishes all three as one mega-component. At t=1 an arrival-only
  // epoch adds D (n0->n3), which shares A's egress and B's ingress: the
  // NIC-level rates drop to 50/50/50 + 100 = 250 MB/s, so the fabric stops
  // binding and membership must fall back to the NIC partition {A, B, D},
  // {C} — not stay merged because the flows were merged before.
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "full solve");
    sim::Simulator s;
    FlowNetwork net(s, FlowNetworkConfig{260e6, 0.0, 8e9, incremental});
    std::vector<NodeId> n;
    for (int i = 0; i < 6; ++i) n.push_back(net.add_node(100e6));
    std::vector<double> done(4, -1.0);
    for (int i = 0; i < 3; ++i)
      s.spawn(run_one_flow(&net, n[2 * i], n[2 * i + 1], 1e9, &done[i], &s));
    struct Ctx {
      sim::Simulator& s;
      FlowNetwork& net;
      std::vector<NodeId>& n;
      std::vector<double>& done;
    } ctx{s, net, n, done};
    s.schedule(1.0, [c = &ctx] {
      c->s.spawn(run_one_flow(&c->net, c->n[0], c->n[3], 1e9, &c->done[3], &c->s));
    });

    s.run_until(0.5);
    EXPECT_EQ(net.escalation_count(), 1u);
    EXPECT_EQ(net.component_count(), 1u);
    const std::uint64_t recomputes = net.recompute_count();

    s.run_until(1.0);
    EXPECT_EQ(net.recompute_count(), recomputes + 1);  // the arrival epoch only
    EXPECT_EQ(net.escalation_count(), 1u);
    EXPECT_EQ(net.component_count(), 2u);

    s.run();
    EXPECT_EQ(net.active_flows(), 0u);
  }
}

}  // namespace
}  // namespace hm::net
