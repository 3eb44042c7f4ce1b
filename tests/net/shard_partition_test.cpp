// Deterministic component partitioner (net/shard_partition.h): component
// discovery over (item, node) incidences, canonical ordering, balanced
// greedy packing, the torn-partition case (fewer components than bins),
// and input edge cases. Also pins the merge-only membership fast path in
// FlowNetwork::solve_epoch: arrival-only epochs must take it (the counter
// moves), full-solve mode and epochs after a departure must not, and the
// resulting timeline is byte-identical either way.
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

// --- membership fast path (merge-only epochs) ----------------------------

sim::Task run_one_flow(FlowNetwork* net, NodeId src, NodeId dst, double bytes,
                       double* done_at, sim::Simulator* s) {
  co_await net->transfer(src, dst, bytes, TrafficClass::kMemory);
  *done_at = s->now();
}

struct FastPathLog {
  std::vector<double> completions;
  std::uint64_t fast_epochs = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t solved_components = 0;
  std::uint64_t touched = 0;
};

/// Launch flows at the given start times on a flat unlimited-fabric
/// topology and report completions plus the solver's membership counters.
FastPathLog run_arrivals(const std::vector<double>& starts, double bytes,
                         bool incremental) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{kUnlimitedRate, 0.0, 8e9, incremental});
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < 2 * starts.size(); ++i) nodes.push_back(net.add_node(100e6));

  FastPathLog log;
  log.completions.assign(starts.size(), -1.0);
  struct Ctx {
    sim::Simulator& s;
    FlowNetwork& net;
    const std::vector<NodeId>& nodes;
    FastPathLog& log;
    double bytes;
    void launch(std::size_t i) {
      s.spawn(run_one_flow(&net, nodes[2 * i], nodes[2 * i + 1], bytes,
                           &log.completions[i], &s));
    }
  } ctx{s, net, nodes, log, bytes};
  for (std::size_t i = 0; i < starts.size(); ++i)
    s.schedule(starts[i], [c = &ctx, i] { c->launch(i); });
  s.run();
  log.fast_epochs = net.membership_fast_epochs();
  log.recomputes = net.recompute_count();
  log.solved_components = net.solved_component_count();
  log.touched = net.touched_flow_count();
  EXPECT_EQ(net.active_flows(), 0u);
  return log;
}

TEST(MembershipFastPath, ArrivalOnlyEpochsTakeTheMergePath) {
  // Big flows, staggered arrivals: every arrival epoch after the first sees
  // no departure and no topology change, so membership must come from the
  // merge-only path. (The first epoch follows add_node => full rebuild;
  // completion epochs carry split risk => full rebuild.)
  const std::vector<double> starts = {0.0, 1.0, 2.0, 3.0};
  const FastPathLog inc = run_arrivals(starts, 800e6, true);
  EXPECT_EQ(inc.fast_epochs, starts.size() - 1);
  for (double t : inc.completions) EXPECT_GT(t, 3.0);

  // Full-solve mode never takes the fast path, and the timeline is
  // byte-identical anyway — membership maintenance is pure bookkeeping.
  const FastPathLog full = run_arrivals(starts, 800e6, false);
  EXPECT_EQ(full.fast_epochs, 0u);
  EXPECT_EQ(inc.completions, full.completions);
  EXPECT_EQ(inc.recomputes, full.recomputes);
}

TEST(MembershipFastPath, DepartureEpochsRebuild) {
  // Three flows sharing one egress NIC (n0): a long-lived A plus two short
  // flows B and C that arrive while A is live and depart before the next
  // arrival. The two arrival epochs (t=1, t=3) see a clean surviving
  // component and take the fast path; the two departure epochs (B and C
  // completing) collect the split-risk survivor A and must rebuild. Exact
  // count: 2 fast epochs, no more.
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
  EXPECT_EQ(net.membership_fast_epochs(), 2u);
  // B and C finished while A was still draining; A finished last.
  EXPECT_GT(done[0], done[1]);
  EXPECT_GT(done[0], done[2]);
  EXPECT_GT(done[2], done[1]);
}

TEST(MembershipFastPath, IdenticalCountersAcrossReruns) {
  const std::vector<double> starts = {0.0, 0.5, 0.5, 2.0, 2.0, 2.5};
  const FastPathLog a = run_arrivals(starts, 600e6, true);
  const FastPathLog b = run_arrivals(starts, 600e6, true);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.fast_epochs, b.fast_epochs);
  EXPECT_EQ(a.recomputes, b.recomputes);
  EXPECT_EQ(a.solved_components, b.solved_components);
  EXPECT_EQ(a.touched, b.touched);
  EXPECT_GT(a.fast_epochs, 0u);
}

}  // namespace
}  // namespace hm::net
