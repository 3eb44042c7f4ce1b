// Incremental-vs-full solver equivalence: the component-scoped solver must
// produce byte-identical rate streams and completion times to re-solving
// every component each epoch (the full-solve ablation), across randomized
// flow churn on several topology shapes — flat, non-blocking (no finite
// shared constraint: phase 4 skipped), fabric-bound (escalation),
// oversubscribed switch groups, per-flow caps — and under seeded capacity
// changes, link flaps and node crashes interleaved with the churn. Also
// covers the component introspection hooks the benches report.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/flow_network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace hm::net {
namespace {

struct FlowSpec {
  double start;
  NodeId src;
  NodeId dst;
  double bytes;
  double cap;
};

struct Topology {
  double fabric = 1e12;
  std::vector<double> uplinks;          // one switch group per entry
  std::vector<SwitchGroupId> node_group;  // group index per node (0 = flat)
  std::vector<double> nic;              // per-node NIC
};

/// A fault window on one node: applied at `start`, undone at start + dur.
enum class FaultKind { kScale, kFlap, kCrash };
struct FaultSpec {
  double start;
  double dur;
  NodeId node;
  FaultKind kind;
  double factor;  // kScale: NIC capacity multiplier for the window
};

struct RunLog {
  std::vector<double> completions;       // completion time per flow (spec order)
  std::vector<int> succeeded;            // transfer result per flow (spec order)
  std::vector<double> rate_samples;      // flow_rate(src,dst) probes
  double traffic = 0.0;                  // bytes counted (crashes uncount)
  std::uint64_t recomputes = 0;
  std::uint64_t touched = 0;
  std::uint64_t escalations = 0;
  std::uint64_t live_scans = 0;
};

sim::Task run_flow(FlowNetwork* net, const FlowSpec* f, double* done_at, int* ok,
                   sim::Simulator* s) {
  *ok = co_await net->transfer(f->src, f->dst, f->bytes, TrafficClass::kMemory, f->cap);
  *done_at = s->now();
}

RunLog run_scenario(const Topology& topo, const std::vector<FlowSpec>& flows,
                    bool incremental, const std::vector<FaultSpec>& faults = {}) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{topo.fabric, 0.0, 8e9, incremental});
  std::vector<SwitchGroupId> groups;
  for (double up : topo.uplinks) groups.push_back(net.add_switch_group(up));
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < topo.nic.size(); ++i) {
    const SwitchGroupId g =
        topo.node_group.empty() ? 0 : groups[topo.node_group[i]];
    nodes.push_back(net.add_node(topo.nic[i], g));
  }

  RunLog log;
  log.completions.assign(flows.size(), -1.0);
  log.succeeded.assign(flows.size(), -1);
  // Scenario context behind one pointer: schedule callbacks must fit
  // SmallFn's two-word capture budget.
  struct Ctx {
    sim::Simulator& s;
    FlowNetwork& net;
    const std::vector<FlowSpec>& flows;
    const std::vector<FaultSpec>& faults;
    const std::vector<NodeId>& nodes;
    RunLog& log;
    void launch(std::size_t i) {
      s.spawn(run_flow(&net, &flows[i], &log.completions[i], &log.succeeded[i], &s));
    }
    void fault(std::size_t i, bool begin) {
      const FaultSpec& f = faults[i];
      const NodeId n = nodes[f.node];
      switch (f.kind) {
        case FaultKind::kScale: {
          const double m = begin ? f.factor : 1.0 / f.factor;
          net.scale_node_capacity(n, m, m);
          break;
        }
        case FaultKind::kFlap: net.set_link_flapped(n, begin); break;
        case FaultKind::kCrash: net.set_node_up(n, !begin); break;
      }
    }
    void probe() {
      for (NodeId a = 0; a < nodes.size(); ++a)
        for (NodeId b = 0; b < nodes.size(); ++b)
          if (a != b) log.rate_samples.push_back(net.flow_rate(a, b));
    }
  } ctx{s, net, flows, faults, nodes, log};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    s.schedule(flows[i].start, [c = &ctx, i] { c->launch(i); });
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    s.schedule(faults[i].start, [c = &ctx, i] { c->fault(i, true); });
    s.schedule(faults[i].start + faults[i].dur, [c = &ctx, i] { c->fault(i, false); });
  }
  // Probe the full pair-rate matrix at fixed virtual times: each read sums
  // the live flows' rates, including the cached rates of clean components,
  // which is exactly what must be byte-identical between the ablation arms.
  for (int probe = 1; probe <= 8; ++probe) {
    s.schedule(probe * 0.7, [c = &ctx] { c->probe(); });
  }
  s.run();
  log.recomputes = net.recompute_count();
  log.touched = net.touched_flow_count();
  log.escalations = net.escalation_count();
  log.live_scans = net.live_scan_count();
  log.traffic = net.total_traffic_bytes();
  EXPECT_EQ(net.active_flows(), 0u);
  return log;
}

std::vector<FlowSpec> random_flows(std::size_t n_flows, std::size_t n_nodes,
                                   bool with_caps, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowSpec f;
    // Quantized start times force multi-arrival epochs (the batching path).
    f.start = 0.25 * static_cast<double>(rng.uniform(24));
    f.src = static_cast<NodeId>(rng.uniform(n_nodes));
    do {
      f.dst = static_cast<NodeId>(rng.uniform(n_nodes));
    } while (f.dst == f.src);
    f.bytes = 1e5 + rng.uniform_real(0.0, 4e7);
    f.cap = (with_caps && rng.uniform(3) == 0) ? rng.uniform_real(5e6, 60e6)
                                               : kUnlimitedRate;
    flows.push_back(f);
  }
  return flows;
}

std::vector<FaultSpec> random_faults(std::size_t n_faults, std::size_t n_nodes,
                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<FaultSpec> faults;
  for (std::size_t i = 0; i < n_faults; ++i) {
    FaultSpec f;
    // On the flows' quarter-second grid, so faults share instants with
    // arrivals, completions and each other.
    f.start = 0.25 * static_cast<double>(rng.uniform(24));
    f.dur = 0.25 * static_cast<double>(1 + rng.uniform(8));
    f.node = static_cast<NodeId>(rng.uniform(n_nodes));
    f.kind = static_cast<FaultKind>(rng.uniform(3));
    f.factor = rng.uniform_real(0.2, 0.8);
    faults.push_back(f);
  }
  return faults;
}

void expect_identical(const RunLog& inc, const RunLog& full) {
  ASSERT_EQ(inc.completions.size(), full.completions.size());
  for (std::size_t i = 0; i < inc.completions.size(); ++i) {
    EXPECT_EQ(inc.completions[i], full.completions[i]) << "flow " << i;
    EXPECT_EQ(inc.succeeded[i], full.succeeded[i]) << "flow " << i;
  }
  EXPECT_EQ(inc.traffic, full.traffic);
  ASSERT_EQ(inc.rate_samples.size(), full.rate_samples.size());
  for (std::size_t i = 0; i < inc.rate_samples.size(); ++i)
    EXPECT_EQ(inc.rate_samples[i], full.rate_samples[i]) << "sample " << i;
  // Identical completion times => identical epoch structure.
  EXPECT_EQ(inc.recomputes, full.recomputes);
}

Topology flat_topology(std::size_t n_nodes, double fabric = 1e12) {
  Topology t;
  t.fabric = fabric;
  t.nic.assign(n_nodes, 100e6);
  return t;
}

TEST(IncrementalSolver, EquivalentOnFlatTopology) {
  const Topology topo = flat_topology(16);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), false, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    // The flat runs decompose well: incremental must do strictly less work.
    EXPECT_LT(inc.touched, full.touched) << "seed " << seed;
    // The fabric is finite, so every epoch that re-solves a flow runs the
    // phase-4 usage pass over all live flows.
    EXPECT_GT(inc.live_scans, 1u) << "seed " << seed;
  }
}

TEST(IncrementalSolver, EquivalentOnNonBlockingCore) {
  // No finite shared constraint at all: phase 4 cannot escalate and is
  // skipped, so an incremental epoch touches only its dirty region.
  const Topology topo = flat_topology(16, kUnlimitedRate);
  for (std::uint64_t seed = 51; seed <= 53; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), true, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    EXPECT_EQ(inc.escalations, 0u);
    // Only the first epoch walks every live flow: it is the one that sees
    // the topology for the first time. The full solve walks once per epoch.
    EXPECT_EQ(inc.live_scans, 1u) << "seed " << seed;
    EXPECT_EQ(full.live_scans, full.recomputes) << "seed " << seed;
  }
}

// Capacity changes dirty components without any flow arriving; crashes
// depart flows mid-epoch through the inline fail-and-resolve path; flaps
// stall and resume whole components. All must re-settle byte-identically
// in both regimes, on every topology shape.
TEST(IncrementalSolver, EquivalentUnderFaultChurn) {
  Topology oversub;
  oversub.uplinks = {120e6, 120e6, 120e6, 120e6};
  oversub.nic.assign(16, 100e6);
  oversub.node_group.resize(16);
  for (std::size_t i = 0; i < 16; ++i) oversub.node_group[i] = static_cast<SwitchGroupId>(i / 4);
  const Topology topos[] = {flat_topology(16, kUnlimitedRate), flat_topology(16),
                            flat_topology(16, /*fabric=*/250e6), oversub};
  std::uint64_t seed = 61;
  std::size_t failed = 0;
  for (const Topology& topo : topos) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed);
      const auto flows = random_flows(120, topo.nic.size(), true, seed);
      const auto faults = random_faults(14, topo.nic.size(), seed + 1000);
      const RunLog inc = run_scenario(topo, flows, true, faults);
      const RunLog full = run_scenario(topo, flows, false, faults);
      expect_identical(inc, full);
      if (topo.fabric == kUnlimitedRate) {
        EXPECT_EQ(inc.live_scans, 1u);
      }
      for (const int ok : inc.succeeded) failed += ok == 0;
    }
  }
  EXPECT_GT(failed, 0u);  // the crash-departure path was exercised
}

TEST(IncrementalSolver, EquivalentUnderSaturatedFabric) {
  // Fabric far below aggregate NIC demand: shared-constraint validation
  // fails continuously and epochs escalate to the global solve.
  const Topology topo = flat_topology(16, /*fabric=*/250e6);
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto flows = random_flows(120, topo.nic.size(), false, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    EXPECT_GT(inc.escalations, 0u);
  }
}

TEST(IncrementalSolver, EquivalentOnOversubscribedSwitches) {
  Topology topo;
  topo.fabric = 1e12;
  topo.uplinks = {120e6, 120e6, 120e6, 120e6};
  topo.nic.assign(16, 100e6);
  topo.node_group.resize(16);
  for (std::size_t i = 0; i < 16; ++i) topo.node_group[i] = i / 4;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    const auto flows = random_flows(120, topo.nic.size(), false, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

TEST(IncrementalSolver, EquivalentWithPerFlowCaps) {
  const Topology topo = flat_topology(12);
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    const auto flows = random_flows(140, topo.nic.size(), true, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

TEST(IncrementalSolver, EquivalentWithHeterogeneousNics) {
  Topology topo;
  topo.fabric = 1e12;
  sim::Rng rng(7);
  for (int i = 0; i < 14; ++i) topo.nic.push_back(rng.uniform_real(20e6, 200e6));
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    const auto flows = random_flows(140, topo.nic.size(), true, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

// --- introspection hooks ----------------------------------------------------

sim::Task xfer(FlowNetwork* net, NodeId a, NodeId b, double bytes) {
  co_await net->transfer(a, b, bytes, TrafficClass::kMemory);
}

TEST(IncrementalSolver, DisjointArrivalTouchesOnlyItsComponent) {
  sim::Simulator s;
  // The counters below assert incremental mode (the config default).
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0, 8e9, true});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  s.spawn(xfer(&net, a, b, 500e6));
  s.run_until(1.0);
  EXPECT_EQ(net.component_count(), 1u);
  const std::uint64_t touched_before = net.touched_flow_count();
  struct Joiner {
    sim::Simulator& s;
    FlowNetwork& net;
    NodeId x, y;
    void go() { s.spawn(xfer(&net, x, y, 500e6)); }
  } join{s, net, c, d};
  s.schedule(0.5, [&join] { join.go(); });  // at t=1.5
  s.run_until(2.0);
  // The newcomer shares no constraint with the a->b component: exactly one
  // flow re-solved, the cached component untouched.
  EXPECT_EQ(net.touched_flow_count() - touched_before, 1u);
  EXPECT_EQ(net.component_count(), 2u);
  s.run();
}

TEST(IncrementalSolver, SharedEndpointMergesComponents) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0, 8e9, true});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6);
  s.spawn(xfer(&net, a, b, 800e6));
  s.run_until(1.0);
  const std::uint64_t touched_before = net.touched_flow_count();
  // Joins through the shared source NIC: the existing flow must be
  // re-solved too (its fair share halves).
  struct Joiner {
    sim::Simulator& s;
    FlowNetwork& net;
    NodeId x, y;
    void go() { s.spawn(xfer(&net, x, y, 800e6)); }
  } join{s, net, a, c};
  s.schedule(0.5, [&join] { join.go(); });  // at t=1.5
  s.run_until(2.0);
  EXPECT_EQ(net.touched_flow_count() - touched_before, 2u);
  EXPECT_EQ(net.component_count(), 1u);
  s.run();
}

TEST(IncrementalSolver, DepartureSplitsComponent) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0, 8e9, true});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  // a->c and b->c share ingress(c); b->d and b->c share egress(b): one
  // component of three flows chained through b->c.
  s.spawn(xfer(&net, a, c, 1000e6));
  s.spawn(xfer(&net, b, c, 25e6));  // finishes first (50 MB/s share)
  s.spawn(xfer(&net, b, d, 1000e6));
  s.run_until(0.1);
  EXPECT_EQ(net.component_count(), 1u);
  s.run_until(2.0);  // b->c is gone; the chain is broken
  EXPECT_EQ(net.active_flows(), 2u);
  EXPECT_EQ(net.component_count(), 2u);
  s.run();
}

TEST(IncrementalSolver, SaturatedFabricEscalatesAndMerges) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{/*fabric=*/120e6, 0.0, 8e9});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  double done1 = -1, done2 = -1;
  s.spawn([](FlowNetwork* n, NodeId x, NodeId y, double* t,
             sim::Simulator* sm) -> sim::Task {
    co_await n->transfer(x, y, 60e6, TrafficClass::kMemory);
    *t = sm->now();
  }(&net, a, b, &done1, &s));
  s.spawn([](FlowNetwork* n, NodeId x, NodeId y, double* t,
             sim::Simulator* sm) -> sim::Task {
    co_await n->transfer(x, y, 60e6, TrafficClass::kMemory);
    *t = sm->now();
  }(&net, c, d, &done2, &s));
  s.run_until(0.1);
  // Disjoint NIC pairs, but the 120 MB/s fabric binds: the decomposition is
  // rejected and both flows merge into one globally-solved component.
  EXPECT_GE(net.escalation_count(), 1u);
  EXPECT_EQ(net.component_count(), 1u);
  s.run();
  EXPECT_NEAR(done1, 1.0, 1e-6);  // 60 MB/s each under the fabric cap
  EXPECT_NEAR(done2, 1.0, 1e-6);
}

}  // namespace
}  // namespace hm::net
