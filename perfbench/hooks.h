// Per-layer instrumentation seen from outside the library. The untraced
// harness links hooks_off.cpp (no wrappers, no sampler); the traced harness
// links hooks_traced.cpp, whose ld --wrap wrappers count calls across the
// layer boundaries and whose SIGPROF sampler records program counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Calls through the wrapped cross-module entry points (all zero untraced).
struct HookCounts {
  std::uint64_t timers_scheduled = 0;  // Simulator::schedule_at
  std::uint64_t legs_started = 0;      // FlowNetwork::start_leg
  std::uint64_t read_misses = 0;       // PageCache::read_miss
  std::uint64_t repo_fetches = 0;      // Repository::fetch_chunk
  std::uint64_t dirty_rounds = 0;      // GuestMemory::take_dirty_round
  std::uint64_t local_writes = 0;      // MigrationManager::local_write
  std::uint64_t placements = 0;        // PlacementMap::choose
  double trace_gen_s = 0;              // host time inside workloads::generate_trace
};

/// Whether this binary carries the wrappers and the sampler.
bool traced();
void reset_counts();
HookCounts counts();

/// Start/stop the SIGPROF sampler (no-ops untraced).
void start_sampling();
void stop_sampling();
/// Samples since the last take, keyed by "exe:<hex offset>" for program
/// counters inside this executable (offset from its load address, as `nm`
/// prints it) and "lib:<file name>" for those in shared libraries.
std::map<std::string, std::uint64_t> take_samples();

}  // namespace perfbench
