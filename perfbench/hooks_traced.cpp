// Tracing on: ld --wrap wrappers around one cross-module entry point per
// layer, plus a SIGPROF sampler. Nothing under src/ changes: the linker
// sends every call from another object file through __wrap_<sym>, which
// counts it and forwards to __real_<sym>. Calls inside the defining object
// file are not redirected, so each count is "calls across the boundary".
//
// The wrappers are free functions standing in for member functions. Under
// the Itanium C++ ABI on x86-64 a member function's `this` is its first
// argument, and a class returned in memory uses a hidden pointer passed
// before it; both hold the same way for the free function, so the
// signatures below match the originals. The harness checks the traced
// run's simulated results against the untraced run's bit for bit.
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "cloud/placement.h"
#include "core/migration_manager.h"
#include "hooks.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "storage/page_cache.h"
#include "storage/repository.h"
#include "vm/memory.h"
#include "workloads/trace_gen.h"

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

enum Counter : std::size_t {
  kTimers, kLegs, kReadMisses, kRepoFetches, kDirtyRounds, kLocalWrites, kPlacements,
  kTraceGenNs, kNumCounters
};

// Per-thread counter blocks (simulator shards run on worker threads), so a
// wrapped call costs a plain increment instead of a locked one. Blocks are
// owned by g_blocks and outlive their threads; they are read and reset only
// between passes, when no shard runs.
struct Block {
  std::array<std::atomic<std::uint64_t>, kNumCounters> v{};
};
std::mutex g_blocks_mu;
std::vector<std::unique_ptr<Block>> g_blocks;
thread_local Block* t_block = nullptr;

inline void bump(Counter c, std::uint64_t by = 1) {
  if (t_block == nullptr) {
    std::lock_guard<std::mutex> lock(g_blocks_mu);
    g_blocks.push_back(std::make_unique<Block>());
    t_block = g_blocks.back().get();
  }
  std::atomic<std::uint64_t>& slot = t_block->v[c];
  slot.store(slot.load(kRelaxed) + by, kRelaxed);
}

std::uint64_t total(Counter c) {
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  std::uint64_t sum = 0;
  for (const auto& b : g_blocks) sum += b->v[c].load(kRelaxed);
  return sum;
}

}  // namespace

using hm::sim::SmallFn;
using Timer = hm::sim::Simulator::Timer;

extern "C" {

// A non-trivially-copyable argument passed by value (SmallFn) travels as a
// pointer to the caller's temporary; forwarding that pointer forwards the
// argument itself, with no extra move.
Timer __real__ZN2hm3sim9Simulator11schedule_atEdNS0_7SmallFnE(hm::sim::Simulator*, double,
                                                                SmallFn*);
Timer __wrap__ZN2hm3sim9Simulator11schedule_atEdNS0_7SmallFnE(hm::sim::Simulator* self,
                                                                double t, SmallFn* fn) {
  bump(kTimers);
  return __real__ZN2hm3sim9Simulator11schedule_atEdNS0_7SmallFnE(self, t, fn);
}

void __real__ZN2hm3net11FlowNetwork9start_legEPNS1_6FlowOpE(hm::net::FlowNetwork*,
                                                             hm::net::FlowNetwork::FlowOp*);
void __wrap__ZN2hm3net11FlowNetwork9start_legEPNS1_6FlowOpE(
    hm::net::FlowNetwork* self, hm::net::FlowNetwork::FlowOp* op) {
  bump(kLegs);
  __real__ZN2hm3net11FlowNetwork9start_legEPNS1_6FlowOpE(self, op);
}

hm::sim::Task __real__ZN2hm7storage9PageCache9read_missEj(hm::storage::PageCache*,
                                                          hm::storage::ChunkId);
hm::sim::Task __wrap__ZN2hm7storage9PageCache9read_missEj(hm::storage::PageCache* self,
                                                          hm::storage::ChunkId c) {
  bump(kReadMisses);
  return __real__ZN2hm7storage9PageCache9read_missEj(self, c);
}

hm::sim::Task __real__ZN2hm7storage10Repository11fetch_chunkEjj(hm::storage::Repository*,
                                                                hm::net::NodeId,
                                                                hm::storage::ChunkId);
hm::sim::Task __wrap__ZN2hm7storage10Repository11fetch_chunkEjj(
    hm::storage::Repository* self, hm::net::NodeId reader, hm::storage::ChunkId c) {
  bump(kRepoFetches);
  return __real__ZN2hm7storage10Repository11fetch_chunkEjj(self, reader, c);
}

std::uint64_t __real__ZN2hm2vm11GuestMemory16take_dirty_roundEv(hm::vm::GuestMemory*);
std::uint64_t __wrap__ZN2hm2vm11GuestMemory16take_dirty_roundEv(hm::vm::GuestMemory* self) {
  bump(kDirtyRounds);
  return __real__ZN2hm2vm11GuestMemory16take_dirty_roundEv(self);
}

// The only wrapped function that its own object file also calls: a guest
// write with no active migration session reaches it from inside
// migration_manager.cpp and is not redirected. So this counts the guest
// writes that a hybrid (our-approach, post-copy), pre-copy or mirror session
// reroutes, not the writes before or after a migration or of a baseline.
hm::sim::Task __real__ZN2hm4core16MigrationManager11local_writeEj(hm::core::MigrationManager*,
                                                                  hm::storage::ChunkId);
hm::sim::Task __wrap__ZN2hm4core16MigrationManager11local_writeEj(
    hm::core::MigrationManager* self, hm::storage::ChunkId c) {
  bump(kLocalWrites);
  return __real__ZN2hm4core16MigrationManager11local_writeEj(self, c);
}

hm::workloads::TraceData __real__ZN2hm9workloads14generate_traceERKNS0_12TraceGenSpecEm(
    const hm::workloads::TraceGenSpec&, std::uint64_t);
hm::workloads::TraceData __wrap__ZN2hm9workloads14generate_traceERKNS0_12TraceGenSpecEm(
    const hm::workloads::TraceGenSpec& spec, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  hm::workloads::TraceData data =
      __real__ZN2hm9workloads14generate_traceERKNS0_12TraceGenSpecEm(spec, seed);
  bump(kTraceGenNs, static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count()));
  return data;
}

hm::net::NodeId __real__ZN2hm5cloud12PlacementMap6chooseEi(hm::cloud::PlacementMap*, int);
hm::net::NodeId __wrap__ZN2hm5cloud12PlacementMap6chooseEi(hm::cloud::PlacementMap* self,
                                                          int vm_id) {
  bump(kPlacements);
  return __real__ZN2hm5cloud12PlacementMap6chooseEi(self, vm_id);
}

}  // extern "C"

namespace {

// --- SIGPROF sampler ---------------------------------------------------------
// The handler only stores the interrupted program counter; classification
// happens after sampling stops. ITIMER_PROF counts the CPU time of the whole
// process and the kernel signals the thread that was running, so simulator
// shards on worker threads are sampled too.

constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
std::unique_ptr<std::uintptr_t[]> g_pcs;
std::atomic<std::size_t> g_n{0};

void on_sigprof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const std::size_t i = g_n.fetch_add(1, kRelaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

struct ExeRange {
  std::uintptr_t bias = 0, lo = ~std::uintptr_t{0}, hi = 0;
};

int find_exe(dl_phdr_info* info, std::size_t, void* out) {
  // The first object reported is the executable itself.
  auto* r = static_cast<ExeRange*>(out);
  r->bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X)) continue;
    r->lo = std::min<std::uintptr_t>(r->lo, info->dlpi_addr + ph.p_vaddr);
    r->hi = std::max<std::uintptr_t>(r->hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
  }
  return 1;
}

}  // namespace

namespace perfbench {

bool traced() { return true; }

void reset_counts() {
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  for (const auto& b : g_blocks)
    for (auto& slot : b->v) slot.store(0, kRelaxed);
}

HookCounts counts() {
  HookCounts h;
  h.timers_scheduled = total(kTimers);
  h.legs_started = total(kLegs);
  h.read_misses = total(kReadMisses);
  h.repo_fetches = total(kRepoFetches);
  h.dirty_rounds = total(kDirtyRounds);
  h.local_writes = total(kLocalWrites);
  h.placements = total(kPlacements);
  h.trace_gen_s = static_cast<double>(total(kTraceGenNs)) * 1e-9;
  return h;
}

void start_sampling() {
  if (!g_pcs) g_pcs = std::make_unique<std::uintptr_t[]>(kMaxSamples);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  // Ask for 1 ms; the kernel delivers at most one per scheduler tick.
  itimerval tv{};
  tv.it_interval.tv_usec = 1000;
  tv.it_value.tv_usec = 1000;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void stop_sampling() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
}

std::map<std::string, std::uint64_t> take_samples() {
  ExeRange exe;
  dl_iterate_phdr(find_exe, &exe);
  std::map<std::string, std::uint64_t> out;
  const std::size_t n = std::min(g_n.exchange(0), kMaxSamples);
  char key[64];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    if (pc >= exe.lo && pc < exe.hi) {
      std::snprintf(key, sizeof(key), "exe:%lx", static_cast<unsigned long>(pc - exe.bias));
      ++out[key];
      continue;
    }
    Dl_info info{};
    const char* name = "?";
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 && info.dli_fname != nullptr) {
      name = std::strrchr(info.dli_fname, '/');
      name = name != nullptr ? name + 1 : info.dli_fname;
    }
    ++out[std::string("lib:") + name];
  }
  return out;
}

}  // namespace perfbench
