#include "sim/worker_budget.h"

#include <thread>
#include <vector>

namespace hm::sim {

WorkerBudget& WorkerBudget::instance() {
  static WorkerBudget budget([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0u;
  }());
  return budget;
}

unsigned run_shards(std::uint32_t shards, const std::function<void(std::uint32_t)>& body) {
  WorkerGrant grant(WorkerBudget::instance(), shards > 0 ? shards - 1 : 0);
  std::atomic<std::uint32_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::uint32_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards) return;
      body(s);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(grant.granted());
  for (unsigned i = 0; i < grant.granted(); ++i) pool.emplace_back(worker);
  worker();  // the caller always participates
  for (auto& th : pool) th.join();
  return grant.granted() + 1;
}

}  // namespace hm::sim
