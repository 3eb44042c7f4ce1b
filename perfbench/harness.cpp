// One experiment of a benchmark workload, in its own process: set it up
// several times without simulating (the set-up time), then run it through
// the public cloud::Experiment API, check the result, and print one JSON
// object on stdout. perfbench/run.py runs every experiment of a pass this
// way, so a crash cannot end the run, and aggregates the pass.
//
// Usage: perfbench_harness --workload nb-stagger|paper-matrix|churn-steady
//                          --seed N [--experiment I [--raise SIGNAL]]
//                          [--tiny]
//   without --experiment, print the workload's experiment count and labels
//   --tiny     the same experiments at tiny fleet sizes (benchmark self-test)
//   --raise    raise SIGNAL (SEGV, ABRT, ...) after set-up (self-test)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "hooks.h"
#include "sim/fault_plan.h"

using namespace hm;
using namespace hm::bench;

namespace {

struct Item {
  std::string label;
  cloud::ExperimentConfig cfg;
  /// Index of the migration-free run of the same workload, or -1.
  int baseline = -1;
  /// Migration-free application span when the pass has no baseline run.
  double nominal_span_s = 0;
};

struct Workload {
  std::vector<Item> items;
  std::uint32_t planned_shards = 1;  // checked against shards_used
  bool scheduler = false;
};

// --- nb-stagger --------------------------------------------------------------
// fig4_scale_sweep's scale_config: AsyncWR guests on 1 GiB images and RAM,
// launched 0.05 s apart on the non-blocking (full-bisection) core.
cloud::ExperimentConfig scale_config(std::size_t n, double stagger_s) {
  cloud::ExperimentConfig cfg = asyncwr_config(core::Approach::kHybrid);
  cfg.cluster.image = storage::ImageConfig{1 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  cfg.vm.memory.ram_bytes = 1 * kGiB;
  cfg.vm.memory.base_used_bytes = 128 * kMiB;
  cfg.vm.cache.capacity_bytes = 768 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 256 * kMiB;
  cfg.asyncwr.iterations = 300;
  cfg.asyncwr.file_offset = 256 * kMiB;
  cfg.first_migration_at = 20.0;
  cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
  cfg.cluster.nodes_per_switch = 0;
  cfg.num_vms = n;
  cfg.num_migrations = n;
  cfg.num_destinations = n;
  cfg.migration_interval_s = stagger_s;
  cfg.cluster.num_nodes = 2 * n + 8;
  cfg.max_sim_time = 3600.0;
  return cfg;
}

Workload nb_stagger(std::uint64_t seed, bool tiny) {
  Workload w;
  w.planned_shards = 2;
  cloud::ExperimentConfig cfg = scale_config(tiny ? 16 : 1024, 0.05);
  cfg.shards = w.planned_shards;
  cfg.seed = seed;
  const double span = cfg.asyncwr.iterations * cfg.asyncwr.iter_compute_s;
  w.items.push_back({"hybrid/asyncwr/nb", std::move(cfg), -1, span});
  return w;
}

// --- paper-matrix ------------------------------------------------------------
// Figures 3 and 5 at paper scale (bench_common.h): five approaches x {IOR,
// AsyncWR}, the four non-shared approaches x CM1 with three migrations 60 s
// apart, and the three migration-free baselines, one after another.
Workload paper_matrix(std::uint64_t seed, bool tiny) {
  Workload w;
  auto shrink = [tiny](cloud::ExperimentConfig cfg) {
    if (tiny) {
      cfg.ior.iterations = 2;
      cfg.asyncwr.iterations = 150;
      cfg.cm1.num_outputs = 2;
      cfg.first_migration_at = 20.0;
    }
    return cfg;
  };
  auto add = [&](std::string label, cloud::ExperimentConfig cfg, int baseline) {
    cfg.seed = seed;
    w.items.push_back({std::move(label), shrink(std::move(cfg)), baseline, 0});
  };
  const int ior_base = 0, awr_base = 1, cm1_base = 2;
  for (auto* make : {&ior_config, &asyncwr_config, &cm1_config}) {
    cloud::ExperimentConfig base = make(core::Approach::kHybrid);
    base.perform_migrations = false;
    add(std::string(cloud::workload_name(base.workload)) + "/baseline", std::move(base), -1);
  }
  for (core::Approach a : kAllApproaches) {
    add(std::string("ior/") + core::approach_name(a), ior_config(a), ior_base);
    add(std::string("awr/") + core::approach_name(a), asyncwr_config(a), awr_base);
  }
  for (core::Approach a : kAllApproaches) {
    // pvfs-shared x CM1 alone costs 3.4x the rest of the matrix, nearly all
    // of it in the flow solver; the solver has nb-stagger for that.
    if (a == core::Approach::kPvfsShared) continue;
    cloud::ExperimentConfig cfg = cm1_config(a);
    cfg.num_migrations = 3;
    cfg.num_destinations = 3;
    cfg.first_migration_at = 60.0;
    cfg.migration_interval_s = 60.0;
    add(std::string("cm1/") + core::approach_name(a), std::move(cfg), cm1_base);
  }
  return w;
}

// --- churn-steady ------------------------------------------------------------
// steady_state_sweep's open-loop scheduler (its "auto" spec at the fleet
// size), the CI churn fault spec over the arrival horizon with the auditor
// armed, and guests replaying a zipf trace with half of the chunk ops reads
// (fig4_scale_sweep's trace geometry) for the whole horizon. A pass is two
// independent 240 s experiments (seeds 2N and 2N+1): about 1,230 requests,
// and a crash in one still leaves the other measured.
constexpr double kChurnHorizonS = 240.0;
constexpr int kChurnExperiments = 2;

cloud::ExperimentConfig churn_config(std::size_t n, double horizon) {
  cloud::ExperimentConfig cfg = asyncwr_config(core::Approach::kHybrid);
  cfg.cluster.image = storage::ImageConfig{1 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  cfg.vm.memory.ram_bytes = 1 * kGiB;
  cfg.vm.memory.base_used_bytes = 128 * kMiB;
  cfg.vm.cache.capacity_bytes = 768 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 256 * kMiB;
  cfg.cluster.nodes_per_switch = 20;
  cfg.cluster.switch_uplink_Bps = 1.25e9;
  cfg.num_vms = n;
  cfg.num_destinations = std::max<std::size_t>(2, n / 2);
  cfg.num_migrations = 0;
  cfg.cluster.num_nodes = n + cfg.num_destinations + 8;
  cfg.max_sim_time = 7200.0;

  cfg.workload = cloud::WorkloadKind::kTrace;
  cfg.trace.gen.page_bytes = 256 * kKiB;
  cfg.trace.gen.pages = 512;
  cfg.trace.gen.chunk_bytes = 256 * static_cast<std::uint32_t>(kKiB);
  cfg.trace.gen.chunks = 1024;
  cfg.trace.gen.file_offset = 256 * kMiB;
  cfg.trace.gen.duration_s = horizon;
  cfg.trace.gen.dt_s = 0.25;
  cfg.trace.gen.mem_dirty_Bps = 12e6;
  cfg.trace.gen.chunk_write_Bps = 6e6;

  char buf[256];
  std::string err;
  bool ok = workloads::parse_trace_spec("trace:zipf:read_frac=0.5", &cfg.trace, &err);
  std::snprintf(buf, sizeof(buf),
                "poisson:rate=%g,until=%g,hi=0.25;sched:concurrent=%zu,capacity=2,groups=4,"
                "policy=least-loaded,preempt=1",
                static_cast<double>(n) / 100.0, horizon, std::max<std::size_t>(2, n / 8));
  ok = ok && cloud::parse_scheduler_spec(buf, &cfg.scheduler, &err);
  std::snprintf(buf, sizeof(buf),
                "faults:churn:crash-mtbf=60,crash-mttr=5,degrade-mtbf=45,degrade-mttr=6,"
                "domain-mtbf=40,domain-mttr=6,factor=0.4,from=20,until=%g;domains:rack0=0-3",
                horizon);
  ok = ok && sim::parse_fault_spec(buf, &cfg.faults, &err);
  if (!ok) {
    std::cerr << "perfbench_harness: bad churn-steady spec: " << err << "\n";
    std::exit(2);
  }
  cfg.audit = true;
  return cfg;
}

Workload churn_steady(std::uint64_t seed, bool tiny) {
  Workload w;
  w.scheduler = true;
  for (int i = 0; i < kChurnExperiments; ++i) {
    cloud::ExperimentConfig cfg = churn_config(tiny ? 16 : 256, tiny ? 60.0 : kChurnHorizonS);
    cfg.seed = seed * kChurnExperiments + static_cast<std::uint64_t>(i);
    const double span = cfg.trace.gen.duration_s;
    w.items.push_back(
        {"hybrid/trace-zipf/churn#" + std::to_string(i), std::move(cfg), -1, span});
  }
  return w;
}

// --- checks and figures ------------------------------------------------------

/// Set-up-only runs per experiment: setup_s is their median over the run.
constexpr int kSetups = 5;

bool released(const core::MigrationRecord& m) {
  return m.t_source_released > 0 && m.t_source_released >= m.t_request;
}

/// Why an experiment's result is wrong, or empty.
std::string check(const Workload& w, const ExperimentResult& r) {
  if (!r.completed) return "run did not complete";
  if (!r.error.empty()) return "error: " + r.error;
  for (const core::MigrationRecord& m : r.migrations)
    if (!released(m) && !m.abandoned)
      return "migration of vm " + std::to_string(m.vm_id) + " neither released nor abandoned";
  if (w.scheduler) {
    const cloud::SchedulerStats& s = r.scheduler;
    if (s.requests != s.completed + s.abandoned + s.rejected)
      return "requests " + std::to_string(s.requests) + " != completed+abandoned+rejected";
    if (r.audit_checks == 0) return "auditor ran no check";
    if (!r.audit_violations.empty()) return "audit violation: " + r.audit_violations.front();
  }
  if (r.shards_used != w.planned_shards)
    return "shards_used " + std::to_string(r.shards_used) + " != planned " +
           std::to_string(w.planned_shards) + " (" + r.shard_fallback_reason + ")";
  return {};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// 17 significant digits read back as the same double, so run.py's sums and
/// percentiles see the exact values.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (const std::string& s : v) out += (out.size() > 1 ? ", " : "") + s;
  return out + "]";
}

std::string list(const std::vector<double>& v) {
  std::vector<std::string> strs;
  for (double x : v) strs.push_back(num(x));
  return list(strs);
}

std::string object(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) out += (out.size() > 1 ? ", " : "") + quoted(k) + ": " + v;
  return out + "}";
}

int signal_number(const std::string& name) {
  for (auto [n, s] : {std::pair{"SEGV", SIGSEGV}, {"ABRT", SIGABRT}, {"BUS", SIGBUS},
                      {"FPE", SIGFPE}, {"ILL", SIGILL}, {"KILL", SIGKILL}})
    if (name == n || name == std::string("SIG") + n) return s;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  int experiment = -1;
  bool tiny = false;
  int raise_sig = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--experiment" && has_value) {
      experiment = std::atoi(argv[++i]);
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--raise" && has_value) {
      raise_sig = signal_number(argv[++i]);
      if (raise_sig == 0) {
        std::cerr << "perfbench_harness: unknown signal " << argv[i] << "\n";
        return 2;
      }
    } else {
      std::cerr << "perfbench_harness: unknown argument " << a << "\n";
      return 2;
    }
  }
  Workload w;
  if (workload == "nb-stagger") {
    w = nb_stagger(seed, tiny);
  } else if (workload == "paper-matrix") {
    w = paper_matrix(seed, tiny);
  } else if (workload == "churn-steady") {
    w = churn_steady(seed, tiny);
  } else {
    std::cerr << "perfbench_harness: unknown workload '" << workload << "'\n";
    return 2;
  }
  if (experiment < 0) {
    std::vector<std::string> labels;
    for (const Item& it : w.items) labels.push_back(quoted(it.label));
    std::cout << "{\"experiments\": " << w.items.size() << ", \"labels\": " << list(labels)
              << "}" << std::endl;
    return 0;
  }
  if (static_cast<std::size_t>(experiment) >= w.items.size()) {
    std::cerr << "perfbench_harness: no experiment " << experiment << "\n";
    return 2;
  }
  const Item& it = w.items[static_cast<std::size_t>(experiment)];

  // Set-up only: the experiment is built (cluster, VM deploy, trace
  // generation, fault plan, scheduler, auditor) and torn down, with the
  // clock stopped a microsecond of virtual time in. Single-shard, since a
  // truncated sharded run reruns unsharded by design.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    cloud::ExperimentConfig cfg = it.cfg;
    cfg.max_sim_time = 1e-6;
    cfg.shards = 1;
    const auto t0 = std::chrono::steady_clock::now();
    cloud::Experiment(std::move(cfg)).run();
    setup_s.push_back(seconds_since(t0));
  }
  if (raise_sig != 0) std::raise(raise_sig);

  // The measured run.
  perfbench::reset_counts();
  perfbench::start_sampling();
  const double cpu0 = cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentResult r = cloud::Experiment(it.cfg).run();
  const double wall_s = seconds_since(t0);
  const double run_cpu_s = cpu_s() - cpu0;
  perfbench::stop_sampling();
  const perfbench::HookCounts hooks = perfbench::counts();

  // Raw figures; run.py aggregates them over the pass in experiment order.
  std::vector<double> mig_times, downtimes;
  double chunks_pushed = 0, chunks_pulled = 0;
  for (const core::MigrationRecord& m : r.migrations) {
    if (!released(m)) continue;
    mig_times.push_back(m.migration_time());
    downtimes.push_back(m.downtime_s);
    chunks_pushed += m.storage_chunks_pushed;
    chunks_pulled += m.storage_chunks_pulled;
  }
  // Scheduler regimes count served requests; fixed schedules count records.
  const double migrations = w.scheduler ? static_cast<double>(r.scheduler.completed)
                                        : static_cast<double>(mig_times.size());
  std::map<std::string, std::string> figures{
      {"migrating", it.cfg.perform_migrations ? "true" : "false"},
      {"baseline", std::to_string(it.baseline)},
      {"nominal_span_s", num(it.nominal_span_s)},
      {"app_execution_time", num(r.app_execution_time)},
      {"io_MBps", num((r.write_Bps + r.read_Bps) / 1e6)},
      {"migration_traffic", num(r.migration_traffic)},
      {"retransferred_bytes", num(r.recovery.retransferred_bytes)},
      {"chunks_pushed", num(chunks_pushed)},
      {"chunks_pulled", num(chunks_pulled)},
      {"push_bytes", num(r.traffic(net::TrafficClass::kStoragePush))},
      {"pull_bytes", num(r.traffic(net::TrafficClass::kStoragePull))},
      {"memory_bytes", num(r.traffic(net::TrafficClass::kMemory))},
      {"read_bytes", num(r.bytes_read)},
      {"written_bytes", num(r.bytes_written)},
      {"queueing_p99_s", num(r.scheduler.queueing_p99_s)},
      {"migration_times", list(mig_times)},
      {"downtimes", list(downtimes)},
  };
  std::map<std::string, std::uint64_t> counts{
      {"sim.events", r.engine_events},
      {"sim.frames", r.engine_frames},
      {"sim.frame_heap_allocs", r.engine_frame_heap_allocs},
      {"net.flows", r.engine_flows},
      {"net.solve_epochs", r.engine_recomputes},
      {"net.component_fills", r.engine_components},
      {"net.flows_resolved", r.engine_flows_resolved},
      {"net.escalations", r.engine_escalations},
      {"cloud.requests", r.scheduler.requests},
      {"cloud.completed", r.scheduler.completed},
      {"cloud.preemptions", r.scheduler.preemptions},
      {"cloud.retries", static_cast<std::uint64_t>(r.recovery.total_retries)},
      {"cloud.audit_checks", r.audit_checks},
      {"cloud.node_crashes", r.recovery.node_crashes},
  };
  if (perfbench::traced()) {
    counts["sim.timers_scheduled"] = hooks.timers_scheduled;
    counts["net.legs_started"] = hooks.legs_started;
    counts["storage.read_misses"] = hooks.read_misses;
    counts["storage.repo_fetches"] = hooks.repo_fetches;
    counts["vm.dirty_rounds"] = hooks.dirty_rounds;
    counts["core.local_writes"] = hooks.local_writes;
    counts["cloud.placements"] = hooks.placements;
  }
  std::map<std::string, std::string> count_fields, sample_fields;
  for (const auto& [k, v] : counts) count_fields[k] = std::to_string(v);
  for (const auto& [k, v] : perfbench::take_samples()) sample_fields[k] = std::to_string(v);

  std::cout << "{\"label\": " << quoted(it.label) << ", \"failure\": " << quoted(check(w, r))
            << ", \"setup_s\": " << list(setup_s) << ", \"wall_s\": " << num(wall_s)
            << ", \"cpu_s\": " << num(run_cpu_s) << ", \"peak_rss_mb\": " << num(peak_rss_mb())
            << ", \"migrations\": " << num(migrations)
            << ", \"trace_gen_s\": " << num(hooks.trace_gen_s)
            << ", \"figures\": " << object(figures) << ", \"counts\": " << object(count_fields)
            << ", \"samples\": " << object(sample_fields) << "}" << std::endl;
  return 0;
}
