// Google-benchmark microbenchmarks for the simulators themselves: cycles/sec
// of the detailed core, instructions/sec of the architectural VM, trial
// throughput of the injection harness, and checkpoint/rollback cost.
//
// Before the google-benchmark suites run, main() times the fault-injection
// hot path directly and writes a machine-readable BENCH_*.json family so the
// perf trajectory is enforceable across PRs (scripts/check_bench.sh):
//
//   BENCH_snapshot.json     snapshot fork + digest cost, one record per
//                           workload (COW fork vs. deep copy, VM positioning)
//   BENCH_uarch_inner.json  inner-loop primitives per workload: core
//                           cycles/sec, VM insns/sec, state hash/equality,
//                           trial-image copy
//   BENCH_campaign.json     end-to-end uarch campaign trials/sec across all
//                           seven workloads, fast paths off vs. on
//   BENCH_faultmodel.json   expanded-fault-model campaign trials/sec, one
//                           record per model (plan sampling + plan-driven
//                           trials must not regress the single-bit path)
//   BENCH_analytics.json    trace compaction MB/sec plus outcome-aggregation
//                           rows/sec from the columnar store vs. re-parsing
//                           the JSONL (the store must stay >= 10x faster)
//
// Committed baselines live next to this file (bench/BENCH_*.json); the CI
// bench job regenerates the numbers and fails on regression past tolerance.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "core/restore_core.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "uarch/core.hpp"
#include "uarch/state_registry.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace restore;

// Schema of every BENCH_*.json record; bump when fields change shape so the
// check_bench gate can refuse to compare incompatible baselines.
constexpr int kBenchSchemaVersion = 2;

const workloads::Workload& bench_workload(int index) {
  return workloads::all()[static_cast<std::size_t>(index)];
}

void BM_VmInstructionRate(benchmark::State& state) {
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  for (auto _ : state) {
    vm::Vm vm(wl.program);
    vm.run(20'000);
    benchmark::DoNotOptimize(vm.retired_count());
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_VmInstructionRate)->DenseRange(0, 6);

void BM_CoreCycleRate(benchmark::State& state) {
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  for (auto _ : state) {
    uarch::Core core(wl.program);
    core.run(10'000);
    benchmark::DoNotOptimize(core.retired_count());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_CoreCycleRate)->DenseRange(0, 6);

void BM_CoreSnapshotCopy(benchmark::State& state) {
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  uarch::Core core(wl.program);
  core.run(5'000);
  for (auto _ : state) {
    uarch::Core copy = core;
    benchmark::DoNotOptimize(copy.cycle_count());
  }
}
BENCHMARK(BM_CoreSnapshotCopy)->DenseRange(0, 6);

void BM_SnapshotForkDigest(benchmark::State& state) {
  // The per-trial cost the campaign pays: fork the golden machine and digest
  // its memory. COW pages + cached page digests make both O(mapped pages).
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  uarch::Core core(wl.program);
  core.run(5'000);
  core.memory().digest();  // warm the page-digest caches, as a campaign would
  for (auto _ : state) {
    uarch::Core copy = core;
    benchmark::DoNotOptimize(copy.memory().digest());
  }
}
BENCHMARK(BM_SnapshotForkDigest)->DenseRange(0, 6);

void BM_StateHash(benchmark::State& state) {
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  uarch::Core core(wl.program);
  core.run(5'000);
  const auto& reg = uarch::StateRegistry::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.hash_state(core));
  }
}
BENCHMARK(BM_StateHash)->DenseRange(0, 6);

void BM_InjectionTrial(benchmark::State& state) {
  const auto& wl = bench_workload(static_cast<int>(state.range(0)));
  state.SetLabel(wl.name);
  uarch::Core warm(wl.program);
  warm.run(2'000);
  const auto& reg = uarch::StateRegistry::instance();
  Rng rng(1);
  for (auto _ : state) {
    const auto record =
        faultinject::run_uarch_trial(warm, reg.sample(rng), 2'000, 2'000);
    benchmark::DoNotOptimize(record.arch_corrupt_at_end);
  }
}
BENCHMARK(BM_InjectionTrial)->DenseRange(0, 6);

void BM_CheckpointRollback(benchmark::State& state) {
  const auto& wl = workloads::by_name("gap");
  for (auto _ : state) {
    core::ReStoreCore restore(wl.program);
    restore.run(2'000);
    benchmark::DoNotOptimize(restore.stats().rollbacks);
  }
}
BENCHMARK(BM_CheckpointRollback);

// ---- BENCH_*.json reports ----

using Clock = std::chrono::steady_clock;

// Median-of-runs wall time of `body`, in nanoseconds.
template <typename F>
double time_ns(int runs, F&& body) {
  std::vector<double> samples;
  samples.reserve(runs);
  for (int r = 0; r < runs; ++r) {
    const auto start = Clock::now();
    body();
    const auto stop = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Snapshot fork + digest cost, one record per workload.
void write_snapshot_report() {
  std::FILE* out = std::fopen("BENCH_snapshot.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"schema_version\": %d,\n"
                 "  \"benchmark\": \"snapshot\",\n"
                 "  \"workloads\": [\n",
                 kBenchSchemaVersion);
  }
  bool first = true;
  for (const auto& wl : workloads::all()) {
    // Golden machine at a typical injection point, digest caches warm (the
    // campaign digests the golden end state once per continuation).
    uarch::Core golden(wl.program);
    golden.run(5'000);
    golden.memory().digest();
    const std::size_t pages = golden.memory().mapped_pages();
    const auto page_indices = golden.memory().mapped_page_indices();

    // After: COW fork + cached digest — what run_uarch_campaign pays.
    const double cow_ns = time_ns(64, [&] {
      uarch::Core copy = golden;
      benchmark::DoNotOptimize(copy.memory().digest());
    });

    // Before: the pre-COW cost — every page deep-copied (forced here by
    // touching each page of the fork, which clones it) and the digest
    // recomputed over the full footprint.
    const double deep_ns = time_ns(64, [&] {
      uarch::Core copy = golden;
      for (const u64 page : page_indices) {
        const u64 addr = page << vm::kPageShift;
        copy.memory().write_byte(addr, copy.memory().read_byte(addr));
      }
      benchmark::DoNotOptimize(copy.memory().recompute_digest());
    });

    // VM-campaign trial setup: fork from an incrementally advanced golden
    // VM. Early vs. late injection index — the fork cost must not depend on
    // it — against positioning by re-execution from program start.
    vm::Vm probe(wl.program);
    u64 trace_len = 0;
    while (probe.step()) ++trace_len;
    const u64 early_index = trace_len / 10;
    const u64 late_index = trace_len * 9 / 10;

    vm::Vm golden_early(wl.program);
    golden_early.run(early_index + 1);
    const double fork_early_ns = time_ns(64, [&] {
      vm::Vm trial = golden_early;
      benchmark::DoNotOptimize(trial.pc());
    });

    vm::Vm golden_late(wl.program);
    golden_late.run(late_index + 1);
    const double fork_late_ns = time_ns(64, [&] {
      vm::Vm trial = golden_late;
      benchmark::DoNotOptimize(trial.pc());
    });

    const double reexec_late_ns = time_ns(8, [&] {
      vm::Vm trial(wl.program);
      trial.run(late_index + 1);
      benchmark::DoNotOptimize(trial.pc());
    });

    const double fork_speedup = cow_ns > 0 ? deep_ns / cow_ns : 0.0;
    if (out != nullptr) {
      std::fprintf(out,
                   "%s    {\"workload\": \"%s\", \"mapped_pages\": %zu, "
                   "\"cow_ns\": %.1f, \"deep_copy_ns\": %.1f, "
                   "\"fork_speedup\": %.2f, \"vm_trace_length\": %llu, "
                   "\"vm_fork_at_10pct_ns\": %.1f, \"vm_fork_at_90pct_ns\": "
                   "%.1f, \"vm_reexec_to_90pct_ns\": %.1f}",
                   first ? "" : ",\n", wl.name.c_str(), pages, cow_ns, deep_ns,
                   fork_speedup, static_cast<unsigned long long>(trace_len),
                   fork_early_ns, fork_late_ns, reexec_late_ns);
    }
    first = false;
    std::printf("snapshot %-7s: cow %.0f ns, deep %.0f ns (%.1fx)\n",
                wl.name.c_str(), cow_ns, deep_ns, fork_speedup);
  }
  if (out != nullptr) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
  }
  std::printf("-> BENCH_snapshot.json\n");
}

// Inner-loop primitives the trial loop is built from, per workload.
void write_uarch_inner_report() {
  const auto& reg = uarch::StateRegistry::instance();
  std::FILE* out = std::fopen("BENCH_uarch_inner.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"schema_version\": %d,\n"
                 "  \"benchmark\": \"uarch_inner\",\n"
                 "  \"workloads\": [\n",
                 kBenchSchemaVersion);
  }
  bool first = true;
  for (const auto& wl : workloads::all()) {
    constexpr u64 kCycles = 10'000;
    const double core_ns = time_ns(9, [&] {
      uarch::Core core(wl.program);
      core.run(kCycles);
      benchmark::DoNotOptimize(core.retired_count());
    });
    const double core_cps = core_ns > 0 ? kCycles * 1e9 / core_ns : 0.0;

    constexpr u64 kInsns = 20'000;
    const double vm_ns = time_ns(9, [&] {
      vm::Vm vm(wl.program);
      vm.run(kInsns);
      benchmark::DoNotOptimize(vm.retired_count());
    });
    const double vm_ips = vm_ns > 0 ? kInsns * 1e9 / vm_ns : 0.0;

    uarch::Core warm(wl.program);
    warm.run(5'000);
    warm.memory().digest();
    const uarch::Core twin = warm;

    const double hash_ns =
        time_ns(64, [&] { benchmark::DoNotOptimize(reg.hash_state(warm)); });
    // Worst case for state_equal: the operands ARE equal, so every field is
    // compared (a trial's convergence probe pays exactly this).
    const double equal_ns = time_ns(
        64, [&] { benchmark::DoNotOptimize(warm.state_equal(twin)); });

    if (out != nullptr) {
      std::fprintf(out,
                   "%s    {\"workload\": \"%s\", \"core_cycles_per_sec\": "
                   "%.0f, \"vm_insns_per_sec\": %.0f, \"state_hash_ns\": "
                   "%.1f, \"state_equal_ns\": %.1f}",
                   first ? "" : ",\n", wl.name.c_str(), core_cps, vm_ips,
                   hash_ns, equal_ns);
    }
    first = false;
    std::printf("inner %-7s: core %.2f Mcyc/s, vm %.2f Minsn/s, "
                "state_equal %.0f ns\n",
                wl.name.c_str(), core_cps / 1e6, vm_ips / 1e6, equal_ns);
  }
  if (out != nullptr) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
  }
  std::printf("-> BENCH_uarch_inner.json\n");
}

// End-to-end campaign throughput across all seven workloads, convergence
// shortcut off vs. on. Both runs produce byte-identical trial records
// (test_trial_speed proves it); only the clock differs.
void write_campaign_report() {
  faultinject::UarchCampaignConfig config;
  config.seed = 4242;
  config.trials_per_workload = 32;

  struct Timing {
    u64 trials = 0;
    double wall_ms = 0.0;
    double rate = 0.0;
  };
  const auto run_once = [&config] {
    const auto start = Clock::now();
    const auto result = faultinject::run_uarch_campaign(config);
    const auto stop = Clock::now();
    Timing t;
    t.trials = result.trials.size();
    t.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
    t.rate = t.wall_ms > 0 ? static_cast<double>(t.trials) * 1000.0 / t.wall_ms
                           : 0.0;
    return t;
  };

  faultinject::set_convergence_shortcut(false);
  const Timing baseline = run_once();

  faultinject::set_convergence_shortcut(true);
  const Timing optimized = run_once();

  const double speedup =
      optimized.rate > 0 && baseline.rate > 0 ? optimized.rate / baseline.rate
                                              : 0.0;
  std::FILE* out = std::fopen("BENCH_campaign.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"schema_version\": %d,\n"
        "  \"benchmark\": \"campaign\",\n"
        "  \"kind\": \"uarch\",\n"
        "  \"seed\": %llu,\n"
        "  \"trials_per_workload\": %llu,\n"
        "  \"monitor_cycles\": %llu,\n"
        "  \"baseline\": {\"trials\": %llu, \"wall_ms\": %.1f, "
        "\"trials_per_sec\": %.1f},\n"
        "  \"optimized\": {\"trials\": %llu, \"wall_ms\": %.1f, "
        "\"trials_per_sec\": %.1f},\n"
        "  \"speedup\": %.2f\n"
        "}\n",
        kBenchSchemaVersion, static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(config.trials_per_workload),
        static_cast<unsigned long long>(config.monitor_cycles),
        static_cast<unsigned long long>(baseline.trials), baseline.wall_ms,
        baseline.rate, static_cast<unsigned long long>(optimized.trials),
        optimized.wall_ms, optimized.rate, speedup);
    std::fclose(out);
  }
  std::printf("campaign: baseline %.1f trials/s, optimized %.1f trials/s "
              "(%.2fx) -> BENCH_campaign.json\n",
              baseline.rate, optimized.rate, speedup);
}

// Per-fault-model campaign throughput: the expanded models run the same
// plan-driven trial body, so their rates should track the single-bit rate
// (plan sampling is O(bits-per-plan); SET adds one revert pass per trial).
void write_faultmodel_report() {
  const std::pair<const char*, faultinject::FaultModel> models[] = {
      {"single", faultinject::FaultModel::kSingleBit},
      {"multi", faultinject::FaultModel::kMultiBitAdjacent},
      {"burst", faultinject::FaultModel::kBurst},
      {"set", faultinject::FaultModel::kSet},
      {"targeted", faultinject::FaultModel::kTargeted},
      {"rate", faultinject::FaultModel::kRateDriven},
  };

  std::FILE* out = std::fopen("BENCH_faultmodel.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"schema_version\": %d,\n"
                 "  \"benchmark\": \"faultmodel\",\n"
                 "  \"kind\": \"uarch\",\n"
                 "  \"trials_per_workload\": 24,\n"
                 "  \"models\": [\n",
                 kBenchSchemaVersion);
  }
  double single_rate = 0.0;
  for (std::size_t i = 0; i < std::size(models); ++i) {
    faultinject::UarchCampaignConfig config;
    config.seed = 4243;
    config.trials_per_workload = 24;
    config.workloads = {"gzip", "mcf"};
    config.monitor_cycles = 2000;
    config.catchup_cycles = 2000;
    config.fault_model.model = models[i].second;
    const auto start = Clock::now();
    const auto result = faultinject::run_uarch_campaign(config);
    const auto stop = Clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const double rate =
        wall_ms > 0 ? static_cast<double>(result.trials.size()) * 1000.0 / wall_ms
                    : 0.0;
    if (i == 0) single_rate = rate;
    if (out != nullptr) {
      std::fprintf(out,
                   "    {\"model\": \"%s\", \"trials\": %llu, "
                   "\"wall_ms\": %.1f, \"trials_per_sec\": %.1f}%s\n",
                   models[i].first,
                   static_cast<unsigned long long>(result.trials.size()), wall_ms,
                   rate, i + 1 < std::size(models) ? "," : "");
    }
    std::printf("faultmodel %-8s %.1f trials/s\n", models[i].first, rate);
  }
  if (out != nullptr) {
    std::fprintf(out, "  ],\n  \"single_bit_trials_per_sec\": %.1f\n}\n",
                 single_rate);
    std::fclose(out);
  }
  std::printf("-> BENCH_faultmodel.json\n");
}

// Analytics path: compact a fixed-seed vm trace, then aggregate the outcome
// breakdown from the columnar store vs. re-parsing the JSONL. The store only
// touches the model/outcome columns, so the gap is structural, not tuning —
// the committed baseline keeps it enforceably >= 10x.
void write_analytics_report() {
  faultinject::VmCampaignConfig config;
  config.seed = 4244;
  config.trials_per_workload = 150;  // all seven workloads -> 1050 rows

  faultinject::CampaignRunOptions run_opts;
  run_opts.shard_trials = 32;
  run_opts.out_jsonl = "bench_analytics_trace.jsonl";
  const auto campaign = faultinject::run_vm_campaign(config, run_opts);
  const u64 rows = campaign.trials.size();

  // Compaction throughput (root-cause replay included, as the daemon runs it).
  const std::string store_path = analytics::store_path_for(run_opts.out_jsonl);
  analytics::CompactResult compacted;
  const double compact_ns = time_ns(3, [&] {
    compacted = analytics::compact_trace(run_opts.out_jsonl, store_path);
  });
  const double compact_mb_per_sec =
      compact_ns > 0 ? static_cast<double>(compacted.jsonl_bytes) * 1e9 /
                           (compact_ns * 1024.0 * 1024.0)
                     : 0.0;

  // Outcome aggregation: columnar store (open + query, as restore-analyze
  // pays it) vs. the same answer re-parsed from the JSONL.
  // The store side finishes in ~100us, so it takes more median samples than
  // the millisecond-scale JSONL side to damp scheduler noise out of the
  // gated speedup ratio.
  const double store_ns = time_ns(15, [&] {
    const analytics::ColumnStoreReader store(store_path);
    benchmark::DoNotOptimize(analytics::outcome_counts(store));
  });
  const double jsonl_ns = time_ns(7, [&] {
    std::ifstream in(run_opts.out_jsonl, std::ios::binary);
    const auto trials = faultinject::read_vm_trials_jsonl(in);
    std::vector<faultinject::VmTrialResult> records;
    records.reserve(trials.size());
    for (const auto& t : trials) records.push_back(t.trial);
    benchmark::DoNotOptimize(faultinject::model_breakdown(records));
  });
  const double query_rows_per_sec =
      store_ns > 0 ? static_cast<double>(rows) * 1e9 / store_ns : 0.0;
  const double jsonl_rows_per_sec =
      jsonl_ns > 0 ? static_cast<double>(rows) * 1e9 / jsonl_ns : 0.0;
  const double speedup =
      jsonl_rows_per_sec > 0 ? query_rows_per_sec / jsonl_rows_per_sec : 0.0;

  std::FILE* out = std::fopen("BENCH_analytics.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"schema_version\": %d,\n"
        "  \"benchmark\": \"analytics\",\n"
        "  \"kind\": \"vm\",\n"
        "  \"seed\": %llu,\n"
        "  \"rows\": %llu,\n"
        "  \"jsonl_bytes\": %llu,\n"
        "  \"store_bytes\": %llu,\n"
        "  \"compact_mb_per_sec\": %.1f,\n"
        "  \"query_rows_per_sec\": %.1f,\n"
        "  \"jsonl_rows_per_sec\": %.1f,\n"
        "  \"query_vs_jsonl_speedup\": %.2f\n"
        "}\n",
        kBenchSchemaVersion, static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(compacted.jsonl_bytes),
        static_cast<unsigned long long>(compacted.store_bytes),
        compact_mb_per_sec, query_rows_per_sec, jsonl_rows_per_sec, speedup);
    std::fclose(out);
  }
  std::printf("analytics: compact %.1f MB/s, query %.1f rows/s vs jsonl "
              "%.1f rows/s (%.2fx) -> BENCH_analytics.json\n",
              compact_mb_per_sec, query_rows_per_sec, jsonl_rows_per_sec,
              speedup);
}

}  // namespace

int main(int argc, char** argv) {
  write_snapshot_report();
  write_uarch_inner_report();
  write_campaign_report();
  write_faultmodel_report();
  write_analytics_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
