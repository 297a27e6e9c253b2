// Microarchitectural fault-injection campaign — the paper's §4/§5 studies
// (Figures 4, 5 and 6 and the §5.1.2 latch-only experiment).
//
// Each trial: warm the core to a random injection point, snapshot it (the
// Core has value semantics), flip one randomly selected eligible state bit,
// and monitor for up to `monitor_cycles` against the golden continuation —
// exactly the paper's methodology of comparing against both a golden
// latch-level model and an architectural simulator (§4.2). The trial records
// *all* detector events with their latencies; classification into the
// figures' categories happens afterwards (classify.hpp), so one campaign
// feeds Figure 4 (perfect cfv detection), Figure 5 (JRS-gated detection) and
// Figure 6 (hardened "lhf" pipeline) simultaneously.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faultinject/fault_model.hpp"
#include "faultinject/outcome.hpp"
#include "uarch/core.hpp"
#include "uarch/state_registry.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {

struct UarchCampaignConfig {
  u64 seed = 0xC0FE;
  u64 trials_per_workload = 120;
  // Trials sharing one warmed snapshot (the paper uses ~250-300 injection
  // points for 12-13k trials).
  u64 trials_per_point = 8;
  // Cycles a trial is monitored after injection (paper: 10,000).
  u64 monitor_cycles = 10'000;
  // Additional catch-up budget when deciding end-of-trial architectural
  // corruption for timing-shifted runs.
  u64 catchup_cycles = 10'000;
  // Restrict injection to pipeline latches (the §5.1.2 study).
  bool latches_only = false;
  // Workload subset; empty = all seven.
  std::vector<std::string> workloads;
  // Machine configuration for all cores in the campaign (ablations override
  // detector behaviour here, e.g. all_mispredicts_high_conf).
  uarch::CoreConfig core_config;
  // Deterministic per-trial resource budget: max_cycles/max_retired are
  // *additional* allowance from the injection point, max_pages/max_bytes cap
  // the trial machine's mapped memory. Default (all zero) = unlimited, which
  // also keeps pre-budget campaign identity hashes unchanged.
  ResourceBudget trial_budget;
  // Fault model for every trial (fault_model.hpp). The default single-bit
  // model samples from the shard's primary RNG stream exactly as before, so
  // default campaigns stay byte-identical; non-default models draw their
  // plans from a per-shard model substream and contribute to config_hash.
  FaultModelConfig fault_model;
  // Worker threads for shard execution (0 = run inline). Results are
  // deterministic regardless: each shard draws from its own RNG stream, and
  // shards share nothing but the immutable golden passes, which the same
  // workers compute on first use.
  std::size_t workers = 0;
};

// Raw per-trial record: every event with its latency (retired instructions
// from injection to the event; kNever if it did not fire).
struct UarchTrialRecord {
  std::string workload;
  uarch::BitRef bit;
  uarch::StorageClass storage = uarch::StorageClass::kLatch;
  uarch::LhfProtection protection = uarch::LhfProtection::kNone;
  std::string field_name;

  u64 lat_exception = kNever;  // ISA exception retired
  u64 lat_cfv = kNever;        // first retired-pc divergence (perfect detector)
  u64 lat_hiconf = kNever;     // first high-confidence-mispredict symptom
  u64 lat_deadlock = kNever;   // watchdog saturation
  u64 lat_illegal_flow = kNever;  // control-flow monitoring watchdog
  u64 lat_cache_burst = kNever;   // L1D miss-burst extension symptom

  bool trace_diverged = false;       // any retired-effect mismatch
  bool arch_corrupt_at_end = false;  // registers/memory wrong after catch-up
  // End-of-monitor microarchitectural comparison (only meaningful when the
  // trace never diverged):
  bool uarch_state_equal = false;
  bool live_state_diff = false;

  uarch::Core::Status end_status = uarch::Core::Status::kRunning;

  // Containment record, set only when the trial aborted inside the simulator:
  // deterministic exception-type tag, message, and whether it was a resource
  // budget violation (classified resource-exhausted) or a simulator throw
  // (classified sim-abort). Aborts take precedence over every other category.
  std::string abort_type;
  std::string abort_message;
  bool abort_resource = false;

  // Fault-model record, populated only for non-default models so default
  // traces keep their historical bytes: the model token, every extra flipped
  // bit beyond `bit` (packed via pack_bit_ref), and — for the rate-driven
  // model — whether the trial upset at all.
  std::string model;
  std::vector<u64> extra_bits;
  bool upset = true;

  bool aborted() const noexcept { return !abort_type.empty(); }
};

struct UarchCampaignResult {
  std::vector<UarchTrialRecord> trials;
  u64 eligible_bits = 0;  // size of the sampled state space
};

// Identity hash over every config field (campaign kind and machine
// configuration included); a resume manifest written under one hash refuses
// to continue under another.
u64 config_hash(const UarchCampaignConfig& config);

UarchCampaignResult run_uarch_campaign(const UarchCampaignConfig& config);

// Orchestrated overload: sharded execution with optional JSONL streaming,
// manifest-based resume and heartbeat (see orchestrator.hpp). `options.workers`
// supersedes `config.workers`. Results are byte-identical for any worker
// count and for interrupted-then-resumed runs of the same config + shard size.
struct CampaignRunOptions;
struct CampaignTelemetry;
struct ShardSpec;
UarchCampaignResult run_uarch_campaign(const UarchCampaignConfig& config,
                                       const CampaignRunOptions& options,
                                       CampaignTelemetry* telemetry = nullptr);

// Run one planned shard (exposed for tests and custom supervisors). Every
// trial body executes inside the containment boundary, so each record has a
// classified outcome even when the corrupted machine drives the simulator
// into a throw or past its resource budget. The shard takes its workload's
// golden pass from the process-wide store (golden_pass below), computing it
// first when no campaign has.
std::vector<UarchTrialRecord> run_uarch_shard(const UarchCampaignConfig& config,
                                              const ShardSpec& shard);

// Cycles between two rungs of a golden pass. A fixed constant, not an
// option: halving it raised peak RSS of a seven-workload campaign by about
// 4-5 MiB with no clear throughput gain.
inline constexpr u64 kGoldenRungSpacing = 8192;

// A workload's golden pass: one clean run under one CoreConfig, the only
// golden simulation the campaign shares between shards. Shards start each
// injection point from the nearest rung at or below it, and a trial that
// re-converges with golden takes golden's later symptoms and end status from
// here. Immutable once published, so any number of threads may copy rungs
// concurrently (vm/memory.hpp's fork-from-a-still-snapshot contract).
struct GoldenPass {
  u64 total_cycles = 0;  // cycle count when the clean run stopped
  uarch::Core::Status final_status = uarch::Core::Status::kRunning;
  // Golden's symptom stream (every kind a trial record folds), tagged with
  // the cycle count after the cycle that raised it.
  struct Symptom {
    u64 cycle = 0;
    uarch::SymptomEvent ev;
  };
  std::vector<Symptom> symptoms;
  // rungs[i] is the clean core at cycle i * kGoldenRungSpacing.
  std::vector<uarch::Core> rungs;
};

// The golden pass of `workload` under `config`, computed by the first caller
// and shared afterwards. The process-wide store keeps the passes of the most
// recently used CoreConfig only (about 3 MB for all seven workloads); a
// holder of the returned pointer keeps its pass alive after eviction.
std::shared_ptr<const GoldenPass> golden_pass(const std::string& workload,
                                              const uarch::CoreConfig& config);

// Canonical text of every CoreConfig field: keys the golden-pass store and
// enters config_hash, so a field missing here would let two machines share
// golden state and one campaign identity.
std::string core_config_key(const uarch::CoreConfig& config);

// Single trial against a pre-warmed golden core (exposed for tests).
// `golden_at_point` must be running. `trial_budget` limits are relative to
// the injection point; violations throw BudgetExceeded (the shard runner's
// containment boundary converts them into resource-exhausted records).
UarchTrialRecord run_uarch_trial(const uarch::Core& golden_at_point,
                                 const uarch::BitRef& bit, u64 monitor_cycles,
                                 u64 catchup_cycles,
                                 const ResourceBudget& trial_budget = {});

// Convergence shortcut, on by default: a trial whose faulty core becomes
// bit-identical to a golden checkpoint stops simulating and derives the rest
// of its record from golden data. Traces are byte-identical either way
// (test_trial_speed pins this), so the switch is not part of config_hash and
// has no CLI flag; tests and benchmarks turn it off for a full-simulation
// reference. Set it between campaigns: shards read it when they start.
bool convergence_shortcut() noexcept;
void set_convergence_shortcut(bool enabled) noexcept;

// Plan-driven single trial (exposed for the fault-model property tests): flip
// every bit of `plan` at the injection point (none when plan.upset is false),
// conditionally revert transient bits after one monitored cycle, and monitor
// exactly like run_uarch_trial. The record's `bit` is the plan's primary
// (first) bit; the caller stamps model/extra_bits/upset.
UarchTrialRecord run_uarch_plan_trial(const uarch::Core& golden_at_point,
                                      const InjectionPlan& plan,
                                      u64 monitor_cycles, u64 catchup_cycles,
                                      const ResourceBudget& trial_budget = {});

}  // namespace restore::faultinject
