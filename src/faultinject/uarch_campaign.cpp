#include "faultinject/uarch_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/containment.hpp"
#include "faultinject/orchestrator.hpp"
#include "vm/memory.hpp"

namespace restore::faultinject {

using uarch::Core;
using uarch::StateRegistry;
using uarch::SymptomEvent;

namespace {

// Backs convergence_shortcut() / set_convergence_shortcut().
std::atomic<bool> g_convergence_shortcut{true};

// Convergence-checkpoint schedule over the monitor window: dense while young
// (most masked faults are overwritten within a few hundred cycles) and sparse
// afterwards. Offsets are cycle counts from the injection point.
constexpr u64 kDenseCheckpointStride = 64;
constexpr u64 kDenseCheckpointLimit = 2048;
constexpr u64 kSparseCheckpointStride = 1024;

bool is_checkpoint_offset(u64 offset) noexcept {
  if (offset == 0) return false;
  if (offset <= kDenseCheckpointLimit) return offset % kDenseCheckpointStride == 0;
  return offset % kSparseCheckpointStride == 0;
}

// Golden continuation from an injection point: the retired trace over the
// monitor window plus the golden machine state at the end of the window.
//
// When built with checkpoints, it additionally memoizes the golden machine
// at scheduled cycle offsets plus the golden symptom stream over the window,
// so a trial whose faulty core re-converges to the golden machine only
// simulates its divergence window and derives the rest of its record from
// golden data (see run_trial).
struct GoldenContinuation {
  std::vector<vm::Retired> trace;
  Core end_core;
  u64 base_retired = 0;

  // Checkpoint c: golden state after executing checkpoint_offsets[c] cycles
  // past the injection point, with trace_len_at[c] records retired so far.
  std::vector<u64> checkpoint_offsets;
  std::vector<u64> trace_len_at;
  std::vector<Core> checkpoints;

  // Golden's own symptom stream over the window (a clean run can emit
  // high-confidence mispredicts or cache-miss bursts); replayed for trials
  // that converge before the window ends.
  struct GoldenSymptom {
    u64 cycle_offset = 0;
    SymptomEvent ev;
  };
  std::vector<GoldenSymptom> symptoms;

  GoldenContinuation(const Core& at_point, u64 monitor_cycles,
                     bool with_checkpoints)
      : end_core(at_point), base_retired(at_point.retired_count()) {
    trace.reserve(monitor_cycles);
    for (u64 c = 0; c < monitor_cycles && end_core.running(); ++c) {
      end_core.cycle();
      for (const auto& rec : end_core.retired_this_cycle()) trace.push_back(rec);
      if (with_checkpoints) {
        for (const auto& ev : end_core.symptoms_this_cycle()) {
          symptoms.push_back({c + 1, ev});
        }
        if (is_checkpoint_offset(c + 1)) {
          checkpoint_offsets.push_back(c + 1);
          trace_len_at.push_back(trace.size());
          checkpoints.push_back(end_core);
        }
      }
    }
  }
};

// Page cap implied by a budget (the tighter of max_pages and max_bytes).
u64 effective_page_cap(const ResourceBudget& budget) {
  u64 cap = budget.max_pages;
  if (budget.max_bytes != 0) {
    const u64 byte_pages = (budget.max_bytes + vm::kPageBytes - 1) / vm::kPageBytes;
    cap = cap == 0 ? byte_pages : std::min(cap, byte_pages);
  }
  return cap;
}

// Folds one symptom event into the record's first-occurrence latencies
// (retired instructions since the injection point's retirement count `base`).
void record_symptom(UarchTrialRecord& record, const SymptomEvent& ev, u64 base) {
  const u64 latency = ev.retired_count >= base ? ev.retired_count - base : 0;
  switch (ev.kind) {
    case SymptomEvent::Kind::kException:
      record.lat_exception = std::min(record.lat_exception, latency);
      break;
    case SymptomEvent::Kind::kHighConfMispredict:
      record.lat_hiconf = std::min(record.lat_hiconf, latency);
      break;
    case SymptomEvent::Kind::kWatchdog:
      record.lat_deadlock = std::min(record.lat_deadlock, latency);
      break;
    case SymptomEvent::Kind::kIllegalFlow:
      record.lat_illegal_flow = std::min(record.lat_illegal_flow, latency);
      break;
    case SymptomEvent::Kind::kCacheMissBurst:
      record.lat_cache_burst = std::min(record.lat_cache_burst, latency);
      break;
    default:
      break;
  }
}

// Runs one trial. `faulty` must be a fresh copy of the injection-point core;
// run_trial flips every bit of the plan and monitors from there. A transient
// (SET) plan additionally reverts, after the first monitored cycle, every
// planned bit whose latch still holds the flipped value: the glitched
// combinational cone re-evaluates correctly on the next clock, so only a
// latch the machine did not overwrite snaps back. A no-upset plan (rate-
// driven model, no strike this trial) flips nothing and monitors a machine
// identical to golden.
UarchTrialRecord run_trial(Core& faulty, const GoldenContinuation& golden,
                           const InjectionPlan& plan, u64 monitor_cycles,
                           u64 catchup_cycles,
                           const ResourceBudget& trial_budget) {
  const StateRegistry& reg = StateRegistry::instance();

  const uarch::BitRef& bit = plan.bits.front();
  UarchTrialRecord record;
  record.bit = bit;
  record.storage = reg.field(bit).storage;
  record.protection = reg.field(bit).protection;
  record.field_name = reg.field(bit).name;

  std::vector<u64> flipped_value;
  if (plan.upset) {
    if (plan.transient) {
      flipped_value.reserve(plan.bits.size());
      for (const auto& b : plan.bits) {
        flipped_value.push_back(reg.read(faulty, b) ^ (u64{1} << b.bit));
      }
    }
    for (const auto& b : plan.bits) reg.flip(faulty, b);
  }
  const u64 base = faulty.retired_count();

  // Budget limits are allowances *from the injection point*; the core checks
  // absolute counters, so translate before installing.
  if (!trial_budget.unlimited()) {
    ResourceBudget absolute = trial_budget;
    if (absolute.max_cycles != 0) absolute.max_cycles += faulty.cycle_count();
    if (absolute.max_retired != 0) absolute.max_retired += base;
    absolute.max_pages = effective_page_cap(trial_budget);
    absolute.max_bytes = 0;
    faulty.set_resource_budget(absolute);
  }

  // Convergence shortcut: once the faulty machine is bit-identical to a
  // golden checkpoint at the same cycle offset, every future cycle of the
  // trial is bit-identical to golden's, so the rest of the record is derived
  // from golden data instead of simulated. Guards:
  //  - unlimited budget only: a budget-limited trial's abort point depends on
  //    executing the real cycles (absolute cycle/page counters);
  //  - base == golden.base_retired and compared == trace_len_at[cp]: rules
  //    out the pathological case of a corrupted retirement counter that
  //    drifts back onto the golden value, which would misalign the remaining
  //    trace comparison. state_equal then guarantees identical futures.
  const bool shortcut_eligible =
      trial_budget.unlimited() && !golden.checkpoints.empty() &&
      base == golden.base_retired;

  u64 compared = 0;
  bool overrun = false;
  bool prev_pc_mismatch = false;
  bool converged = false;
  u64 converged_offset = 0;
  std::size_t next_cp = 0;
  for (u64 c = 0; c < monitor_cycles && faulty.running(); ++c) {
    faulty.cycle();
    if (plan.transient && plan.upset && c == 0) {
      // SET semantics: the glitch lasted one clock. Any planned latch still
      // holding its flipped value was not overwritten by the machine, so the
      // re-evaluated combinational cone restores it; a latch the machine
      // rewrote (or consumed) keeps whatever propagated. The revert happens
      // before the first convergence checkpoint (offset 64), so the shortcut
      // machinery never sees a mid-transient state.
      for (std::size_t i = 0; i < plan.bits.size(); ++i) {
        if (reg.read(faulty, plan.bits[i]) == flipped_value[i]) {
          reg.flip(faulty, plan.bits[i]);
        }
      }
    }
    for (const auto& rec : faulty.retired_this_cycle()) {
      const u64 idx = compared++;
      if (idx >= golden.trace.size()) {
        overrun = true;  // retired past the golden window (timing shift)
        continue;
      }
      const vm::Retired& ref = golden.trace[idx];
      if (rec.pc != ref.pc) {
        // A control-flow violation is a *sustained* divergence of the retired
        // pc stream. A single isolated mismatch is a corrupted pc bookkeeping
        // field (e.g. a ROB pc bit), not a different instruction stream.
        if (prev_pc_mismatch) {
          record.lat_cfv = std::min(record.lat_cfv, idx);
        }
        prev_pc_mismatch = true;
        record.trace_diverged = true;
      } else {
        prev_pc_mismatch = false;
        if (!rec.same_effect(ref)) record.trace_diverged = true;
      }
    }
    for (const auto& ev : faulty.symptoms_this_cycle()) {
      record_symptom(record, ev, base);
    }
    if (shortcut_eligible && next_cp < golden.checkpoint_offsets.size() &&
        c + 1 == golden.checkpoint_offsets[next_cp]) {
      const std::size_t cp = next_cp++;
      if (!overrun && compared == golden.trace_len_at[cp] &&
          faulty.state_equal(golden.checkpoints[cp])) {
        converged = true;
        converged_offset = c + 1;
        break;
      }
    }
  }

  if (converged) {
    // From converged_offset on, the faulty machine's cycles are bit-identical
    // to golden's: the remaining retire stream matches the golden trace
    // record-for-record (no new divergence, no overrun, and the carried
    // prev_pc_mismatch can never complete a sustained mismatch), the
    // remaining symptoms are golden's own, and the end-of-window state IS
    // golden.end_core. The catchup phase is a no-op: the converged machine
    // reaches exactly the golden retirement boundary inside the window.
    for (const auto& gs : golden.symptoms) {
      if (gs.cycle_offset > converged_offset) record_symptom(record, gs.ev, base);
    }
    record.end_status = golden.end_core.status();
    if (record.end_status == Core::Status::kFaulted ||
        record.end_status == Core::Status::kDeadlocked) {
      record.arch_corrupt_at_end = true;
      return record;
    }
    record.arch_corrupt_at_end = false;
    if (!record.trace_diverged) {
      // Effect-identical prefix plus convergence: the end-of-window machine
      // equals golden.end_core bit for bit.
      record.uarch_state_equal = true;
      record.live_state_diff = false;
    }
    // Diverged-then-converged (corrupt-then-overwritten): arch state, memory,
    // output and the retirement boundary all match golden at the window end,
    // so the catchup comparison below would find no corruption.
    return record;
  }

  record.end_status = faulty.status();

  if (faulty.status() == Core::Status::kFaulted ||
      faulty.status() == Core::Status::kDeadlocked) {
    record.arch_corrupt_at_end = true;
    return record;
  }

  if (!record.trace_diverged && !overrun) {
    // Effect-identical prefix: no architectural corruption was committed.
    // Compare full microarchitectural state against the golden end to
    // separate masked / latent / other.
    record.arch_corrupt_at_end = false;
    if (faulty.state_equal(golden.end_core)) {
      // Bit-identical machine: the registered-state diff is empty by
      // inclusion (state_equal compares a superset of the registry's fields
      // plus the memory digest), so skip the expensive field-by-field walk.
      record.uarch_state_equal = true;
      record.live_state_diff = false;
    } else {
      const auto diff = reg.diff(faulty, golden.end_core);
      record.uarch_state_equal = !diff.any && faulty.memory().digest() ==
                                                  golden.end_core.memory().digest();
      record.live_state_diff = diff.any_live;
    }
    return record;
  }

  // Diverged or timing-shifted: let the faulty machine catch up to the golden
  // retirement boundary, then compare architectural state (the paper's
  // refined failure definition: corrupt-then-overwritten is not a failure).
  const u64 target = golden.base_retired + golden.trace.size();
  for (u64 c = 0; c < catchup_cycles && faulty.running() &&
                  faulty.retired_count() < target;
       ++c) {
    faulty.cycle();
    for (const auto& ev : faulty.symptoms_this_cycle()) {
      // Catch-up only decides end-of-trial corruption; the detectors were
      // judged over the monitor window. So only the symptoms that stop the
      // machine (an ISA exception, a watchdog deadlock) are recorded here.
      if (ev.kind == SymptomEvent::Kind::kException ||
          ev.kind == SymptomEvent::Kind::kWatchdog) {
        record_symptom(record, ev, base);
      }
    }
  }
  record.end_status = faulty.status();
  if (faulty.status() == Core::Status::kFaulted ||
      faulty.status() == Core::Status::kDeadlocked) {
    record.arch_corrupt_at_end = true;
    return record;
  }

  const vm::ArchSnapshot fa = faulty.arch_snapshot();
  const vm::ArchSnapshot ga = golden.end_core.arch_snapshot();
  record.arch_corrupt_at_end =
      faulty.retired_count() != target || !(fa == ga) ||
      faulty.memory().digest() != golden.end_core.memory().digest() ||
      faulty.output() != golden.end_core.output();
  return record;
}

// Clean-run cycle counts are cached across campaigns (the figure binaries
// re-run campaigns over the same workloads). Keyed by (workload, config) —
// timing knobs change the cycle count — and mutex-guarded so concurrent
// campaigns cannot race the insert.
std::string core_config_key(const uarch::CoreConfig& c) {
  std::ostringstream key;
  key << c.alu_latency << ',' << c.mul_latency << ',' << c.div_latency << ','
      << c.agen_latency << ',' << c.l1d_hit_latency << ',' << c.l1d_miss_latency
      << ',' << c.l1i_miss_penalty << ',' << c.store_forward_latency << ','
      << c.watchdog_cycles << ',' << c.jrs_threshold << ',' << c.jrs_counter_max
      << ',' << c.trap_on_exception << ',' << c.all_mispredicts_high_conf << ','
      << c.illegal_flow_watchdog << ',' << c.cache_burst_symptom << ','
      << c.cache_burst_window << ',' << c.cache_burst_threshold;
  return key.str();
}

struct CycleCountStore {
  Mutex mutex;
  std::map<std::pair<std::string, std::string>, u64> cache
      RESTORE_GUARDED_BY(mutex);
};

u64 clean_cycle_count(const workloads::Workload& wl,
                      const uarch::CoreConfig& config) {
  static CycleCountStore store;
  const auto key = std::make_pair(wl.name, core_config_key(config));
  {
    MutexLock lock(store.mutex);
    const auto it = store.cache.find(key);
    if (it != store.cache.end()) return it->second;
  }
  Core probe(wl.program, config);
  probe.run(100'000'000);
  const u64 cycles = probe.cycle_count();
  MutexLock lock(store.mutex);
  return store.cache.emplace(key, cycles).first->second;
}

}  // namespace

bool convergence_shortcut() noexcept {
  return g_convergence_shortcut.load();
}

void set_convergence_shortcut(bool enabled) noexcept {
  g_convergence_shortcut.store(enabled);
}

UarchTrialRecord run_uarch_trial(const Core& golden_at_point,
                                 const uarch::BitRef& bit, u64 monitor_cycles,
                                 u64 catchup_cycles,
                                 const ResourceBudget& trial_budget) {
  InjectionPlan plan;
  plan.bits.push_back(bit);
  return run_uarch_plan_trial(golden_at_point, plan, monitor_cycles,
                              catchup_cycles, trial_budget);
}

UarchTrialRecord run_uarch_plan_trial(const Core& golden_at_point,
                                      const InjectionPlan& plan,
                                      u64 monitor_cycles, u64 catchup_cycles,
                                      const ResourceBudget& trial_budget) {
  const bool with_checkpoints = convergence_shortcut() && trial_budget.unlimited();
  GoldenContinuation golden(golden_at_point, monitor_cycles, with_checkpoints);
  Core faulty = golden_at_point;
  return run_trial(faulty, golden, plan, monitor_cycles, catchup_cycles,
                   trial_budget);
}

namespace {

// Record for a trial the containment boundary aborted: the injected bit is
// known (it was sampled before execution), every observation field keeps its
// "never fired" default, and the abort tag/message carry the cause.
UarchTrialRecord aborted_uarch_record(const uarch::BitRef& bit,
                                      TrialAbortInfo info) {
  const StateRegistry& reg = StateRegistry::instance();
  UarchTrialRecord record;
  record.bit = bit;
  record.storage = reg.field(bit).storage;
  record.protection = reg.field(bit).protection;
  record.field_name = reg.field(bit).name;
  record.abort_type = std::move(info.type);
  record.abort_message = std::move(info.message);
  record.abort_resource = info.resource_exhausted;
  return record;
}

// One shard: a contiguous trial range of one workload, grouped into
// injection points of `trials_per_point` trials. The shard samples its
// injection cycles and bits from its own RNG stream, advances its own golden
// core through the sorted points, builds each point's golden continuation and
// runs the point's trials against it. Shards are
// independent, so the campaign parallelizes across shards with no
// cross-shard state at all.
std::vector<UarchTrialRecord> run_uarch_shard(const UarchCampaignConfig& config,
                                              const ShardSpec& shard,
                                              u64 total_cycles) {
  const StateRegistry& reg = StateRegistry::instance();
  const workloads::Workload& wl = workloads::by_name(shard.workload);
  Rng rng(shard.seed);

  const u64 per_point = std::max<u64>(1, config.trials_per_point);
  const u64 points = std::max<u64>(1, (shard.trial_count + per_point - 1) / per_point);

  // Injection points in [5%, 85%] of the clean run, sorted so the golden
  // core can be advanced incrementally within the shard.
  std::vector<u64> cycles;
  cycles.reserve(points);
  const u64 lo = total_cycles / 20;
  const u64 hi = std::max(lo + 1, total_cycles * 17 / 20);
  for (u64 p = 0; p < points; ++p) cycles.push_back(rng.range(lo, hi));
  std::sort(cycles.begin(), cycles.end());

  // All randomness is drawn in a fixed order (cycles, then plans) before any
  // trial executes, so the shard's draws never depend on machine behaviour.
  // The default single-bit model draws its bits from the primary shard stream
  // exactly as it always has (default traces stay byte-identical); every
  // other model draws from its own substream keyed by the model tag, so the
  // plan sequence is a pure function of (shard seed, model) regardless of
  // worker count or resume boundaries.
  const FaultModelConfig& fm = config.fault_model;
  const bool default_model = is_default_fault_model(fm);
  std::vector<std::vector<InjectionPlan>> plans(points);
  u64 planned = 0;
  if (default_model) {
    for (u64 p = 0; p < points; ++p) {
      while (plans[p].size() < per_point && planned < shard.trial_count) {
        InjectionPlan plan;
        plan.bits.push_back(config.latches_only
                                ? reg.sample(rng, uarch::StorageClass::kLatch)
                                : reg.sample(rng));
        plans[p].push_back(std::move(plan));
        ++planned;
      }
    }
  } else {
    Rng model_rng(model_stream_seed(shard.seed, static_cast<u64>(fm.model)));
    for (u64 p = 0; p < points; ++p) {
      while (plans[p].size() < per_point && planned < shard.trial_count) {
        plans[p].push_back(
            sample_injection_plan(fm, reg, config.latches_only, model_rng));
        ++planned;
      }
    }
  }

  // The shortcut switch is read once per shard; either setting produces the
  // same records.
  const bool with_checkpoints =
      convergence_shortcut() && config.trial_budget.unlimited();

  std::vector<UarchTrialRecord> records;
  records.reserve(shard.trial_count);
  Core golden(wl.program, config.core_config);
  for (u64 p = 0; p < points; ++p) {
    while (golden.running() && golden.cycle_count() < cycles[p]) golden.cycle();
    if (!golden.running()) break;  // sampled past program end; drop the tail

    const GoldenContinuation continuation(golden, config.monitor_cycles,
                                          with_checkpoints);
    for (const auto& plan : plans[p]) {
      UarchTrialRecord record;
      const auto abort = contain_trial([&] {
        Core faulty = golden;
        record = run_trial(faulty, continuation, plan, config.monitor_cycles,
                           config.catchup_cycles, config.trial_budget);
      });
      if (abort) record = aborted_uarch_record(plan.bits.front(), *abort);
      if (!default_model) {
        record.model = std::string(to_string(fm.model));
        record.extra_bits.clear();
        for (std::size_t i = 1; i < plan.bits.size(); ++i) {
          record.extra_bits.push_back(pack_bit_ref(plan.bits[i]));
        }
        record.upset = plan.upset;
      }
      record.workload = wl.name;
      records.push_back(std::move(record));
    }
  }
  return records;
}

}  // namespace

// Public shard entry point: probes the workload's clean cycle count itself
// (cached process-wide), then delegates to the planner-driven shard body.
std::vector<UarchTrialRecord> run_uarch_shard(const UarchCampaignConfig& config,
                                              const ShardSpec& shard) {
  return run_uarch_shard(config, shard,
                         clean_cycle_count(workloads::by_name(shard.workload),
                                           config.core_config));
}

u64 config_hash(const UarchCampaignConfig& config) {
  std::string key = "uarch;";
  key += std::to_string(config.trials_per_workload) + ';';
  key += std::to_string(config.trials_per_point) + ';';
  key += std::to_string(config.monitor_cycles) + ';';
  key += std::to_string(config.catchup_cycles) + ';';
  key += std::to_string(config.latches_only ? 1 : 0) + ';';
  for (const auto& name : config.workloads) key += name + ',';
  key += ';' + core_config_key(config.core_config);
  // Appended only when set, so pre-budget manifests keep resuming cleanly.
  if (!config.trial_budget.unlimited()) {
    key += ";budget=" + budget_identity_key(config.trial_budget);
  }
  // Same appended-only discipline for the fault_model: the default single-bit
  // model hashes exactly as before the subsystem existed.
  if (!is_default_fault_model(config.fault_model)) {
    key += ";fmodel=" + fault_model_identity_key(config.fault_model);
  }
  return fnv1a(key, fnv1a(std::to_string(config.seed)));
}

UarchCampaignResult run_uarch_campaign(const UarchCampaignConfig& config,
                                       const CampaignRunOptions& options,
                                       CampaignTelemetry* telemetry) {
  validate_fault_model(config.fault_model, /*vm_campaign=*/false);
  const StateRegistry& reg = StateRegistry::instance();
  UarchCampaignResult result;
  result.eligible_bits = config.latches_only
                             ? reg.total_bits(uarch::StorageClass::kLatch)
                             : reg.total_bits();

  std::vector<std::string> names;
  if (config.workloads.empty()) {
    for (const auto& wl : workloads::all()) names.push_back(wl.name);
  } else {
    names = config.workloads;
  }

  // Warm the clean-run cycle cache serially: every shard of a workload needs
  // its total cycle count, and probing it once up front keeps concurrent
  // shards from racing to run the same probe.
  std::map<std::string, u64> total_cycles;
  for (const auto& name : names) {
    total_cycles[name] = clean_cycle_count(workloads::by_name(name),
                                           config.core_config);
  }

  const auto shards = plan_shards(config.seed, names, config.trials_per_workload,
                                  options.shard_trials);

  CampaignManifest identity;
  identity.kind = "uarch";
  identity.config_hash = config_hash(config);
  identity.seed = config.seed;
  identity.shard_trials =
      options.shard_trials == 0 ? kDefaultShardTrials : options.shard_trials;

  result.trials = run_sharded_campaign<UarchTrialRecord>(
      shards, std::move(identity), options,
      [&config, &total_cycles](const ShardSpec& shard) {
        return run_uarch_shard(config, shard, total_cycles.at(shard.workload));
      },
      uarch_trial_to_jsonl, uarch_trial_from_jsonl,
      [](const UarchTrialRecord& trial) {
        return std::string(to_string(classify_trial(
            trial, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline, 100)));
      },
      telemetry);
  return result;
}

UarchCampaignResult run_uarch_campaign(const UarchCampaignConfig& config) {
  CampaignRunOptions options;
  options.workers = config.workers;
  return run_uarch_campaign(config, options);
}

}  // namespace restore::faultinject
