#include "faultinject/uarch_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
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

// Whether a trial record folds symptoms of this kind (record_symptom);
// golden's plain mispredicts never reach a record, so they are not kept.
bool recorded_symptom(const SymptomEvent& ev) noexcept {
  return ev.kind != SymptomEvent::Kind::kMispredict;
}

// Golden continuation from an injection point, built lazily: the point's
// trials extend it only as far as they read it (trace records, convergence
// checkpoints, the end-of-window core), so a point whose trials all converge
// early never simulates the rest of the monitor window. It advances in whole
// cycles, so a trial the containment boundary aborts leaves it consistent
// for the next trial of the point.
//
// With a golden pass, a converged trial takes golden's later symptoms and
// end status from the pass instead of extending the window to its end.
class GoldenContinuation {
 public:
  struct Checkpoint {
    u64 offset = 0;     // cycles past the injection point
    u64 trace_len = 0;  // golden records retired by then
    Core core;
  };

  // `pass` may be null (a caller without one, e.g. run_uarch_plan_trial);
  // `cycles` counts every golden cycle the continuation simulates.
  GoldenContinuation(const Core& at_point, u64 monitor_cycles,
                     bool with_checkpoints, const GoldenPass* pass, u64& cycles)
      : core_(at_point),
        point_cycle_(at_point.cycle_count()),
        base_retired_(at_point.retired_count()),
        monitor_cycles_(monitor_cycles),
        with_checkpoints_(with_checkpoints),
        pass_(pass),
        cycles_(cycles) {}

  u64 base_retired() const noexcept { return base_retired_; }
  bool with_checkpoints() const noexcept { return with_checkpoints_; }

  // Golden record `idx` of the window; null when the window retires fewer.
  const vm::Retired* record(u64 idx) {
    while (trace_.size() <= idx && advance()) {
    }
    return idx < trace_.size() ? &trace_[idx] : nullptr;
  }

  // Golden machine `offset` cycles past the point (offset must be a
  // checkpoint offset); null when golden stopped before reaching it.
  const Checkpoint* checkpoint(u64 offset) {
    while (executed_ < offset && advance()) {
    }
    if (executed_ < offset) return nullptr;
    const auto it = std::lower_bound(
        checkpoints_.begin(), checkpoints_.end(), offset,
        [](const Checkpoint& cp, u64 o) { return cp.offset < o; });
    return it != checkpoints_.end() && it->offset == offset ? &*it : nullptr;
  }

  // Golden machine at the end of the window, and the records it retired.
  const Core& end_core() {
    while (advance()) {
    }
    return core_;
  }
  u64 trace_size() {
    end_core();
    return trace_.size();
  }

  Core::Status end_status() {
    if (pass_ == nullptr) return end_core().status();
    return pass_->total_cycles <= point_cycle_ + monitor_cycles_
               ? pass_->final_status
               : Core::Status::kRunning;
  }

  // Calls fn(ev) for golden's symptoms after `offset` cycles, to the window's
  // end.
  template <class F>
  void for_each_symptom_after(u64 offset, F&& fn) {
    if (pass_ == nullptr) {
      end_core();
      for (const auto& gs : symptoms_) {
        if (gs.cycle > point_cycle_ + offset) fn(gs.ev);
      }
      return;
    }
    const u64 last = point_cycle_ + monitor_cycles_;
    auto it = std::upper_bound(
        pass_->symptoms.begin(), pass_->symptoms.end(), point_cycle_ + offset,
        [](u64 c, const GoldenPass::Symptom& gs) { return c < gs.cycle; });
    for (; it != pass_->symptoms.end() && it->cycle <= last; ++it) fn(it->ev);
  }

 private:
  // One golden cycle; false once the window is exhausted or golden stopped.
  bool advance() {
    if (executed_ >= monitor_cycles_ || !core_.running()) return false;
    core_.cycle();
    ++executed_;
    ++cycles_;
    for (const auto& rec : core_.retired_this_cycle()) trace_.push_back(rec);
    if (with_checkpoints_ && pass_ == nullptr) {
      for (const auto& ev : core_.symptoms_this_cycle()) {
        if (recorded_symptom(ev)) symptoms_.push_back({core_.cycle_count(), ev});
      }
    }
    if (with_checkpoints_ && is_checkpoint_offset(executed_)) {
      checkpoints_.push_back({executed_, trace_.size(), core_});
    }
    return true;
  }

  Core core_;
  u64 point_cycle_ = 0;
  u64 base_retired_ = 0;
  u64 monitor_cycles_ = 0;
  bool with_checkpoints_ = false;
  const GoldenPass* pass_ = nullptr;
  u64& cycles_;
  u64 executed_ = 0;
  std::vector<vm::Retired> trace_;
  std::vector<Checkpoint> checkpoints_;
  // Golden's symptoms over the window, kept only without a pass.
  std::vector<GoldenPass::Symptom> symptoms_;
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
UarchTrialRecord run_trial(Core& faulty, GoldenContinuation& golden,
                           const InjectionPlan& plan, u64 monitor_cycles,
                           u64 catchup_cycles,
                           const ResourceBudget& trial_budget,
                           UarchPhaseCounters& counters) {
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
  //  - base == golden.base_retired() and compared == the checkpoint's
  //    trace_len: rules out the pathological case of a corrupted retirement
  //    counter that drifts back onto the golden value, which would misalign
  //    the remaining trace comparison. state_equal then guarantees identical
  //    futures.
  const bool shortcut_eligible = trial_budget.unlimited() &&
                                 golden.with_checkpoints() &&
                                 base == golden.base_retired();

  u64 compared = 0;
  bool overrun = false;
  bool prev_pc_mismatch = false;
  bool converged = false;
  u64 converged_offset = 0;
  for (u64 c = 0; c < monitor_cycles && faulty.running(); ++c) {
    faulty.cycle();
    ++counters.faulty;
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
      const vm::Retired* ref = golden.record(idx);
      if (ref == nullptr) {
        overrun = true;  // retired past the golden window (timing shift)
        continue;
      }
      if (rec.pc != ref->pc) {
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
        if (!rec.same_effect(*ref)) record.trace_diverged = true;
      }
    }
    for (const auto& ev : faulty.symptoms_this_cycle()) {
      record_symptom(record, ev, base);
    }
    if (shortcut_eligible && !overrun && is_checkpoint_offset(c + 1)) {
      const auto* cp = golden.checkpoint(c + 1);
      if (cp != nullptr && compared == cp->trace_len &&
          faulty.state_equal(cp->core)) {
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
    // golden's. The catchup phase is a no-op: the converged machine reaches
    // exactly the golden retirement boundary inside the window.
    golden.for_each_symptom_after(converged_offset, [&](const SymptomEvent& ev) {
      record_symptom(record, ev, base);
    });
    record.end_status = golden.end_status();
    if (record.end_status == Core::Status::kFaulted ||
        record.end_status == Core::Status::kDeadlocked) {
      record.arch_corrupt_at_end = true;
      return record;
    }
    record.arch_corrupt_at_end = false;
    if (!record.trace_diverged) {
      // Effect-identical prefix plus convergence: the end-of-window machine
      // equals golden's bit for bit.
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
    const Core& golden_end = golden.end_core();
    if (faulty.state_equal(golden_end)) {
      // Bit-identical machine: the registered-state diff is empty by
      // inclusion (state_equal compares a superset of the registry's fields
      // plus the memory digest), so skip the expensive field-by-field walk.
      record.uarch_state_equal = true;
      record.live_state_diff = false;
    } else {
      const auto diff = reg.diff(faulty, golden_end);
      record.uarch_state_equal =
          !diff.any && faulty.memory().digest() == golden_end.memory().digest();
      record.live_state_diff = diff.any_live;
    }
    return record;
  }

  // Diverged or timing-shifted: let the faulty machine catch up to the golden
  // retirement boundary, then compare architectural state (the paper's
  // refined failure definition: corrupt-then-overwritten is not a failure).
  const u64 target = golden.base_retired() + golden.trace_size();
  for (u64 c = 0; c < catchup_cycles && faulty.running() &&
                  faulty.retired_count() < target;
       ++c) {
    faulty.cycle();
    ++counters.catchup;
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

  const Core& golden_end = golden.end_core();
  const vm::ArchSnapshot fa = faulty.arch_snapshot();
  const vm::ArchSnapshot ga = golden_end.arch_snapshot();
  record.arch_corrupt_at_end =
      faulty.retired_count() != target || !(fa == ga) ||
      faulty.memory().digest() != golden_end.memory().digest() ||
      faulty.output() != golden_end.output();
  return record;
}

// A golden pass being computed or published. Whoever claims the slot runs
// the clean pass; everyone else needing it waits on `ready`. Once published,
// the pass is never written again.
struct PassSlot {
  PassSlot(std::string workload_name, const uarch::CoreConfig& core_config)
      : workload(std::move(workload_name)), config(core_config) {}

  const std::string workload;
  const uarch::CoreConfig config;
  Mutex mutex;
  CondVar ready;
  bool claimed RESTORE_GUARDED_BY(mutex) = false;
  std::shared_ptr<const GoldenPass> pass RESTORE_GUARDED_BY(mutex);
};

// Safety cap on a clean run; every workload halts long before it.
constexpr u64 kCleanRunCycleCap = 100'000'000;

std::shared_ptr<const GoldenPass> run_golden_pass(const workloads::Workload& wl,
                                                  const uarch::CoreConfig& config) {
  // simlint: allow(PERF-ALLOC) -- once per workload and CoreConfig per process
  auto pass = std::make_shared<GoldenPass>();
  Core core(wl.program, config);
  pass->rungs.push_back(core);
  while (core.running() && core.cycle_count() < kCleanRunCycleCap) {
    core.cycle();
    for (const auto& ev : core.symptoms_this_cycle()) {
      if (recorded_symptom(ev)) pass->symptoms.push_back({core.cycle_count(), ev});
    }
    if (core.cycle_count() % kGoldenRungSpacing == 0) pass->rungs.push_back(core);
  }
  pass->total_cycles = core.cycle_count();
  pass->final_status = core.status();
  return pass;
}

// Claims `slot` for the caller to compute; false when it is published or
// another thread holds the claim.
bool try_claim(PassSlot& slot) {
  MutexLock lock(slot.mutex);
  if (slot.pass != nullptr || slot.claimed) return false;
  slot.claimed = true;
  return true;
}

// Computes and publishes a claimed slot's pass, adding its cycles to
// `computed_cycles`. A throw releases the claim so a waiter can retry.
void compute_claimed(PassSlot& slot, u64& computed_cycles) {
  std::shared_ptr<const GoldenPass> pass;
  try {
    pass = run_golden_pass(workloads::by_name(slot.workload), slot.config);
  } catch (...) {
    MutexLock lock(slot.mutex);
    slot.claimed = false;
    slot.ready.notify_all();
    throw;
  }
  computed_cycles += pass->total_cycles;
  MutexLock lock(slot.mutex);
  slot.pass = std::move(pass);
  slot.ready.notify_all();
}

// The pass of slots[own]. While another thread computes it, the caller
// computes any unclaimed pass of `slots` instead of idling, and only then
// waits: campaign workers share the probes without a barrier.
std::shared_ptr<const GoldenPass> acquire_pass(
    const std::vector<std::shared_ptr<PassSlot>>& slots, std::size_t own,
    u64& computed_cycles) {
  PassSlot& mine = *slots[own];
  for (;;) {
    if (try_claim(mine)) compute_claimed(mine, computed_cycles);
    {
      MutexLock lock(mine.mutex);
      if (mine.pass != nullptr) return mine.pass;
    }
    bool helped = false;
    for (const auto& other : slots) {
      if (other.get() != &mine && try_claim(*other)) {
        compute_claimed(*other, computed_cycles);
        helped = true;
        break;
      }
    }
    if (helped) continue;
    MutexLock lock(mine.mutex);
    while (mine.pass == nullptr && mine.claimed) mine.ready.wait_locked(lock);
    if (mine.pass != nullptr) return mine.pass;
    // The claimer threw; loop to claim the slot ourselves.
  }
}

// Process-wide pass slots of the most recently used CoreConfig. Switching
// configs drops the old slots; campaigns still running hold theirs.
class PassStore {
 public:
  std::shared_ptr<PassSlot> slot(const std::string& workload,
                                 const uarch::CoreConfig& config) {
    const std::string key = core_config_key(config);
    MutexLock lock(mutex_);
    if (key != config_key_) {
      config_key_ = key;
      slots_.clear();
    }
    auto& entry = slots_[workload];
    // simlint: allow(PERF-ALLOC) -- once per workload and CoreConfig per process
    if (entry == nullptr) entry = std::make_shared<PassSlot>(workload, config);
    return entry;
  }

 private:
  Mutex mutex_;
  std::string config_key_ RESTORE_GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<PassSlot>> slots_
      RESTORE_GUARDED_BY(mutex_);
};

PassStore& pass_store() {
  static PassStore store;
  return store;
}

}  // namespace

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

std::shared_ptr<const GoldenPass> golden_pass(const std::string& workload,
                                              const uarch::CoreConfig& config) {
  const std::vector<std::shared_ptr<PassSlot>> slots{
      pass_store().slot(workload, config)};
  u64 computed_cycles = 0;
  return acquire_pass(slots, 0, computed_cycles);
}

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
  UarchPhaseCounters counters;
  GoldenContinuation golden(golden_at_point, monitor_cycles, with_checkpoints,
                            nullptr, counters.continuation);
  Core faulty = golden_at_point;
  return run_trial(faulty, golden, plan, monitor_cycles, catchup_cycles,
                   trial_budget, counters);
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
// injection cycles and bits from its own RNG stream, starts each sorted point
// from the nearest golden-pass rung (or its own golden core, when that is
// nearer), and runs the point's trials against a lazy golden continuation.
// Shards share only the immutable pass, so the campaign parallelizes across
// shards with no mutable cross-shard state.
std::vector<UarchTrialRecord> run_uarch_shard(const UarchCampaignConfig& config,
                                              const ShardSpec& shard,
                                              const GoldenPass& pass,
                                              UarchPhaseCounters& counters) {
  const u64 total_cycles = pass.total_cycles;
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
  std::optional<Core> golden;
  for (u64 p = 0; p < points; ++p) {
    const Core& rung = pass.rungs[std::min<u64>(cycles[p] / kGoldenRungSpacing,
                                                pass.rungs.size() - 1)];
    if (!golden || golden->cycle_count() < rung.cycle_count()) golden = rung;
    while (golden->running() && golden->cycle_count() < cycles[p]) {
      golden->cycle();
      ++counters.advance;
    }
    if (!golden->running()) break;  // sampled past program end; drop the tail

    GoldenContinuation continuation(*golden, config.monitor_cycles,
                                    with_checkpoints, &pass,
                                    counters.continuation);
    for (const auto& plan : plans[p]) {
      UarchTrialRecord record;
      const auto abort = contain_trial([&] {
        Core faulty = *golden;
        record = run_trial(faulty, continuation, plan, config.monitor_cycles,
                           config.catchup_cycles, config.trial_budget,
                           counters);
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

std::vector<UarchTrialRecord> run_uarch_shard(const UarchCampaignConfig& config,
                                              const ShardSpec& shard) {
  UarchPhaseCounters counters;
  const auto pass = golden_pass(shard.workload, config.core_config);
  return run_uarch_shard(config, shard, *pass, counters);
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

  // One pass slot per workload, held for the whole campaign. The passes
  // themselves are computed by the shards that first need them.
  std::map<std::string, std::size_t> slot_of;
  std::vector<std::shared_ptr<PassSlot>> slots;
  for (const auto& name : names) {
    workloads::by_name(name);  // an unknown workload fails the campaign here
    if (slot_of.emplace(name, slots.size()).second) {
      slots.push_back(pass_store().slot(name, config.core_config));
    }
  }

  const auto shards = plan_shards(config.seed, names, config.trials_per_workload,
                                  options.shard_trials);
  // Each shard writes only its own counters (an attempt starts them afresh).
  std::vector<UarchPhaseCounters> shard_counters(shards.size());

  CampaignManifest identity;
  identity.kind = "uarch";
  identity.config_hash = config_hash(config);
  identity.seed = config.seed;
  identity.shard_trials =
      options.shard_trials == 0 ? kDefaultShardTrials : options.shard_trials;

  result.trials = run_sharded_campaign<UarchTrialRecord>(
      shards, std::move(identity), options,
      [&](const ShardSpec& shard) {
        UarchPhaseCounters& counters = shard_counters.at(shard.index);
        counters = {};
        const auto pass =
            acquire_pass(slots, slot_of.at(shard.workload), counters.golden_pass);
        return run_uarch_shard(config, shard, *pass, counters);
      },
      uarch_trial_to_jsonl, uarch_trial_from_jsonl,
      [](const UarchTrialRecord& trial) {
        return std::string(to_string(classify_trial(
            trial, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline, 100)));
      },
      telemetry);
  if (telemetry != nullptr) {
    telemetry->uarch = {};
    for (const auto& counters : shard_counters) telemetry->uarch += counters;
  }
  return result;
}

UarchCampaignResult run_uarch_campaign(const UarchCampaignConfig& config) {
  CampaignRunOptions options;
  options.workers = config.workers;
  return run_uarch_campaign(config, options);
}

}  // namespace restore::faultinject
