#include "faultinject/vm_campaign.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/thread_annotations.hpp"
#include "faultinject/containment.hpp"
#include "faultinject/orchestrator.hpp"
#include "vm/vm.hpp"

namespace restore::faultinject {

namespace {

VmGoldenRecord golden_record(const vm::Retired& rec) noexcept {
  VmGoldenRecord out;
  out.pc = rec.pc;
  out.addr = rec.is_store ? rec.store_addr : rec.load_addr;
  out.value = rec.is_store ? rec.store_data : rec.rd_value;
  out.insn = rec.insn;
  out.rd = rec.rd;
  out.wrote_reg = rec.wrote_reg;
  out.is_store = rec.is_store;
  out.is_load = rec.is_load;
  return out;
}

std::unique_ptr<const VmGoldenPass> run_vm_golden_pass(
    const workloads::Workload& workload) {
  // simlint: allow(PERF-ALLOC) -- once per workload per process
  auto pass = std::make_unique<VmGoldenPass>();
  vm::Vm vm(workload.program);
  while (vm.running()) {
    if (vm.retired_count() % kVmRungSpacing == 0) pass->rungs.push_back(vm);
    const auto rec = vm.step();
    if (rec->wrote_reg) pass->result_indices.push_back(pass->records.size());
    pass->records.push_back(golden_record(*rec));
  }
  pass->halted = vm.status() == vm::Vm::Status::kHalted;
  for (u8 r = 0; r < isa::kNumArchRegs; ++r) pass->final_regs[r] = vm.reg(r);
  if (pass->result_indices.empty()) {
    throw std::logic_error("workload produces no register results: " + workload.name);
  }
  return pass;
}

// A workload's golden pass being computed or published. The first caller
// claims the slot and runs the clean pass outside every lock; later callers
// wait on `ready`. Once published, the pass is never written again.
struct VmPassSlot {
  Mutex mutex;
  CondVar ready;
  bool claimed RESTORE_GUARDED_BY(mutex) = false;
  std::unique_ptr<const VmGoldenPass> pass RESTORE_GUARDED_BY(mutex);
};

// One slot per workload, never evicted. std::map never invalidates element
// references, so a slot outlives the store lock.
struct VmPassStore {
  Mutex mutex;
  std::map<std::string, VmPassSlot> slots RESTORE_GUARDED_BY(mutex);
};

// The pass of `workload`, adding the instructions of a pass the caller
// computed to `computed_insns`. A throw releases the claim so a waiter can
// retry.
const VmGoldenPass& acquire_vm_pass(const workloads::Workload& workload,
                                    u64& computed_insns) {
  static VmPassStore store;
  VmPassSlot* slot = nullptr;
  {
    MutexLock lock(store.mutex);
    slot = &store.slots[workload.name];
  }
  {
    MutexLock lock(slot->mutex);
    while (slot->pass == nullptr && slot->claimed) slot->ready.wait_locked(lock);
    if (slot->pass != nullptr) return *slot->pass;
    slot->claimed = true;
  }
  std::unique_ptr<const VmGoldenPass> pass;
  try {
    pass = run_vm_golden_pass(workload);
  } catch (...) {
    MutexLock lock(slot->mutex);
    slot->claimed = false;
    slot->ready.notify_all();
    throw;
  }
  computed_insns += pass->records.size();
  MutexLock lock(slot->mutex);
  slot->pass = std::move(pass);
  slot->ready.notify_all();
  return *slot->pass;
}

// Common monitoring/classification once the corrupted VM is positioned just
// past `inject_index`. `dirty_regs` masks the registers the injection
// flipped. `trial_budget` bounds the monitored run deterministically
// (BudgetExceeded propagates to the containment boundary). Monitors the
// caller's machine in place (the caller forks it from golden).
VmTrialResult monitor_trial(const std::string& workload, const VmGoldenPass& golden,
                            vm::Vm& vm, u64 inject_index, u32 bit, u32 dirty_regs,
                            u64 overrun_budget, const ResourceBudget& trial_budget,
                            VmPhaseCounters& counters);

u32 reg_mask(u8 reg) noexcept { return u32{1} << reg; }

}  // namespace

const VmGoldenPass& vm_golden_pass(const std::string& workload) {
  u64 computed_insns = 0;
  return acquire_vm_pass(workloads::by_name(workload), computed_insns);
}

VmTrialResult run_vm_trial(const workloads::Workload& workload, u64 inject_index,
                           u32 bit, u64 overrun_budget) {
  VmPhaseCounters counters;
  const VmGoldenPass& golden = acquire_vm_pass(workload, counters.golden_pass);
  if (inject_index >= golden.records.size() ||
      !golden.records[inject_index].wrote_reg) {
    throw std::invalid_argument("inject_index must name a register-writing insn");
  }

  // Re-execute to the injection point, then flip the destination register.
  vm::Vm vm(workload.program);
  for (u64 i = 0; i <= inject_index; ++i) vm.step();
  const VmGoldenRecord& site = golden.records[inject_index];
  vm.set_reg(site.rd, flip_bit(site.value, bit));
  return monitor_trial(workload.name, golden, vm, inject_index, bit,
                       reg_mask(site.rd), overrun_budget, {}, counters);
}

VmTrialResult run_vm_register_trial(const workloads::Workload& workload,
                                    u64 inject_index, u8 reg, u32 bit,
                                    u64 overrun_budget) {
  VmPhaseCounters counters;
  const VmGoldenPass& golden = acquire_vm_pass(workload, counters.golden_pass);
  if (inject_index >= golden.records.size()) {
    throw std::invalid_argument("inject_index out of range");
  }
  vm::Vm vm(workload.program);
  for (u64 i = 0; i <= inject_index; ++i) vm.step();
  vm.set_reg(reg, flip_bit(vm.reg(reg), bit));
  return monitor_trial(workload.name, golden, vm, inject_index, bit, reg_mask(reg),
                       overrun_budget, {}, counters);
}

namespace {

VmTrialResult monitor_trial(const std::string& workload, const VmGoldenPass& golden,
                            vm::Vm& vm, u64 inject_index, u32 bit, u32 dirty_regs,
                            u64 overrun_budget, const ResourceBudget& trial_budget,
                            VmPhaseCounters& counters) {
  VmTrialResult result;
  result.workload = workload;
  result.inject_index = inject_index;
  result.bit = bit;

  // Monitor the rest of the run, comparing against the golden stream.
  u64 lat_exception = kNever, lat_cfv = kNever, lat_mem_addr = kNever,
      lat_mem_data = kNever, lat_register = kNever;
  bool pc_stream_diverged = false;

  // Convergence shortcut. While the pc stream stays aligned, `dirty_regs`
  // holds exactly the registers that differ from golden's, and
  // `memory_diverged` whether any store differed. Once neither holds and the
  // next pc is golden's, the machine equals golden from here on (output
  // aside, which the monitor never compares): no later symptom can fire and
  // the final registers are golden's, so the trial is decided. Budgeted
  // trials run to the end, because their aborts depend on real execution.
  const bool shortcut =
      convergence_shortcut() && trial_budget.unlimited() && golden.halted;
  bool memory_diverged = false;

  const u64 golden_size = golden.records.size();
  u64 executed = 0;
  bool converged = false;
  const u64 budget = golden_size - inject_index + overrun_budget;
  while (executed < budget) {
    if (shortcut && dirty_regs == 0 && !memory_diverged && !pc_stream_diverged) {
      const u64 next_index = inject_index + executed + 1;
      if (next_index < golden_size && vm.pc() == golden.records[next_index].pc) {
        converged = true;
        break;
      }
    }
    if (trial_budget.max_retired != 0 && executed >= trial_budget.max_retired) {
      throw BudgetExceeded(BudgetKind::kRetired, trial_budget.max_retired,
                           executed + 1);
    }
    const auto rec = vm.step();
    if (!rec.has_value()) break;  // halted or faulted previously
    ++executed;
    ++counters.monitored;
    const u64 latency = executed;

    if (rec->fault != isa::ExceptionKind::kNone) {
      lat_exception = std::min(lat_exception, latency);
      break;  // highest-precedence symptom: trial decided
    }

    const u64 golden_index = inject_index + executed;
    if (!pc_stream_diverged && golden_index < golden_size) {
      const VmGoldenRecord& ref = golden.records[golden_index];
      if (rec->pc != ref.pc) {
        pc_stream_diverged = true;
        lat_cfv = std::min(lat_cfv, latency);
      } else {
        if (rec->is_store && rec->store_addr != ref.addr) {
          lat_mem_addr = std::min(lat_mem_addr, latency);
          memory_diverged = true;
        }
        if (rec->is_load && rec->load_addr != ref.addr) {
          lat_mem_addr = std::min(lat_mem_addr, latency);
        }
        if (rec->is_store && rec->store_addr == ref.addr &&
            rec->store_data != ref.value) {
          lat_mem_data = std::min(lat_mem_data, latency);
          memory_diverged = true;
        }
        if (rec->wrote_reg && ref.wrote_reg) {
          if (rec->rd_value != ref.value) {
            lat_register = std::min(lat_register, latency);
            dirty_regs |= reg_mask(rec->rd);
          } else {
            dirty_regs &= ~reg_mask(rec->rd);
          }
        }
      }
    }
    if (rec->halted) break;
  }
  if (converged) ++counters.converged;

  // Residual register corruption: the flipped register was never overwritten
  // and still differs at program end (visible only in final state). A
  // converged trial ends with golden's registers.
  bool residual_register = false;
  if (!converged && lat_exception == kNever && !pc_stream_diverged &&
      lat_mem_addr == kNever && lat_mem_data == kNever && lat_register == kNever) {
    if (vm.status() == vm::Vm::Status::kHalted) {
      // Compare the final register file against the clean run's.
      for (u8 r = 0; r < isa::kNumArchRegs && !residual_register; ++r) {
        if (vm.reg(r) != golden.final_regs[r]) residual_register = true;
      }
    } else {
      // Still running at budget exhaustion without any divergence event:
      // treat as register-latent.
      residual_register = true;
    }
  }

  // Classify with Table 1 precedence.
  if (lat_exception != kNever) {
    result.outcome = VmOutcome::kException;
    result.latency = lat_exception;
  } else if (lat_cfv != kNever) {
    result.outcome = VmOutcome::kCfv;
    result.latency = lat_cfv;
  } else if (lat_mem_addr != kNever) {
    result.outcome = VmOutcome::kMemAddr;
    result.latency = lat_mem_addr;
  } else if (lat_mem_data != kNever) {
    result.outcome = VmOutcome::kMemData;
    result.latency = lat_mem_data;
  } else if (lat_register != kNever) {
    result.outcome = VmOutcome::kRegister;
    result.latency = lat_register;
  } else if (residual_register) {
    result.outcome = VmOutcome::kRegister;
    result.latency = kNever;  // only visible in final state
  } else {
    result.outcome = VmOutcome::kMasked;
    result.latency = kNever;
  }
  return result;
}

}  // namespace

namespace {

std::vector<std::string> selected_workload_names(
    const std::vector<std::string>& requested) {
  if (!requested.empty()) {
    for (const auto& name : requested) workloads::by_name(name);  // validate
    return requested;
  }
  std::vector<std::string> names;
  for (const auto& wl : workloads::all()) names.push_back(wl.name);
  return names;
}

// Page cap implied by a budget (the tighter of max_pages and max_bytes).
u64 effective_page_cap(const ResourceBudget& budget) {
  u64 cap = budget.max_pages;
  if (budget.max_bytes != 0) {
    const u64 byte_pages = (budget.max_bytes + vm::kPageBytes - 1) / vm::kPageBytes;
    cap = cap == 0 ? byte_pages : std::min(cap, byte_pages);
  }
  return cap;
}

VmTrialResult aborted_vm_trial(const std::string& workload, u64 inject_index,
                               u32 bit, TrialAbortInfo info) {
  VmTrialResult result;
  result.workload = workload;
  result.outcome = info.resource_exhausted ? VmOutcome::kResourceExhausted
                                           : VmOutcome::kSimAbort;
  result.latency = kNever;
  result.inject_index = inject_index;
  result.bit = bit;
  result.abort_type = std::move(info.type);
  result.abort_message = std::move(info.message);
  return result;
}

// One shard: sample `shard.trial_count` trials from the shard's own RNG
// stream, then execute them in injection-index order. One golden VM walks the
// sites: it jumps to the nearest golden-pass rung at or below the next site
// when that rung lies ahead of it, steps the rest of the way, and each trial
// machine forks from it (COW pages make the fork O(mapped pages)). Each trial
// body runs inside the containment boundary: a simulator throw or budget
// violation yields a sim-abort / resource-exhausted record instead of
// escaping.
std::vector<VmTrialResult> run_vm_shard(const VmCampaignConfig& config,
                                        const ShardSpec& shard,
                                        VmPhaseCounters& counters) {
  const workloads::Workload& wl = workloads::by_name(shard.workload);
  const VmGoldenPass& golden = acquire_vm_pass(wl, counters.golden_pass);
  Rng rng(shard.seed);

  struct PlannedTrial {
    u64 index = 0;
    u32 bit = 0;
    u8 reg = 0;
    bool flip_reg = false;  // targeted-store: flip register `reg`, not the rd
    u32 flip_bits = 1;      // multi: adjacent result bits flipped together
    bool upset = true;      // rate: false = no strike; recorded masked
    std::size_t slot = 0;   // position in the shard's result vector
  };
  const FaultModelConfig& fm = config.fault_model;
  const bool default_model = is_default_fault_model(fm);
  const u32 width = config.low32_only ? 32 : 64;
  std::vector<PlannedTrial> plans(shard.trial_count);
  if (default_model) {
    for (u64 t = 0; t < shard.trial_count; ++t) {
      plans[t].slot = t;
      plans[t].bit = static_cast<u32>(rng.below(width));
      if (config.model == VmFaultModel::kResultBit) {
        plans[t].index = golden.result_indices[rng.below(golden.result_indices.size())];
      } else {
        plans[t].index = rng.below(golden.records.size());
        plans[t].reg = static_cast<u8>(rng.below(31));  // r31 is hardwired zero
      }
    }
  } else {
    // Non-default models draw from the model substream (never the primary
    // stream), with the same fixed per-trial draw order as the default path
    // (bit, then site, then model-specific extras). `rng` stays untouched, so
    // byte identity of the default model is structurally impossible to break
    // from here.
    Rng model_rng(model_stream_seed(shard.seed, static_cast<u64>(fm.model)));
    // Architectural site list per model: the rate and multi models use the
    // result-producing sites; targeted narrows to load results or store
    // points (the store-targeted flip corrupts a random register right at the
    // store, the closest architectural analogue of an LSQ upset).
    std::vector<u64> sites;
    if (fm.model == FaultModel::kTargeted) {
      for (u64 i = 0; i < golden.records.size(); ++i) {
        const VmGoldenRecord& r = golden.records[i];
        if (fm.target == "store" ? r.is_store : (r.is_load && r.wrote_reg)) {
          sites.push_back(i);
        }
      }
      if (sites.empty()) {
        throw std::invalid_argument("no " + fm.target +
                                    " sites in workload: " + wl.name);
      }
    } else {
      sites = golden.result_indices;
    }
    const double p = upset_probability(fm);
    const u32 k = std::min<u32>(std::max<u32>(fm.multi_bits, 1), width);
    for (u64 t = 0; t < shard.trial_count; ++t) {
      plans[t].slot = t;
      plans[t].bit = static_cast<u32>(model_rng.below(width));
      plans[t].index = sites[model_rng.below(sites.size())];
      switch (fm.model) {
        case FaultModel::kMultiBitAdjacent:
          plans[t].flip_bits = k;
          plans[t].bit = std::min(plans[t].bit, width - k);
          break;
        case FaultModel::kTargeted:
          if (fm.target == "store") {
            plans[t].flip_reg = true;
            plans[t].reg = static_cast<u8>(model_rng.below(31));
          }
          break;
        case FaultModel::kRateDriven:
          plans[t].upset = model_rng.chance(p);
          break;
        default:
          break;
      }
    }
  }

  std::vector<std::size_t> order(plans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plans[a].index < plans[b].index;
  });

  std::vector<VmTrialResult> trials(plans.size());
  vm::Vm golden_vm = golden.rungs.front();
  const u64 page_cap = effective_page_cap(config.trial_budget);
  for (const std::size_t oi : order) {
    const PlannedTrial& plan = plans[oi];
    if (!plan.upset) {
      // Rate-driven trial with no strike: the machine is never perturbed, so
      // the outcome is masked by construction — record it without executing.
      VmTrialResult& result = trials[plan.slot];
      result.workload = wl.name;
      result.outcome = VmOutcome::kMasked;
      result.latency = kNever;
      result.inject_index = plan.index;
      result.bit = plan.bit;
    } else {
      // The golden machine must have retired the site itself.
      const u64 target = plan.index + 1;
      const vm::Vm& rung = golden.rungs[std::min<u64>(target / kVmRungSpacing,
                                                      golden.rungs.size() - 1)];
      if (rung.retired_count() > golden_vm.retired_count()) golden_vm = rung;
      while (golden_vm.retired_count() < target) {
        golden_vm.step();
        ++counters.advance;
      }
      const auto abort = contain_trial([&] {
        vm::Vm faulty = golden_vm;
        faulty.memory().set_page_budget(page_cap);
        // Result-bit trials flip the site's destination register (plan.bit is
        // the lowest of plan.flip_bits adjacent bits); register-bit and
        // targeted-store trials flip plan.reg.
        const u8 reg = !plan.flip_reg && config.model == VmFaultModel::kResultBit
                           ? golden.records[plan.index].rd
                           : plan.reg;
        const u64 mask = (plan.flip_bits >= 64 ? ~u64{0}
                                               : (u64{1} << plan.flip_bits) - 1)
                         << plan.bit;
        faulty.set_reg(reg, faulty.reg(reg) ^ mask);
        trials[plan.slot] = monitor_trial(wl.name, golden, faulty, plan.index,
                                          plan.bit, reg_mask(reg),
                                          config.overrun_budget,
                                          config.trial_budget, counters);
      });
      if (abort) {
        trials[plan.slot] = aborted_vm_trial(wl.name, plan.index, plan.bit, *abort);
      }
    }
    if (!default_model) {
      VmTrialResult& result = trials[plan.slot];
      result.model = std::string(to_string(fm.model));
      result.extra_bits.clear();
      for (u32 i = 1; i < plan.flip_bits; ++i) {
        result.extra_bits.push_back(plan.bit + i);
      }
      result.upset = plan.upset;
    }
  }
  return trials;
}

}  // namespace

std::vector<VmTrialResult> run_vm_shard(const VmCampaignConfig& config,
                                        const ShardSpec& shard) {
  VmPhaseCounters counters;
  return run_vm_shard(config, shard, counters);
}

u64 config_hash(const VmCampaignConfig& config) {
  std::string key = "vm;";
  key += std::to_string(static_cast<int>(config.model)) + ';';
  key += std::to_string(config.trials_per_workload) + ';';
  key += std::to_string(config.low32_only ? 1 : 0) + ';';
  key += std::to_string(config.overrun_budget) + ';';
  for (const auto& name : config.workloads) key += name + ',';
  // Budgets change trial outcomes, so they are part of the identity — but
  // only non-default budgets contribute, keeping every pre-budget manifest
  // resumable.
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

VmCampaignResult run_vm_campaign(const VmCampaignConfig& config,
                                 const CampaignRunOptions& options,
                                 CampaignTelemetry* telemetry) {
  validate_fault_model(config.fault_model, /*vm_campaign=*/true);
  if (!is_default_fault_model(config.fault_model) &&
      config.model == VmFaultModel::kRegisterBit) {
    throw std::invalid_argument(
        "non-default fault models require the result-bit vm model");
  }
  const auto names = selected_workload_names(config.workloads);
  const auto shards = plan_shards(config.seed, names, config.trials_per_workload,
                                  options.shard_trials);

  CampaignManifest identity;
  identity.kind = "vm";
  identity.config_hash = config_hash(config);
  identity.seed = config.seed;
  identity.shard_trials =
      options.shard_trials == 0 ? kDefaultShardTrials : options.shard_trials;

  // Each shard publishes only its own counters when it finishes. It counts
  // into a local copy: neighbouring shards' slots share cache lines.
  std::vector<VmPhaseCounters> shard_counters(shards.size());

  VmCampaignResult result;
  result.trials = run_sharded_campaign<VmTrialResult>(
      shards, std::move(identity), options,
      [&](const ShardSpec& shard) {
        VmPhaseCounters counters;
        auto trials = run_vm_shard(config, shard, counters);
        shard_counters.at(shard.index) = counters;
        return trials;
      },
      vm_trial_to_jsonl, vm_trial_from_jsonl,
      [](const VmTrialResult& trial) { return std::string(to_string(trial.outcome)); },
      telemetry);
  if (telemetry != nullptr) {
    telemetry->vm = {};
    for (const auto& counters : shard_counters) telemetry->vm += counters;
  }
  return result;
}

VmCampaignResult run_vm_campaign(const VmCampaignConfig& config) {
  return run_vm_campaign(config, CampaignRunOptions{});
}

std::size_t VmCampaignResult::count(VmOutcome outcome, u64 max_latency) const {
  return static_cast<std::size_t>(std::count_if(
      trials.begin(), trials.end(), [&](const VmTrialResult& t) {
        return t.outcome == outcome && t.latency <= max_latency;
      }));
}

double VmCampaignResult::fraction(VmOutcome outcome, u64 max_latency) const {
  if (trials.empty()) return 0.0;
  return static_cast<double>(count(outcome, max_latency)) / trials.size();
}

}  // namespace restore::faultinject
