// Architectural (VM-level) fault-injection campaign — the paper's §3.1 study
// (Figure 2). The fault model is "a single bit flip in the result of a
// randomly chosen instruction"; the trial watches the subsequent retirement
// stream for symptoms and classifies per Table 1.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faultinject/convergence.hpp"
#include "faultinject/fault_model.hpp"
#include "faultinject/outcome.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {

// Architectural fault models.
enum class VmFaultModel : u8 {
  // The paper's §3.1 model: flip one bit of a randomly chosen instruction's
  // result, right after it is produced.
  kResultBit,
  // The related-work model (Gu et al., rePLay §6): flip one bit of a randomly
  // chosen *live architectural register* at a random point in time,
  // independent of which instruction produced it.
  kRegisterBit,
};

struct VmCampaignConfig {
  u64 seed = 0x5EED;
  VmFaultModel model = VmFaultModel::kResultBit;
  // Trials per workload (paper: ~1000).
  u64 trials_per_workload = 150;
  // Restrict flips to the low 32 bits of each 64-bit result (the §3.1
  // follow-up study probing virtual-address-space sensitivity).
  bool low32_only = false;
  // Extra instructions the faulty run may execute beyond the golden length
  // before the trial is cut off (runaway protection).
  u64 overrun_budget = 50'000;
  // Workload subset; empty = all seven.
  std::vector<std::string> workloads;
  // Deterministic per-trial resource budget (containment layer). The default
  // (all zero = unlimited) keeps the campaign identity hash — and therefore
  // resume compatibility — of pre-budget configs unchanged.
  ResourceBudget trial_budget;
  // Expanded fault model (fault_model.hpp). Only multi/targeted/rate make
  // sense architecturally (burst and SET need microarchitectural state and
  // are rejected by validate_fault_model), and a non-default model requires
  // `model == kResultBit`. The default keeps the campaign byte-identical to
  // its pre-fault-model behaviour; non-default models draw their plans from a
  // per-shard substream and contribute to config_hash.
  FaultModelConfig fault_model;
};

struct VmTrialResult {
  std::string workload;
  VmOutcome outcome = VmOutcome::kMasked;
  // Instructions from injection to the first symptom of the winning
  // category; kNever for masked (and for `register` when the corruption is
  // only visible in the final register file).
  u64 latency = kNever;
  u64 inject_index = 0;  // dynamic instruction index of the corrupted result
  u32 bit = 0;           // flipped bit position
  // Containment record, set only for sim-abort / resource-exhausted trials:
  // the deterministic exception-type tag and its message.
  std::string abort_type;
  std::string abort_message;

  // Fault-model record, populated only for non-default models so default
  // traces keep their historical bytes: the model token, every extra flipped
  // bit position beyond `bit` (multi-bit upsets), and — for the rate-driven
  // model — whether the trial upset at all (false = recorded masked without
  // executing the trial machine).
  std::string model;
  std::vector<u64> extra_bits;
  bool upset = true;
};

struct VmCampaignResult {
  std::vector<VmTrialResult> trials;

  // Fraction of trials in `outcome` with latency <= max_latency.
  double fraction(VmOutcome outcome, u64 max_latency = kNever) const;
  std::size_t count(VmOutcome outcome, u64 max_latency = kNever) const;
};

// Identity hash over every config field (campaign kind included); a resume
// manifest written under one hash refuses to continue under another.
u64 config_hash(const VmCampaignConfig& config);

// Run the campaign. Deterministic for a given config (and, for the
// orchestrated overload, a given shard size): trials are sampled from
// independent per-shard RNG streams, so the result is byte-identical for any
// worker count and for interrupted-then-resumed runs.
VmCampaignResult run_vm_campaign(const VmCampaignConfig& config);

struct CampaignRunOptions;  // orchestrator.hpp
struct CampaignTelemetry;
struct ShardSpec;
VmCampaignResult run_vm_campaign(const VmCampaignConfig& config,
                                 const CampaignRunOptions& options,
                                 CampaignTelemetry* telemetry = nullptr);

// Run one planned shard (exposed for tests and custom supervisors): samples
// the shard's trials from its own RNG stream and executes them inside the
// trial containment boundary, so every returned record has a classified
// outcome even when the simulator throws mid-trial.
std::vector<VmTrialResult> run_vm_shard(const VmCampaignConfig& config,
                                        const ShardSpec& shard);

// One instruction of a workload's clean run, reduced to what the trial
// monitor and compaction read.
struct VmGoldenRecord {
  u64 pc = 0;
  u64 addr = 0;   // load or store address
  u64 value = 0;  // rd_value, or store_data for a store
  u32 insn = 0;
  u8 rd = isa::kZeroReg;
  bool wrote_reg = false;
  bool is_store = false;
  bool is_load = false;
};
static_assert(sizeof(VmGoldenRecord) == 32);

// Instructions between two rungs of a VM golden pass. A fixed constant, not
// an option.
inline constexpr u64 kVmRungSpacing = 1024;

// A workload's VM golden pass: one clean run, the only golden simulation the
// campaign shares between shards. Shards start each injection site from the
// nearest rung at or below it, and trials compare their retire stream with
// `records`. Immutable once published, so any number of threads may copy
// rungs concurrently (vm/memory.hpp's fork-from-a-still-snapshot contract).
struct VmGoldenPass {
  std::vector<VmGoldenRecord> records;  // records[i]: dynamic instruction i
  std::vector<u64> result_indices;      // indices of register-writing insns
  // Architectural register file at the end of the clean run (residual-
  // corruption comparison; avoids re-running a reference VM per trial).
  std::array<u64, isa::kNumArchRegs> final_regs{};
  bool halted = false;  // the clean run ended in HALT, not in a fault
  // rungs[i] is the clean machine after i * kVmRungSpacing instructions.
  std::vector<vm::Vm> rungs;
};

// The golden pass of `workload`, computed by the first caller and kept for
// the life of the process. Callers needing another workload's pass never
// wait for this one. Throws for an unknown workload.
const VmGoldenPass& vm_golden_pass(const std::string& workload);

// Run a single trial (exposed for tests): inject into dynamic instruction
// `inject_index` (must produce a register result), flipping `bit`.
VmTrialResult run_vm_trial(const workloads::Workload& workload, u64 inject_index,
                           u32 bit, u64 overrun_budget = 50'000);

// Register-model single trial: after dynamic instruction `inject_index`
// executes, flip bit `bit` of architectural register `reg`.
VmTrialResult run_vm_register_trial(const workloads::Workload& workload,
                                    u64 inject_index, u8 reg, u32 bit,
                                    u64 overrun_budget = 50'000);

}  // namespace restore::faultinject
