// Equivalence regression for the trial inner-loop fast path: the convergence
// shortcut is a pure optimisation, so a fixed-seed campaign must produce
// byte-identical trial lists and JSONL traces with the shortcut on and off, at
// any worker count, for both the uarch and the VM campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "trial_lines.hpp"
#include "vm/vm.hpp"

namespace restore::faultinject {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_trace(const std::string& tag) {
  return testing::TempDir() + "restore_trial_speed_" + tag + ".jsonl";
}

// Turns the process-wide shortcut back on when a test exits, so test order
// cannot leak the setting.
class TrialSpeedTest : public testing::Test {
 protected:
  void TearDown() override { set_convergence_shortcut(true); }
};

struct CampaignRun {
  std::string trials;
  std::string trace;
  std::size_t halted = 0;  // uarch: trials whose window reached program end
  u64 converged = 0;       // VM: trials the convergence shortcut stopped
  std::size_t exhausted = 0;  // VM: resource-exhausted trials
};

CampaignRunOptions run_options(std::size_t workers, u64 shard_trials,
                               const std::string& tag) {
  CampaignRunOptions opts;
  opts.workers = workers;
  opts.shard_trials = shard_trials;
  opts.out_jsonl = temp_trace(tag);
  return opts;
}

CampaignRun run_campaign(const UarchCampaignConfig& config, std::size_t workers,
                         const std::string& tag) {
  const CampaignRunOptions opts = run_options(workers, 4, tag);
  const auto result = run_uarch_campaign(config, opts);
  EXPECT_FALSE(result.trials.empty());
  CampaignRun run{trial_lines(result.trials), slurp(opts.out_jsonl)};
  for (const auto& trial : result.trials) {
    if (trial.end_status == uarch::Core::Status::kHalted) ++run.halted;
  }
  return run;
}

CampaignRun run_campaign(const VmCampaignConfig& config, std::size_t workers,
                         const std::string& tag) {
  const CampaignRunOptions opts = run_options(workers, 8, tag);
  CampaignTelemetry telemetry;
  const auto result = run_vm_campaign(config, opts, &telemetry);
  EXPECT_FALSE(result.trials.empty());
  CampaignRun run{trial_lines(result.trials), slurp(opts.out_jsonl)};
  run.converged = telemetry.vm.converged;
  run.exhausted = result.count(VmOutcome::kResourceExhausted);
  return run;
}

// Runs `config` with the shortcut off at 0 workers as the reference, then
// off and on at 0, 2 and 8 workers; every run must match the reference.
// Returns the reference run and, in `on_run`, the last run with the shortcut
// on.
template <class Config>
CampaignRun expect_fast_paths_identical(const Config& config, const std::string& tag,
                                        CampaignRun* on_run = nullptr) {
  set_convergence_shortcut(false);
  const CampaignRun reference = run_campaign(config, 0, tag + "_off_w0");

  int run = 0;
  for (const std::size_t workers : {0u, 2u, 8u}) {
    set_convergence_shortcut(false);
    const CampaignRun off = run_campaign(
        config, workers, tag + "_off_" + std::to_string(run));
    set_convergence_shortcut(true);
    const CampaignRun on = run_campaign(
        config, workers, tag + "_on_" + std::to_string(run));
    ++run;
    EXPECT_EQ(reference.trials, off.trials) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trace, off.trace) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trials, on.trials) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trace, on.trace) << tag << " workers=" << workers;
    EXPECT_EQ(off.converged, 0u) << tag << " workers=" << workers;
    if (on_run != nullptr) *on_run = on;
  }
  return reference;
}

TEST_F(TrialSpeedTest, UarchFastPathsAreByteIdenticalAcrossWorkerCounts) {
  UarchCampaignConfig config;
  config.seed = 0x5EED;
  config.trials_per_workload = 12;
  config.workloads = {"gzip", "mcf"};
  // Short window keeps the reference (shortcut off) runs fast; the
  // convergence shortcut still fires via the dense early checkpoints.
  config.monitor_cycles = 2'000;
  config.catchup_cycles = 2'000;
  expect_fast_paths_identical(config, "uarch");

  // The default 10k-cycle window: on gzip and mcf some windows cross program
  // end, so converged trials take golden's end status from the golden pass.
  config.monitor_cycles = UarchCampaignConfig{}.monitor_cycles;
  config.catchup_cycles = UarchCampaignConfig{}.catchup_cycles;
  EXPECT_GT(expect_fast_paths_identical(config, "uarch_10k").halted, 0u);
}

// Budget-limited trials must bypass the convergence shortcut (their abort
// points depend on executing real cycles) and still match the reference.
TEST_F(TrialSpeedTest, BudgetedTrialsMatchWithFastPathsOn) {
  UarchCampaignConfig config;
  config.seed = 0x5EF0;
  config.trials_per_workload = 8;
  config.workloads = {"gzip"};
  config.monitor_cycles = 1'000;
  config.catchup_cycles = 1'000;
  config.trial_budget.max_cycles = 1'500;

  set_convergence_shortcut(false);
  const CampaignRun reference = run_campaign(config, 0, "budget_off");

  set_convergence_shortcut(true);
  const CampaignRun fast = run_campaign(config, 2, "budget_on");

  EXPECT_EQ(reference.trials, fast.trials);
  EXPECT_EQ(reference.trace, fast.trace);
}

// The VM shortcut seeds its dirty-register mask from the flipped register:
// the result register for result-bit and multi-bit trials, plan.reg for
// register-bit and targeted-store trials. Each seeding must be invisible.
TEST_F(TrialSpeedTest, VmFastPathIsByteIdenticalAcrossWorkerCounts) {
  std::vector<std::pair<std::string, VmCampaignConfig>> cases(4);
  cases[0].first = "vm_result";
  cases[1].first = "vm_register";
  cases[1].second.model = VmFaultModel::kRegisterBit;
  cases[2].first = "vm_multi";
  cases[2].second.fault_model.model = FaultModel::kMultiBitAdjacent;
  cases[2].second.fault_model.multi_bits = 3;
  cases[3].first = "vm_store";
  cases[3].second.fault_model.model = FaultModel::kTargeted;
  cases[3].second.fault_model.target = "store";
  for (auto& [tag, config] : cases) {
    config.seed = 0x5EF1;
    config.trials_per_workload = 16;
    config.workloads = {"gzip", "mcf"};
    CampaignRun on;
    expect_fast_paths_identical(config, tag, &on);
    EXPECT_GT(on.converged, 0u) << tag;
  }
}

// A VM trial with a retired-instruction budget or a page cap runs to its
// end: whether it exhausts the budget depends on executing the golden tail
// the shortcut would skip. The page cap never bites (a VM trial maps no
// pages after load), but it alone must still switch the shortcut off.
TEST_F(TrialSpeedTest, VmBudgetedTrialsMatchWithFastPathOn) {
  VmCampaignConfig config;
  config.seed = 0x5EF2;
  config.trials_per_workload = 24;
  config.workloads = {"gzip", "mcf"};
  config.trial_budget.max_retired = 4'000;  // below most trials' golden tail
  config.trial_budget.max_pages = 64;
  CampaignRun on;
  const CampaignRun reference = expect_fast_paths_identical(config, "vm_budget", &on);
  EXPECT_GT(reference.exhausted, 0u);
  EXPECT_EQ(on.converged, 0u);

  config.trial_budget.max_retired = 0;
  expect_fast_paths_identical(config, "vm_pages", &on);
  EXPECT_EQ(on.converged, 0u);
}

// Test-local reference for the VM monitor: re-executes the trial from
// program start and watches the whole run against the full golden retire
// stream (vm::Retired, not the golden pass's compact records), classifying
// with Table 1 precedence. No rungs, no dirty-register mask, no shortcut.
struct ReferenceOutcome {
  VmOutcome outcome = VmOutcome::kMasked;
  u64 latency = kNever;
};

ReferenceOutcome reference_trial(const workloads::Workload& workload,
                                 const std::vector<vm::Retired>& golden,
                                 const vm::Vm& golden_end, u64 inject_index,
                                 u64 flip_mask, u64 overrun_budget) {
  vm::Vm vm(workload.program);
  for (u64 i = 0; i <= inject_index; ++i) vm.step();
  const vm::Retired& site = golden[inject_index];
  vm.set_reg(site.rd, site.rd_value ^ flip_mask);

  enum Symptom { kException, kCfv, kMemAddr, kMemData, kRegister, kSymptoms };
  std::array<u64, kSymptoms> latency;
  latency.fill(kNever);
  const auto fire = [&](Symptom s, u64 at) { latency[s] = std::min(latency[s], at); };
  bool aligned = true;
  u64 executed = 0;
  const u64 limit = golden.size() - inject_index + overrun_budget;
  while (executed < limit) {
    const auto rec = vm.step();
    if (!rec) break;
    ++executed;
    if (rec->fault != isa::ExceptionKind::kNone) {
      fire(kException, executed);
      break;
    }
    const u64 index = inject_index + executed;
    if (aligned && index < golden.size()) {
      const vm::Retired& ref = golden[index];
      if (rec->pc != ref.pc) {
        aligned = false;
        fire(kCfv, executed);
      } else {
        if ((rec->is_store && rec->store_addr != ref.store_addr) ||
            (rec->is_load && rec->load_addr != ref.load_addr)) {
          fire(kMemAddr, executed);
        } else if (rec->is_store && rec->store_data != ref.store_data) {
          fire(kMemData, executed);
        }
        if (rec->wrote_reg && rec->rd_value != ref.rd_value) fire(kRegister, executed);
      }
    }
    if (rec->halted) break;
  }

  constexpr VmOutcome kOutcomes[kSymptoms] = {
      VmOutcome::kException, VmOutcome::kCfv, VmOutcome::kMemAddr,
      VmOutcome::kMemData, VmOutcome::kRegister};
  for (int s = 0; s < kSymptoms; ++s) {
    if (latency[s] != kNever) return {kOutcomes[s], latency[s]};
  }
  bool residual = vm.status() != vm::Vm::Status::kHalted;
  for (u8 r = 0; r < isa::kNumArchRegs; ++r) {
    if (vm.reg(r) != golden_end.reg(r)) residual = true;
  }
  return {residual ? VmOutcome::kRegister : VmOutcome::kMasked, kNever};
}

TEST_F(TrialSpeedTest, VmTrialsMatchReferenceMonitor) {
  for (const u32 multi_bits : {1u, 3u}) {
    VmCampaignConfig config;
    config.seed = 0x5EF3;
    config.trials_per_workload = 40;
    config.workloads = {"gzip", "mcf", "gcc"};
    if (multi_bits > 1) {
      config.fault_model.model = FaultModel::kMultiBitAdjacent;
      config.fault_model.multi_bits = multi_bits;
    }
    CampaignRunOptions opts;
    opts.workers = 2;
    opts.shard_trials = 8;
    CampaignTelemetry telemetry;
    const auto result = run_vm_campaign(config, opts, &telemetry);
    ASSERT_EQ(result.trials.size(), 120u);
    EXPECT_GT(telemetry.vm.converged, 0u);

    for (const std::string& name : config.workloads) {
      const workloads::Workload& workload = workloads::by_name(name);
      std::vector<vm::Retired> golden;
      vm::Vm golden_end(workload.program);
      while (const auto rec = golden_end.step()) golden.push_back(*rec);
      for (const auto& trial : result.trials) {
        if (trial.workload != name) continue;
        u64 flip_mask = u64{1} << trial.bit;
        for (const u64 extra : trial.extra_bits) flip_mask |= u64{1} << extra;
        const ReferenceOutcome expected =
            reference_trial(workload, golden, golden_end, trial.inject_index,
                            flip_mask, config.overrun_budget);
        EXPECT_EQ(to_string(expected.outcome), to_string(trial.outcome))
            << name << " index=" << trial.inject_index << " bit=" << trial.bit;
        EXPECT_EQ(expected.latency, trial.latency)
            << name << " index=" << trial.inject_index << " bit=" << trial.bit;
      }
    }
  }
}

}  // namespace
}  // namespace restore::faultinject
