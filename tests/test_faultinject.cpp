// Tests for the fault-injection framework: VM-level trials (Figure 2
// machinery), microarchitectural trials (Figures 4-6 machinery), and the
// outcome classifier.
#include <gtest/gtest.h>

#include "faultinject/classify.hpp"
#include "isa/assembler.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {
namespace {

// ---- outcome taxonomy ----

TEST(Outcome, StringsAndPredicates) {
  EXPECT_EQ(to_string(VmOutcome::kMemAddr), "mem-addr");
  EXPECT_EQ(to_string(UarchOutcome::kSdc), "sdc");
  EXPECT_TRUE(is_failure(UarchOutcome::kLatent));
  EXPECT_TRUE(is_failure(UarchOutcome::kDeadlock));
  EXPECT_FALSE(is_failure(UarchOutcome::kMasked));
  EXPECT_FALSE(is_failure(UarchOutcome::kOther));
  EXPECT_TRUE(is_covered(UarchOutcome::kException));
  EXPECT_TRUE(is_covered(UarchOutcome::kCfv));
  EXPECT_FALSE(is_covered(UarchOutcome::kSdc));
}

// ---- VM campaign ----

TEST(VmCampaign, DeterministicForSeed) {
  VmCampaignConfig config;
  config.trials_per_workload = 20;
  config.workloads = {"gap"};
  const auto a = run_vm_campaign(config);
  const auto b = run_vm_campaign(config);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].outcome, b.trials[i].outcome);
    EXPECT_EQ(a.trials[i].latency, b.trials[i].latency);
  }
}

TEST(VmCampaign, FlippingDeadResultIsMasked) {
  // r1's value is immediately overwritten: the flip cannot matter.
  const auto program = isa::assemble(
      "main:\n"
      "  li r1, 5\n"      // inject here: result dead
      "  li r1, 7\n"
      "  out r1\n"
      "  li r9, 1000\n"
      "w: addi r9, r9, -1\n"
      "  bnez r9, w\n"
      "  halt\n");
  workloads::Workload wl;
  wl.name = "dead-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 0, 3);
  EXPECT_EQ(result.outcome, VmOutcome::kMasked);
}

TEST(VmCampaign, FlippingPointerHighBitRaisesException) {
  // A pointer with a flipped high bit dereferences an unmapped page.
  const auto program = isa::assemble(
      "main:\n"
      "  la r1, data\n"   // 3 insns (ori/slli/ori); last writes the pointer
      "  ld r2, 0(r1)\n"
      "  out r2\n"
      "  halt\n"
      ".data\n"
      ".align 8\n"
      "data: .word64 42\n");
  workloads::Workload wl;
  wl.name = "ptr-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 2, 45);  // flip bit 45 of the address
  EXPECT_EQ(result.outcome, VmOutcome::kException);
  EXPECT_EQ(result.latency, 1u);  // next instruction faults
}

TEST(VmCampaign, FlippingBranchOperandCausesCfv) {
  const auto program = isa::assemble(
      "main:\n"
      "  li r1, 0\n"            // inject: flip bit 0 -> r1 = 1
      "  beqz r1, iszero\n"     // now falls through instead of branching
      "  li r2, 111\n"
      "  out r2\n"
      "  halt\n"
      "iszero:\n"
      "  li r2, 222\n"
      "  out r2\n"
      "  halt\n");
  workloads::Workload wl;
  wl.name = "cfv-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 0, 0);
  EXPECT_EQ(result.outcome, VmOutcome::kCfv);
  EXPECT_EQ(result.latency, 2u);  // divergence visible at the branch target
}

TEST(VmCampaign, JumpThroughOverwrittenTargetRegisterIsCfv) {
  // The jalr overwrites its corrupted target register with the golden link
  // value, so right after it every register and all memory equal golden's;
  // only the next pc differs. The convergence shortcut must not stop here.
  const auto program = isa::assemble(
      "main:\n"
      "  la r1, target\n"  // 3 insns; the last writes the jump target
      "  jalr r1, r1\n"
      "target:\n"
      "  li r2, 111\n"
      "  out r2\n"
      "  halt\n");
  workloads::Workload wl;
  wl.name = "jalr-link-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 2, 2);
  EXPECT_EQ(result.outcome, VmOutcome::kCfv);
  EXPECT_EQ(result.latency, 2u);  // divergence visible at the jump target
}

TEST(VmCampaign, DeadFlipStillMeetsTheCleanRunsFault) {
  // The flipped result is dead, so the trial equals golden again right after
  // the next instruction; but this clean run ends in a fault, which the
  // trial must still raise.
  const auto program = isa::assemble(
      "main:\n"
      "  li r1, 5\n"  // inject here: result dead
      "  li r1, 7\n"
      "  li r3, 0\n"
      "  ld r2, 0(r3)\n"  // page 0 is unmapped
      "  halt\n");
  workloads::Workload wl;
  wl.name = "faulting-golden-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 0, 3);
  EXPECT_EQ(result.outcome, VmOutcome::kException);
  EXPECT_EQ(result.latency, 3u);
}

TEST(VmCampaign, FlippingStoreDataIsMemData) {
  const auto program = isa::assemble(
      "main:\n"
      "  li r1, 0x55\n"   // inject into this result
      "  sd r1, 0(sp)\n"
      "  li r9, 50\n"
      "w: addi r9, r9, -1\n"
      "  bnez r9, w\n"
      "  halt\n");
  workloads::Workload wl;
  wl.name = "memdata-test";
  wl.program = program;
  const auto result = run_vm_trial(wl, 0, 1);
  EXPECT_EQ(result.outcome, VmOutcome::kMemData);
}

TEST(VmCampaign, ExceptionsDominateAndArriveQuickly) {
  // The paper's central §3.1 finding: most failing faults raise an exception
  // or cfv within ~100 instructions.
  VmCampaignConfig config;
  config.trials_per_workload = 60;
  const auto result = run_vm_campaign(config);
  ASSERT_EQ(result.trials.size(), 7u * 60u);

  const double masked = result.fraction(VmOutcome::kMasked);
  const double exc_100 = result.fraction(VmOutcome::kException, 100);
  const double exc_all = result.fraction(VmOutcome::kException);
  const double cfv_100 = result.fraction(VmOutcome::kCfv, 100);

  EXPECT_GT(masked, 0.05);
  EXPECT_GT(exc_all, 0.15) << "exceptions should be the dominant symptom";
  EXPECT_GT(exc_100, exc_all * 0.6) << "most exceptions arrive within 100 insns";
  EXPECT_GT(cfv_100, 0.02);
  // Sanity: every trial is classified exactly once.
  double total = 0;
  for (auto o : {VmOutcome::kMasked, VmOutcome::kException, VmOutcome::kCfv,
                 VmOutcome::kMemAddr, VmOutcome::kMemData, VmOutcome::kRegister}) {
    total += result.fraction(o);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(VmCampaign, Low32StudyShrinksExceptions) {
  // §3.1 follow-up: restricting flips to the low 32 bits reduces the
  // exception share (fewer wild pointers) in favour of cfv/mem categories.
  VmCampaignConfig full;
  full.trials_per_workload = 60;
  VmCampaignConfig low = full;
  low.low32_only = true;
  const auto full_result = run_vm_campaign(full);
  const auto low_result = run_vm_campaign(low);
  EXPECT_LT(low_result.fraction(VmOutcome::kException),
            full_result.fraction(VmOutcome::kException));
}

TEST(VmCampaign, RegisterModelClassifies) {
  const auto& wl = workloads::by_name("vortex");
  // Flip a high bit of a hot pointer-carrying register mid-run: with high
  // probability the next dereference faults or control flow diverges.
  const auto result = run_vm_register_trial(wl, 2'000, 4 /*a2*/, 45);
  EXPECT_NE(result.outcome, VmOutcome::kMasked);
}

TEST(VmCampaign, RegisterModelCampaignRuns) {
  VmCampaignConfig config;
  config.model = VmFaultModel::kRegisterBit;
  config.trials_per_workload = 30;
  config.workloads = {"gzip", "mcf"};
  const auto result = run_vm_campaign(config);
  ASSERT_EQ(result.trials.size(), 60u);
  double total = 0;
  for (auto o : {VmOutcome::kMasked, VmOutcome::kException, VmOutcome::kCfv,
                 VmOutcome::kMemAddr, VmOutcome::kMemData, VmOutcome::kRegister}) {
    total += result.fraction(o);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Register flips at random times hit dead registers often: plenty masked.
  EXPECT_GT(result.fraction(VmOutcome::kMasked), 0.2);
}

TEST(VmCampaign, RejectsInvalidInjectionSite) {
  const auto& wl = workloads::by_name("gap");
  EXPECT_THROW(run_vm_trial(wl, ~u64{0} / 2, 0), std::invalid_argument);
}

// ---- microarchitectural campaign ----

TEST(UarchCampaign, DeterministicForSeed) {
  UarchCampaignConfig config;
  config.trials_per_workload = 16;
  config.workloads = {"mcf"};
  const auto a = run_uarch_campaign(config);
  const auto b = run_uarch_campaign(config);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].field_name, b.trials[i].field_name);
    EXPECT_EQ(a.trials[i].lat_exception, b.trials[i].lat_exception);
    EXPECT_EQ(a.trials[i].arch_corrupt_at_end, b.trials[i].arch_corrupt_at_end);
  }
}

TEST(UarchCampaign, LatchOnlyRestrictsFields) {
  UarchCampaignConfig config;
  config.trials_per_workload = 24;
  config.latches_only = true;
  config.workloads = {"gzip"};
  const auto result = run_uarch_campaign(config);
  const auto& reg = uarch::StateRegistry::instance();
  for (const auto& trial : result.trials) {
    EXPECT_EQ(reg.field(trial.bit).storage, uarch::StorageClass::kLatch)
        << trial.field_name;
  }
  EXPECT_EQ(result.eligible_bits,
            reg.total_bits(uarch::StorageClass::kLatch));
}

TEST(UarchCampaign, MajorityOfFaultsAreMasked) {
  UarchCampaignConfig config;
  config.trials_per_workload = 60;
  const auto result = run_uarch_campaign(config);
  const auto shares = category_shares(result.trials, DetectorModel::kPerfectCfv,
                                      ProtectionModel::kBaseline, 100);
  double masked_like = 0.0;
  for (const auto& [category, share] : shares) {
    if (category == UarchOutcome::kMasked || category == UarchOutcome::kOther) {
      masked_like += share;
    }
  }
  // Paper: ~92-93% of injected faults do not cause failure.
  EXPECT_GT(masked_like, 0.75);
  EXPECT_GT(failure_fraction(result.trials), 0.03);
  EXPECT_LT(failure_fraction(result.trials), 0.25);
}

TEST(UarchCampaign, CoverageImprovesWithInterval) {
  UarchCampaignConfig config;
  config.trials_per_workload = 60;
  const auto result = run_uarch_campaign(config);
  const double uncovered_25 = uncovered_fraction(
      result.trials, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline, 25);
  const double uncovered_2000 = uncovered_fraction(
      result.trials, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline, 2000);
  EXPECT_LE(uncovered_2000, uncovered_25);
  // Figures 4-6 shape: a longer rollback reach never uncovers a failure, for
  // every detector and protection model and every step of the sweep.
  const auto sweep = checkpoint_interval_sweep();
  for (const auto detector : {DetectorModel::kPerfectCfv, DetectorModel::kJrsConfidence,
                              DetectorModel::kJrsPlusIllegalFlow}) {
    for (const auto protection : {ProtectionModel::kBaseline, ProtectionModel::kLhf}) {
      for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_LE(uncovered_fraction(result.trials, detector, protection, sweep[i]),
                  uncovered_fraction(result.trials, detector, protection, sweep[i - 1]))
            << "detector " << static_cast<int>(detector) << ", protection "
            << static_cast<int>(protection) << ", interval " << sweep[i];
      }
    }
  }
}

TEST(UarchCampaign, JrsDetectorCoversNoMoreThanPerfectPlusRollbacks) {
  UarchCampaignConfig config;
  config.trials_per_workload = 40;
  const auto result = run_uarch_campaign(config);
  // The JRS-gated detector can never have more *exception/deadlock* coverage
  // and the overall MTBF orderings must hold: lhf+ReStore >= ReStore alone.
  const double m_restore = mtbf_improvement(result.trials, DetectorModel::kJrsConfidence,
                                            ProtectionModel::kBaseline, 100);
  const double m_lhf = mtbf_improvement(result.trials, DetectorModel::kJrsConfidence,
                                        ProtectionModel::kLhf, 100);
  EXPECT_GE(m_restore, 1.0);
  EXPECT_GE(m_lhf, m_restore);
  // The headline ordering (paper §5.2-5.3): baseline > ReStore > lhf >
  // lhf+ReStore failure probability at the 100-insn interval.
  const double base = failure_fraction(result.trials);
  const double restore = uncovered_fraction(result.trials, DetectorModel::kJrsConfidence,
                                            ProtectionModel::kBaseline, 100);
  const double lhf = failure_fraction(result.trials, ProtectionModel::kLhf);
  const double lhf_restore = uncovered_fraction(
      result.trials, DetectorModel::kJrsConfidence, ProtectionModel::kLhf, 100);
  EXPECT_GT(base, restore);
  EXPECT_GT(restore, lhf);
  EXPECT_GT(lhf, lhf_restore);
}

// ---- classifier unit behaviour ----

UarchTrialRecord failing_trial() {
  UarchTrialRecord trial;
  trial.arch_corrupt_at_end = true;
  trial.trace_diverged = true;
  return trial;
}

TEST(Classifier, PrecedenceDeadlockFirst) {
  UarchTrialRecord trial = failing_trial();
  trial.lat_deadlock = 500;
  trial.lat_exception = 10;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kDeadlock);
}

TEST(Classifier, ExceptionCoverageRespectsInterval) {
  UarchTrialRecord trial = failing_trial();
  trial.lat_exception = 150;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kSdc);
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 200),
            UarchOutcome::kException);
}

TEST(Classifier, DetectorModelSelectsCfvLatency) {
  UarchTrialRecord trial = failing_trial();
  trial.lat_cfv = 50;
  trial.lat_hiconf = 400;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kCfv);
  EXPECT_EQ(classify_trial(trial, DetectorModel::kJrsConfidence,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kSdc);
  EXPECT_EQ(classify_trial(trial, DetectorModel::kJrsConfidence,
                           ProtectionModel::kBaseline, 500),
            UarchOutcome::kCfv);
}

TEST(Classifier, LhfAbsorbsProtectedFaults) {
  UarchTrialRecord trial = failing_trial();
  trial.protection = uarch::LhfProtection::kEcc;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kLhf, 100),
            UarchOutcome::kOther);
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kSdc);
}

TEST(Classifier, HealedDivergenceIsMasked) {
  UarchTrialRecord trial;
  trial.trace_diverged = true;  // wrong value retired...
  trial.arch_corrupt_at_end = false;  // ...but overwritten before the end
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kMasked);
}

TEST(Classifier, LatentVsOtherByLiveness) {
  UarchTrialRecord trial;
  trial.uarch_state_equal = false;
  trial.live_state_diff = true;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kLatent);
  trial.live_state_diff = false;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kOther);
  trial.uarch_state_equal = true;
  EXPECT_EQ(classify_trial(trial, DetectorModel::kPerfectCfv,
                           ProtectionModel::kBaseline, 100),
            UarchOutcome::kMasked);
}

TEST(Classifier, FailureRateExcludesAbortedTrials) {
  // Three failing trials (one lhf-protected), one masked trial and one
  // aborted trial: the aborted one is excluded from numerator and
  // denominator alike.
  std::vector<UarchTrialRecord> trials(3, failing_trial());
  trials[2].protection = uarch::LhfProtection::kParity;
  trials.emplace_back();
  trials[3].uarch_state_equal = true;
  trials.push_back(failing_trial());
  trials[4].abort_type = "std::runtime_error";

  const auto expect_rate = [&](ProtectionModel protection, std::size_t failing) {
    const ProportionCi rate = failure_rate(trials, protection);
    const ProportionCi want = wilson_interval(failing, 4);
    EXPECT_DOUBLE_EQ(rate.estimate, want.estimate);
    EXPECT_DOUBLE_EQ(rate.margin(), want.margin());
    EXPECT_DOUBLE_EQ(failure_fraction(trials, protection), want.estimate);
  };
  expect_rate(ProtectionModel::kBaseline, 3);
  expect_rate(ProtectionModel::kLhf, 2);
  EXPECT_DOUBLE_EQ(failure_fraction(trials), 0.75);
  EXPECT_EQ(failure_rate({}).estimate, 0.0);
}

TEST(Classifier, SharesSumToOne) {
  UarchCampaignConfig config;
  config.trials_per_workload = 30;
  config.workloads = {"bzip2", "parser"};
  const auto result = run_uarch_campaign(config);
  for (const u64 interval : checkpoint_interval_sweep()) {
    const auto shares = category_shares(result.trials, DetectorModel::kJrsConfidence,
                                        ProtectionModel::kBaseline, interval);
    double total = 0;
    for (const auto& [category, share] : shares) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9) << interval;
  }
}

}  // namespace
}  // namespace restore::faultinject
