// Property/fuzz pinning of the expanded fault-model space (fault_model.hpp).
//
// The properties pinned here, per model and per structure class:
//   * every sampled injection plan respects its model's invariants — multi-bit
//     plans flip exactly k physically adjacent bits of one entry, burst plans
//     hit the same bit column across consecutive entries of one SRAM array,
//     SETs land on latches and are transient, targeted plans stay inside the
//     load/store-queue structures, rate-driven plans upset with the
//     operating-point probability;
//   * fuzzed injections of every model always classify into a valid outcome
//     and never escape the trial containment boundary (the `sanitize` label
//     re-runs this binary under ASan/UBSan);
//   * a SET that lands on a latch the pipeline does not overwrite reverts
//     after one monitored cycle (the glitch clears, the upset does not stick);
//   * plan sampling is a pure function of the model substream (byte identity),
//     and substreams are independent of the primary shard stream;
//   * FIT-weighted campaign allocation is integral, exact, proportional and
//     deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/fault_model.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "reliability/fit.hpp"
#include "uarch/core.hpp"
#include "uarch/state_registry.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {
namespace {

using uarch::BitRef;
using uarch::StateRegistry;
using uarch::StorageClass;

constexpr int kFuzzPlans = 400;

const StateRegistry& reg() { return StateRegistry::instance(); }

FaultModelConfig model_config(FaultModel model) {
  FaultModelConfig config;
  config.model = model;
  return config;
}

// A bit reference must address real state: a registered field, an entry within
// its array, a bit within its width.
void expect_valid_bit(const BitRef& bit) {
  ASSERT_LT(bit.field, reg().fields().size());
  const auto& field = reg().fields()[bit.field];
  EXPECT_LT(bit.entry, field.entries) << field.name;
  EXPECT_LT(bit.bit, field.bits_per_entry) << field.name;
}

// ---- token and identity surface ----

TEST(FaultModelTaxonomy, TokensRoundTripForEveryModel) {
  const FaultModel all[] = {FaultModel::kSingleBit, FaultModel::kMultiBitAdjacent,
                            FaultModel::kBurst,     FaultModel::kSet,
                            FaultModel::kTargeted,  FaultModel::kRateDriven};
  std::set<std::string> tokens;
  for (const FaultModel model : all) {
    const std::string token(to_string(model));
    EXPECT_FALSE(token.empty());
    EXPECT_NE(token, "?");
    tokens.insert(token);
    const auto back = fault_model_from_string(token);
    ASSERT_TRUE(back.has_value()) << token;
    EXPECT_EQ(*back, model);
  }
  EXPECT_EQ(tokens.size(), std::size(all)) << "model tokens must be distinct";
  EXPECT_FALSE(fault_model_from_string("cosmic-ray").has_value());
  EXPECT_FALSE(fault_model_from_string("").has_value());
}

TEST(FaultModelTaxonomy, OnlySingleBitIsTheDefaultModel) {
  EXPECT_TRUE(is_default_fault_model(model_config(FaultModel::kSingleBit)));
  for (const FaultModel model :
       {FaultModel::kMultiBitAdjacent, FaultModel::kBurst, FaultModel::kSet,
        FaultModel::kTargeted, FaultModel::kRateDriven}) {
    EXPECT_FALSE(is_default_fault_model(model_config(model)));
  }
  // Knob changes alone do not leave the default model: the paper's single-bit
  // campaigns must keep hashing (and serializing) exactly as before.
  FaultModelConfig knobs;
  knobs.multi_bits = 17;
  knobs.upset_ppm = 3;
  EXPECT_TRUE(is_default_fault_model(knobs));
}

TEST(FaultModelTaxonomy, IdentityKeyIncludesEveryKnobTheModelReads) {
  FaultModelConfig multi = model_config(FaultModel::kMultiBitAdjacent);
  multi.multi_bits = 5;
  EXPECT_NE(fault_model_identity_key(multi).find("k=5"), std::string::npos);

  FaultModelConfig burst = model_config(FaultModel::kBurst);
  burst.burst_entries = 7;
  EXPECT_NE(fault_model_identity_key(burst).find("entries=7"), std::string::npos);

  FaultModelConfig targeted = model_config(FaultModel::kTargeted);
  targeted.target = "store";
  EXPECT_NE(fault_model_identity_key(targeted).find("target=store"),
            std::string::npos);

  FaultModelConfig rate = model_config(FaultModel::kRateDriven);
  rate.vdd_mv = 900;
  rate.freq_mhz = 1500;
  rate.upset_ppm = 42;
  const std::string key = fault_model_identity_key(rate);
  EXPECT_NE(key.find("vdd=900"), std::string::npos);
  EXPECT_NE(key.find("freq=1500"), std::string::npos);
  EXPECT_NE(key.find("ppm=42"), std::string::npos);
}

TEST(FaultModelTaxonomy, UpsetProbabilityFollowsTheOperatingPoint) {
  FaultModelConfig nominal = model_config(FaultModel::kRateDriven);
  nominal.upset_ppm = 1000;  // 1e-3 at the nominal point
  EXPECT_DOUBLE_EQ(upset_probability(nominal), 1e-3);

  // Dropping Vdd by one 250 mV step doubles the rate; raising frequency
  // shrinks the exposure window proportionally.
  FaultModelConfig low_vdd = nominal;
  low_vdd.vdd_mv = 750;
  EXPECT_DOUBLE_EQ(upset_probability(low_vdd), 2e-3);
  FaultModelConfig fast = nominal;
  fast.freq_mhz = 2000;
  EXPECT_DOUBLE_EQ(upset_probability(fast), 5e-4);

  // The probability is clamped: a certain upset stays a probability.
  FaultModelConfig extreme = nominal;
  extreme.upset_ppm = 1'000'000;
  extreme.vdd_mv = 250;
  EXPECT_DOUBLE_EQ(upset_probability(extreme), 1.0);
}

TEST(FaultModelTaxonomy, ValidationRejectsInfeasibleConfigs) {
  for (const bool vm : {false, true}) {
    EXPECT_NO_THROW(validate_fault_model(model_config(FaultModel::kSingleBit), vm));
    FaultModelConfig one_bit = model_config(FaultModel::kMultiBitAdjacent);
    one_bit.multi_bits = 1;
    EXPECT_THROW(validate_fault_model(one_bit, vm), std::invalid_argument);
    FaultModelConfig too_wide = model_config(FaultModel::kMultiBitAdjacent);
    too_wide.multi_bits = 65;
    EXPECT_THROW(validate_fault_model(too_wide, vm), std::invalid_argument);
    FaultModelConfig bad_target = model_config(FaultModel::kTargeted);
    bad_target.target = "branch";
    EXPECT_THROW(validate_fault_model(bad_target, vm), std::invalid_argument);
    FaultModelConfig dead_point = model_config(FaultModel::kRateDriven);
    dead_point.freq_mhz = 0;
    EXPECT_THROW(validate_fault_model(dead_point, vm), std::invalid_argument);
  }
  // Burst and SET are microarchitectural by definition: the vm campaign has
  // no SRAM geometry and no cycle semantics.
  EXPECT_NO_THROW(validate_fault_model(model_config(FaultModel::kBurst), false));
  EXPECT_THROW(validate_fault_model(model_config(FaultModel::kBurst), true),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_fault_model(model_config(FaultModel::kSet), false));
  EXPECT_THROW(validate_fault_model(model_config(FaultModel::kSet), true),
               std::invalid_argument);
  FaultModelConfig thin_burst = model_config(FaultModel::kBurst);
  thin_burst.burst_entries = 1;
  EXPECT_THROW(validate_fault_model(thin_burst, false), std::invalid_argument);
}

// ---- plan-sampling invariants, fuzzed per model x structure class ----

TEST(FaultModelPlans, SingleBitPlansAddressOneValidBit) {
  for (const bool latches_only : {false, true}) {
    Rng rng(0x51u + latches_only);
    for (int i = 0; i < kFuzzPlans; ++i) {
      const auto plan =
          sample_injection_plan(model_config(FaultModel::kSingleBit), reg(),
                                latches_only, rng);
      ASSERT_EQ(plan.bits.size(), 1u);
      expect_valid_bit(plan.bits[0]);
      EXPECT_FALSE(plan.transient);
      EXPECT_TRUE(plan.upset);
      if (latches_only) {
        EXPECT_EQ(reg().field(plan.bits[0]).storage, StorageClass::kLatch);
      }
    }
  }
}

TEST(FaultModelPlans, MultiBitPlansFlipExactlyKAdjacentBitsOfOneEntry) {
  for (const u32 k : {2u, 3u, 8u}) {
    for (const bool latches_only : {false, true}) {
      FaultModelConfig config = model_config(FaultModel::kMultiBitAdjacent);
      config.multi_bits = k;
      Rng rng(0x3117u * k + latches_only);
      for (int i = 0; i < kFuzzPlans; ++i) {
        const auto plan = sample_injection_plan(config, reg(), latches_only, rng);
        ASSERT_EQ(plan.bits.size(), k);
        const auto& field = reg().field(plan.bits[0]);
        ASSERT_GE(field.bits_per_entry, k) << field.name;
        for (u32 b = 0; b < k; ++b) {
          expect_valid_bit(plan.bits[b]);
          // One entry of one field, physically adjacent bit positions.
          EXPECT_EQ(plan.bits[b].field, plan.bits[0].field);
          EXPECT_EQ(plan.bits[b].entry, plan.bits[0].entry);
          EXPECT_EQ(plan.bits[b].bit, plan.bits[0].bit + b);
        }
        if (latches_only) {
          EXPECT_EQ(field.storage, StorageClass::kLatch);
        }
        EXPECT_FALSE(plan.transient);
      }
    }
  }
}

TEST(FaultModelPlans, BurstPlansHitOneColumnOfConsecutiveSramEntries) {
  for (const u32 n : {2u, 4u}) {
    FaultModelConfig config = model_config(FaultModel::kBurst);
    config.burst_entries = n;
    Rng rng(0xB0057u * n);
    for (int i = 0; i < kFuzzPlans; ++i) {
      const auto plan = sample_injection_plan(config, reg(), false, rng);
      ASSERT_EQ(plan.bits.size(), n);
      const auto& field = reg().field(plan.bits[0]);
      EXPECT_EQ(field.storage, StorageClass::kSram) << field.name;
      ASSERT_GE(field.entries, n) << field.name;
      for (u32 b = 0; b < n; ++b) {
        expect_valid_bit(plan.bits[b]);
        // Same array, same bit column, consecutive entries: a column strike.
        EXPECT_EQ(plan.bits[b].field, plan.bits[0].field);
        EXPECT_EQ(plan.bits[b].bit, plan.bits[0].bit);
        EXPECT_EQ(plan.bits[b].entry, plan.bits[0].entry + b);
      }
      EXPECT_FALSE(plan.transient);
    }
  }
}

TEST(FaultModelPlans, SetPlansAreTransientSingleLatchUpsets) {
  Rng rng(0x5E7);
  for (int i = 0; i < kFuzzPlans; ++i) {
    const auto plan =
        sample_injection_plan(model_config(FaultModel::kSet), reg(), false, rng);
    ASSERT_EQ(plan.bits.size(), 1u);
    expect_valid_bit(plan.bits[0]);
    EXPECT_EQ(reg().field(plan.bits[0]).storage, StorageClass::kLatch);
    EXPECT_TRUE(plan.transient);
    EXPECT_TRUE(plan.upset);
  }
}

TEST(FaultModelPlans, TargetedPlansStayInsideTheTargetedQueues) {
  for (const std::string target : {"load", "store"}) {
    FaultModelConfig config = model_config(FaultModel::kTargeted);
    config.target = target;
    const std::string prefix = target == "store" ? "stq." : "ldq.";
    Rng rng(0x7A6u + target.size());
    for (int i = 0; i < kFuzzPlans; ++i) {
      const auto plan = sample_injection_plan(config, reg(), false, rng);
      ASSERT_EQ(plan.bits.size(), 1u);
      expect_valid_bit(plan.bits[0]);
      EXPECT_EQ(reg().field(plan.bits[0]).name.substr(0, prefix.size()), prefix);
    }
  }
}

TEST(FaultModelPlans, RateDrivenUpsetsTrackTheConfiguredProbability) {
  // Certain upset at the nominal point; never an upset at a zero rate.
  FaultModelConfig certain = model_config(FaultModel::kRateDriven);
  Rng rng_certain(0x9A7E);
  FaultModelConfig never = certain;
  never.upset_ppm = 0;
  Rng rng_never(0x9A7F);
  for (int i = 0; i < kFuzzPlans; ++i) {
    EXPECT_TRUE(
        sample_injection_plan(certain, reg(), false, rng_certain).upset);
    EXPECT_FALSE(sample_injection_plan(never, reg(), false, rng_never).upset);
  }
  // An intermediate rate lands near its expectation over many draws.
  FaultModelConfig half = certain;
  half.upset_ppm = 500'000;
  Rng rng_half(0x9A80);
  int upsets = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    upsets += sample_injection_plan(half, reg(), false, rng_half).upset;
  }
  EXPECT_NEAR(static_cast<double>(upsets) / kDraws, 0.5, 0.05);
}

TEST(FaultModelPlans, InfeasibleGeometryIsRejectedNotMisSampled) {
  FaultModelConfig wide = model_config(FaultModel::kMultiBitAdjacent);
  wide.multi_bits = 64;  // no registered field is 64 bits wide and latch-only
  const bool any_wide_latch =
      std::any_of(reg().fields().begin(), reg().fields().end(), [](const auto& f) {
        return f.storage == StorageClass::kLatch && f.bits_per_entry >= 64;
      });
  Rng rng(0xFEA51B1E);
  if (!any_wide_latch) {
    EXPECT_THROW(sample_injection_plan(wide, reg(), true, rng),
                 std::invalid_argument);
  } else {
    EXPECT_NO_THROW(sample_injection_plan(wide, reg(), true, rng));
  }
}

TEST(FaultModelPlans, PackedBitRefsRoundTripExactly) {
  Rng rng(0xBADC0DE);
  for (int i = 0; i < kFuzzPlans; ++i) {
    const BitRef bit = reg().sample(rng);
    const BitRef back = unpack_bit_ref(pack_bit_ref(bit));
    EXPECT_EQ(back.field, bit.field);
    EXPECT_EQ(back.entry, bit.entry);
    EXPECT_EQ(back.bit, bit.bit);
  }
}

// ---- substream determinism ----

TEST(FaultModelStreams, PlansAreAPureFunctionOfTheModelSubstream) {
  for (const FaultModel model :
       {FaultModel::kMultiBitAdjacent, FaultModel::kBurst, FaultModel::kSet,
        FaultModel::kTargeted, FaultModel::kRateDriven}) {
    const FaultModelConfig config = model_config(model);
    const u64 seed = model_stream_seed(0xABCDEF, static_cast<u64>(model));
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < 64; ++i) {
      const auto plan_a = sample_injection_plan(config, reg(), false, a);
      const auto plan_b = sample_injection_plan(config, reg(), false, b);
      ASSERT_EQ(plan_a.bits.size(), plan_b.bits.size());
      for (std::size_t j = 0; j < plan_a.bits.size(); ++j) {
        EXPECT_EQ(pack_bit_ref(plan_a.bits[j]), pack_bit_ref(plan_b.bits[j]));
      }
      EXPECT_EQ(plan_a.upset, plan_b.upset);
    }
  }
}

TEST(FaultModelStreams, ModelSubstreamsAreDistinctFromThePrimaryStream) {
  // The whole byte-identity story rests on non-default models never touching
  // the shard's primary draw sequence: the substream seed must differ from the
  // shard seed and between model tags.
  std::set<u64> seeds;
  const u64 shard_seed = 0x5EED;
  seeds.insert(shard_seed);
  for (u64 tag = 0; tag < 6; ++tag) {
    seeds.insert(model_stream_seed(shard_seed, tag));
  }
  EXPECT_EQ(seeds.size(), 7u) << "substream seeds must not collide";
}

// ---- plan-driven trials: containment and SET transience ----

class FaultModelTrials : public ::testing::Test {
 protected:
  // One warmed injection point shared by every trial in the fixture; the
  // containment properties only need a running machine, not a fresh one.
  static void SetUpTestSuite() {
    golden_ = new uarch::Core(workloads::by_name("gzip").program);
    for (int i = 0; i < 400 && golden_->status() == uarch::Core::Status::kRunning;
         ++i) {
      golden_->cycle();
    }
    ASSERT_EQ(golden_->status(), uarch::Core::Status::kRunning);
  }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }
  static uarch::Core* golden_;
};

uarch::Core* FaultModelTrials::golden_ = nullptr;

TEST_F(FaultModelTrials, EveryModelsTrialsClassifyAndNeverEscapeContainment) {
  constexpr int kTrialsPerModel = 24;
  for (const FaultModel model :
       {FaultModel::kSingleBit, FaultModel::kMultiBitAdjacent, FaultModel::kBurst,
        FaultModel::kSet, FaultModel::kTargeted, FaultModel::kRateDriven}) {
    FaultModelConfig config = model_config(model);
    config.multi_bits = 4;
    config.burst_entries = 3;
    Rng model_rng(model_stream_seed(0xF00D, static_cast<u64>(model)));
    for (int i = 0; i < kTrialsPerModel; ++i) {
      const auto plan = sample_injection_plan(config, reg(), false, model_rng);
      UarchTrialRecord record;
      ASSERT_NO_THROW(record = run_uarch_plan_trial(*golden_, plan, 200, 200))
          << to_string(model);
      // Fuzzed corruption must always land in a valid category at every
      // checkpoint interval the figures use.
      for (const u64 interval : {u64{10}, u64{100}, u64{1000}}) {
        const UarchOutcome outcome = classify_trial(
            record, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline,
            interval);
        EXPECT_NE(to_string(outcome), "?") << to_string(model);
      }
      EXPECT_EQ(pack_bit_ref(record.bit), pack_bit_ref(plan.bits.front()));
    }
  }
}

TEST_F(FaultModelTrials, SetTransientsClearAfterOneCycleWhenNotOverwritten) {
  // Run the same latch upset twice: once as a sticking (SEU) flip, once as a
  // one-cycle transient (SET). Over a latch population the transient must be
  // strictly more benign: every SET trial whose SEU twin was masked stays
  // masked, and SETs produce at least as many masked outcomes.
  Rng model_rng(model_stream_seed(0x5E7F00D, static_cast<u64>(FaultModel::kSet)));
  int set_masked = 0, seu_masked = 0;
  constexpr int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    auto plan = sample_injection_plan(model_config(FaultModel::kSet), reg(),
                                      false, model_rng);
    ASSERT_TRUE(plan.transient);
    auto sticky = plan;
    sticky.transient = false;
    const auto set_record = run_uarch_plan_trial(*golden_, plan, 300, 300);
    const auto seu_record = run_uarch_plan_trial(*golden_, sticky, 300, 300);
    const auto outcome_of = [](const UarchTrialRecord& r) {
      return classify_trial(r, DetectorModel::kPerfectCfv,
                            ProtectionModel::kBaseline, 100);
    };
    set_masked += outcome_of(set_record) == UarchOutcome::kMasked;
    seu_masked += outcome_of(seu_record) == UarchOutcome::kMasked;
    if (outcome_of(seu_record) == UarchOutcome::kMasked) {
      EXPECT_EQ(outcome_of(set_record), UarchOutcome::kMasked)
          << "a glitch that clears cannot outlast the same upset sticking";
    }
  }
  EXPECT_GE(set_masked, seu_masked);
  // The revert is real: some latch upsets that stick are cleared by the
  // transient semantics (gzip at this injection point exercises both kinds).
  EXPECT_GT(set_masked, 0);
}

TEST_F(FaultModelTrials, NoUpsetPlansAreExactGoldenReplays) {
  // A rate-driven trial that does not upset flips nothing: the record must be
  // indistinguishable from the golden run (masked, state-equal, no events).
  FaultModelConfig config = model_config(FaultModel::kRateDriven);
  config.upset_ppm = 0;
  Rng model_rng(0xCA1F);
  for (int i = 0; i < 8; ++i) {
    const auto plan = sample_injection_plan(config, reg(), false, model_rng);
    ASSERT_FALSE(plan.upset);
    const auto record = run_uarch_plan_trial(*golden_, plan, 200, 200);
    EXPECT_FALSE(record.trace_diverged);
    EXPECT_FALSE(record.arch_corrupt_at_end);
    EXPECT_TRUE(record.uarch_state_equal);
    EXPECT_EQ(classify_trial(record, DetectorModel::kPerfectCfv,
                             ProtectionModel::kBaseline, 100),
              UarchOutcome::kMasked);
  }
}

// ---- FIT-weighted campaign allocation ----

TEST(FitAllocation, SplitsTrialsProportionallyAndExactly) {
  using reliability::FitStructure;
  const std::vector<FitStructure> structures = {
      {"iq.data", 4096, 1.0}, {"rob.meta", 2048, 1.0}, {"prf.value", 2048, 1.0}};
  const auto alloc = reliability::fit_weighted_allocation(structures, 800);
  ASSERT_EQ(alloc.size(), structures.size());
  EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 800u);
  EXPECT_EQ(alloc[0], 400u);
  EXPECT_EQ(alloc[1], 200u);
  EXPECT_EQ(alloc[2], 200u);
}

TEST(FitAllocation, WeightScalesTheContributionAndZeroMeansNominal) {
  using reliability::FitStructure;
  // SRAM twice as FIT-sensitive as an equal-sized latch bank.
  const auto weighted = reliability::fit_weighted_allocation(
      {{"sram", 1000, 2.0}, {"latch", 1000, 1.0}}, 300);
  EXPECT_EQ(weighted[0], 200u);
  EXPECT_EQ(weighted[1], 100u);
  // weight 0 is "unspecified", not "immune": it behaves as 1.0.
  const auto nominal = reliability::fit_weighted_allocation(
      {{"a", 500, 0.0}, {"b", 500, 1.0}}, 100);
  EXPECT_EQ(nominal[0], 50u);
  EXPECT_EQ(nominal[1], 50u);
}

TEST(FitAllocation, LargestRemainderKeepsCountsIntegralAndExact) {
  using reliability::FitStructure;
  // 10 trials over three equal structures cannot split evenly; the largest-
  // remainder method hands the leftover out deterministically (lowest index).
  const auto alloc = reliability::fit_weighted_allocation(
      {{"a", 1, 1.0}, {"b", 1, 1.0}, {"c", 1, 1.0}}, 10);
  EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 10u);
  EXPECT_EQ(alloc[0], 4u);
  EXPECT_EQ(alloc[1], 3u);
  EXPECT_EQ(alloc[2], 3u);
  // Deterministic: the same inputs always produce the same split.
  EXPECT_EQ(alloc, reliability::fit_weighted_allocation(
                       {{"a", 1, 1.0}, {"b", 1, 1.0}, {"c", 1, 1.0}}, 10));
}

TEST(FitAllocation, FuzzedAllocationsAlwaysSumExactly) {
  using reliability::FitStructure;
  Rng rng(0xF17);
  for (int round = 0; round < 200; ++round) {
    std::vector<FitStructure> structures;
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t i = 0; i < n; ++i) {
      // Built up in two steps: `"s" + std::to_string(i)` trips GCC 12's
      // -Wrestrict false positive (PR105651) under -Werror in Release.
      std::string name(1, 's');
      name += std::to_string(i);
      structures.push_back({std::move(name), rng.below(100'000),
                            static_cast<double>(rng.below(4))});
    }
    const u64 trials = rng.below(10'000);
    const bool all_zero = std::all_of(
        structures.begin(), structures.end(), [](const FitStructure& s) {
          return s.bits == 0;
        });
    if (all_zero && trials > 0) {
      EXPECT_THROW(reliability::fit_weighted_allocation(structures, trials),
                   std::invalid_argument);
      continue;
    }
    const auto alloc = reliability::fit_weighted_allocation(structures, trials);
    ASSERT_EQ(alloc.size(), structures.size());
    u64 sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += alloc[i];
      if (structures[i].bits == 0) {
        EXPECT_EQ(alloc[i], 0u) << "zero FIT contribution must get zero trials";
      }
    }
    EXPECT_EQ(sum, trials);
  }
}

TEST(FitAllocation, RegistryManifestDrivesARealAllocation) {
  // The workflow documented in EXPERIMENTS.md: build the structure list from
  // the audited state registry and split a campaign across it.
  using reliability::FitStructure;
  std::vector<FitStructure> structures;
  for (const auto& field : reg().fields()) {
    structures.push_back({field.name, field.total_bits(),
                          field.storage == StorageClass::kSram ? 1.0 : 0.5});
  }
  const auto alloc = reliability::fit_weighted_allocation(structures, 12'000);
  u64 sum = 0;
  for (const u64 a : alloc) sum += a;
  EXPECT_EQ(sum, 12'000u);
  // The big SRAM arrays dominate the FIT budget, as in the paper's Table 3.
  const auto max_it = std::max_element(alloc.begin(), alloc.end());
  EXPECT_EQ(structures[max_it - alloc.begin()].weight, 1.0);
}

}  // namespace
}  // namespace restore::faultinject
