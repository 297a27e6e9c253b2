// Golden-pass regressions. A uarch campaign starts every injection point from
// a rung of its workload's one clean run, and converged trials read golden's
// later symptoms and end status from that run. So a rung must be exactly the
// clean machine at its cycle, the pass store must key passes by every
// CoreConfig field, and it must not keep passes of a config nobody uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "uarch/core.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {
namespace {

using uarch::Core;
using uarch::SymptomEvent;

// For every rung: a copy advanced to a cycle sampled before the next rung is
// state_equal to the clean core advanced there from cycle 0. The pass's
// length, end status and symptom stream are the clean run's.
void expect_rungs_match_clean_run(const std::string& workload) {
  const auto pass = golden_pass(workload, {});
  ASSERT_FALSE(pass->rungs.empty());
  Core clean(workloads::by_name(workload).program);
  std::vector<GoldenPass::Symptom> symptoms;
  const auto step = [&] {
    clean.cycle();
    for (const auto& ev : clean.symptoms_this_cycle()) {
      if (ev.kind != SymptomEvent::Kind::kMispredict) {
        symptoms.push_back({clean.cycle_count(), ev});
      }
    }
  };

  Rng rng(0x2A46);
  for (std::size_t i = 0; i < pass->rungs.size(); ++i) {
    const Core& rung = pass->rungs[i];
    ASSERT_EQ(rung.cycle_count(), i * kGoldenRungSpacing) << workload;
    const u64 last =
        std::min(pass->total_cycles, (i + 1) * kGoldenRungSpacing - 1);
    const u64 target = rng.range(rung.cycle_count(), last);
    Core from_rung = rung;
    while (from_rung.running() && from_rung.cycle_count() < target) {
      from_rung.cycle();
    }
    while (clean.running() && clean.cycle_count() < target) step();
    EXPECT_TRUE(from_rung.state_equal(clean))
        << workload << " rung " << i << " advanced to cycle " << target;
  }

  while (clean.running()) step();
  EXPECT_EQ(pass->total_cycles, clean.cycle_count()) << workload;
  EXPECT_EQ(pass->final_status, clean.status()) << workload;
  ASSERT_EQ(pass->symptoms.size(), symptoms.size()) << workload;
  for (std::size_t i = 0; i < symptoms.size(); ++i) {
    EXPECT_EQ(pass->symptoms[i].cycle, symptoms[i].cycle) << workload << ' ' << i;
    EXPECT_EQ(pass->symptoms[i].ev.kind, symptoms[i].ev.kind) << workload << ' ' << i;
    EXPECT_EQ(pass->symptoms[i].ev.retired_count, symptoms[i].ev.retired_count)
        << workload << ' ' << i;
  }
}

TEST(GoldenPass, EveryRungAdvancesLikeTheCleanRun) {
  expect_rungs_match_clean_run("gzip");
  expect_rungs_match_clean_run("mcf");
}

// Gives field I of `config` a different value. The structured binding names
// every CoreConfig field, so adding or removing one fails to compile here:
// key the new field in core_config_key, then extend this list.
template <std::size_t I>
void perturb_field(uarch::CoreConfig& config) {
  auto& [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15,
         f16] = config;
  auto& field = std::get<I>(std::tie(f0, f1, f2, f3, f4, f5, f6, f7, f8, f9,
                                     f10, f11, f12, f13, f14, f15, f16));
  if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>, bool>) {
    field = !field;
  } else {
    field += 1;
  }
}

template <std::size_t... I>
void expect_every_field_keyed(std::index_sequence<I...>) {
  const std::string base = core_config_key({});
  const auto expect_keyed = [&base](auto index) {
    uarch::CoreConfig config;
    perturb_field<decltype(index)::value>(config);
    EXPECT_NE(core_config_key(config), base)
        << "CoreConfig field " << decltype(index)::value
        << " is missing from core_config_key";
  };
  (expect_keyed(std::integral_constant<std::size_t, I>{}), ...);
}

TEST(GoldenPass, CoreConfigKeyChangesWithEveryField) {
  expect_every_field_keyed(std::make_index_sequence<17>{});
}

TEST(GoldenPass, StoreKeepsOnlyTheMostRecentCoreConfig) {
  const uarch::CoreConfig first;
  uarch::CoreConfig second;
  second.watchdog_cycles += 1;

  auto pass = golden_pass("gzip", first);
  EXPECT_EQ(pass, golden_pass("gzip", first));  // computed once, then shared
  const std::weak_ptr<const GoldenPass> first_pass = pass;
  pass.reset();
  EXPECT_FALSE(first_pass.expired());  // the store still holds it

  // Requesting another config evicts the first: nobody held it.
  auto held = golden_pass("gzip", second);
  EXPECT_TRUE(first_pass.expired());

  // A holder keeps its pass across eviction, as a campaign in flight does.
  const std::weak_ptr<const GoldenPass> second_pass = held;
  EXPECT_NE(golden_pass("gzip", first), nullptr);
  EXPECT_FALSE(second_pass.expired());
  held.reset();
  EXPECT_TRUE(second_pass.expired());
}

}  // namespace
}  // namespace restore::faultinject
