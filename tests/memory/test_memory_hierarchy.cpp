#include "mlm/memory/memory_hierarchy.h"

#include <gtest/gtest.h>

#include "mlm/memory/dual_space.h"
#include "mlm/support/units.h"

namespace mlm {
namespace {

HierarchyConfig three_tier(McdramMode mode, double hybrid_frac = 0.5) {
  HierarchyConfig c;
  c.mode = mode;
  c.hybrid_flat_fraction = hybrid_frac;
  c.tiers = {
      TierConfig{"nvm", MemKind::NVM, 0, 0.0, 0.0, 0.0},
      TierConfig{"ddr", MemKind::DDR, MiB(2), 0.0, 0.0, 0.0},
      TierConfig{"mcdram", MemKind::MCDRAM, KiB(512), 0.0, 0.0, 0.0},
  };
  return c;
}

TEST(MemoryHierarchy, TierAndPairCounts) {
  MemoryHierarchy h(three_tier(McdramMode::Flat));
  EXPECT_EQ(h.tier_count(), 3u);
  EXPECT_EQ(h.pair_count(), 2u);
  EXPECT_EQ(h.tier_config(0).name, "nvm");
  EXPECT_EQ(h.tier_config(2).name, "mcdram");
}

TEST(MemoryHierarchy, FlatModeAllTiersAddressable) {
  MemoryHierarchy h(three_tier(McdramMode::Flat));
  EXPECT_TRUE(h.tier_addressable(0));
  EXPECT_TRUE(h.tier_addressable(1));
  EXPECT_TRUE(h.tier_addressable(2));
  EXPECT_TRUE(h.tier(0).unlimited());
  EXPECT_EQ(h.tier(1).capacity_bytes(), MiB(2));
  EXPECT_EQ(h.tier(2).capacity_bytes(), KiB(512));
  EXPECT_EQ(&h.nearest_addressable(), &h.tier(2));
  EXPECT_EQ(&h.farthest(), &h.tier(0));
}

TEST(MemoryHierarchy, CacheModeSkipsMcdramTier) {
  MemoryHierarchy h(three_tier(McdramMode::Cache));
  EXPECT_TRUE(h.tier_addressable(1));
  EXPECT_FALSE(h.tier_addressable(2));
  EXPECT_THROW(h.tier(2), Error);
  EXPECT_EQ(h.addressable_bytes(2), 0u);
  EXPECT_EQ(h.cache_bytes(2), KiB(512));
  // Chunked code stages into the last addressable tier: DDR.
  EXPECT_EQ(&h.nearest_addressable(), &h.tier(1));
}

TEST(MemoryHierarchy, HybridSplitsOnlyMcdramTiers) {
  MemoryHierarchy h(three_tier(McdramMode::Hybrid, 0.25));
  EXPECT_EQ(h.addressable_bytes(2), KiB(512) / 4);
  EXPECT_EQ(h.cache_bytes(2), KiB(512) * 3 / 4);
  EXPECT_EQ(h.tier(2).capacity_bytes(), KiB(512) / 4);
  // Non-MCDRAM tiers are unaffected by the mode.
  EXPECT_EQ(h.addressable_bytes(1), MiB(2));
  EXPECT_EQ(h.cache_bytes(1), 0u);
}

TEST(MemoryHierarchy, PairExposesAdjacentTiers) {
  MemoryHierarchy h(three_tier(McdramMode::Flat));
  TierPair outer = h.pair(0);
  EXPECT_EQ(outer.far_tier, &h.tier(0));
  EXPECT_EQ(outer.near_tier, &h.tier(1));
  EXPECT_TRUE(outer.explicit_copies());
  TierPair inner = h.pair(1);
  EXPECT_EQ(inner.far_tier, &h.tier(1));
  EXPECT_EQ(inner.near_tier, &h.tier(2));
  EXPECT_THROW(h.pair(2), InvalidArgumentError);
}

TEST(MemoryHierarchy, PairDegeneratesWithoutAddressableNearTier) {
  MemoryHierarchy h(three_tier(McdramMode::ImplicitCache));
  TierPair inner = h.pair(1);
  EXPECT_EQ(inner.far_tier, &h.tier(1));
  EXPECT_EQ(inner.near_tier, nullptr);
  EXPECT_FALSE(inner.explicit_copies());
}

TEST(MemoryHierarchy, RejectsBadConfig) {
  HierarchyConfig empty;
  EXPECT_THROW(MemoryHierarchy h(empty), InvalidArgumentError);

  HierarchyConfig zero_mcdram = three_tier(McdramMode::Flat);
  zero_mcdram.tiers[2].capacity_bytes = 0;
  EXPECT_THROW(MemoryHierarchy h(zero_mcdram), InvalidArgumentError);

  EXPECT_THROW(MemoryHierarchy h(three_tier(McdramMode::Hybrid, 0.0)),
               InvalidArgumentError);
  EXPECT_THROW(MemoryHierarchy h(three_tier(McdramMode::Hybrid, 1.0)),
               InvalidArgumentError);

  HierarchyConfig unnamed = three_tier(McdramMode::Flat);
  unnamed.tiers[0].name.clear();
  EXPECT_THROW(MemoryHierarchy h(unnamed), InvalidArgumentError);
}

TEST(BudgetedView, TiersBecomeSubArenasOfTheParent) {
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  MemoryHierarchy view(parent, {0, MiB(1), KiB(128)}, "job0");
  EXPECT_EQ(view.tier_count(), 3u);
  EXPECT_EQ(view.tier(2).name(), "job0/mcdram");
  EXPECT_EQ(view.tier(2).parent(), &parent.tier(2));
  EXPECT_EQ(view.tier(2).capacity_bytes(), KiB(128));
  EXPECT_EQ(view.tier(1).capacity_bytes(), MiB(1));
  // Budget 0 = share the parent's full (here unlimited) tier.
  EXPECT_TRUE(view.tier(0).unlimited());
  EXPECT_EQ(view.addressable_bytes(2), KiB(128));

  void* p = view.tier(2).allocate(KiB(64));
  EXPECT_EQ(parent.tier(2).stats().used_bytes, KiB(64));
  view.tier(2).deallocate(p);
  EXPECT_THROW(view.tier(2).allocate(KiB(256)), OutOfMemoryError);
}

TEST(BudgetedView, CannotGrowBeyondTheParentTier) {
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  // A budget larger than the parent tier is clamped to the parent's size.
  MemoryHierarchy view(parent, {0, 0, MiB(8)}, "greedy");
  EXPECT_EQ(view.tier(2).capacity_bytes(), KiB(512));
  EXPECT_EQ(view.tier_config(2).capacity_bytes, KiB(512));
}

TEST(BudgetedView, PreservesModeDegeneracies) {
  MemoryHierarchy parent(three_tier(McdramMode::ImplicitCache));
  MemoryHierarchy view(parent, {0, MiB(1), 0}, "job0");
  EXPECT_FALSE(view.tier_addressable(2));
  EXPECT_EQ(&view.nearest_addressable(), &view.tier(1));
  EXPECT_EQ(view.tier(1).parent(), &parent.tier(1));
  TierPair inner = view.pair(1);
  EXPECT_EQ(inner.near_tier, nullptr);
}

TEST(BudgetedView, TenantsContendForTheParentTier) {
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  MemoryHierarchy a(parent, {0, 0, KiB(384)}, "a");
  MemoryHierarchy b(parent, {0, 0, KiB(384)}, "b");
  void* pa = a.tier(2).allocate(KiB(320));
  // b's budget admits 384K but the shared mcdram tier only has 192K left.
  EXPECT_EQ(b.tier(2).try_allocate(KiB(256)), nullptr);
  void* pb = b.tier(2).allocate(KiB(128));
  EXPECT_EQ(parent.tier(2).stats().used_bytes, KiB(448));
  a.tier(2).deallocate(pa);
  b.tier(2).deallocate(pb);
}

TEST(BudgetedView, ZeroAndMissingBudgetsShareEveryParentTier) {
  // Budget 0 (or a budgets vector shorter than the tier list) means
  // "share the parent tier's full capacity": the view's finite tiers
  // report the parent's capacity, unlimited tiers stay unlimited, and
  // nothing is reserved up front.
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  MemoryHierarchy view(parent, {}, "job0");
  EXPECT_EQ(view.tier_count(), 3u);
  EXPECT_TRUE(view.tier(0).unlimited());
  EXPECT_EQ(view.tier(1).capacity_bytes(), MiB(2));
  EXPECT_EQ(view.tier(2).capacity_bytes(), KiB(512));
  EXPECT_EQ(view.addressable_bytes(2), KiB(512));

  // Pure forwarding: the view can consume the entire parent tier, and
  // the parent's capacity (not any view-side budget) is what stops it.
  void* p = view.tier(2).allocate(KiB(512));
  EXPECT_EQ(parent.tier(2).stats().used_bytes, KiB(512));
  EXPECT_EQ(view.tier(2).try_allocate(64), nullptr);
  view.tier(2).deallocate(p);
  EXPECT_EQ(parent.tier(2).stats().used_bytes, 0u);
}

TEST(BudgetedView, NestedViewOfViewChainsBudgetsAndAccounting) {
  // A view of a view: each level's budget caps the one below, an inner
  // budget larger than the outer view's capacity is clamped to it, and
  // an allocation through the innermost arena is accounted at every
  // level up to the root.
  MemoryHierarchy root(three_tier(McdramMode::Flat));
  MemoryHierarchy outer(root, {0, MiB(1), KiB(256)}, "outer");
  MemoryHierarchy inner(outer, {0, MiB(8), KiB(128)}, "inner");

  EXPECT_EQ(inner.tier(2).parent(), &outer.tier(2));
  EXPECT_EQ(outer.tier(2).parent(), &root.tier(2));
  // Labels prefix the config tier name (not the outer arena's name).
  EXPECT_EQ(inner.tier(2).name(), "inner/mcdram");
  EXPECT_EQ(inner.tier(2).capacity_bytes(), KiB(128));
  // The inner ddr budget (8M) exceeds the outer view's 1M: clamped.
  EXPECT_EQ(inner.tier(1).capacity_bytes(), MiB(1));

  void* p = inner.tier(2).allocate(KiB(64));
  EXPECT_EQ(inner.tier(2).stats().used_bytes, KiB(64));
  EXPECT_EQ(outer.tier(2).stats().used_bytes, KiB(64));
  EXPECT_EQ(root.tier(2).stats().used_bytes, KiB(64));

  // The inner budget binds before the outer one...
  EXPECT_EQ(inner.tier(2).try_allocate(KiB(128)), nullptr);
  // ...and the outer budget binds before the root capacity: a sibling
  // of the inner view sees the outer's remaining 192K, not mcdram's.
  MemoryHierarchy sibling(outer, {0, 0, 0}, "sib");
  EXPECT_EQ(sibling.tier(2).capacity_bytes(), KiB(256));
  EXPECT_EQ(sibling.tier(2).try_allocate(KiB(256)), nullptr);
  void* q = sibling.tier(2).allocate(KiB(192));
  EXPECT_EQ(root.tier(2).stats().used_bytes, KiB(256));
  sibling.tier(2).deallocate(q);
  inner.tier(2).deallocate(p);
  EXPECT_EQ(root.tier(2).stats().used_bytes, 0u);
}

TEST(BudgetedView, ReleaseAfterParentHighWaterReset) {
  // Benchmark-style reset on the parent hierarchy while a tenant view
  // still holds memory: the release must stay balanced and the
  // high-water mark re-tracks from the reset point.
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  MemoryHierarchy view(parent, {0, 0, KiB(256)}, "job0");
  void* p = view.tier(2).allocate(KiB(128));
  void* q = view.tier(2).allocate(KiB(64));
  view.tier(2).deallocate(q);
  EXPECT_EQ(parent.tier(2).stats().high_water_bytes, KiB(192));

  parent.tier(2).reset_high_water();
  EXPECT_EQ(parent.tier(2).stats().high_water_bytes, KiB(128));

  view.tier(2).deallocate(p);
  EXPECT_EQ(parent.tier(2).stats().used_bytes, 0u);
  EXPECT_EQ(view.tier(2).stats().used_bytes, 0u);
  EXPECT_EQ(parent.tier(2).stats().high_water_bytes, KiB(128));

  // The tier stays fully usable after the reset/release cycle.
  void* r = view.tier(2).allocate(KiB(256));
  ASSERT_NE(r, nullptr);
  view.tier(2).deallocate(r);
}

TEST(BudgetedView, RejectsTooManyBudgets) {
  MemoryHierarchy parent(three_tier(McdramMode::Flat));
  EXPECT_THROW(MemoryHierarchy v(parent, {0, 0, 0, 0}, "job0"),
               InvalidArgumentError);
}

TEST(MemoryHierarchy, CapacityEnforcedPerTier) {
  MemoryHierarchy h(three_tier(McdramMode::Flat));
  void* p = h.tier(2).allocate(KiB(512) - 64);
  EXPECT_THROW(h.tier(2).allocate(KiB(64)), OutOfMemoryError);
  h.tier(2).deallocate(p);
  // DDR tier enforces its own limit independently.
  void* q = h.tier(1).allocate(MiB(2));
  EXPECT_THROW(h.tier(1).allocate(64), OutOfMemoryError);
  h.tier(1).deallocate(q);
}

// TripleSpace: the three-level NVM -> DDR -> MCDRAM machine of the §6
// double-chunking extension, as ExternalMlmSorter sees it — a three-tier
// hierarchy with a limited NVM tier, plus the DualSpace view of its
// DDR + MCDRAM pair that the inner MlmSorter runs on.
HierarchyConfig triple(McdramMode mode) {
  HierarchyConfig c = three_tier(mode);
  c.tiers[0].capacity_bytes = MiB(16);
  return c;
}

TEST(TripleSpace, ExposesThreeTierHierarchy) {
  MemoryHierarchy h(triple(McdramMode::Flat));
  EXPECT_EQ(h.tier_count(), 3u);
  EXPECT_EQ(h.tier(0).kind(), MemKind::NVM);
  EXPECT_EQ(h.tier(1).kind(), MemKind::DDR);
  EXPECT_EQ(h.tier(2).kind(), MemKind::MCDRAM);
}

TEST(TripleSpace, CapacityAccountingPerTier) {
  MemoryHierarchy h(triple(McdramMode::Flat));
  void* n = h.tier(0).allocate(MiB(8));
  void* d = h.tier(1).allocate(MiB(1));
  void* m = h.tier(2).allocate(KiB(256));
  EXPECT_EQ(h.tier(0).stats().used_bytes, MiB(8));
  EXPECT_EQ(h.tier(1).stats().used_bytes, MiB(1));
  EXPECT_EQ(h.tier(2).stats().used_bytes, KiB(256));
  // Usage in one tier does not consume another tier's capacity.
  EXPECT_EQ(h.tier(1).stats().free_bytes(), MiB(1));
  EXPECT_EQ(h.tier(2).stats().free_bytes(), KiB(256));
  h.tier(0).deallocate(n);
  h.tier(1).deallocate(d);
  h.tier(2).deallocate(m);
  EXPECT_EQ(h.tier(1).stats().used_bytes, 0u);
}

TEST(TripleSpace, UpperPairSharesTheHierarchyTiers) {
  MemoryHierarchy h(triple(McdramMode::Flat));
  DualSpace upper(h, 1);
  EXPECT_EQ(&upper.ddr(), &h.tier(1));
  EXPECT_EQ(&upper.mcdram(), &h.tier(2));
  EXPECT_EQ(&upper.hierarchy(), &h);
  // Allocations through the view are visible through the owner.
  void* p = upper.mcdram().allocate(KiB(128));
  EXPECT_EQ(h.tier(2).stats().used_bytes, KiB(128));
  upper.mcdram().deallocate(p);
}

TEST(TripleSpace, ModeGovernsMcdramAddressability) {
  for (McdramMode mode : {McdramMode::Cache, McdramMode::ImplicitCache,
                          McdramMode::DdrOnly}) {
    MemoryHierarchy h(triple(mode));
    DualSpace upper(h, 1);
    EXPECT_FALSE(h.tier_addressable(2)) << to_string(mode);
    EXPECT_THROW(h.tier(2), Error);
    EXPECT_FALSE(upper.has_addressable_mcdram());
    // The NVM and DDR tiers stay addressable regardless of mode.
    EXPECT_EQ(h.tier(0).capacity_bytes(), MiB(16));
    EXPECT_EQ(&upper.near_space(), &h.tier(1));
  }
  MemoryHierarchy hybrid(triple(McdramMode::Hybrid));
  EXPECT_TRUE(hybrid.tier_addressable(2));
  EXPECT_EQ(hybrid.tier(2).capacity_bytes(), KiB(256));
}

TEST(TripleSpace, OutOfMemoryPropagatesPerTier) {
  MemoryHierarchy h(triple(McdramMode::Flat));
  EXPECT_THROW(h.tier(2).allocate(MiB(1)), OutOfMemoryError);
  EXPECT_THROW(h.tier(1).allocate(MiB(4)), OutOfMemoryError);
  EXPECT_THROW(h.tier(0).allocate(MiB(32)), OutOfMemoryError);
  // try_allocate reports the same exhaustion without throwing.
  EXPECT_EQ(h.tier(2).try_allocate(MiB(1)), nullptr);
}

}  // namespace
}  // namespace mlm
