//===- tests/math/ProjectionStatsTest.cpp ---------------------*- C++ -*-===//
//
// The polyhedral fast path: memoization counters, the bounded-cache
// eviction policy, budget-qualified Unknown results, and the
// conservative behavior of removeRedundant when the node budget is
// starved mid-proof.
//
//===----------------------------------------------------------------------===//

#include "math/System.h"

#include <gtest/gtest.h>

#include <thread>

using namespace dmcc;

namespace {

/// Restores this thread's options, caches and counters on scope exit
/// so tests cannot leak settings into each other.
struct ProjectionSandbox {
  ProjectionSandbox() {
    Saved = projectionOptions();
    projectionOptions() = ProjectionOptions();
    clearProjectionCaches();
    resetProjectionStats();
  }
  ~ProjectionSandbox() {
    projectionOptions() = Saved;
    clearProjectionCaches();
    resetProjectionStats();
  }
  ProjectionOptions Saved;
};

System boxSystem(IntT Lo, IntT Hi) {
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  System S(std::move(Sp));
  S.addRange(0, Lo, Hi);
  S.addRange(1, Lo, Hi);
  return S;
}

/// A system that is integer-empty but rationally feasible, and whose
/// emptiness proof must enumerate the whole y range: 2x + 3y == 1 has
/// no solution with 0 <= x, y (every candidate y leaves a fractional or
/// negative x), so branch-and-bound visits every y before concluding.
System parityGapSystem(IntT Hi) {
  System S = boxSystem(0, Hi);
  AffineExpr E(2);
  E.coeff(0) = 2;
  E.coeff(1) = 3;
  E.constant() = -1;
  S.addEQ(std::move(E));
  return S;
}

TEST(ProjectionStats, FeasibilityCacheHitsAreCounted) {
  ProjectionSandbox Sandbox;
  System S = boxSystem(0, 10);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  const ProjectionStats &PS = projectionStats();
  EXPECT_EQ(PS.FeasQueries, 2u);
  EXPECT_EQ(PS.FeasCacheMisses, 1u);
  EXPECT_EQ(PS.FeasCacheHits, 1u);
  EXPECT_DOUBLE_EQ(PS.feasHitRate(), 0.5);
}

TEST(ProjectionStats, CacheDisabledMeansNoHits) {
  ProjectionSandbox Sandbox;
  projectionOptions().Cache = false;
  System S = boxSystem(0, 10);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  EXPECT_EQ(projectionStats().FeasCacheHits, 0u);
  EXPECT_EQ(projectionCacheEntries(), 0u);
}

TEST(ProjectionStats, EvictionKeepsTheCacheBounded) {
  ProjectionSandbox Sandbox;
  projectionOptions().CacheCapacity = 2;
  for (IntT Hi = 1; Hi <= 20; ++Hi) {
    System S = boxSystem(0, Hi);
    EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  }
  EXPECT_GT(projectionStats().CacheEvictions, 0u);
  EXPECT_LE(projectionCacheEntries(), 2u);
}

TEST(ProjectionStats, StarvedBudgetReportsUnknown) {
  ProjectionSandbox Sandbox;
  System S = parityGapSystem(1000);
  EXPECT_EQ(S.checkIntegerFeasible(1), Feasibility::Unknown);
  EXPECT_EQ(projectionStats().FeasUnknown, 1u);
  // A cached Unknown must not satisfy a better-funded query: the full
  // budget re-runs the search and proves emptiness.
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Empty);
  // The definite verdict now serves every budget, including tiny ones.
  EXPECT_EQ(S.checkIntegerFeasible(1), Feasibility::Empty);
}

TEST(ProjectionStats, RemoveRedundantKeepsConstraintsOnUnknown) {
  ProjectionSandbox Sandbox;
  // Over x + 3y >= 4 with x, y >= 0, the rational minimum of 2x + 3y is
  // 4 (at the fractional vertex (0, 4/3)) but the integer minimum is 5,
  // so 2x + 3y >= 5 is redundant over the integers only. Its exact test
  // (2x + 3y <= 4 with the rest) is rationally nonempty, so only the
  // budgeted branch-and-bound can prove it away — and every other
  // constraint's test region contains an integer point, so nothing else
  // is removable. A starved budget must therefore keep everything.
  System S = boxSystem(0, 1000);
  AffineExpr C1(2);
  C1.coeff(0) = 1;
  C1.coeff(1) = 3;
  C1.constant() = -4;
  AffineExpr Gap(2);
  Gap.coeff(0) = 2;
  Gap.coeff(1) = 3;
  Gap.constant() = -5;
  S.addGE(std::move(C1));
  S.addGE(std::move(Gap));
  unsigned Before = S.numConstraints();
  projectionOptions().Cache = false; // no cross-talk between the runs

  auto hasGapRow = [](const System &Sys) {
    for (ConstraintRef C : Sys.constraints())
      if (!C.isEquality() && C.coeff(0) == 2 && C.coeff(1) == 3 &&
          C.constant() == -5)
        return true;
    return false;
  };

  System Starved = S;
  Starved.removeRedundant(1);
  EXPECT_EQ(Starved.numConstraints(), Before)
      << "an exhausted budget must keep constraints conservatively";
  EXPECT_TRUE(hasGapRow(Starved));

  System Funded = S;
  Funded.removeRedundant(2000000);
  EXPECT_EQ(Funded.numConstraints(), Before - 1);
  EXPECT_FALSE(hasGapRow(Funded))
      << "a funded exact test proves the integer-gap constraint "
         "redundant";
}

TEST(ProjectionStats, RedundancyQuickKillsAreCounted) {
  ProjectionSandbox Sandbox;
  System S = boxSystem(0, 10);
  // Same coefficient row as x >= 0 with a weaker constant: a pure
  // syntactic kill, no exact test needed.
  S.addGE(S.varExpr(0).plusConst(5));
  S.removeRedundant();
  EXPECT_EQ(S.numConstraints(), 4u);
  EXPECT_GT(projectionStats().RedundancyQuickKills, 0u);
}

TEST(ProjectionStats, PhaseTimerAttributesExclusiveTime) {
  ProjectionSandbox Sandbox;
  resetPhaseProfiles();
  {
    PhaseTimer Outer("test.outer");
    System S = boxSystem(0, 50);
    EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
    PhaseTimer Inner("test.inner");
    EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  }
  const std::vector<PhaseProfile> &Ps = phaseProfiles();
  ASSERT_EQ(Ps.size(), 2u);
  const PhaseProfile *Outer = nullptr, *Inner = nullptr;
  for (const PhaseProfile &P : Ps) {
    if (P.Name == "test.outer")
      Outer = &P;
    if (P.Name == "test.inner")
      Inner = &P;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Invocations, 1u);
  EXPECT_EQ(Inner->Invocations, 1u);
  // The inner phase's query is attributed to the inner row only; the
  // rows partition the work instead of double-counting nested phases.
  EXPECT_EQ(Outer->Delta.FeasQueries, 1u) << "outer row is exclusive";
  EXPECT_EQ(Inner->Delta.FeasQueries, 1u);
  EXPECT_GE(Outer->Seconds, 0.0);
  EXPECT_GE(Inner->Seconds, 0.0);
  resetPhaseProfiles();
  EXPECT_TRUE(phaseProfiles().empty());
}

TEST(ProjectionStats, SequentialSiblingsPartitionUnderOneParent) {
  ProjectionSandbox Sandbox;
  resetPhaseProfiles();
  {
    PhaseTimer Parent("test.parent");
    {
      PhaseTimer A("test.a");
      EXPECT_EQ(boxSystem(0, 7).checkIntegerFeasible(),
                Feasibility::Feasible);
    }
    {
      PhaseTimer B("test.b");
      EXPECT_EQ(boxSystem(0, 8).checkIntegerFeasible(),
                Feasibility::Feasible);
      EXPECT_EQ(boxSystem(0, 9).checkIntegerFeasible(),
                Feasibility::Feasible);
    }
  }
  uint64_t Total = 0;
  for (const PhaseProfile &P : phaseProfiles())
    Total += P.Delta.FeasQueries;
  EXPECT_EQ(Total, projectionStats().FeasQueries)
      << "phase rows must sum to the thread totals";
  for (const PhaseProfile &P : phaseProfiles()) {
    if (P.Name == "test.parent") {
      EXPECT_EQ(P.Delta.FeasQueries, 0u);
    }
    if (P.Name == "test.a") {
      EXPECT_EQ(P.Delta.FeasQueries, 1u);
    }
    if (P.Name == "test.b") {
      EXPECT_EQ(P.Delta.FeasQueries, 2u);
    }
  }
  resetPhaseProfiles();
}

TEST(ProjectionStats, StateIsThreadLocal) {
  ProjectionSandbox Sandbox;
  projectionOptions().CacheCapacity = 4096; // distinctive main-thread value
  System S = boxSystem(0, 10);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);
  uint64_t MainQueries = projectionStats().FeasQueries;
  std::size_t MainEntries = projectionCacheEntries();
  EXPECT_GT(MainEntries, 0u);

  unsigned PeerCapacity = 0;
  uint64_t PeerQueries = 0;
  std::size_t PeerEntriesBefore = 0, PeerEntriesAfter = 0;
  std::thread Peer([&] {
    // A fresh thread sees default options, zero counters, empty caches —
    // and whatever it does there stays there.
    PeerCapacity = projectionOptions().CacheCapacity;
    PeerEntriesBefore = projectionCacheEntries();
    for (IntT Hi = 1; Hi <= 5; ++Hi)
      (void)boxSystem(0, Hi).checkIntegerFeasible();
    PeerQueries = projectionStats().FeasQueries;
    PeerEntriesAfter = projectionCacheEntries();
  });
  Peer.join();

  EXPECT_EQ(PeerCapacity, ProjectionOptions().CacheCapacity)
      << "main-thread option edits must not leak into other threads";
  EXPECT_EQ(PeerEntriesBefore, 0u);
  EXPECT_EQ(PeerQueries, 5u);
  EXPECT_GT(PeerEntriesAfter, 0u);
  EXPECT_EQ(projectionStats().FeasQueries, MainQueries)
      << "peer-thread queries must not move main-thread counters";
  EXPECT_EQ(projectionCacheEntries(), MainEntries)
      << "peer-thread cache fills must not touch main-thread caches";
}

} // namespace
