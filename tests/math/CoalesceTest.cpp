//===- tests/math/CoalesceTest.cpp ----------------------------*- C++ -*-===//
//
// coalesceSystems: undoing case splits by entailment-based convex hulls.
//
//===----------------------------------------------------------------------===//

#include "math/Region.h"

#include <gtest/gtest.h>

#include <random>

using namespace dmcc;

namespace {

System interval(IntT Lo, IntT Hi) {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  System S(std::move(Sp));
  S.addRange(0, Lo, Hi);
  return S;
}

} // namespace

TEST(CoalesceTest, AdjacentIntervalsMerge) {
  auto U = coalesceSystems(interval(0, 4), interval(5, 9));
  ASSERT_TRUE(U.has_value());
  for (IntT I = -2; I <= 11; ++I)
    EXPECT_EQ(U->holds({I}), I >= 0 && I <= 9) << "at " << I;
}

TEST(CoalesceTest, OverlappingIntervalsMerge) {
  auto U = coalesceSystems(interval(0, 6), interval(4, 9));
  ASSERT_TRUE(U.has_value());
  EXPECT_TRUE(U->holds({5}));
  EXPECT_FALSE(U->holds({10}));
}

TEST(CoalesceTest, GapRefusesToMerge) {
  // {0..3} u {6..9} is not convex.
  EXPECT_FALSE(coalesceSystems(interval(0, 3), interval(6, 9)).has_value());
}

TEST(CoalesceTest, CaseSplitWithEntailedEquality) {
  // The pattern from self-reuse pieces: {p == 2, r == 2} u
  // {p >= 3, r == p}: the union is exactly {p >= 2, r == p} because the
  // first piece also satisfies r == p.
  Space Sp;
  Sp.add("p", VarKind::Proc);
  Sp.add("r", VarKind::Loop);
  Sp.add("N", VarKind::Param);
  System A(Sp), B(Sp);
  A.addEQ(A.varExpr(0).plusConst(-2));
  A.addEQ(A.varExpr(1).plusConst(-2));
  A.addGE(A.varExpr(2) - A.varExpr(0)); // p <= N
  B.addGE(B.varExpr(0).plusConst(-3));
  B.addEq(B.varExpr(1), B.varExpr(0));
  B.addGE(B.varExpr(2) - B.varExpr(0));
  auto U = coalesceSystems(A, B);
  ASSERT_TRUE(U.has_value());
  EXPECT_TRUE(U->holds({2, 2, 10}));
  EXPECT_TRUE(U->holds({7, 7, 10}));
  EXPECT_FALSE(U->holds({1, 1, 10}));
  EXPECT_FALSE(U->holds({5, 4, 10}));
}

TEST(CoalesceTest, DifferentSpacesRefuse) {
  Space SpA;
  SpA.add("i", VarKind::Loop);
  Space SpB;
  SpB.add("j", VarKind::Loop);
  System A(SpA), B(SpB);
  A.addRange(0, 0, 3);
  B.addRange(0, 0, 3);
  EXPECT_FALSE(coalesceSystems(A, B).has_value());
}

TEST(CoalesceTest, EmptyPieceYieldsOther) {
  System Bad = interval(5, 2); // empty
  auto U = coalesceSystems(interval(0, 3), Bad);
  ASSERT_TRUE(U.has_value());
  EXPECT_TRUE(U->holds({2}));
  EXPECT_FALSE(U->holds({4}));
}

TEST(CoalesceTest, RandomizedNeverGainsOrLosesPoints) {
  std::mt19937 Rng(7);
  std::uniform_int_distribution<int> D(-5, 5);
  for (int Trial = 0; Trial != 60; ++Trial) {
    IntT A0 = D(Rng), A1 = A0 + std::abs(D(Rng));
    IntT B0 = D(Rng), B1 = B0 + std::abs(D(Rng));
    System A = interval(A0, A1), B = interval(B0, B1);
    auto U = coalesceSystems(A, B);
    for (IntT I = -12; I <= 12; ++I) {
      bool InUnion = (I >= A0 && I <= A1) || (I >= B0 && I <= B1);
      if (U) {
        EXPECT_EQ(U->holds({I}), InUnion)
            << "trial " << Trial << " at " << I;
      }
    }
    // If the union is convex, coalescing must succeed.
    bool Convex = A1 + 1 >= B0 && B1 + 1 >= A0;
    if (Convex) {
      EXPECT_TRUE(U.has_value()) << "trial " << Trial;
    }
  }
}

TEST(CoalesceTest, TwoDimensionalStripes) {
  // Two half-planes of a rectangle split by a diagonal case: i <= j and
  // i >= j + 1 partition the box; the hull is the whole box.
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("j", VarKind::Loop);
  System A(Sp), B(Sp);
  for (System *S : {&A, &B}) {
    S->addRange(0, 0, 5);
    S->addRange(1, 0, 5);
  }
  A.addGE(A.varExpr(1) - A.varExpr(0));                // i <= j
  B.addGE(B.varExpr(0) - B.varExpr(1).plusConst(1));   // i >= j + 1
  auto U = coalesceSystems(A, B);
  ASSERT_TRUE(U.has_value());
  unsigned Count = 0;
  U->enumeratePoints([&](const std::vector<IntT> &) { ++Count; });
  EXPECT_EQ(Count, 36u);
}

namespace {

/// Runs the shared coalescing loop over plain systems, every pair
/// compatible, and returns how many merge attempts it made.
uint64_t coalesceIntervals(std::vector<System> &Items) {
  resetPhaseProfiles();
  coalesceAll(
      Items, [](const System &, const System &) { return true; },
      [](System &S) -> System & { return S; });
  for (const PhaseProfile &P : phaseProfiles())
    if (P.Name == "math.coalesce")
      return P.Invocations;
  return 0;
}

} // namespace

TEST(CoalesceTest, FailedPairIsRetriedAfterAMerge) {
  // ([0,3], [6,9]) fails first; once [4,5] has merged into [0,3] the
  // pair must be tried again, giving the single piece [0,9].
  std::vector<System> Items = {interval(0, 3), interval(6, 9),
                               interval(4, 5)};
  coalesceIntervals(Items);
  ASSERT_EQ(Items.size(), 1u);
  for (IntT I = -1; I <= 10; ++I)
    EXPECT_EQ(Items[0].holds({I}), I >= 0 && I <= 9) << "at " << I;
}

TEST(CoalesceTest, UnchangedFailedPairIsNotRetried) {
  // Six attempts find only ([0,3], [4,5]); afterwards the two far
  // intervals are each tried once against the new [0,5], and their own
  // failed pair is not tried again.
  std::vector<System> Items = {interval(20, 21), interval(30, 31),
                               interval(0, 3), interval(4, 5)};
  EXPECT_EQ(coalesceIntervals(Items), 8u);
  EXPECT_EQ(Items.size(), 3u);
}
