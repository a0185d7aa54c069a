//===- tests/math/RegionPropertyTest.cpp ----------------------*- C++ -*-===//
//
// Randomized properties of Region set algebra against brute force.
//
//===----------------------------------------------------------------------===//

#include "RegionPoints.h"

#include <gtest/gtest.h>

#include <random>

using namespace dmcc;

namespace {

constexpr IntT Lo = -5, Hi = 5;

Space xy() {
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  return Sp;
}

System randomPiece(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-4, 4);
  std::uniform_int_distribution<int> NumC(1, 3);
  System S(xy());
  S.addRange(0, Lo, Hi);
  S.addRange(1, Lo, Hi);
  for (int C = NumC(Rng); C-- > 0;) {
    AffineExpr E(2);
    E.coeff(0) = Coef(Rng);
    E.coeff(1) = Coef(Rng);
    E.constant() = Cst(Rng);
    if (!E.isConstant())
      S.addGE(std::move(E));
  }
  return S;
}

bool bruteIn(const Region &R, IntT X, IntT Y) {
  return containsPoint(R, {X, Y});
}

class RegionProperty : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RegionProperty, SubtractMatchesBruteForce) {
  std::mt19937 Rng(GetParam() * 101 + 7);
  for (int Trial = 0; Trial != 12; ++Trial) {
    System A = randomPiece(Rng), B = randomPiece(Rng);
    Region RA = Region::fromSystem(A);
    Region RB = Region::fromSystem(B);
    Region D = RA.subtract(RB);
    ASSERT_TRUE(D.isExact());
    for (IntT X = Lo; X <= Hi; ++X)
      for (IntT Y = Lo; Y <= Hi; ++Y) {
        bool Expect = A.holds({X, Y}) && !B.holds({X, Y});
        EXPECT_EQ(bruteIn(D, X, Y), Expect)
            << "seed " << GetParam() << " trial " << Trial << " at ("
            << X << ", " << Y << ")";
      }
  }
}

TEST_P(RegionProperty, SubtractThenIntersectIsEmpty) {
  std::mt19937 Rng(GetParam() * 211 + 3);
  for (int Trial = 0; Trial != 10; ++Trial) {
    System A = randomPiece(Rng), B = randomPiece(Rng);
    Region D = Region::fromSystem(A).subtract(Region::fromSystem(B));
    intersectWith(D, B);
    EXPECT_TRUE(D.isIntegerEmpty())
        << "seed " << GetParam() << " trial " << Trial;
  }
}

TEST_P(RegionProperty, DoubleSubtractLeavesIntersection) {
  // A \ (A \ B) == A ∩ B.
  std::mt19937 Rng(GetParam() * 307 + 11);
  for (int Trial = 0; Trial != 8; ++Trial) {
    System A = randomPiece(Rng), B = randomPiece(Rng);
    Region RA = Region::fromSystem(A);
    Region D = RA.subtract(RA.subtract(Region::fromSystem(B)));
    for (IntT X = Lo; X <= Hi; ++X)
      for (IntT Y = Lo; Y <= Hi; ++Y) {
        bool Expect = A.holds({X, Y}) && B.holds({X, Y});
        EXPECT_EQ(bruteIn(D, X, Y), Expect)
            << "seed " << GetParam() << " trial " << Trial;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));
