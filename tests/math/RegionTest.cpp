//===- tests/math/RegionTest.cpp ------------------------------*- C++ -*-===//

#include "RegionPoints.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

System lineSegment(IntT Lo, IntT Hi) {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  System S(std::move(Sp));
  S.addRange(0, Lo, Hi);
  return S;
}

} // namespace

TEST(RegionTest, FromSystemAndContains) {
  Region R = Region::fromSystem(lineSegment(0, 9));
  EXPECT_TRUE(R.hasPieces());
  EXPECT_TRUE(containsPoint(R, {0}));
  EXPECT_TRUE(containsPoint(R, {9}));
  EXPECT_FALSE(containsPoint(R, {10}));
  EXPECT_FALSE(containsPoint(R, {-1}));
}

TEST(RegionTest, SubtractInterval) {
  Region A = Region::fromSystem(lineSegment(0, 9));
  Region B = Region::fromSystem(lineSegment(3, 5));
  Region D = A.subtract(B);
  EXPECT_TRUE(D.isExact());
  for (IntT I = 0; I <= 9; ++I)
    EXPECT_EQ(containsPoint(D, {I}), I < 3 || I > 5) << "at " << I;
}

TEST(RegionTest, SubtractToEmpty) {
  Region A = Region::fromSystem(lineSegment(2, 4));
  Region B = Region::fromSystem(lineSegment(0, 9));
  Region D = A.subtract(B);
  EXPECT_TRUE(D.isIntegerEmpty());
}

TEST(RegionTest, SubtractEqualityPiece) {
  // [0,9] minus {i == 4} keeps everything except 4.
  System Pin = lineSegment(0, 9);
  System Eq(Pin.space());
  Eq.addEQ(Eq.varExpr(0).plusConst(-4));
  Region A = Region::fromSystem(Pin);
  Region B = Region::fromSystem(Eq);
  Region D = A.subtract(B);
  for (IntT I = 0; I <= 9; ++I)
    EXPECT_EQ(containsPoint(D, {I}), I != 4) << "at " << I;
}

TEST(RegionTest, IntersectWith) {
  Region A = Region::fromSystem(lineSegment(0, 9));
  System Half(A.baseSpace());
  Half.addGE(Half.varExpr(0).plusConst(-6)); // i >= 6
  intersectWith(A, Half);
  EXPECT_FALSE(containsPoint(A, {5}));
  EXPECT_TRUE(containsPoint(A, {6}));
}

TEST(RegionTest, AuxVarsAreExistential) {
  // { i : exists q, i == 2q } = even numbers; containsPoint must search q.
  Space Sp;
  Sp.add("i", VarKind::Loop);
  System S(std::move(Sp));
  S.addRange(0, 0, 10);
  unsigned Q = S.addVar("@q", VarKind::Aux);
  S.addEq(S.varExpr(0), S.varExpr(Q).scale(2));
  Region R = Region::fromSystem(S);
  EXPECT_EQ(R.baseSpace().size(), 1u);
  EXPECT_TRUE(containsPoint(R, {4}));
  EXPECT_FALSE(containsPoint(R, {5}));
}

TEST(RegionTest, SubtractEvenNumbersViaAuxElimination) {
  // [0,10] minus the even numbers. The aux elimination here is inexact
  // (coefficient 2 on both sides), so the region must be marked inexact.
  Space Sp;
  Sp.add("i", VarKind::Loop);
  System Evens(Sp);
  Evens.addRange(0, 0, 10);
  unsigned Q = Evens.addVar("@q", VarKind::Aux);
  Evens.addEq(Evens.varExpr(0), Evens.varExpr(Q).scale(2));

  Region A = Region::fromSystem(lineSegment(0, 10));
  Region B = Region::fromSystem(Evens);
  Region D = A.subtract(B);
  EXPECT_FALSE(D.isExact());
}

TEST(RegionTest, EliminateAuxVarsExactCase) {
  // exists q: q == i + 1, q <= N  reduces exactly to i + 1 <= N.
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("N", VarKind::Param);
  System S(std::move(Sp));
  unsigned Q = S.addVar("@q", VarKind::Aux);
  S.addEq(S.varExpr(Q), S.varExpr(0).plusConst(1));
  S.addLE(S.varExpr(Q), S.varExpr(1));
  bool Exact = true;
  System R = eliminateAuxVars(S, &Exact);
  EXPECT_TRUE(Exact);
  EXPECT_EQ(R.numVars(), 2u);
  EXPECT_TRUE(R.holds({3, 4}));
  EXPECT_FALSE(R.holds({4, 4}));
}

TEST(RegionTest, PruneEmptyDropsContradictions) {
  Region R(lineSegment(0, 3).space());
  R.addPiece(lineSegment(0, 3));
  System Bad = lineSegment(5, 2); // empty
  R.addPiece(Bad);
  R.pruneEmpty();
  EXPECT_EQ(R.pieces().size(), 1u);
}
