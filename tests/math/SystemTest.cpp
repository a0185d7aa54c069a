//===- tests/math/SystemTest.cpp ------------------------------*- C++ -*-===//

#include "math/System.h"

#include <gtest/gtest.h>

#include <set>

using namespace dmcc;

namespace {

/// Builds a system over loop vars i, j and param N.
System ijN() {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("j", VarKind::Loop);
  Sp.add("N", VarKind::Param);
  return System(std::move(Sp));
}

} // namespace

TEST(SystemTest, NormalizeDropsTautologies) {
  System S = ijN();
  S.addGE(S.constExpr(5));
  S.addGE(S.varExpr(0));
  EXPECT_TRUE(S.normalize());
  EXPECT_EQ(S.numConstraints(), 1u);
}

TEST(SystemTest, NormalizeDetectsTrivialEmptiness) {
  System S = ijN();
  S.addGE(S.constExpr(-1));
  EXPECT_FALSE(S.normalize());
}

TEST(SystemTest, NormalizeGcdTightensInequalities) {
  // 2i - 5 >= 0 tightens to i - 3 >= 0 (i >= ceil(5/2) = 3).
  System S = ijN();
  S.addGE(S.varExpr(0).scale(2).plusConst(-5));
  EXPECT_TRUE(S.normalize());
  ASSERT_EQ(S.numConstraints(), 1u);
  EXPECT_EQ(S.constraints()[0].coeff(0), 1);
  EXPECT_EQ(S.constraints()[0].constant(), -3);
}

TEST(SystemTest, NormalizeGcdTestOnEqualities) {
  // 2i == 1 has no integer solution.
  System S = ijN();
  S.addEQ(S.varExpr(0).scale(2).plusConst(-1));
  EXPECT_FALSE(S.normalize());
}

TEST(SystemTest, NormalizeMergesOppositePairIntoEquality) {
  System S = ijN();
  AffineExpr E = S.varExpr(0) - S.varExpr(1); // i - j
  S.addGE(E);
  S.addGE(E.negated());
  EXPECT_TRUE(S.normalize());
  ASSERT_EQ(S.numConstraints(), 1u);
  EXPECT_TRUE(S.constraints()[0].isEquality());
}

TEST(SystemTest, NormalizeDeduplicates) {
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(0).scale(3)); // same after gcd reduction
  EXPECT_TRUE(S.normalize());
  EXPECT_EQ(S.numConstraints(), 1u);
}

TEST(SystemTest, NormalizeDropsTheEqualityAMergeDuplicates) {
  // Merging the pair -x >= 0, x >= 0 into x == 0 duplicates the equality
  // kept between them; one normalize must already drop the copy.
  Space Sp;
  Sp.add("x", VarKind::Loop);
  System S(std::move(Sp));
  S.addGE(S.varExpr(0).negated());
  S.addEQ(S.varExpr(0));
  S.addGE(S.varExpr(0));
  EXPECT_TRUE(S.normalize());
  EXPECT_EQ(S.str(), "  x == 0\n");
}

TEST(SystemTest, SubstituteAndRemoveVar) {
  System S = ijN();
  S.addGE(S.varExpr(0) - S.varExpr(1)); // i - j >= 0
  S.substitute(0, S.varExpr(2));        // i := N
  EXPECT_FALSE(S.involves(0));
  S.removeVar(0);
  EXPECT_EQ(S.numVars(), 2u);
  // Now: N - j >= 0 over [j, N].
  EXPECT_TRUE(S.holds({3, 5}));
  EXPECT_FALSE(S.holds({6, 5}));
}

TEST(SystemTest, FMEliminationTransitivity) {
  // i <= j, j <= N: eliminating j yields i <= N.
  System S = ijN();
  S.addLE(S.varExpr(0), S.varExpr(1));
  S.addLE(S.varExpr(1), S.varExpr(2));
  bool Exact = true;
  System R = S.fmEliminated(1, &Exact);
  EXPECT_TRUE(Exact);
  EXPECT_FALSE(R.involves(1));
  EXPECT_TRUE(R.holds({3, 0, 5}));
  EXPECT_FALSE(R.holds({6, 0, 5}));
}

TEST(SystemTest, FMEliminationUsesUnitEqualitySubstitution) {
  // j == i + 1 and j <= N: eliminating j gives i + 1 <= N.
  System S = ijN();
  S.addEq(S.varExpr(1), S.varExpr(0).plusConst(1));
  S.addLE(S.varExpr(1), S.varExpr(2));
  bool Exact = true;
  System R = S.fmEliminated(1, &Exact);
  EXPECT_TRUE(Exact);
  EXPECT_TRUE(R.holds({4, 0, 5}));
  EXPECT_FALSE(R.holds({5, 0, 5}));
}

TEST(SystemTest, FMEliminationInexactFlag) {
  // 2j >= i and 2j <= i + 1 constrain j to a width-1/2 rational window;
  // elimination with non-unit coefficients on both sides is inexact.
  System S = ijN();
  S.addGE(S.varExpr(1).scale(2) - S.varExpr(0));
  S.addGE(S.varExpr(0).plusConst(1) - S.varExpr(1).scale(2));
  bool Exact = true;
  (void)S.fmEliminated(1, &Exact);
  EXPECT_FALSE(Exact);
}

TEST(SystemTest, BoundsOf) {
  // 0 <= i, 2i <= N: bounds of i are lower (0)/1 and upper N/2.
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(2) - S.varExpr(0).scale(2));
  std::vector<VarBound> Lo, Hi;
  S.boundsOf(0, Lo, Hi);
  ASSERT_EQ(Lo.size(), 1u);
  ASSERT_EQ(Hi.size(), 1u);
  EXPECT_EQ(Lo[0].Den, 1);
  EXPECT_TRUE(Lo[0].Num.isZero());
  EXPECT_EQ(Hi[0].Den, 2);
  EXPECT_EQ(Hi[0].Num.coeff(2), 1);
}

TEST(SystemTest, IntegerFeasibility) {
  // 0 <= i <= 5, i == j, j >= 4: feasible (i = j ∈ {4, 5}).
  System S = ijN();
  S.addRange(0, 0, 5);
  S.addEq(S.varExpr(0), S.varExpr(1));
  S.addGE(S.varExpr(1).plusConst(-4));
  S.addEQ(S.varExpr(2).plusConst(-10)); // pin N
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Feasible);

  S.addGE(S.varExpr(1).negated().plusConst(3)); // j <= 3: contradiction
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Empty);
}

TEST(SystemTest, IntegerFeasibilityCatchesParityGaps) {
  // 1 <= 2i <= 1 is rationally feasible (i = 1/2) but integer-empty.
  System S = ijN();
  S.addGE(S.varExpr(0).scale(2).plusConst(-1));
  S.addGE(S.constExpr(1) - S.varExpr(0).scale(2));
  S.addRange(1, 0, 0);
  S.addRange(2, 0, 0);
  EXPECT_EQ(S.checkIntegerFeasible(), Feasibility::Empty);
}

TEST(SystemTest, SampleIntPoint) {
  System S = ijN();
  S.addRange(0, 3, 7);
  S.addEq(S.varExpr(1), S.varExpr(0).scale(2)); // j = 2i
  S.addRange(2, 0, 0);
  auto P = S.sampleIntPoint();
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(S.holds(*P));
  EXPECT_EQ((*P)[1], 2 * (*P)[0]);
}

TEST(SystemTest, EnumeratePointsTriangle) {
  // 0 <= i <= j <= 3 with N pinned: 10 points in lexicographic order.
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(1) - S.varExpr(0));
  S.addGE(S.constExpr(3) - S.varExpr(1));
  S.addRange(2, 0, 0);
  std::vector<std::vector<IntT>> Pts;
  S.enumeratePoints([&](const std::vector<IntT> &V) { Pts.push_back(V); });
  ASSERT_EQ(Pts.size(), 10u);
  EXPECT_EQ(Pts.front()[0], 0);
  EXPECT_EQ(Pts.front()[1], 0);
  EXPECT_EQ(Pts.back()[0], 3);
  EXPECT_EQ(Pts.back()[1], 3);
  // Lexicographic order.
  for (unsigned K = 1; K < Pts.size(); ++K)
    EXPECT_TRUE(Pts[K - 1] < Pts[K]);
}

TEST(SystemTest, RemoveRedundant) {
  // i >= 0, i >= -5 (redundant), i <= N, i <= N + 3 (redundant).
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(0).plusConst(5));
  S.addGE(S.varExpr(2) - S.varExpr(0));
  S.addGE(S.varExpr(2).plusConst(3) - S.varExpr(0));
  S.addRange(1, 0, 0);
  S.removeRedundant();
  // j's two range constraints merge to an equality; i keeps 2 constraints.
  unsigned CountI = 0;
  for (ConstraintRef C : S.constraints())
    if (C.involves(0))
      ++CountI;
  EXPECT_EQ(CountI, 2u);
}

TEST(SystemTest, RemoveRedundantIgnoresHistory) {
  // 0 <= i <= N and 0 <= j <= i: i >= 0 is redundant, three rows stay.
  auto Rows = [](const System &S) {
    return std::vector<AffineExpr>{
        S.varExpr(0), S.varExpr(2) - S.varExpr(0), S.varExpr(1),
        S.varExpr(0) - S.varExpr(1)};
  };
  System S = ijN(), Reversed = ijN();
  for (AffineExpr &E : Rows(S))
    S.addGE(std::move(E));
  std::vector<AffineExpr> R = Rows(Reversed);
  for (auto It = R.rbegin(); It != R.rend(); ++It)
    Reversed.addGE(*It);

  clearProjectionCaches();
  System Cold = S;
  Cold.removeRedundant();
  ASSERT_EQ(Cold.numConstraints(), 3u);

  // Reducing the reversed rows first must not change S's result.
  clearProjectionCaches();
  Reversed.removeRedundant();
  EXPECT_NE(Reversed.str(), Cold.str());
  System Warm = S;
  Warm.removeRedundant();
  EXPECT_EQ(Warm.str(), Cold.str());
}

TEST(SystemTest, ProjectedOnto) {
  // 0 <= i <= j <= N; projecting onto (i, N) gives 0 <= i <= N.
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(1) - S.varExpr(0));
  S.addGE(S.varExpr(2) - S.varExpr(1));
  System R = S.eliminated({1});
  R.removeVar(1);
  EXPECT_EQ(R.numVars(), 2u);
  EXPECT_EQ(R.space().name(0), "i");
  EXPECT_EQ(R.space().name(1), "N");
  EXPECT_TRUE(R.holds({0, 4}));
  EXPECT_TRUE(R.holds({4, 4}));
  EXPECT_FALSE(R.holds({5, 4}));
  EXPECT_FALSE(R.holds({-1, 4}));
}

TEST(SystemTest, AddMappedAlignsByName) {
  Space A;
  A.add("x", VarKind::Loop);
  A.add("y", VarKind::Loop);
  System SA(A);
  SA.addGE(SA.varExpr(0) - SA.varExpr(1)); // x - y >= 0

  Space B;
  B.add("y", VarKind::Loop);
  B.add("z", VarKind::Loop);
  B.add("x", VarKind::Loop);
  System SB(B);
  SB.addAllMapped(SA);
  ASSERT_EQ(SB.numConstraints(), 1u);
  // In B order (y, z, x): x - y >= 0.
  EXPECT_TRUE(SB.holds({1, 0, 2}));
  EXPECT_FALSE(SB.holds({2, 0, 1}));
}

TEST(SystemTest, AddAllMappedRenamesUsedVariablesOnly) {
  Space A;
  A.add("i", VarKind::Loop);
  A.add("unused", VarKind::Loop);
  System SA(A);
  SA.addGE(SA.varExpr(0).plusConst(-2)); // i - 2 >= 0

  Space B;
  B.add("N", VarKind::Param);
  B.add("i_r", VarKind::Loop);
  System SB(B);
  // "unused" has no coefficient, so it is not looked up, as in mapExpr.
  SB.addAllMapped(SA, [](const std::string &N) {
    EXPECT_NE(N, "unused");
    return N + "_r";
  });
  EXPECT_EQ(SB.str(), "  i_r - 2 >= 0\n");
}

TEST(SystemDeathTest, AddAllMappedNamesAVariableMissingHere) {
  Space A;
  A.add("i", VarKind::Loop);
  System SA(A);
  SA.addGE(SA.varExpr(0));
  Space B;
  B.add("j", VarKind::Loop);
  System SB(B);
  EXPECT_DEATH(SB.addAllMapped(SA),
               "mapExpr: variable missing in target space");
}

TEST(SystemTest, MapExprRename) {
  Space A;
  A.add("i", VarKind::Loop);
  Space B;
  B.add("i_r", VarKind::Loop);
  AffineExpr E = AffineExpr::var(1, 0, 2).plusConst(1);
  AffineExpr M = mapExpr(E, A, B,
                         [](const std::string &N) { return N + "_r"; });
  EXPECT_EQ(M.coeff(0), 2);
  EXPECT_EQ(M.constant(), 1);
}

TEST(SystemTest, HoldsChecksAllConstraints) {
  System S = ijN();
  S.addRange(0, 0, 10);
  S.addEq(S.varExpr(0), S.varExpr(1));
  EXPECT_TRUE(S.holds({4, 4, 0}));
  EXPECT_FALSE(S.holds({4, 5, 0}));
  EXPECT_FALSE(S.holds({11, 11, 0}));
}
