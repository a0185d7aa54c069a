//===- tests/math/ProjectionPropertyTest.cpp ------------------*- C++ -*-===//
//
// Randomized property tests: Fourier-Motzkin projection, feasibility,
// redundancy removal and enumeration are checked against brute-force
// enumeration over a bounding box.
//
//===----------------------------------------------------------------------===//

#include "math/System.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

using namespace dmcc;

namespace {

constexpr IntT BoxLo = -6;
constexpr IntT BoxHi = 6;
constexpr unsigned NumVars = 3;

/// A random system over NumVars variables, bounded by the box.
System randomSystem(std::mt19937 &Rng) {
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  Sp.add("z", VarKind::Loop);
  System S(std::move(Sp));
  for (unsigned I = 0; I != NumVars; ++I)
    S.addRange(I, BoxLo, BoxHi);
  std::uniform_int_distribution<int> NumCons(2, 5);
  std::uniform_int_distribution<int> Coef(-3, 3);
  std::uniform_int_distribution<int> Cst(-6, 6);
  std::uniform_int_distribution<int> EqDist(0, 4);
  for (int C = NumCons(Rng); C-- > 0;) {
    AffineExpr E(NumVars);
    for (unsigned I = 0; I != NumVars; ++I)
      E.coeff(I) = Coef(Rng);
    E.constant() = Cst(Rng);
    if (E.isConstant())
      continue;
    if (EqDist(Rng) == 0)
      S.addEQ(std::move(E));
    else
      S.addGE(std::move(E));
  }
  return S;
}

/// All integer points of S within the box.
std::set<std::vector<IntT>> bruteForcePoints(const System &S) {
  std::set<std::vector<IntT>> Pts;
  std::vector<IntT> V(NumVars);
  for (V[0] = BoxLo; V[0] <= BoxHi; ++V[0])
    for (V[1] = BoxLo; V[1] <= BoxHi; ++V[1])
      for (V[2] = BoxLo; V[2] <= BoxHi; ++V[2])
        if (S.holds(V))
          Pts.insert(V);
  return Pts;
}

class ProjectionProperty : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(ProjectionProperty, FMEliminationIsSoundAndTracksExactness) {
  std::mt19937 Rng(GetParam());
  for (int Trial = 0; Trial != 20; ++Trial) {
    System S = randomSystem(Rng);
    auto Pts = bruteForcePoints(S);
    for (unsigned Elim = 0; Elim != NumVars; ++Elim) {
      bool Exact = true;
      System R = S.fmEliminated(Elim, &Exact);
      ASSERT_FALSE(R.involves(Elim));
      // Soundness: every point of S (with any value in the eliminated
      // coordinate) satisfies R.
      for (const auto &P : Pts)
        EXPECT_TRUE(R.holds(P))
            << "projection lost a point, seed " << GetParam();
      if (!Exact)
        continue;
      // Exactness: every point of R (within the box, eliminated coordinate
      // arbitrary) has a preimage in S for some integer value.
      std::vector<IntT> V(NumVars);
      for (V[0] = BoxLo; V[0] <= BoxHi; ++V[0])
        for (V[1] = BoxLo; V[1] <= BoxHi; ++V[1])
          for (V[2] = BoxLo; V[2] <= BoxHi; ++V[2]) {
            if (V[Elim] != 0)
              continue; // one representative per projected point
            if (!R.holds(V))
              continue;
            bool Found = false;
            std::vector<IntT> W = V;
            // The witness may lie slightly outside the box only if S
            // does not contain the box bounds; it does, so scan the box.
            for (W[Elim] = BoxLo; W[Elim] <= BoxHi && !Found; ++W[Elim])
              Found = S.holds(W);
            EXPECT_TRUE(Found)
                << "exact projection gained a point, seed " << GetParam();
          }
    }
  }
}

TEST_P(ProjectionProperty, IntegerFeasibilityMatchesBruteForce) {
  std::mt19937 Rng(GetParam() + 1000);
  for (int Trial = 0; Trial != 40; ++Trial) {
    System S = randomSystem(Rng);
    bool Any = !bruteForcePoints(S).empty();
    Feasibility F = S.checkIntegerFeasible();
    if (F == Feasibility::Unknown)
      continue; // budget exhausted; conservatively unchecked
    EXPECT_EQ(F == Feasibility::Feasible, Any)
        << "feasibility mismatch, seed " << GetParam();
    if (F == Feasibility::Feasible) {
      auto P = S.sampleIntPoint();
      ASSERT_TRUE(P.has_value());
      EXPECT_TRUE(S.holds(*P));
    }
  }
}

TEST_P(ProjectionProperty, EnumerationMatchesBruteForce) {
  std::mt19937 Rng(GetParam() + 2000);
  for (int Trial = 0; Trial != 20; ++Trial) {
    System S = randomSystem(Rng);
    auto Expected = bruteForcePoints(S);
    std::set<std::vector<IntT>> Got;
    std::vector<std::vector<IntT>> Order;
    S.enumeratePoints([&](const std::vector<IntT> &V) {
      Got.insert(V);
      Order.push_back(V);
    });
    EXPECT_EQ(Got, Expected) << "enumeration mismatch, seed " << GetParam();
    for (unsigned K = 1; K < Order.size(); ++K)
      EXPECT_TRUE(Order[K - 1] < Order[K]) << "not in lexicographic order";
  }
}

TEST_P(ProjectionProperty, RedundancyRemovalPreservesThePointSet) {
  std::mt19937 Rng(GetParam() + 3000);
  for (int Trial = 0; Trial != 20; ++Trial) {
    System S = randomSystem(Rng);
    auto Before = bruteForcePoints(S);
    System R = S;
    R.removeRedundant();
    auto After = bruteForcePoints(R);
    EXPECT_EQ(Before, After)
        << "redundancy removal changed the set, seed " << GetParam();
    EXPECT_LE(R.numConstraints(), S.numConstraints() + 1);
  }
}

TEST_P(ProjectionProperty, ProjectionOntoPrefixIsSound) {
  std::mt19937 Rng(GetParam() + 4000);
  for (int Trial = 0; Trial != 10; ++Trial) {
    System S = randomSystem(Rng);
    std::vector<unsigned> Rest; // highest index first
    for (unsigned I = S.numVars(); I-- > 2;)
      Rest.push_back(I);
    System R = S.eliminated(Rest);
    for (unsigned I : Rest)
      R.removeVar(I);
    ASSERT_EQ(R.numVars(), 2u);
    for (const auto &P : bruteForcePoints(S))
      EXPECT_TRUE(R.holds({P[0], P[1]}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));
