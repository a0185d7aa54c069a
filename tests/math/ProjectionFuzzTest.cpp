//===- tests/math/ProjectionFuzzTest.cpp ----------------------*- C++ -*-===//
//
// Differential fuzzing of the polyhedral fast path: random constraint
// systems are solved twice, once with the memoization cache and the
// syntactic quick-checks enabled and once with both off. The
// accelerators must never change a definite feasibility verdict or the
// solution set survived by removeRedundant. Projections by
// System::eliminated, in two elimination orders, must contain the true
// shadow and agree with each other when both are exact.
//
// Runs under its own binary (dmcc_projfuzz_test) with the `fuzz` ctest
// label so the default suite stays fast; DMCC_FUZZ_ITERS overrides the
// number of random systems.
//
//===----------------------------------------------------------------------===//

#include "FuzzIters.h"
#include "math/System.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace dmcc;

namespace {

constexpr IntT BoxLo = -5;
constexpr IntT BoxHi = 5;

constexpr unsigned DefaultIters = 400;

/// Restores the process-wide projection state on scope exit.
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

ProjectionOptions fastOptions() { return ProjectionOptions(); }

ProjectionOptions slowOptions() {
  ProjectionOptions O;
  O.Cache = false;
  O.QuickChecks = false;
  return O;
}

/// A random system over 2-4 box-bounded variables with a few extra
/// random constraints (occasionally equalities).
System randomSystem(std::mt19937 &Rng) {
  std::uniform_int_distribution<unsigned> NumVarsDist(2, 4);
  unsigned NumVars = NumVarsDist(Rng);
  Space Sp;
  for (unsigned I = 0; I != NumVars; ++I)
    Sp.add("v" + std::to_string(I), VarKind::Loop);
  System S(std::move(Sp));
  for (unsigned I = 0; I != NumVars; ++I)
    S.addRange(I, BoxLo, BoxHi);
  std::uniform_int_distribution<int> NumCons(2, 6);
  std::uniform_int_distribution<int> Coef(-4, 4);
  std::uniform_int_distribution<int> Cst(-8, 8);
  std::uniform_int_distribution<int> EqDist(0, 5);
  for (int C = NumCons(Rng); C-- > 0;) {
    AffineExpr E(NumVars);
    for (unsigned I = 0; I != NumVars; ++I)
      E.coeff(I) = Coef(Rng);
    E.constant() = Cst(Rng);
    if (EqDist(Rng) == 0)
      S.addEQ(std::move(E));
    else
      S.addGE(std::move(E));
  }
  return S;
}

/// All integer points of \p S inside the bounding box.
std::vector<std::vector<IntT>> boxPoints(const System &S) {
  std::vector<std::vector<IntT>> Pts;
  unsigned N = S.numVars();
  std::vector<IntT> V(N, BoxLo);
  for (;;) {
    if (S.holds(V))
      Pts.push_back(V);
    unsigned K = N;
    while (K-- > 0) {
      if (++V[K] <= BoxHi)
        break;
      V[K] = BoxLo;
      if (K == 0)
        return Pts;
    }
  }
}

TEST(ProjectionFuzz, FeasibilityVerdictsAgree) {
  ProjectionSandbox Sandbox;
  std::mt19937 Rng(20260806);
  unsigned Iters = fuzzIters(DefaultIters);
  for (unsigned It = 0; It != Iters; ++It) {
    System S = randomSystem(Rng);

    projectionOptions() = fastOptions();
    Feasibility Fast = S.checkIntegerFeasible();
    projectionOptions() = slowOptions();
    Feasibility Slow = S.checkIntegerFeasible();

    // Accelerators must not flip a definite verdict. (Unknown is legal
    // on either side: the search explores in the same order but the
    // shared budget can run out at different points across legs.)
    if (Fast != Feasibility::Unknown && Slow != Feasibility::Unknown) {
      EXPECT_EQ(Fast, Slow) << "iteration " << It << "\n" << S.str();
    }

    // Whatever either leg decided must match brute force.
    bool Any = !boxPoints(S).empty();
    if (Fast != Feasibility::Unknown) {
      EXPECT_EQ(Fast == Feasibility::Feasible, Any)
          << "iteration " << It << "\n" << S.str();
    }
  }
}

TEST(ProjectionFuzz, SampledPointsSatisfyTheSystem) {
  ProjectionSandbox Sandbox;
  std::mt19937 Rng(987654321);
  unsigned Iters = fuzzIters(DefaultIters);
  for (unsigned It = 0; It != Iters; ++It) {
    System S = randomSystem(Rng);
    projectionOptions() = fastOptions();
    auto Fast = S.sampleIntPoint();
    projectionOptions() = slowOptions();
    auto Slow = S.sampleIntPoint();
    if (Fast) {
      EXPECT_TRUE(S.holds(*Fast)) << "iteration " << It << "\n" << S.str();
    }
    if (Slow) {
      EXPECT_TRUE(S.holds(*Slow)) << "iteration " << It << "\n" << S.str();
    }
    EXPECT_EQ(Fast.has_value(), Slow.has_value())
        << "iteration " << It << "\n" << S.str();
  }
}

TEST(ProjectionFuzz, RemoveRedundantPreservesTheSolutionSet) {
  ProjectionSandbox Sandbox;
  std::mt19937 Rng(13572468);
  unsigned Iters = fuzzIters(DefaultIters);
  for (unsigned It = 0; It != Iters; ++It) {
    System S = randomSystem(Rng);

    System Fast = S;
    projectionOptions() = fastOptions();
    Fast.removeRedundant();
    System Slow = S;
    projectionOptions() = slowOptions();
    Slow.removeRedundant();

    // Both reduced systems must accept exactly the original points
    // over the box (removeRedundant never changes the solution set).
    unsigned N = S.numVars();
    std::vector<IntT> V(N, BoxLo);
    for (;;) {
      bool In = S.holds(V);
      EXPECT_EQ(Fast.holds(V), In) << "iteration " << It << "\n" << S.str();
      EXPECT_EQ(Slow.holds(V), In) << "iteration " << It << "\n" << S.str();
      unsigned K = N;
      bool Done = false;
      while (K-- > 0) {
        if (++V[K] <= BoxHi)
          break;
        V[K] = BoxLo;
        if (K == 0)
          Done = true;
      }
      if (Done)
        break;
    }
  }
}

TEST(ProjectionFuzz, ProjectionsContainTheTrueShadow) {
  ProjectionSandbox Sandbox;
  std::mt19937 Rng(24681357);
  unsigned Iters = fuzzIters(DefaultIters);
  for (unsigned It = 0; It != Iters; ++It) {
    System S = randomSystem(Rng);
    // Project onto a strict prefix of the variables.
    std::uniform_int_distribution<unsigned> KeepDist(1, S.numVars() - 1);
    unsigned NumKeep = KeepDist(Rng);
    // Eliminate the rest highest index first, as the compiler's callers
    // mostly do, and lowest first, then drop their dimensions.
    std::vector<unsigned> Down, Up;
    for (unsigned I = S.numVars(); I-- > NumKeep;)
      Down.push_back(I);
    Up.assign(Down.rbegin(), Down.rend());
    auto Project = [&](const std::vector<unsigned> &Order, bool &Exact) {
      System R = S.eliminated(Order, &Exact);
      for (unsigned I : Down)
        R.removeVar(I);
      return R;
    };
    bool DownExact = true, UpExact = true;
    System ByDown = Project(Down, DownExact);
    System ByUp = Project(Up, UpExact);

    // Every integer point of S projects into both results: projections
    // are overapproximations of the true shadow at worst.
    for (const std::vector<IntT> &P : boxPoints(S)) {
      std::vector<IntT> Sub(P.begin(), P.begin() + NumKeep);
      EXPECT_TRUE(ByDown.holds(Sub)) << "iteration " << It << "\n" << S.str();
      EXPECT_TRUE(ByUp.holds(Sub)) << "iteration " << It << "\n" << S.str();
    }

    // When both orders are exact they describe the same set: points
    // accepted by one must be accepted by the other.
    if (DownExact && UpExact) {
      std::vector<IntT> V(NumKeep, BoxLo);
      for (;;) {
        EXPECT_EQ(ByDown.holds(V), ByUp.holds(V))
            << "iteration " << It << "\n" << S.str();
        unsigned K = NumKeep;
        bool Done = false;
        while (K-- > 0) {
          if (++V[K] <= BoxHi)
            break;
          V[K] = BoxLo;
          if (K == 0)
            Done = true;
        }
        if (Done)
          break;
      }
    }
  }
}

} // namespace
