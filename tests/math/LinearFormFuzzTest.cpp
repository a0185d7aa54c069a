//===- tests/math/LinearFormFuzzTest.cpp ----------------------*- C++ -*-===//
//
// Differential fuzzing of LinearForm, the sparse evaluation form the
// simulator lowers every loop bound, guard and index to, against the
// dense AffineExpr::evaluate it replaces: seeded expressions over 1-20
// variables with 0-4 nonzero coefficients, including negative and
// +-2^40 coefficients, must evaluate identically on random environments,
// and an overflowing term must abort with the same message on both
// paths.
//
// Runs under its own binary (dmcc_linearformfuzz_test) with the `fuzz`
// ctest label; DMCC_FUZZ_ITERS sets the number of expressions.
//
//===----------------------------------------------------------------------===//

#include "FuzzIters.h"
#include "math/Affine.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace dmcc;

namespace {

/// A coefficient from a mix of small magnitudes, both signs, and +-2^40.
IntT randomCoeff(std::mt19937_64 &Rng) {
  const IntT Big = IntT(1) << 40;
  switch (Rng() % 4) {
  case 0:
    return Rng() % 2 ? Big : -Big;
  case 1:
    return -static_cast<IntT>(1 + Rng() % 9);
  default:
    return static_cast<IntT>(1 + Rng() % 9);
  }
}

} // namespace

TEST(LinearFormFuzz, MatchesDenseEvaluationOnSeededExpressions) {
  std::mt19937_64 Rng(20261017);
  // Forms share one pool, as a lowered program's do; a junk prefix
  // checks that each form reads only its own terms.
  std::vector<LinearTerm> Pool = {{0, 12345}, {3, -7}};
  const unsigned Cases = fuzzIters(5000);
  constexpr unsigned EnvsPerCase = 8;
  unsigned Nonzero[5] = {};
  for (unsigned Case = 0; Case != Cases; ++Case) {
    const unsigned N = 1 + Rng() % 20;
    AffineExpr E(N);
    const unsigned Terms = Rng() % 5;
    for (unsigned K = 0; K != Terms; ++K)
      E.coeff(Rng() % N) = randomCoeff(Rng); // repeats leave fewer terms
    E.constant() = static_cast<IntT>(Rng() % 2001) - 1000;
    unsigned Count = 0;
    for (unsigned I = 0; I != N; ++I)
      Count += E.coeff(I) != 0;
    ++Nonzero[Count];
    LinearForm F(E, Pool);
    for (unsigned Env = 0; Env != EnvsPerCase; ++Env) {
      // |value| <= 2^20 keeps every sum of four 2^40-sized terms in
      // range; environments may be longer than the expression.
      std::vector<IntT> Vals(N + Rng() % 3);
      for (IntT &V : Vals)
        V = static_cast<IntT>(Rng() % (2 * (1 << 20) + 1)) - (1 << 20);
      ASSERT_EQ(F.evaluate(Pool, Vals), E.evaluate(Vals))
          << "case " << Case << ", environment " << Env;
    }
  }
  for (unsigned C = 0; C != 5; ++C)
    EXPECT_GT(Nonzero[C], Cases / 50) << "too few expressions with " << C
                                      << " terms";
}

TEST(LinearFormFuzzDeathTest, OverflowAbortsLikeTheDensePath) {
  // 2^40 * 2^30 overflows: both paths must stop in the checked multiply
  // and report the same operands.
  AffineExpr E(3);
  E.coeff(1) = IntT(1) << 40;
  E.constant() = 5;
  std::vector<IntT> Vals = {7, IntT(1) << 30, 9};
  std::vector<LinearTerm> Pool;
  LinearForm F(E, Pool);
  const char *Msg = "integer overflow: 1099511627776 \\* 1073741824";
  EXPECT_DEATH((void)E.evaluate(Vals), Msg);
  EXPECT_DEATH((void)F.evaluate(Pool, Vals), Msg);
}
