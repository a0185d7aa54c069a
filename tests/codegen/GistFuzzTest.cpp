//===- tests/codegen/GistFuzzTest.cpp -------------------------*- C++ -*-===//
//
// Soundness fuzz for the SPMD simplifier's gist and bound folding
// (codegen/Simplify.h). Seeded random contexts and guards over 1-4
// variables with small coefficients are checked against brute-force
// enumeration of a bounded box that contains every context point:
//
//  - gistConds: at every context point the kept conditions hold exactly
//    when the original ones do (so every dropped condition holds wherever
//    the kept ones do), and a guard it reports empty has no point;
//  - foldBounds: max(Lower) and min(Upper) keep their value at every
//    context point, and a range it reports empty is empty at every point.
//
// Runs under its own binary (dmcc_gistfuzz_test) with the `fuzz` ctest
// label; DMCC_FUZZ_ITERS sets the number of cases per test.
//
//===----------------------------------------------------------------------===//

#include "FuzzIters.h"
#include "codegen/Simplify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

using namespace dmcc;

namespace {

/// Deterministic splitmix64; every case replays from its seed.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  IntT range(IntT Lo, IntT Hi) { // inclusive
    return Lo + static_cast<IntT>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
};

constexpr IntT Box = 4;
constexpr unsigned DefaultCases = 5000;

/// A random expression over the variables not equal to \p Skip.
AffineExpr randomExpr(Rng &R, unsigned N, int Skip = -1) {
  AffineExpr E(N);
  for (unsigned V = 0; V != N; ++V)
    if (static_cast<int>(V) != Skip && R.range(0, 2) != 0)
      E.coeff(V) = R.range(-2, 2);
  E.constant() = R.range(-4, 4);
  return E;
}

Constraint randomCond(Rng &R, unsigned N, int Skip = -1) {
  AffineExpr E = randomExpr(R, N, Skip);
  return R.range(0, 4) == 0 ? Constraint::eq(std::move(E))
                            : Constraint::ge(std::move(E));
}

/// Calls \p Fn on every point of the box over the variables != Skip
/// (Skip's slot stays 0).
template <typename F> void forBox(unsigned N, int Skip, F Fn) {
  std::vector<IntT> P(N, -Box);
  if (Skip >= 0)
    P[Skip] = 0;
  for (;;) {
    Fn(P);
    unsigned K = 0;
    for (; K != N; ++K) {
      if (static_cast<int>(K) == Skip)
        continue;
      if (++P[K] <= Box)
        break;
      P[K] = -Box;
    }
    if (K == N)
      return;
  }
}

bool allHold(const std::vector<Constraint> &Cs, const std::vector<IntT> &P) {
  for (const Constraint &C : Cs)
    if (!C.holds(P))
      return false;
  return true;
}

/// A random context: the box on every variable except \p Skip plus up
/// to three random constraints (none mentioning Skip).
std::vector<Constraint> randomContext(Rng &R, unsigned N, int Skip) {
  std::vector<Constraint> Cs;
  for (unsigned V = 0; V != N; ++V) {
    if (static_cast<int>(V) == Skip)
      continue;
    Cs.push_back(Constraint::ge(AffineExpr::var(N, V).plusConst(Box)));
    Cs.push_back(Constraint::ge(AffineExpr::var(N, V, -1).plusConst(Box)));
  }
  for (IntT K = R.range(0, 3); K-- > 0;)
    Cs.push_back(randomCond(R, N, Skip));
  return Cs;
}

} // namespace

TEST(GistFuzz, DroppedConditionsHoldAndDeletedGuardsAreEmpty) {
  Rng R(0x5eed0001);
  const unsigned Cases = fuzzIters(DefaultCases);
  unsigned Deleted = 0, Dropped = 0;
  for (unsigned Case = 0; Case != Cases; ++Case) {
    unsigned N = static_cast<unsigned>(R.range(1, 4));
    std::vector<Constraint> CtxCs = randomContext(R, N, -1);
    SpmdContext Ctx(N);
    for (const Constraint &C : CtxCs)
      Ctx.add(C);
    std::vector<Constraint> Conds;
    for (IntT K = R.range(1, 3); K-- > 0;)
      Conds.push_back(R.range(0, 3) == 0 ? CtxCs[R.range(0, CtxCs.size() - 1)]
                                         : randomCond(R, N));
    std::vector<Constraint> Kept = Conds;
    bool Admits = gistConds(Ctx, Kept);
    if (!Admits)
      ++Deleted;
    else
      Dropped += Conds.size() - Kept.size();
    forBox(N, -1, [&](const std::vector<IntT> &P) {
      if (!allHold(CtxCs, P))
        return;
      bool Orig = allHold(Conds, P);
      if (!Admits) {
        EXPECT_FALSE(Orig) << "case " << Case << ": deleted guard has a point";
        return;
      }
      EXPECT_EQ(allHold(Kept, P), Orig)
          << "case " << Case << ": gist changed the guard's value";
    });
    if (::testing::Test::HasFailure())
      return;
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(Deleted, Cases / 50);
  EXPECT_GT(Dropped, Cases / 10);
}

TEST(GistFuzz, FoldedBoundsKeepTheirValueAndEmptyRangesAreEmpty) {
  Rng R(0x5eed0002);
  const unsigned Cases = fuzzIters(DefaultCases);
  unsigned Folded = 0, Empty = 0;
  for (unsigned Case = 0; Case != Cases; ++Case) {
    unsigned N = static_cast<unsigned>(R.range(1, 4));
    unsigned V = static_cast<unsigned>(R.range(0, N - 1));
    std::vector<Constraint> CtxCs = randomContext(R, N, V);
    SpmdContext Ctx(N);
    for (const Constraint &C : CtxCs)
      Ctx.add(C);
    auto Terms = [&] {
      std::vector<SpmdBound> Bs;
      for (IntT K = R.range(1, 3); K-- > 0;)
        Bs.push_back(SpmdBound{randomExpr(R, N, V), R.range(1, 3)});
      if (R.range(0, 3) == 0)
        Bs.push_back(Bs.front()); // a duplicate term
      return Bs;
    };
    std::vector<SpmdBound> Lower = Terms(), Upper = Terms();
    std::vector<SpmdBound> Lo = Lower, Hi = Upper;
    bool NonEmpty = foldBounds(Ctx, V, Lo, Hi);
    if (!NonEmpty)
      ++Empty;
    else
      Folded += Lower.size() + Upper.size() - Lo.size() - Hi.size();
    auto Max = [](const std::vector<SpmdBound> &Bs,
                  const std::vector<IntT> &P) {
      IntT M = INT64_MIN;
      for (const SpmdBound &B : Bs)
        M = std::max(M, ceilDiv(B.Num.evaluate(P), B.Den));
      return M;
    };
    auto Min = [](const std::vector<SpmdBound> &Bs,
                  const std::vector<IntT> &P) {
      IntT M = INT64_MAX;
      for (const SpmdBound &B : Bs)
        M = std::min(M, floorDiv(B.Num.evaluate(P), B.Den));
      return M;
    };
    forBox(N, V, [&](const std::vector<IntT> &P) {
      if (!allHold(CtxCs, P))
        return;
      if (!NonEmpty) {
        EXPECT_GT(Max(Lower, P), Min(Upper, P))
            << "case " << Case << ": deleted loop has an iteration";
        return;
      }
      EXPECT_EQ(Max(Lo, P), Max(Lower, P))
          << "case " << Case << ": folded max changed value";
      EXPECT_EQ(Min(Hi, P), Min(Upper, P))
          << "case " << Case << ": folded min changed value";
    });
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_GT(Empty, Cases / 50);
  EXPECT_GT(Folded, Cases / 10);
}
