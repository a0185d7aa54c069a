//===- tests/math/FeasibilityKernelFuzzTest.cpp ---------------*- C++ -*-===//
//
// Differential fuzzing of the integer-feasibility kernel. checkIntegerFeasible,
// sampleIntPoint and enumeratePoints run on flat constraint rows; this test
// carries its own reference, the chain built with the public
// System::normalize, System::fmEliminated and System::boundsOf and
// searched with the same 72-wide depth-first scan, and requires the two
// to agree on every seeded system: verdict, sampled point, enumerated
// points, and the NodesExpanded and FmEliminations deltas. The systems
// mix unit and non-unit equalities, one-sided and unbounded variables,
// and equalities that fail the gcd test only after a substitution
// (normalize's failure path inside an elimination).
//
// Runs under its own binary (dmcc_feaskernelfuzz_test) with the `fuzz`
// ctest label.
//
//===----------------------------------------------------------------------===//

#include "math/System.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace dmcc;

namespace {

/// Restores this thread's projection state on scope exit.
struct ProjectionSandbox {
  ProjectionSandbox() : Saved(projectionOptions()) {
    projectionOptions() = ProjectionOptions();
    clearProjectionCaches();
  }
  ~ProjectionSandbox() {
    projectionOptions() = Saved;
    clearProjectionCaches();
  }
  ProjectionOptions Saved;
};

/// The search as it is specified: a Fourier-Motzkin chain of Systems,
/// bound lists from boundsOf, and a depth-first scan that widens a
/// missing or over-wide range end to a 72-value window.
class ReferenceSearch {
public:
  static constexpr IntT Window = 72;

  ReferenceSearch(const System &S, unsigned Budget)
      : Orig(S), Budget(Budget) {}

  /// Builds the chain; false when the system is empty on its face or
  /// rationally empty. Records whether some level's normalize failed
  /// while level 0 stayed feasible (the failure path reached the search)
  /// and whether any level lacks a lower or an upper bound.
  bool prepare() {
    System Base = Orig;
    if (!Base.normalize())
      return false;
    unsigned N = Base.numVars();
    Chain.resize(N + 1);
    Chain[N] = std::move(Base);
    bool LevelFailed = false;
    for (unsigned K = N; K-- > 0;) {
      Chain[K] = Chain[K + 1].fmEliminated(K);
      System Copy = Chain[K];
      LevelFailed |= !Copy.normalize();
    }
    System C0 = Chain[0];
    if (!C0.normalize())
      return false;
    FailurePathSearched = LevelFailed;
    LowerAt.resize(N);
    UpperAt.resize(N);
    for (unsigned K = 0; K != N; ++K) {
      Chain[K + 1].boundsOf(K, LowerAt[K], UpperAt[K]);
      Bounded &= !LowerAt[K].empty() && !UpperAt[K].empty();
    }
    return true;
  }

  Feasibility run(std::vector<IntT> *Point) {
    Vals.assign(Orig.numVars(), 0);
    if (dfs(0)) {
      if (Point)
        *Point = Vals;
      return Feasibility::Feasible;
    }
    return Incomplete || BudgetHit ? Feasibility::Unknown
                                   : Feasibility::Empty;
  }

  /// Every point in lexicographic order, as enumeratePoints yields them;
  /// false if the scan would exceed \p Limit steps. Call only when
  /// prepare() found every level bounded.
  bool enumerate(unsigned Limit, std::vector<std::vector<IntT>> &Out) {
    Vals.assign(Orig.numVars(), 0);
    Used = 0;
    return scan(0, Limit, Out);
  }

  uint64_t Nodes = 0;
  bool FailurePathSearched = false;
  bool Bounded = true;

private:
  IntT lower(unsigned K) const {
    IntT Lo = 0;
    bool First = true;
    for (const VarBound &B : LowerAt[K]) {
      IntT V = ceilDiv(B.Num.evaluate(Vals), B.Den);
      Lo = First ? V : std::max(Lo, V);
      First = false;
    }
    return Lo;
  }
  IntT upper(unsigned K) const {
    IntT Hi = 0;
    bool First = true;
    for (const VarBound &B : UpperAt[K]) {
      IntT V = floorDiv(B.Num.evaluate(Vals), B.Den);
      Hi = First ? V : std::min(Hi, V);
      First = false;
    }
    return Hi;
  }

  bool dfs(unsigned K) {
    if (K == Orig.numVars())
      return Orig.holds(Vals);
    if (Budget == 0) {
      BudgetHit = true;
      return false;
    }
    bool HasLo = !LowerAt[K].empty(), HasHi = !UpperAt[K].empty();
    IntT Lo = HasLo ? lower(K) : 0, Hi = HasHi ? upper(K) : 0;
    if (!HasLo && !HasHi) {
      Lo = -Window / 2;
      Hi = Window / 2;
      Incomplete = true;
    } else if (!HasLo) {
      Lo = Hi - Window;
      Incomplete = true;
    } else if (!HasHi) {
      Hi = Lo + Window;
      Incomplete = true;
    }
    if (Lo > Hi)
      return false;
    if (Hi - Lo > 2 * Window) {
      Incomplete = true;
      for (IntT V = Lo; V <= Lo + Window; ++V)
        if (tryValue(K, V))
          return true;
      for (IntT V = Hi - Window; V <= Hi; ++V)
        if (tryValue(K, V))
          return true;
      return false;
    }
    for (IntT V = Lo; V <= Hi; ++V)
      if (tryValue(K, V))
        return true;
    return false;
  }

  bool tryValue(unsigned K, IntT V) {
    if (Budget == 0) {
      BudgetHit = true;
      return false;
    }
    --Budget;
    ++Nodes;
    Vals[K] = V;
    return dfs(K + 1);
  }

  bool scan(unsigned K, unsigned Limit,
            std::vector<std::vector<IntT>> &Out) {
    if (Used >= Limit)
      return false;
    if (K == Orig.numVars()) {
      ++Used;
      if (Orig.holds(Vals))
        Out.push_back(Vals);
      return true;
    }
    IntT Lo = lower(K), Hi = upper(K);
    for (IntT V = Lo; V <= Hi; ++V) {
      ++Used;
      Vals[K] = V;
      if (!scan(K + 1, Limit, Out))
        return false;
    }
    return true;
  }

  const System &Orig;
  unsigned Budget;
  std::vector<System> Chain;
  std::vector<std::vector<VarBound>> LowerAt, UpperAt;
  std::vector<IntT> Vals;
  unsigned Used = 0;
  bool Incomplete = false;
  bool BudgetHit = false;
};

/// Reference verdict, node count and FmEliminations delta.
struct ReferenceResult {
  Feasibility Verdict = Feasibility::Empty;
  std::optional<std::vector<IntT>> Point;
  uint64_t Nodes = 0, FmElims = 0;
  bool FailurePathSearched = false;
};

ReferenceResult reference(const System &S, unsigned Budget) {
  ReferenceResult R;
  uint64_t Fm0 = projectionStats().FmEliminations;
  ReferenceSearch Search(S, Budget);
  if (Search.prepare()) {
    std::vector<IntT> Point;
    R.Verdict = Search.run(&Point);
    if (R.Verdict == Feasibility::Feasible)
      R.Point = Point;
  }
  R.FmElims = projectionStats().FmEliminations - Fm0;
  R.Nodes = Search.Nodes;
  R.FailurePathSearched = Search.FailurePathSearched;
  return R;
}

IntT smallCoeff(std::mt19937_64 &Rng) {
  IntT C = static_cast<IntT>(1 + Rng() % 3);
  return Rng() % 2 ? C : -C;
}

/// A seeded system over 1-10 variables. Each variable is boxed, one-sided
/// or free; random inequalities couple them; unit and non-unit equalities
/// are mixed in; and some systems carry an equality that passes the gcd
/// test as written but fails it once a unit equality has substituted a
/// higher variable away.
System randomSystem(std::mt19937_64 &Rng) {
  const unsigned N = 1 + Rng() % 10;
  Space Sp;
  for (unsigned I = 0; I != N; ++I)
    Sp.add("v" + std::to_string(I), VarKind::Loop);
  System S(std::move(Sp));

  for (unsigned I = 0; I != N; ++I) {
    IntT Lo = static_cast<IntT>(Rng() % 7) - 3;
    IntT Hi = Lo + static_cast<IntT>(Rng() % 3 ? Rng() % 6 : Rng() % 40);
    switch (Rng() % 8) {
    case 0: // lower bound only
      S.addGE(S.varExpr(I).plusConst(-Lo));
      break;
    case 1: // upper bound only
      S.addGE(S.varExpr(I).negated().plusConst(Hi));
      break;
    case 2: // free
      break;
    default:
      S.addRange(I, Lo, Hi);
    }
  }

  auto randomExpr = [&](unsigned Terms) {
    AffineExpr E = S.zero();
    for (unsigned T = 0; T != Terms; ++T)
      E.coeff(Rng() % N) = smallCoeff(Rng);
    E.constant() = static_cast<IntT>(Rng() % 16) - 4;
    return E;
  };
  for (unsigned C = Rng() % 4; C-- > 0;)
    S.addGE(randomExpr(1 + Rng() % 3));
  if (Rng() % 5 < 2) {
    // Unit equality: v_T = sum of other terms.
    unsigned T = Rng() % N;
    AffineExpr E = randomExpr(Rng() % 3);
    E.coeff(T) = Rng() % 2 ? 1 : -1;
    S.addEQ(E);
  }
  if (Rng() % 10 < 3) {
    // Non-unit equality.
    AffineExpr E = randomExpr(1 + Rng() % 2);
    E.coeff(Rng() % N) = Rng() % 2 ? 2 : -3;
    S.addEQ(E);
  }
  if (N >= 3 && Rng() % 4 == 0) {
    // t = a*x + b first, then  g*y + c + (t - a*x - b) == 0: gcd 1 as
    // written, g*y + c == 0 with g not dividing c after substituting t.
    unsigned T = 2 + Rng() % (N - 2);
    unsigned X = Rng() % T, Y = Rng() % T;
    if (X == Y)
      Y = (X + 1) % T;
    IntT A = smallCoeff(Rng), B = static_cast<IntT>(Rng() % 5) - 2;
    IntT G = 2 + Rng() % 2;
    IntT C = G * static_cast<IntT>(Rng() % 5) + 1;
    AffineExpr Def = S.varExpr(T); // t - a*x - b
    Def.coeff(X) = -A;
    Def.constant() = -B;
    S.addEQ(Def);
    AffineExpr Bad = Def;
    Bad.coeff(Y) = addChk(Bad.coeff(Y), G);
    Bad.constant() = addChk(Bad.constant(), C);
    S.addEQ(Bad);
  }
  return S;
}

} // namespace

TEST(FeasibilityKernelFuzz, MatchesTheSystemChainOnSeededSystems) {
  ProjectionSandbox Sandbox;
  projectionOptions().Cache = false;
  std::mt19937_64 Rng(20261018);
  constexpr unsigned Cases = 5000;
  constexpr unsigned FullBudget = 2000;
  unsigned Verdicts[3] = {}, StarvedUnknown = 0, FailurePath = 0,
           Enumerated = 0;
  for (unsigned Case = 0; Case != Cases; ++Case) {
    System S = randomSystem(Rng);
    unsigned Starved = 1 + Rng() % 40;
    for (unsigned Budget : {FullBudget, Starved}) {
      SCOPED_TRACE("case " + std::to_string(Case) + ", budget " +
                   std::to_string(Budget) + "\n" + S.str());
      ReferenceResult Ref = reference(S, Budget);
      FailurePath += Budget == FullBudget && Ref.FailurePathSearched;

      ProjectionStats Before = projectionStats();
      Feasibility Got = S.checkIntegerFeasible(Budget);
      ProjectionStats D = projectionStats() - Before;
      ASSERT_EQ(Got, Ref.Verdict);
      ASSERT_EQ(D.NodesExpanded, Ref.Nodes);
      ASSERT_EQ(D.FmEliminations, Ref.FmElims);

      Before = projectionStats();
      std::optional<std::vector<IntT>> Point = S.sampleIntPoint(Budget);
      D = projectionStats() - Before;
      ASSERT_EQ(Point, Ref.Point);
      ASSERT_EQ(D.NodesExpanded, Ref.Nodes);
      ASSERT_EQ(D.FmEliminations, Ref.FmElims);

      if (Budget == FullBudget)
        ++Verdicts[static_cast<unsigned>(Got)];
      else
        StarvedUnknown += Got == Feasibility::Unknown;
    }

    // Fully bounded chains: enumeratePoints must list the reference's
    // points, in its order.
    ReferenceSearch Ref(S, FullBudget);
    constexpr unsigned Limit = 20000;
    std::vector<std::vector<IntT>> Want, Got;
    if (Ref.prepare() && Ref.Bounded && Ref.enumerate(Limit, Want)) {
      S.enumeratePoints(
          [&](const std::vector<IntT> &P) { Got.push_back(P); }, Limit);
      ASSERT_EQ(Got, Want) << "case " << Case << "\n" << S.str();
      ++Enumerated;
    }
  }
  // Every verdict, the starved search and normalize's failure path are
  // exercised (counts for this seed: about 2,600 / 2,300 / 90 verdicts,
  // 390 starved Unknowns, 140 searches after a failed normalize).
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Empty)], 1000u);
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Feasible)], 1000u);
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Unknown)], 40u);
  EXPECT_GT(StarvedUnknown, 200u);
  EXPECT_GT(FailurePath, 50u);
  EXPECT_GT(Enumerated, 300u);
}

namespace {

/// y in slot 0, x in slot 1:  2x + Ky >= 0  and  -3x + Ky >= 0. The
/// search eliminates x first; combining the pair scales Ky by 3 and by 2,
/// which fits, and the sum 5K does not.
System overflowingPair() {
  constexpr IntT K = 3'000'000'000'000'000'001; // odd: gcds stay 1
  Space Sp;
  Sp.add("y", VarKind::Loop);
  Sp.add("x", VarKind::Loop);
  System S(std::move(Sp));
  AffineExpr Ky = S.varExpr(0);
  Ky.scale(K);
  AffineExpr Lower = S.varExpr(1);
  Lower.scale(2);
  S.addGE(Lower + Ky);
  AffineExpr Upper = S.varExpr(1);
  Upper.scale(-3);
  S.addGE(Upper + Ky);
  return S;
}

/// y in slot 0, x in slot 1:  Kx + y >= 0  and  -5x + y >= 0. Only the
/// eliminated column overflows (5K), though it would cancel to zero;
/// fmEliminated scales whole expressions, so that overflow counts too.
System overflowingEliminatedColumn() {
  constexpr IntT K = 3'000'000'000'000'000'001; // coprime to 5
  Space Sp;
  Sp.add("y", VarKind::Loop);
  Sp.add("x", VarKind::Loop);
  System S(std::move(Sp));
  S.addGE(AffineExpr::var(2, 1, K) + S.varExpr(0));
  S.addGE(AffineExpr::var(2, 1, -5) + S.varExpr(0));
  return S;
}

} // namespace

TEST(FeasibilityKernelFuzzDeathTest, OverflowAbortsWithTheEliminationMessage) {
  const char *Msg = "coefficient overflow during Fourier-Motzkin elimination";
  for (const System &S : {overflowingPair(), overflowingEliminatedColumn()}) {
    EXPECT_DEATH(S.fmEliminated(1), Msg);
    EXPECT_DEATH((void)S.checkIntegerFeasible(), Msg);
    EXPECT_DEATH((void)S.sampleIntPoint(), Msg);
    EXPECT_DEATH(S.enumeratePoints([](const std::vector<IntT> &) {}), Msg);
  }
}

TEST(FeasibilityKernelFuzzDeathTest, EnumerationKeepsItsDiagnostics) {
  Space Sp;
  Sp.add("a", VarKind::Loop);
  Sp.add("b", VarKind::Loop);
  System Free(Sp);
  Free.addRange(0, 0, 3); // b has no bounds
  EXPECT_DEATH(Free.enumeratePoints([](const std::vector<IntT> &) {}),
               "enumeratePoints requires a bounded system");

  System Big(Sp);
  Big.addRange(0, 0, 99);
  Big.addRange(1, 0, 99);
  EXPECT_DEATH(Big.enumeratePoints([](const std::vector<IntT> &) {}, 500),
               "enumeratePoints budget exhausted");

  // An empty range at level 0 ends the scan before the unbounded level
  // behind it is reached.
  System Empty(Sp);
  Empty.addRange(0, 1, 0);
  unsigned Points = 0;
  Empty.enumeratePoints([&](const std::vector<IntT> &) { ++Points; });
  EXPECT_EQ(Points, 0u);
}

TEST(FeasibilityKernelFuzzDeathTest, BoundNegationOverflowsWhereBoundsOfDid) {
  // x + INT64_MIN >= 0 gives x the lower bound ceil(-INT64_MIN / 1),
  // whose negation overflows when the bound is extracted.
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  System S(Sp);
  S.addGE(S.varExpr(0).plusConst(INT64_MIN));
  const char *Msg = "integer overflow: -9223372036854775808 \\* -1";
  EXPECT_DEATH((void)S.checkIntegerFeasible(), Msg);

  // With 0 <= y <= -1 as well, level 0 is infeasible: the search answers
  // Empty before any bound is extracted, while enumeration reaches x's
  // level first and overflows there.
  System Empty = S;
  Empty.addRange(1, 0, -1);
  EXPECT_EQ(Empty.checkIntegerFeasible(), Feasibility::Empty);
  EXPECT_DEATH(Empty.enumeratePoints([](const std::vector<IntT> &) {}), Msg);
}
