//===- tests/math/FeasibilityKernelFuzzTest.cpp ---------------*- C++ -*-===//
//
// Differential fuzzing of the flat-row constraint kernel. System's
// normalize, fmEliminated and eliminated, and the integer-feasibility
// search behind checkIntegerFeasible, sampleIntPoint and enumeratePoints,
// all run on flat constraint rows. This test carries its own reference:
// normalize (one pass as it was written on Constraint objects, run to a
// fixpoint) and fmEliminated as they were written before the row kernel
// replaced them, a chain built from those plus the public
// System::boundsOf, and the same 72-wide depth-first scan. On every
// seeded system the two must agree row for row after normalize, after
// eliminating each variable, and after eliminating a seeded sequence of
// variables, with the same exactness verdicts; and on the search's
// verdict, sampled point, enumerated points, and the NodesExpanded and
// FmEliminations deltas. Normalizing a second time must change no row.
// The systems mix unit and non-unit equalities, one-sided and unbounded
// variables, and equalities that fail the gcd test only after a
// substitution (normalize's failure path inside an elimination).
//
// Runs under its own binary (dmcc_feaskernelfuzz_test) with the `fuzz`
// ctest label; DMCC_FUZZ_ITERS sets the number of seeded systems.
//
//===----------------------------------------------------------------------===//

#include "FuzzIters.h"
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

/// The rows of \p S, in order.
std::vector<Constraint> rowsOf(const System &S) {
  std::vector<Constraint> Cons;
  for (ConstraintRef C : S.constraints())
    Cons.push_back(C.constraint());
  return Cons;
}

/// \p Cons as a System over \p Sp.
System withConstraints(const Space &Sp, std::vector<Constraint> Cons) {
  System S(Sp);
  for (Constraint &C : Cons)
    S.addConstraint(std::move(C));
  return S;
}

/// System::normalize as it was written on Constraint objects, before the
/// flat-row kernel replaced it. One pass is not idempotent: merging a GE
/// pair can duplicate an equality already kept.
bool referenceNormalizePass(std::vector<Constraint> &Cons) {
  // Rows are copied into Out, not moved: on a false return Cons keeps
  // every row, rewritten in place up to the failing one, and callers
  // that ignore the verdict (fmEliminated) go on from those rows.
  std::vector<Constraint> Out;
  Out.reserve(Cons.size());
  for (Constraint &C : Cons) {
    AffineExpr &E = C.Expr;
    if (E.isConstant()) {
      if (C.isEquality() ? E.constant() != 0 : E.constant() < 0)
        return false;
      continue; // tautology
    }
    IntT G = E.coeffGcd();
    assert(G > 0 && "non-constant expression must have a nonzero gcd");
    if (C.isEquality()) {
      if (E.constant() % G != 0)
        return false; // GCD divisibility test: no integer solutions
      if (G > 1)
        E.divExact(G);
      // Canonicalize sign: first nonzero coefficient positive.
      unsigned FV;
      if (E.firstVar(FV) && E.coeff(FV) < 0)
        E.scale(-1);
    } else if (G > 1) {
      // Tighten:  G*e + c >= 0  <=>  e >= ceil(-c/G)  <=>  e + floor(c/G) >= 0
      IntT C0 = E.constant();
      E.constant() = 0;
      E.divExact(G);
      E.constant() = floorDiv(C0, G);
    }
    Out.push_back(C);
  }

  // Deduplicate, and merge GE pairs {E >= 0, -E >= 0} into E == 0.
  std::vector<Constraint> Final;
  Final.reserve(Out.size());
  for (Constraint &C : Out) {
    bool Skip = false;
    for (Constraint &F : Final) {
      if (F == C) {
        Skip = true;
        break;
      }
      if (!C.isEquality() && !F.isEquality() &&
          C.Expr.isNegationOf(F.Expr)) {
        // F says E >= 0 with E = -C.Expr; together they force C.Expr == 0.
        F.Rel = RelKind::EQ;
        unsigned FV;
        if (F.Expr.firstVar(FV) && F.Expr.coeff(FV) < 0)
          F.Expr.scale(-1);
        Skip = true;
        break;
      }
      // A GE implied by an existing EQ over the same expression.
      if (!C.isEquality() && F.isEquality() &&
          (F.Expr == C.Expr || C.Expr.isNegationOf(F.Expr))) {
        Skip = true;
        break;
      }
    }
    if (!Skip)
      Final.push_back(std::move(C));
  }
  Cons = std::move(Final);
  return true;
}

/// The reference the kernel must match: referenceNormalizePass run until
/// it changes nothing.
bool referenceNormalize(std::vector<Constraint> &Cons) {
  for (;;) {
    std::vector<Constraint> Before = Cons;
    if (!referenceNormalizePass(Cons))
      return false;
    if (Cons == Before)
      return true;
  }
}

/// referenceNormalize on a whole System.
bool referenceNormalize(System &S) {
  std::vector<Constraint> Cons = rowsOf(S);
  bool Ok = referenceNormalize(Cons);
  S = withConstraints(S.space(), std::move(Cons));
  return Ok;
}

/// System::fmEliminated as it was written on Constraint objects, before
/// the flat-row kernel replaced it.
System referenceFmEliminated(const System &Src, unsigned I,
                             bool *Exact = nullptr) {
  const Space &Sp = Src.space();
  const std::vector<Constraint> Cons = rowsOf(Src);
  assert(I < Sp.size() && "variable index out of range");
  ++projectionStats().FmEliminations;

  // Prefer an exact substitution through a unit-coefficient equality.
  for (unsigned CI = 0, CE = Cons.size(); CI != CE; ++CI) {
    const Constraint &C = Cons[CI];
    if (!C.isEquality())
      continue;
    IntT A = C.Expr.coeff(I);
    if (A != 1 && A != -1)
      continue;
    // A*v + R == 0  =>  v = -R/A. For A == 1: v = -R; for A == -1: v = R.
    AffineExpr Repl = C.Expr;
    Repl.coeff(I) = 0;
    if (A == 1)
      Repl.scale(-1);
    std::vector<Constraint> R;
    R.reserve(Cons.size() - 1);
    for (unsigned CJ = 0, CF = Cons.size(); CJ != CF; ++CJ) {
      if (CJ == CI)
        continue;
      Constraint NC = Cons[CJ];
      NC.Expr.substitute(I, Repl);
      R.push_back(std::move(NC));
    }
    referenceNormalize(R);
    return withConstraints(Sp, std::move(R));
  }

  std::vector<Constraint> R;
  std::vector<const Constraint *> Low, Up;
  Low.reserve(Cons.size());
  Up.reserve(Cons.size());
  for (const Constraint &C : Cons) {
    IntT A = C.Expr.coeff(I);
    if (A == 0) {
      R.push_back(C);
      continue;
    }
    if (C.isEquality()) {
      // Split a non-unit equality into two inequalities; this loses
      // divisibility information, so the elimination is inexact.
      if (Exact)
        *Exact = false;
    }
    if (A > 0 || C.isEquality())
      Low.push_back(&C);
    if (A < 0 || C.isEquality())
      Up.push_back(&C);
  }

  R.reserve(R.size() + Low.size() * Up.size());
  for (const Constraint *L : Low) {
    IntT AL = L->Expr.coeff(I);
    AffineExpr LE = AL > 0 ? L->Expr : L->Expr.negated();
    IntT A = AL > 0 ? AL : -AL; // coefficient of v in LE, > 0
    for (const Constraint *U : Up) {
      if (U == L)
        continue;
      IntT AU = U->Expr.coeff(I);
      AffineExpr UE = AU < 0 ? U->Expr : U->Expr.negated();
      IntT B = AU < 0 ? -AU : AU; // -coefficient of v in UE, > 0
      IntT G = gcdInt(A, B);
      // Dark-shadow condition: the combination is integer-exact when one
      // of the original coefficients is 1 (conservative otherwise).
      if (Exact && A != 1 && B != 1)
        *Exact = false;
      AffineExpr NE = LE;
      AffineExpr Scaled = UE;
      // Cross-multiplying bound pairs is where Fourier-Motzkin grows
      // coefficients; diagnose overflow here with its cause instead of
      // letting the raw arithmetic abort anonymously.
      if (!NE.scaleChecked(B / G) || !Scaled.scaleChecked(A / G) ||
          !NE.addChecked(Scaled))
        fatalError("coefficient overflow during Fourier-Motzkin "
                   "elimination: combining bounds exceeds the 64-bit "
                   "coefficient range (system too complex or input "
                   "coefficients too large)");
      assert(NE.coeff(I) == 0 && "elimination failed to cancel");
      R.push_back(Constraint::ge(std::move(NE)));
    }
  }
  referenceNormalize(R);
  return withConstraints(Sp, std::move(R));
}

/// The projection loop that System::eliminated replaced at its call
/// sites: each listed variable that is still involved, in order.
System referenceEliminated(const System &S, const std::vector<unsigned> &Vars,
                           bool *Exact) {
  System R = S;
  for (unsigned V : Vars)
    if (R.involves(V))
      R = referenceFmEliminated(R, V, Exact);
  return R;
}

/// The search as it is specified: a Fourier-Motzkin chain of reference
/// eliminations, bound lists from boundsOf, and a depth-first scan that
/// widens a missing or over-wide range end to a 72-value window.
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
    if (!referenceNormalize(Base))
      return false;
    unsigned N = Base.numVars();
    Chain.resize(N + 1);
    Chain[N] = std::move(Base);
    bool LevelFailed = false;
    for (unsigned K = N; K-- > 0;) {
      Chain[K] = referenceFmEliminated(Chain[K + 1], K);
      System Copy = Chain[K];
      LevelFailed |= !referenceNormalize(Copy);
    }
    System C0 = Chain[0];
    if (!referenceNormalize(C0))
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

/// A seeded system and the starved budget its search also runs under.
struct SeededCase {
  System S;
  unsigned Starved;
};

/// The first \p Count seeded cases; every test below runs on the same
/// ones.
std::vector<SeededCase> seededCases(unsigned Count) {
  std::mt19937_64 Rng(20261018);
  std::vector<SeededCase> Cases;
  Cases.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    System S = randomSystem(Rng);
    unsigned Starved = 1 + Rng() % 40;
    Cases.push_back({std::move(S), Starved});
  }
  return Cases;
}

} // namespace

TEST(FeasibilityKernelFuzz, MatchesTheSystemChainOnSeededSystems) {
  ProjectionSandbox Sandbox;
  projectionOptions().Cache = false;
  const std::vector<SeededCase> Cases = seededCases(fuzzIters(5000));
  const unsigned N = Cases.size();
  constexpr unsigned FullBudget = 2000;
  unsigned Verdicts[3] = {}, StarvedUnknown = 0, FailurePath = 0,
           Enumerated = 0;
  for (unsigned Case = 0; Case != N; ++Case) {
    const System &S = Cases[Case].S;
    unsigned Starved = Cases[Case].Starved;
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
  // exercised (counts for the first 5,000 cases: about 2,600 / 2,300 /
  // 90 verdicts, 390 starved Unknowns, 140 searches after a failed
  // normalize, 440 enumerations).
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Empty)], N / 5);
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Feasible)], N / 5);
  EXPECT_GT(Verdicts[static_cast<unsigned>(Feasibility::Unknown)], N / 125);
  EXPECT_GT(StarvedUnknown, N / 25);
  EXPECT_GT(FailurePath, N / 100);
  EXPECT_GT(Enumerated, N * 3 / 50);
}

TEST(FeasibilityKernelFuzz, SystemWrappersMatchTheReferenceRowForRow) {
  ProjectionSandbox Sandbox;
  const std::vector<SeededCase> Cases = seededCases(fuzzIters(5000));
  const unsigned N = Cases.size();
  unsigned Inexact = 0, EmptyResults = 0, Chains = 0;
  // normalize on \p Sys, against the reference on a copy of its rows.
  auto ExpectSameNormalize = [](const System &Sys) {
    System Got = Sys;
    std::vector<Constraint> Want = rowsOf(Sys);
    bool WantOk = referenceNormalize(Want);
    EXPECT_EQ(Got.normalize(), WantOk);
    EXPECT_EQ(rowsOf(Got), Want);
    return WantOk;
  };
  for (unsigned Case = 0; Case != N; ++Case) {
    const System &S = Cases[Case].S;
    SCOPED_TRACE("case " + std::to_string(Case) + "\n" + S.str());
    ExpectSameNormalize(S);

    for (unsigned I = 0; I != S.numVars(); ++I) {
      bool GotExact = true, WantExact = true;
      System Got = S.fmEliminated(I, &GotExact);
      System Want = referenceFmEliminated(S, I, &WantExact);
      EXPECT_EQ(Got.space(), Want.space());
      ASSERT_EQ(rowsOf(Got), rowsOf(Want))
          << "eliminating v" << I << ", got:\n" << Got.str() << "want:\n"
          << Want.str();
      ASSERT_EQ(GotExact, WantExact) << "eliminating v" << I;
      Inexact += !WantExact;
      // Normalizing the result again: rows left by normalize's failure
      // path inside the elimination fail again here.
      EmptyResults += !ExpectSameNormalize(Want);
    }

    // A seeded sequence of variables, repeats included.
    std::mt19937_64 OrderRng(Case);
    std::vector<unsigned> Vars(OrderRng() % (S.numVars() + 2));
    for (unsigned &V : Vars)
      V = OrderRng() % S.numVars();
    bool GotExact = true, WantExact = true;
    uint64_t Fm0 = projectionStats().FmEliminations;
    System Got = S.eliminated(Vars, &GotExact);
    uint64_t Fm1 = projectionStats().FmEliminations;
    System Want = referenceEliminated(S, Vars, &WantExact);
    uint64_t Fm2 = projectionStats().FmEliminations;
    ASSERT_EQ(rowsOf(Got), rowsOf(Want))
        << "got:\n" << Got.str() << "want:\n" << Want.str();
    ASSERT_EQ(GotExact, WantExact);
    ASSERT_EQ(Fm1 - Fm0, Fm2 - Fm1);
    Chains += Fm2 - Fm1 > 1;
  }
  // Inexact eliminations, results that are empty on their face, and
  // chains of several eliminations are all compared (counts for the
  // first 5,000 cases: about 4,400 / 3,400 / 2,900).
  EXPECT_GT(Inexact, N / 2);
  EXPECT_GT(EmptyResults, N / 3);
  EXPECT_GT(Chains, N / 3);
}

TEST(FeasibilityKernelFuzz, NormalizeTwiceEqualsNormalizeOnce) {
  ProjectionSandbox Sandbox;
  const std::vector<SeededCase> Cases = seededCases(fuzzIters(5000));
  const unsigned N = Cases.size();
  unsigned Checked = 0, Failed = 0, PassRepeats = 0;
  // normalize on \p Sys, then again: same verdict, same rows. Counts the
  // systems on which one reference pass is not idempotent.
  auto ExpectIdempotent = [&](const System &Sys) {
    System Once = Sys;
    bool Ok = Once.normalize();
    System Twice = Once;
    EXPECT_EQ(Twice.normalize(), Ok);
    ASSERT_EQ(rowsOf(Twice), rowsOf(Once))
        << "once:\n" << Once.str() << "twice:\n" << Twice.str();
    ++Checked;
    Failed += !Ok;
    std::vector<Constraint> Pass = rowsOf(Sys), Again;
    if (referenceNormalizePass(Pass)) {
      Again = Pass;
      referenceNormalizePass(Again);
      PassRepeats += Again != Pass;
    }
  };
  for (unsigned Case = 0; Case != N; ++Case) {
    const System &S = Cases[Case].S;
    SCOPED_TRACE("case " + std::to_string(Case) + "\n" + S.str());
    ExpectIdempotent(S);
    // Elimination results carry the rows that substitutions and
    // combinations produce.
    for (unsigned I = 0; I != S.numVars(); ++I)
      ExpectIdempotent(S.fmEliminated(I));
    // E == 0 and -E >= 0 appended for a seeded half of the rows E >= 0:
    // merging E >= 0 with -E >= 0 duplicates the equality.
    std::mt19937_64 Rng(Case);
    System Pinned = S;
    for (ConstraintRef C : S.constraints())
      if (Rng() % 2) {
        Pinned.addEQ(C.expr());
        Pinned.addGE(C.expr().negated());
      }
    ExpectIdempotent(Pinned);
  }
  // Both verdicts, and systems where one pass leaves a duplicate, are
  // covered (counts for the first 5,000 cases: about 37,000 systems,
  // 4,900 of them empty on their face, 3,700 that one pass leaves with
  // a duplicate).
  EXPECT_GT(Checked, N * 6);
  EXPECT_GT(Failed, N / 2);
  EXPECT_GT(PassRepeats, N / 2);
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
