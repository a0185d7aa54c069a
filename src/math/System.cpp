//===- math/System.cpp ----------------------------------------*- C++ -*-===//

#include "math/System.h"

#include <algorithm>

using namespace dmcc;

unsigned System::addVar(const std::string &Name, VarKind Kind) {
  unsigned I = Sp.add(Name, Kind);
  for (Constraint &C : Cons)
    C.Expr.appendVar();
  return I;
}

void System::addConstraint(Constraint C) {
  assert(C.Expr.size() == Sp.size() && "constraint over a different space");
  Cons.push_back(std::move(C));
}

void System::addRange(unsigned I, IntT Lo, IntT Hi) {
  addGE(varExpr(I).plusConst(-Lo));
  addGE(varExpr(I).negated().plusConst(Hi));
}

void System::addMapped(const Constraint &C, const Space &From) {
  Constraint M = C;
  M.Expr = mapExpr(C.Expr, From, Sp);
  addConstraint(std::move(M));
}

void System::addAllMapped(const System &Other) {
  for (const Constraint &C : Other.constraints())
    addMapped(C, Other.space());
}

bool System::normalize() {
  std::vector<Constraint> Out;
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

bool System::involves(unsigned I) const {
  for (const Constraint &C : Cons)
    if (C.Expr.involves(I))
      return true;
  return false;
}

void System::substitute(unsigned I, const AffineExpr &Repl) {
  for (Constraint &C : Cons)
    C.Expr.substitute(I, Repl);
}

void System::removeVar(unsigned I) {
  assert(!involves(I) && "removing a variable still in use");
  for (Constraint &C : Cons)
    C.Expr.removeVar(I);
  Sp.remove(I);
}

System System::fmEliminated(unsigned I, bool *Exact) const {
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
    System R(Sp);
    R.Cons.reserve(Cons.size() - 1);
    for (unsigned CJ = 0, CF = Cons.size(); CJ != CF; ++CJ) {
      if (CJ == CI)
        continue;
      Constraint NC = Cons[CJ];
      NC.Expr.substitute(I, Repl);
      R.addConstraint(std::move(NC));
    }
    R.normalize();
    return R;
  }

  System R(Sp);
  std::vector<const Constraint *> Low, Up;
  Low.reserve(Cons.size());
  Up.reserve(Cons.size());
  for (const Constraint &C : Cons) {
    IntT A = C.Expr.coeff(I);
    if (A == 0) {
      R.addConstraint(C);
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

  R.Cons.reserve(R.Cons.size() + Low.size() * Up.size());
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
      R.addGE(std::move(NE));
    }
  }
  R.normalize();
  return R;
}

namespace {

/// Fourier-Motzkin growth estimate for eliminating \p I from \p S: 0 when
/// a unit-coefficient equality gives an exact substitution, otherwise the
/// pos*neg product of bounding-constraint counts (the number of combined
/// constraints the elimination would emit).
uint64_t eliminationScore(const System &S, unsigned I) {
  uint64_t Pos = 0, Neg = 0;
  for (const Constraint &C : S.constraints()) {
    IntT A = C.Expr.coeff(I);
    if (A == 0)
      continue;
    if (C.isEquality()) {
      if (A == 1 || A == -1)
        return 0; // exact substitution, no growth
      ++Pos;
      ++Neg;
      continue;
    }
    if (A > 0)
      ++Pos;
    else
      ++Neg;
  }
  return Pos * Neg;
}

} // namespace

System System::projectedOnto(const std::vector<unsigned> &Keep,
                             bool *Exact) const {
  assert(std::is_sorted(Keep.begin(), Keep.end()) &&
         "projection target must preserve variable order");
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  ++PS.ProjectionCalls;

  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache && canonicalKey(Key)) {
    Key.push_back(-2); // tag: projection (vs. -1 = redundancy removal)
    for (unsigned K : Keep)
      Key.push_back(static_cast<IntT>(K));
    std::vector<Constraint> Cached;
    bool Inexact = false;
    if (detail::sysCacheLookup(Key, Cached, Inexact)) {
      ++PS.ProjectionCacheHits;
      if (Inexact && Exact)
        *Exact = false;
      Space RS;
      for (unsigned K : Keep)
        RS.add(Sp.name(K), Sp.kind(K));
      System Out(std::move(RS));
      Out.Cons.reserve(Cached.size());
      for (Constraint &C : Cached)
        Out.addConstraint(std::move(C));
      return Out;
    }
    Keyed = true;
  }

  bool StillExact = true;
  System R = *this;
  R.normalize();
  if (PO.OrderHeuristic) {
    // Greedily eliminate the cheapest variable first (min pos*neg,
    // exact unit-equality substitutions free) to keep intermediate
    // constraint counts down.
    for (;;) {
      unsigned Best = Sp.size();
      uint64_t BestScore = 0;
      for (unsigned I = 0, E = Sp.size(); I != E; ++I) {
        if (std::binary_search(Keep.begin(), Keep.end(), I) ||
            !R.involves(I))
          continue;
        uint64_t Score = eliminationScore(R, I);
        if (Best == Sp.size() || Score < BestScore) {
          Best = I;
          BestScore = Score;
        }
      }
      if (Best == Sp.size())
        break;
      R = R.fmEliminated(Best, &StillExact);
    }
  } else {
    // Legacy order: eliminate in reverse index order.
    for (unsigned I = Sp.size(); I-- > 0;) {
      if (std::binary_search(Keep.begin(), Keep.end(), I))
        continue;
      if (R.involves(I))
        R = R.fmEliminated(I, &StillExact);
    }
  }
  for (unsigned I = Sp.size(); I-- > 0;)
    if (!std::binary_search(Keep.begin(), Keep.end(), I))
      R.removeVar(I);
  if (Keyed)
    detail::sysCacheStore(Key, R.Cons, !StillExact);
  if (!StillExact && Exact)
    *Exact = false;
  return R;
}

void System::boundsOf(unsigned I, std::vector<VarBound> &Lower,
                      std::vector<VarBound> &Upper) const {
  for (const Constraint &C : Cons) {
    IntT A = C.Expr.coeff(I);
    if (A == 0)
      continue;
    AffineExpr Rest = C.Expr;
    Rest.coeff(I) = 0;
    if (A > 0 || C.isEquality()) {
      // A*v + R >= 0  (A > 0)  =>  v >= ceil(-R / A)
      AffineExpr Num = A > 0 ? Rest.negated() : Rest;
      Lower.push_back(VarBound{std::move(Num), A > 0 ? A : -A});
    }
    if (A < 0 || C.isEquality()) {
      // A*v + R >= 0  (A < 0)  =>  v <= floor(R / -A)
      AffineExpr Num = A < 0 ? Rest : Rest.negated();
      Upper.push_back(VarBound{std::move(Num), A < 0 ? -A : A});
    }
  }
}

std::vector<Constraint> System::constraintsWithout(unsigned I) const {
  std::vector<Constraint> R;
  for (const Constraint &C : Cons)
    if (!C.Expr.involves(I))
      R.push_back(C);
  return R;
}

bool System::holds(const std::vector<IntT> &Vals) const {
  for (const Constraint &C : Cons)
    if (!C.holds(Vals))
      return false;
  return true;
}

namespace {

/// Shared depth-first search over a Fourier-Motzkin chain. Chain[K] has
/// constraints only over variables 0..K-1; values are assigned in index
/// order and checked against the original system at the leaves.
class IntSearch {
public:
  IntSearch(const System &S, unsigned NodeBudget)
      : Orig(S), Budget(NodeBudget) {}

  /// Window of values explored at a truncated or unbounded range end.
  static constexpr IntT Window = 72;

  bool prepare() {
    System Base = Orig;
    if (!Base.normalize())
      return false; // trivially empty
    unsigned N = Base.numVars();
    Chain.resize(N + 1);
    Chain[N] = std::move(Base);
    for (unsigned K = N; K-- > 0;)
      Chain[K] = Chain[K + 1].fmEliminated(K);
    // Chain[0] has only constant constraints; normalize() detects
    // rational emptiness of the whole chain.
    System C0 = Chain[0];
    if (!C0.normalize())
      return false;
    // The bound lists of each level are fixed for the whole search;
    // extract them once instead of re-walking constraints per node.
    LowerAt.resize(N);
    UpperAt.resize(N);
    for (unsigned K = 0; K != N; ++K)
      Chain[K + 1].boundsOf(K, LowerAt[K], UpperAt[K]);
    return true;
  }

  Feasibility run(std::vector<IntT> *Point) {
    unsigned N = Orig.numVars();
    Vals.assign(N, 0);
    Incomplete = false;
    BudgetHit = false;
    bool Found = dfs(0);
    projectionStats().NodesExpanded += Nodes;
    if (Found) {
      if (Point)
        *Point = Vals;
      return Feasibility::Feasible;
    }
    if (Incomplete || BudgetHit)
      return Feasibility::Unknown;
    return Feasibility::Empty;
  }

private:
  bool dfs(unsigned K) {
    unsigned N = Orig.numVars();
    if (K == N)
      return Orig.holds(Vals);
    if (Budget == 0) {
      BudgetHit = true;
      return false;
    }

    const std::vector<VarBound> &Lower = LowerAt[K];
    const std::vector<VarBound> &Upper = UpperAt[K];

    bool HasLo = !Lower.empty(), HasHi = !Upper.empty();
    IntT Lo = 0, Hi = 0;
    if (HasLo) {
      bool First = true;
      for (const VarBound &B : Lower) {
        IntT V = ceilDiv(B.Num.evaluate(Vals), B.Den);
        Lo = First ? V : std::max(Lo, V);
        First = false;
      }
    }
    if (HasHi) {
      bool First = true;
      for (const VarBound &B : Upper) {
        IntT V = floorDiv(B.Num.evaluate(Vals), B.Den);
        Hi = First ? V : std::min(Hi, V);
        First = false;
      }
    }

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
      // Explore both ends of an over-wide range.
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

  const System &Orig;
  std::vector<System> Chain;
  std::vector<std::vector<VarBound>> LowerAt, UpperAt;
  std::vector<IntT> Vals;
  unsigned Budget;
  uint64_t Nodes = 0;
  bool Incomplete = false;
  bool BudgetHit = false;
};

} // namespace

bool System::canonicalKey(detail::CacheKey &Key) const {
  // Normalize a copy so syntactic variants (ordering, scaling, merged
  // equalities) share one key; sort rows for order independence.
  System C = *this;
  if (!C.normalize())
    return false; // empty on its face — answer without searching
  std::vector<const Constraint *> Rows;
  Rows.reserve(C.Cons.size());
  for (const Constraint &Con : C.Cons)
    Rows.push_back(&Con);
  std::sort(Rows.begin(), Rows.end(),
            [](const Constraint *A, const Constraint *B) {
              if (A->Rel != B->Rel)
                return A->Rel < B->Rel;
              if (A->Expr.constant() != B->Expr.constant())
                return A->Expr.constant() < B->Expr.constant();
              for (unsigned I = 0, E = A->Expr.size(); I != E; ++I)
                if (A->Expr.coeff(I) != B->Expr.coeff(I))
                  return A->Expr.coeff(I) < B->Expr.coeff(I);
              return false;
            });
  Key.clear();
  Key.reserve(2 + Rows.size() * (2 + Sp.size()));
  Key.push_back(static_cast<IntT>(Sp.size()));
  Key.push_back(static_cast<IntT>(Rows.size()));
  for (const Constraint *R : Rows) {
    Key.push_back(R->Rel == RelKind::EQ ? 1 : 0);
    Key.push_back(R->Expr.constant());
    for (unsigned I = 0, E = R->Expr.size(); I != E; ++I)
      Key.push_back(R->Expr.coeff(I));
  }
  return true;
}

Feasibility System::checkIntegerFeasible(unsigned NodeBudget) const {
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  if (NodeBudget == 0)
    NodeBudget = PO.SearchBudget;
  ++PS.FeasQueries;

  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache) {
    if (!canonicalKey(Key))
      return Feasibility::Empty;
    Feasibility R;
    if (detail::feasCacheLookup(Key, NodeBudget, R)) {
      ++PS.FeasCacheHits;
      return R;
    }
    ++PS.FeasCacheMisses;
    Keyed = true;
  }

  IntSearch Search(*this, NodeBudget);
  Feasibility R = Search.prepare() ? Search.run(nullptr)
                                   : Feasibility::Empty;
  if (R == Feasibility::Unknown)
    ++PS.FeasUnknown;
  if (Keyed)
    detail::feasCacheStore(Key, NodeBudget, R);
  return R;
}

std::optional<std::vector<IntT>> System::sampleIntPoint(
    unsigned NodeBudget) const {
  const ProjectionOptions &PO = projectionOptions();
  if (NodeBudget == 0)
    NodeBudget = PO.SearchBudget;

  // A memoized Empty verdict saves the search; a Feasible one still
  // needs a point, so only the negative side short-circuits.
  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache) {
    if (!canonicalKey(Key))
      return std::nullopt;
    Feasibility Known;
    if (detail::feasCacheLookup(Key, NodeBudget, Known) &&
        Known == Feasibility::Empty)
      return std::nullopt;
    Keyed = true;
  }

  IntSearch Search(*this, NodeBudget);
  if (!Search.prepare())
    return std::nullopt;
  std::vector<IntT> Point;
  Feasibility R = Search.run(&Point);
  if (Keyed)
    detail::feasCacheStore(Key, NodeBudget, R);
  if (R == Feasibility::Feasible)
    return Point;
  return std::nullopt;
}

void System::enumeratePoints(
    const std::function<void(const std::vector<IntT> &)> &Fn,
    unsigned Budget) const {
  System Base = *this;
  if (!Base.normalize())
    return;
  unsigned N = Base.numVars();
  std::vector<System> Chain(N + 1);
  Chain[N] = std::move(Base);
  for (unsigned K = N; K-- > 0;)
    Chain[K] = Chain[K + 1].fmEliminated(K);

  std::vector<IntT> Vals(N, 0);
  unsigned Used = 0;
  std::function<void(unsigned)> Rec = [&](unsigned K) {
    if (Used >= Budget)
      fatalError("enumeratePoints budget exhausted (unbounded system?)");
    if (K == N) {
      ++Used;
      if (holds(Vals))
        Fn(Vals);
      return;
    }
    std::vector<VarBound> Lower, Upper;
    Chain[K + 1].boundsOf(K, Lower, Upper);
    if (Lower.empty() || Upper.empty())
      fatalError("enumeratePoints requires a bounded system");
    IntT Lo = 0, Hi = 0;
    bool First = true;
    for (const VarBound &B : Lower) {
      IntT V = ceilDiv(B.Num.evaluate(Vals), B.Den);
      Lo = First ? V : std::max(Lo, V);
      First = false;
    }
    First = true;
    for (const VarBound &B : Upper) {
      IntT V = floorDiv(B.Num.evaluate(Vals), B.Den);
      Hi = First ? V : std::min(Hi, V);
      First = false;
    }
    for (IntT V = Lo; V <= Hi; ++V) {
      ++Used;
      Vals[K] = V;
      Rec(K + 1);
    }
  };
  Rec(0);
}

namespace {

/// True iff A and B have identical coefficient rows (constants ignored).
bool sameCoeffRow(const AffineExpr &A, const AffineExpr &B) {
  for (unsigned I = 0, E = A.size(); I != E; ++I)
    if (A.coeff(I) != B.coeff(I))
      return false;
  return true;
}

/// True iff A's coefficient row is the negation of B's (constants
/// ignored); false on any non-representable negation.
bool negCoeffRow(const AffineExpr &A, const AffineExpr &B) {
  for (unsigned I = 0, E = A.size(); I != E; ++I) {
    IntT C = B.coeff(I);
    if (C == INT64_MIN || A.coeff(I) != -C)
      return false;
  }
  return true;
}

} // namespace

bool dmcc::impliesOnItsFace(const Constraint &C, const AffineExpr &E) {
  // c + a >= 0 implies c + b >= 0 whenever b >= a; c + a == 0 forces
  // c = -a, so it implies c + b >= 0 when b >= a and -c + b >= 0 when
  // a + b >= 0.
  IntT CA = C.Expr.constant(), CB = E.constant();
  if (sameCoeffRow(C.Expr, E))
    return CB >= CA;
  if (!C.isEquality() || !negCoeffRow(E, C.Expr))
    return false;
  IntT Sum;
  return !__builtin_add_overflow(CA, CB, &Sum) && Sum >= 0;
}

void System::removeRedundant(unsigned NodeBudget) {
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  if (NodeBudget == 0)
    NodeBudget = PO.RedundancyBudget;
  ++PS.RedundancyCalls;
  if (!normalize())
    return;

  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache && canonicalKey(Key)) {
    Key.push_back(-1); // tag: redundancy removal (vs. -2 = projection)
    Key.push_back(static_cast<IntT>(NodeBudget));
    std::vector<Constraint> Cached;
    bool Inexact = false;
    if (detail::sysCacheLookup(Key, Cached, Inexact)) {
      ++PS.RedundancyCacheHits;
      Cons = std::move(Cached);
      return;
    }
    Keyed = true;
  }

  if (PO.QuickChecks && Cons.size() > 1) {
    // Syntactic accelerators: drop inequalities another constraint
    // implies on its face before paying for an exact feasibility test
    // each. normalize() has removed duplicates, so two inequalities never
    // imply each other.
    std::vector<bool> Drop(Cons.size(), false);
    for (unsigned J = 0; J != Cons.size(); ++J) {
      if (Cons[J].isEquality())
        continue;
      for (unsigned I = 0; I != Cons.size() && !Drop[J]; ++I)
        if (I != J && !Drop[I] && impliesOnItsFace(Cons[I], Cons[J].Expr))
          Drop[J] = true;
    }
    std::vector<Constraint> Kept;
    Kept.reserve(Cons.size());
    for (unsigned I = 0; I != Cons.size(); ++I) {
      if (Drop[I]) {
        ++PS.RedundancyQuickKills;
        continue;
      }
      Kept.push_back(std::move(Cons[I]));
    }
    Cons = std::move(Kept);
  }

  for (unsigned I = Cons.size(); I-- > 0;) {
    ++PS.RedundancyTests;
    const Constraint C = Cons[I];
    System Test(Sp);
    for (unsigned J = 0, E = Cons.size(); J != E; ++J)
      if (J != I)
        Test.addConstraint(Cons[J]);
    if (C.isEquality()) {
      // EQ is redundant iff both strict sides are empty.
      System TestLt = Test;
      TestLt.addGE(C.Expr.negated().plusConst(-1)); // Expr <= -1
      if (TestLt.checkIntegerFeasible(NodeBudget) != Feasibility::Empty)
        continue;
      Test.addGE(C.Expr.plusConst(-1)); // Expr >= 1
      if (Test.checkIntegerFeasible(NodeBudget) != Feasibility::Empty)
        continue;
    } else {
      Test.addGE(C.Expr.negated().plusConst(-1)); // Expr <= -1
      if (Test.checkIntegerFeasible(NodeBudget) != Feasibility::Empty)
        continue;
    }
    Cons.erase(Cons.begin() + I);
  }
  if (Keyed)
    detail::sysCacheStore(Key, Cons, false);
}

std::string System::str() const {
  std::string S;
  for (const Constraint &C : Cons) {
    S += "  ";
    S += C.str(Sp);
    S += "\n";
  }
  return S;
}

AffineExpr dmcc::mapExpr(
    const AffineExpr &E, const Space &From, const Space &To,
    const std::function<std::string(const std::string &)> &MapName) {
  assert(E.size() == From.size() && "expression over a different space");
  AffineExpr R(To.size());
  R.constant() = E.constant();
  for (unsigned I = 0, N = From.size(); I != N; ++I) {
    if (E.coeff(I) == 0)
      continue;
    std::string Name = MapName ? MapName(From.name(I)) : From.name(I);
    int J = To.indexOf(Name);
    if (J < 0)
      fatalError("mapExpr: variable missing in target space");
    R.coeff(static_cast<unsigned>(J)) = E.coeff(I);
  }
  return R;
}
