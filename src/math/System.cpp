//===- math/System.cpp ----------------------------------------*- C++ -*-===//

#include "math/System.h"

#include <algorithm>
#include <numeric>

using namespace dmcc;

using detail::RowMatrix;

namespace {

/// Negates \p Len entries in place, aborting like AffineExpr::scale(-1).
void negateChk(IntT *P, unsigned Len) {
  for (unsigned I = 0; I != Len; ++I)
    P[I] = mulChk(P[I], -1);
}

/// Index of row \p R's first nonzero coefficient; Width if it has none.
unsigned firstCoeff(const IntT *R, unsigned Width) {
  unsigned I = 2;
  while (I != Width && R[I] == 0)
    ++I;
  return I;
}

/// Makes the first nonzero coefficient of row \p R positive.
void canonicalizeSign(IntT *R, unsigned Width) {
  unsigned I = firstCoeff(R, Width);
  if (I != Width && R[I] < 0)
    negateChk(R + 1, Width - 1);
}

/// AffineExpr::isNegationOf on rows: the expression of \p C (constant and
/// coefficients) is the negation of \p F's.
bool isNegationRow(const IntT *C, const IntT *F, unsigned Width) {
  for (unsigned I = 1; I != Width; ++I)
    if (C[I] == INT64_MIN || F[I] != -C[I])
      return false;
  return true;
}

/// Normalizes rows in place: gcd tightening, the equality divisibility
/// test, sign canonicalization (first nonzero coefficient of an equality
/// positive), then first-match dedupe with GE-pair merging, repeated
/// until it merges nothing, so normalizing again changes no row. Returns
/// false when a row is unsatisfiable on its face; the rows are then left
/// rewritten in place up to the failing one, with nothing dropped, and
/// callers that ignore the verdict (elimination) go on from them.
bool normalizeRows(RowMatrix &M) {
  const unsigned W = M.Width;
  for (unsigned R = 0; R != M.Rows; ++R) {
    IntT *P = M.row(R);
    // coeffGcd, with the same absChk on every coefficient it visits;
    // gcd(0, c) = |c| and gcd(1, c) = 1 need no division.
    IntT G = 0;
    for (unsigned I = 2; I != W; ++I) {
      if (P[I] == 0)
        continue;
      if (G == 0)
        G = absChk(P[I]);
      else if (G == 1)
        (void)absChk(P[I]);
      else
        G = gcdInt(G, P[I]);
    }
    if (G == 0) {
      if (P[0] == RowMatrix::EQ ? P[1] != 0 : P[1] < 0)
        return false;
      continue; // tautology, dropped below
    }
    if (P[0] == RowMatrix::EQ) {
      if (P[1] % G != 0)
        return false; // GCD divisibility test: no integer solutions
      if (G > 1)
        for (unsigned I = 1; I != W; ++I)
          P[I] /= G;
      canonicalizeSign(P, W);
    } else if (G > 1) {
      P[1] = floorDiv(P[1], G);
      for (unsigned I = 2; I != W; ++I)
        P[I] /= G;
    }
  }

  // Drop tautologies, deduplicate, and merge GE pairs {E >= 0, -E >= 0}
  // into E == 0, compacting the kept rows to the front. The first kept
  // row that matches decides. A merge can turn a kept row into a copy of
  // another kept equality, so a pass that merged runs again.
  for (bool Merged = true; Merged;) {
    Merged = false;
    unsigned Kept = 0;
    for (unsigned R = 0; R != M.Rows; ++R) {
      const IntT *C = M.row(R);
      if (firstCoeff(C, W) == W)
        continue; // tautology
      bool Skip = false;
      for (unsigned FI = 0; FI != Kept && !Skip; ++FI) {
        IntT *F = M.row(FI);
        if (std::equal(C + 1, C + W, F + 1)) {
          // Same expression: a duplicate, or a GE implied by an EQ.
          Skip = C[0] == F[0] || C[0] == RowMatrix::GE;
        } else if (C[0] == RowMatrix::GE && isNegationRow(C, F, W)) {
          // F says -C.Expr >= 0 (merge into C.Expr == 0) or pins it.
          if (F[0] == RowMatrix::GE) {
            F[0] = RowMatrix::EQ;
            canonicalizeSign(F, W);
            Merged = true;
          }
          Skip = true;
        }
      }
      if (Skip)
        continue;
      if (Kept != R)
        std::copy(C, C + W, M.row(Kept));
      ++Kept;
    }
    M.Rows = Kept;
  }
  M.Data.resize(size_t(M.Rows) * W);
  return true;
}

/// Scratch rows reused across eliminations.
struct ElimScratch {
  std::vector<unsigned> Low, Up;
  std::vector<IntT> LE, UE;
};

/// True when some row of \p M has a nonzero entry in column \p Col.
bool involvesColumn(const RowMatrix &M, unsigned Col) {
  for (unsigned R = 0; R != M.Rows; ++R)
    if (M.row(R)[Col] != 0)
      return true;
  return false;
}

/// Fourier-Motzkin eliminates column \p V of \p In into \p Out, whose rows
/// drop that column. A unit-coefficient equality substitutes first and
/// is exact. Otherwise the rows without the variable are kept in order,
/// then every Low x Up pair combines; a split non-unit equality, or a
/// pair where neither coefficient is 1, sets *Exact (when given) to
/// false, since integer points may be gained. The result is normalized
/// and normalizeRows' verdict ignored.
void eliminateColumn(const RowMatrix &In, RowMatrix &Out, unsigned V,
                     ElimScratch &S, bool *Exact) {
  ++projectionStats().FmEliminations;
  const unsigned W = In.Width;
  Out.reset(W - 1);

  for (unsigned CI = 0; CI != In.Rows; ++CI) {
    const IntT *C = In.row(CI);
    if (C[0] != RowMatrix::EQ || (C[V] != 1 && C[V] != -1))
      continue;
    // A*v + R == 0  =>  v = -R/A. For A == 1: v = -R; for A == -1: v = R.
    S.LE.assign(C, C + W);
    if (C[V] == 1)
      negateChk(S.LE.data() + 1, W - 1);
    const IntT *Repl = S.LE.data();
    Out.Data.reserve(size_t(In.Rows - 1) * Out.Width);
    for (unsigned CJ = 0; CJ != In.Rows; ++CJ) {
      if (CJ == CI)
        continue;
      const IntT *Src = In.row(CJ);
      Out.appendWithout(Src, V);
      IntT A = Src[V];
      if (A == 0)
        continue;
      IntT *P = Out.row(Out.Rows - 1);
      for (unsigned I = 2; I != W; ++I)
        if (I != V) {
          IntT &X = P[I < V ? I : I - 1];
          X = addChk(X, mulChk(A, Repl[I]));
        }
      P[1] = addChk(P[1], mulChk(A, Repl[1]));
    }
    normalizeRows(Out);
    return;
  }

  S.Low.clear();
  S.Up.clear();
  for (unsigned CI = 0; CI != In.Rows; ++CI) {
    const IntT *C = In.row(CI);
    IntT A = C[V];
    if (A == 0) {
      Out.appendWithout(C, V);
      continue;
    }
    bool IsEq = C[0] == RowMatrix::EQ;
    if (IsEq && Exact)
      *Exact = false; // the split loses the equality's divisibility
    if (A > 0 || IsEq)
      S.Low.push_back(CI);
    if (A < 0 || IsEq)
      S.Up.push_back(CI);
  }

  Out.Data.reserve(Out.Data.size() +
                   size_t(S.Low.size()) * S.Up.size() * Out.Width);
  for (unsigned L : S.Low) {
    const IntT *LRow = In.row(L);
    IntT AL = LRow[V];
    const IntT *LE = LRow;
    if (AL < 0) {
      S.LE.assign(LRow, LRow + W);
      negateChk(S.LE.data() + 1, W - 1);
      LE = S.LE.data();
    }
    IntT A = AL > 0 ? AL : -AL; // coefficient of v in LE, > 0
    for (unsigned U : S.Up) {
      if (U == L)
        continue;
      const IntT *URow = In.row(U);
      IntT AU = URow[V];
      const IntT *UE = URow;
      if (AU > 0) {
        S.UE.assign(URow, URow + W);
        negateChk(S.UE.data() + 1, W - 1);
        UE = S.UE.data();
      }
      IntT B = AU < 0 ? -AU : AU; // -coefficient of v in UE, > 0
      // Dark-shadow condition: the combination is integer-exact when one
      // of the original coefficients is 1 (conservative otherwise).
      if (Exact && A != 1 && B != 1)
        *Exact = false;
      IntT G = gcdInt(A, B);
      IntT FL = B / G, FU = A / G;
      // Cross-multiplying bound pairs is where Fourier-Motzkin grows
      // coefficients. Every column is checked, the eliminated one
      // included, and any overflow is this one diagnostic.
      IntT *P = Out.appendRow();
      P[0] = RowMatrix::GE;
      for (unsigned I = 1; I != W; ++I) {
        IntT X, Y, Sum;
        if (__builtin_mul_overflow(LE[I], FL, &X) ||
            __builtin_mul_overflow(UE[I], FU, &Y) ||
            __builtin_add_overflow(X, Y, &Sum))
          fatalError("coefficient overflow during Fourier-Motzkin "
                     "elimination: combining bounds exceeds the 64-bit "
                     "coefficient range (system too complex or input "
                     "coefficients too large)");
        if (I == V)
          assert(Sum == 0 && "elimination failed to cancel");
        else
          P[I < V ? I : I - 1] = Sum;
      }
    }
  }
  normalizeRows(Out);
}

/// Appends the rows of \p In to \p Out, moving the coefficient of In's
/// variable I to Out's variable Col[I]. Zero coefficients are not
/// moved, so a variable no row uses needs no column.
void appendRemapped(const RowMatrix &In, const std::vector<unsigned> &Col,
                    RowMatrix &Out) {
  for (unsigned R = 0; R != In.Rows; ++R) {
    const IntT *Src = In.row(R);
    IntT *P = Out.appendRow();
    P[0] = Src[0];
    P[1] = Src[1];
    for (unsigned I = 2; I != In.Width; ++I)
      if (Src[I] != 0)
        P[2 + Col[I - 2]] = Src[I];
  }
}

/// The indices 0 .. N-1, in order.
std::vector<unsigned> indices(unsigned N) {
  std::vector<unsigned> I(N);
  std::iota(I.begin(), I.end(), 0u);
  return I;
}

/// The cache key of normalized rows \p M: variable and row counts, then
/// the rows in lexicographic order, which sorts GE before EQ, then by
/// constant, then by coefficients. Syntactic variants (row order,
/// scaling, merged equalities) share one key.
void buildKey(const RowMatrix &M, detail::CacheKey &Key) {
  const unsigned W = M.Width;
  std::vector<unsigned> Order = indices(M.Rows);
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    const IntT *PA = M.row(A), *PB = M.row(B);
    return std::lexicographical_compare(PA, PA + W, PB, PB + W);
  });
  Key.clear();
  Key.reserve(2 + M.Data.size());
  Key.push_back(static_cast<IntT>(W - 2));
  Key.push_back(static_cast<IntT>(M.Rows));
  for (unsigned R : Order)
    Key.insert(Key.end(), M.row(R), M.row(R) + W);
}

/// True under the assignment \p Vals, each row evaluated with
/// AffineExpr::evaluate's checked operations in its order.
bool rowsHold(const RowMatrix &M, const std::vector<IntT> &Vals) {
  for (unsigned R = 0; R != M.Rows; ++R) {
    const IntT *P = M.row(R);
    IntT V = P[1];
    for (unsigned I = 2; I != M.Width; ++I)
      if (P[I] != 0)
        V = addChk(V, mulChk(P[I], Vals[I - 2]));
    if (P[0] == RowMatrix::EQ ? V != 0 : V < 0)
      return false;
  }
  return true;
}

/// The rule behind impliesOnItsFace: \p C (an equality when \p CIsEq)
/// alone implies  E >= 0. C and E are AffineExprs or ConstraintRefs over
/// \p N variables.
template <typename CT, typename ET>
bool faceImplies(const CT &C, bool CIsEq, const ET &E, unsigned N) {
  // c + a >= 0 implies c + b >= 0 whenever b >= a; c + a == 0 forces
  // c = -a, so it implies c + b >= 0 when b >= a and -c + b >= 0 when
  // a + b >= 0.
  bool Same = true, Neg = CIsEq;
  for (unsigned I = 0; I != N && (Same || Neg); ++I) {
    IntT A = C.coeff(I), B = E.coeff(I);
    Same = Same && A == B;
    Neg = Neg && A != INT64_MIN && B == -A;
  }
  IntT CA = C.constant(), CB = E.constant();
  if (Same)
    return CB >= CA;
  IntT Sum;
  return Neg && !__builtin_add_overflow(CA, CB, &Sum) && Sum >= 0;
}

/// The bound lists of a Fourier-Motzkin chain for scanning variables
/// 0..N-1 in index order, as boundsOf would extract them. Level K+1 of
/// the chain constrains variables 0..K; the bounds on variable K are
/// taken from it before K is eliminated, so only two levels are alive at
/// once. A bound on variable K is the row [den, const, c0 ... c(K-1)]:
///   lower:  v_K >= ceil(Num / den)      upper:  v_K <= floor(Num / den)
/// stored per level in one pool per side.
class FmChain {
public:
  /// Builds the chain from \p Base, normalized rows over N variables.
  /// Returns false when level 0, which holds only constant rows, is
  /// infeasible: the system is rationally empty.
  bool build(RowMatrix &Base) {
    Levels.assign(Base.Width - 2, Level());
    LowPool.clear();
    UpPool.clear();
    RowMatrix Next;
    ElimScratch S;
    for (unsigned K = Levels.size(); K-- > 0;) {
      extractBounds(Base, K);
      eliminateColumn(Base, Next, Base.Width - 1, S, nullptr);
      std::swap(Base, Next);
    }
    for (unsigned R = 0; R != Base.Rows; ++R) {
      const IntT *P = Base.row(R);
      if (P[0] == RowMatrix::EQ ? P[1] != 0 : P[1] < 0)
        return false;
    }
    return true;
  }

  unsigned numLower(unsigned K) const { return Levels[K].NumLow; }
  unsigned numUpper(unsigned K) const { return Levels[K].NumUp; }

  /// True when extracting variable K's bounds negated INT64_MIN, which
  /// boundsOf reports as an overflow.
  bool negationOverflowed(unsigned K) const {
    return Levels[K].NegOverflow;
  }
  bool anyNegationOverflowed() const {
    return std::any_of(Levels.begin(), Levels.end(),
                       [](const Level &L) { return L.NegOverflow; });
  }

  /// max over the lower bounds of ceil(Num / den); numLower(K) > 0.
  IntT lower(unsigned K, const std::vector<IntT> &Vals) const {
    const IntT *B = LowPool.data() + Levels[K].Low;
    IntT Lo = ceilDiv(evaluate(B, K, Vals), B[0]);
    for (unsigned I = 1; I != Levels[K].NumLow; ++I) {
      B += K + 2;
      Lo = std::max(Lo, ceilDiv(evaluate(B, K, Vals), B[0]));
    }
    return Lo;
  }

  /// min over the upper bounds of floor(Num / den); numUpper(K) > 0.
  IntT upper(unsigned K, const std::vector<IntT> &Vals) const {
    const IntT *B = UpPool.data() + Levels[K].Up;
    IntT Hi = floorDiv(evaluate(B, K, Vals), B[0]);
    for (unsigned I = 1; I != Levels[K].NumUp; ++I) {
      B += K + 2;
      Hi = std::min(Hi, floorDiv(evaluate(B, K, Vals), B[0]));
    }
    return Hi;
  }

private:
  struct Level {
    size_t Low = 0, Up = 0; ///< pool offsets of the first bound rows
    unsigned NumLow = 0, NumUp = 0;
    bool NegOverflow = false;
  };

  /// Num of bound row \p B at \p Vals, with AffineExpr::evaluate's
  /// checked operations in its order.
  static IntT evaluate(const IntT *B, unsigned K,
                       const std::vector<IntT> &Vals) {
    IntT R = B[1];
    for (unsigned I = 0; I != K; ++I)
      if (B[2 + I] != 0)
        R = addChk(R, mulChk(B[2 + I], Vals[I]));
    return R;
  }

  /// Appends the bound row [Den, +-P[1], ..., +-P[K+1]] to \p Pool,
  /// negated when \p Negate, noting a negated INT64_MIN in \p L.
  static void pushBound(std::vector<IntT> &Pool, IntT Den, const IntT *P,
                        unsigned K, bool Negate, Level &L) {
    Pool.push_back(Den);
    for (unsigned I = 1; I != K + 2; ++I) {
      IntT X = P[I];
      if (Negate) {
        if (X == INT64_MIN)
          L.NegOverflow = true;
        else
          X = -X;
      }
      Pool.push_back(X);
    }
  }

  /// boundsOf(K) on \p Rows, whose last live column is K.
  void extractBounds(const RowMatrix &Rows, unsigned K) {
    Level &L = Levels[K];
    L.Low = LowPool.size();
    L.Up = UpPool.size();
    for (unsigned R = 0; R != Rows.Rows; ++R) {
      const IntT *P = Rows.row(R);
      IntT A = P[K + 2];
      if (A == 0)
        continue;
      bool IsEq = P[0] == RowMatrix::EQ;
      if (A > 0 || IsEq) {
        // A*v + R >= 0  (A > 0)  =>  v >= ceil(-R / A)
        pushBound(LowPool, A > 0 ? A : -A, P, K, A > 0, L);
        ++L.NumLow;
      }
      if (A < 0 || IsEq) {
        // A*v + R >= 0  (A < 0)  =>  v <= floor(R / -A)
        pushBound(UpPool, A < 0 ? -A : A, P, K, A > 0, L);
        ++L.NumUp;
      }
    }
  }

  std::vector<Level> Levels;
  std::vector<IntT> LowPool, UpPool;
};

/// Depth-first search over a Fourier-Motzkin chain: values are assigned
/// in index order within each level's bounds and checked against the
/// original system at the leaves.
class IntSearch {
public:
  IntSearch(const RowMatrix &Orig, unsigned NodeBudget)
      : Orig(Orig), Budget(NodeBudget) {}

  /// Window of values explored at a truncated or unbounded range end.
  static constexpr IntT Window = 72;

  /// Builds the chain from \p Rows, Orig's normalized rows (consumed).
  /// Returns false when the system is rationally empty. A bound that
  /// negated INT64_MIN aborts only after that test, where boundsOf did.
  bool prepare(RowMatrix &Rows) {
    if (!Chain.build(Rows))
      return false;
    if (Chain.anyNegationOverflowed())
      overflowError("*", INT64_MIN, -1);
    return true;
  }

  Feasibility run(std::vector<IntT> *Point) {
    Vals.assign(Orig.Width - 2, 0);
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
    if (K == Vals.size())
      return rowsHold(Orig, Vals);
    if (Budget == 0) {
      BudgetHit = true;
      return false;
    }

    bool HasLo = Chain.numLower(K) != 0, HasHi = Chain.numUpper(K) != 0;
    IntT Lo = HasLo ? Chain.lower(K, Vals) : 0;
    IntT Hi = HasHi ? Chain.upper(K, Vals) : 0;

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

  const RowMatrix &Orig;
  FmChain Chain;
  std::vector<IntT> Vals;
  unsigned Budget;
  uint64_t Nodes = 0;
  bool Incomplete = false;
  bool BudgetHit = false;
};

/// Exhaustive scan behind System::enumeratePoints: every point of every
/// level's range, aborting on an unbounded level or a spent budget.
class PointEnumerator {
public:
  PointEnumerator(const RowMatrix &Orig, const FmChain &Chain,
                  const std::function<void(const std::vector<IntT> &)> &Fn,
                  unsigned Budget)
      : Orig(Orig), Chain(Chain), Fn(Fn), Budget(Budget),
        Vals(Orig.Width - 2, 0) {}

  void scan(unsigned K) {
    if (Used >= Budget)
      fatalError("enumeratePoints budget exhausted (unbounded system?)");
    if (K == Vals.size()) {
      ++Used;
      if (rowsHold(Orig, Vals))
        Fn(Vals);
      return;
    }
    if (Chain.negationOverflowed(K))
      overflowError("*", INT64_MIN, -1);
    if (Chain.numLower(K) == 0 || Chain.numUpper(K) == 0)
      fatalError("enumeratePoints requires a bounded system");
    IntT Lo = Chain.lower(K, Vals), Hi = Chain.upper(K, Vals);
    for (IntT V = Lo; V <= Hi; ++V) {
      ++Used;
      Vals[K] = V;
      scan(K + 1);
    }
  }

private:
  const RowMatrix &Orig;
  const FmChain &Chain;
  const std::function<void(const std::vector<IntT> &)> &Fn;
  unsigned Budget;
  unsigned Used = 0;
  std::vector<IntT> Vals;
};

/// System::checkIntegerFeasible on the rows \p Orig; with \p Point,
/// also System::sampleIntPoint, which stores the point found when the
/// verdict is Feasible. A memoized Feasible verdict carries no point, so
/// it is served only when none is wanted.
Feasibility rowsFeasibility(const RowMatrix &Orig, unsigned NodeBudget,
                            std::vector<IntT> *Point = nullptr) {
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  if (NodeBudget == 0)
    NodeBudget = PO.SearchBudget;
  ++PS.FeasQueries;

  // One normalization serves the key and the search.
  RowMatrix Rows = Orig;
  bool NonEmpty = normalizeRows(Rows);
  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache) {
    if (!NonEmpty)
      return Feasibility::Empty;
    buildKey(Rows, Key);
    Feasibility R;
    if (detail::feasCacheLookup(Key, NodeBudget, R) &&
        !(Point && R == Feasibility::Feasible)) {
      ++PS.FeasCacheHits;
      return R;
    }
    ++PS.FeasCacheMisses;
    Keyed = true;
  }

  IntSearch Search(Orig, NodeBudget);
  Feasibility R = NonEmpty && Search.prepare(Rows) ? Search.run(Point)
                                                   : Feasibility::Empty;
  if (R == Feasibility::Unknown)
    ++PS.FeasUnknown;
  if (Keyed)
    detail::feasCacheStore(Key, NodeBudget, R);
  return R;
}

} // namespace

AffineExpr ConstraintRef::expr() const {
  AffineExpr E(N);
  E.constant() = Row[1];
  for (unsigned I = 0; I != N; ++I)
    E.coeff(I) = Row[2 + I];
  return E;
}

unsigned System::addVar(const std::string &Name, VarKind Kind) {
  unsigned I = Sp.add(Name, Kind);
  RowMatrix Wider;
  Wider.reset(M.Width + 1);
  for (unsigned R = 0; R != M.Rows; ++R)
    std::copy(M.row(R), M.row(R) + M.Width, Wider.appendRow());
  M = std::move(Wider);
  return I;
}

void System::addConstraint(const Constraint &C) {
  assert(C.Expr.size() == Sp.size() && "constraint over a different space");
  IntT *P = M.appendRow();
  P[0] = C.isEquality() ? RowMatrix::EQ : RowMatrix::GE;
  P[1] = C.Expr.constant();
  for (unsigned I = 0, N = Sp.size(); I != N; ++I)
    P[2 + I] = C.Expr.coeff(I);
}

void System::addRange(unsigned I, IntT Lo, IntT Hi) {
  addGE(varExpr(I).plusConst(-Lo));
  addGE(varExpr(I).negated().plusConst(Hi));
}

void System::addAllMapped(const System &Other, const NameMapFn &MapName) {
  assert(&Other != this && "mapping a system into itself");
  // The variable here of each variable of Other that some row uses;
  // unused variables are not looked up, as mapExpr skips zero terms.
  std::vector<unsigned> Col(Other.numVars(), 0);
  for (unsigned I = 0; I != Col.size(); ++I) {
    if (!Other.involves(I))
      continue;
    const std::string &From = Other.Sp.name(I);
    int J = Sp.indexOf(MapName ? MapName(From) : From);
    if (J < 0)
      fatalError("mapExpr: variable missing in target space");
    Col[I] = static_cast<unsigned>(J);
  }
  appendRemapped(Other.M, Col, M);
}

bool System::normalize() { return normalizeRows(M); }

System System::fmEliminated(unsigned I, bool *Exact) const {
  assert(I < Sp.size() && "variable index out of range");
  RowMatrix Out;
  ElimScratch S;
  eliminateColumn(M, Out, 2 + I, S, Exact);
  std::vector<unsigned> Kept = indices(Sp.size());
  Kept.erase(Kept.begin() + I);
  System R(Sp);
  appendRemapped(Out, Kept, R.M);
  return R;
}

System System::eliminated(const std::vector<unsigned> &Vars,
                          bool *Exact) const {
  const RowMatrix *In = &M; // the rows so far
  RowMatrix Cur, Next;
  ElimScratch S;
  std::vector<unsigned> Kept = indices(Sp.size()); // In's columns
  for (unsigned V : Vars) {
    assert(V < Sp.size() && "variable index out of range");
    auto It = std::lower_bound(Kept.begin(), Kept.end(), V);
    if (It == Kept.end() || *It != V)
      continue; // eliminated already
    unsigned Col = 2 + static_cast<unsigned>(It - Kept.begin());
    if (!involvesColumn(*In, Col))
      continue;
    eliminateColumn(*In, Next, Col, S, Exact);
    std::swap(Cur, Next);
    In = &Cur;
    Kept.erase(It);
  }
  System R(Sp);
  appendRemapped(*In, Kept, R.M);
  return R;
}

bool System::involves(unsigned I) const { return involvesColumn(M, 2 + I); }

void System::substitute(unsigned I, const AffineExpr &Repl) {
  assert(Repl.size() == Sp.size() && "substitution over a different space");
  assert(!Repl.involves(I) && "substitution must not involve the variable");
  // AffineExpr::substitute on every row that uses the variable.
  for (unsigned R = 0; R != M.Rows; ++R) {
    IntT *P = M.row(R);
    IntT A = P[2 + I];
    if (A == 0)
      continue;
    P[2 + I] = 0;
    for (unsigned J = 0, N = Sp.size(); J != N; ++J)
      P[2 + J] = addChk(P[2 + J], mulChk(A, Repl.coeff(J)));
    P[1] = addChk(P[1], mulChk(A, Repl.constant()));
  }
}

void System::removeVar(unsigned I) {
  assert(!involves(I) && "removing a variable still in use");
  RowMatrix Narrow;
  Narrow.reset(M.Width - 1);
  for (unsigned R = 0; R != M.Rows; ++R)
    Narrow.appendWithout(M.row(R), 2 + I);
  M = std::move(Narrow);
  Sp.remove(I);
}

void System::boundsOf(unsigned I, std::vector<VarBound> &Lower,
                      std::vector<VarBound> &Upper) const {
  for (ConstraintRef C : constraints()) {
    IntT A = C.coeff(I);
    if (A == 0)
      continue;
    AffineExpr Rest = C.expr();
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

bool System::holds(const std::vector<IntT> &Vals) const {
  return rowsHold(M, Vals);
}

bool dmcc::impliesOnItsFace(const Constraint &C, const AffineExpr &E) {
  return faceImplies(C.Expr, C.isEquality(), E, E.size());
}

bool System::impliesOnItsFace(const AffineExpr &E) const {
  for (ConstraintRef C : constraints())
    if (faceImplies(C, C.isEquality(), E, numVars()))
      return true;
  return false;
}

Feasibility System::checkIntegerFeasible(unsigned NodeBudget) const {
  return rowsFeasibility(M, NodeBudget);
}

std::optional<std::vector<IntT>> System::sampleIntPoint(
    unsigned NodeBudget) const {
  std::vector<IntT> Point;
  if (rowsFeasibility(M, NodeBudget, &Point) == Feasibility::Feasible)
    return Point;
  return std::nullopt;
}

void System::enumeratePoints(
    const std::function<void(const std::vector<IntT> &)> &Fn,
    unsigned Budget) const {
  RowMatrix Rows = M;
  if (!normalizeRows(Rows))
    return;
  // Level 0's verdict is not consulted: an empty range stops the scan,
  // and an unbounded level reached before it still aborts.
  FmChain Chain;
  (void)Chain.build(Rows);
  PointEnumerator(M, Chain, Fn, Budget).scan(0);
}

void System::removeRedundant(unsigned NodeBudget) {
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  if (NodeBudget == 0)
    NodeBudget = PO.RedundancyBudget;
  ++PS.RedundancyCalls;
  if (!normalize())
    return;

  const unsigned W = M.Width;
  auto EraseRow = [&](unsigned R) {
    M.Data.erase(M.Data.begin() + size_t(R) * W,
                 M.Data.begin() + size_t(R + 1) * W);
    --M.Rows;
  };
  if (PO.QuickChecks && M.Rows > 1) {
    // Syntactic accelerators: drop inequalities another constraint
    // implies on its face before paying for an exact feasibility test
    // each. normalize() has removed duplicates, so two inequalities never
    // imply each other.
    ConstraintList Cons = constraints();
    std::vector<bool> Drop(M.Rows, false);
    for (unsigned J = 0; J != M.Rows; ++J) {
      if (Cons[J].isEquality())
        continue;
      for (unsigned I = 0; I != M.Rows && !Drop[J]; ++I)
        if (I != J && !Drop[I] &&
            faceImplies(Cons[I], Cons[I].isEquality(), Cons[J], W - 2))
          Drop[J] = true;
    }
    for (unsigned R = M.Rows; R-- > 0;)
      if (Drop[R]) {
        ++PS.RedundancyQuickKills;
        EraseRow(R);
      }
  }

  // True when the other rows and one strict side of row I, Expr <= -1
  // (\p Below) or Expr >= 1, have no integer point.
  RowMatrix Test;
  auto SideIsEmpty = [&](unsigned I, bool Below) {
    Test.reset(W);
    for (unsigned J = 0; J != M.Rows; ++J)
      if (J != I)
        Test.Data.insert(Test.Data.end(), M.row(J), M.row(J) + W);
    Test.Rows = M.Rows - 1;
    IntT *P = Test.appendRow();
    std::copy(M.row(I) + 1, M.row(I) + W, P + 1);
    if (Below) {
      // AffineExpr::negated's order: coefficients, then the constant.
      negateChk(P + 2, W - 2);
      P[1] = mulChk(P[1], -1);
    }
    P[0] = RowMatrix::GE;
    P[1] = addChk(P[1], -1);
    return rowsFeasibility(Test, NodeBudget) == Feasibility::Empty;
  };
  for (unsigned I = M.Rows; I-- > 0;) {
    ++PS.RedundancyTests;
    // An equality is redundant iff both strict sides are empty.
    if (!SideIsEmpty(I, true))
      continue;
    if (M.row(I)[0] == RowMatrix::EQ && !SideIsEmpty(I, false))
      continue;
    EraseRow(I);
  }
}

std::string System::str() const {
  std::string S;
  for (ConstraintRef C : constraints())
    S += "  " + C.constraint().str(Sp) + "\n";
  return S;
}

AffineExpr dmcc::mapExpr(const AffineExpr &E, const Space &From,
                         const Space &To, const NameMapFn &MapName) {
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
