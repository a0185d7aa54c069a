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

namespace {

/// Constraints as one flat integer matrix: row R is
///   Data[R*Width, (R+1)*Width) = [rel, const, c0 ... c(Width-3)]
/// with rel 0 for Expr >= 0 and 1 for Expr == 0. Normalization and
/// Fourier-Motzkin elimination exist only on these rows: System's
/// normalize, fmEliminated and eliminated load their constraints once,
/// run the kernel and write the rows back, and the integer-feasibility
/// search works on them from the cache key to the verdict.
struct RowMatrix {
  static constexpr IntT GE = 0, EQ = 1;

  unsigned Width = 2; ///< 2 + number of live columns
  unsigned Rows = 0;
  std::vector<IntT> Data;

  IntT *row(unsigned R) { return Data.data() + size_t(R) * Width; }
  const IntT *row(unsigned R) const {
    return Data.data() + size_t(R) * Width;
  }
  void reset(unsigned W) {
    Width = W;
    Rows = 0;
    Data.clear();
  }
  /// Appends a zeroed row and returns it.
  IntT *appendRow() {
    Data.resize(Data.size() + Width);
    return row(Rows++);
  }
  /// Appends \p Src, a row one entry wider than this matrix's, without
  /// its entry \p V.
  void appendWithout(const IntT *Src, unsigned V) {
    Data.insert(Data.end(), Src, Src + V);
    Data.insert(Data.end(), Src + V + 1, Src + Width + 1);
    ++Rows;
  }
};

/// Loads \p Cons, constraints over \p N variables, as rows.
void loadRows(const std::vector<Constraint> &Cons, unsigned N,
              RowMatrix &M) {
  M.reset(N + 2);
  M.Data.reserve(size_t(Cons.size()) * M.Width);
  for (const Constraint &C : Cons) {
    IntT *R = M.appendRow();
    R[0] = C.isEquality() ? RowMatrix::EQ : RowMatrix::GE;
    R[1] = C.Expr.constant();
    for (unsigned I = 0; I != N; ++I)
      R[2 + I] = C.Expr.coeff(I);
  }
}

/// Writes \p M back into \p Cons, reusing its storage, as constraints
/// over \p N variables: the variables in \p Gone (ascending) were
/// eliminated and get zero coefficients, and M's columns hold the others
/// in order.
void storeRows(const RowMatrix &M, unsigned N,
               const std::vector<unsigned> &Gone,
               std::vector<Constraint> &Cons) {
  Cons.resize(M.Rows);
  for (unsigned R = 0; R != M.Rows; ++R) {
    const IntT *P = M.row(R);
    AffineExpr &E = Cons[R].Expr;
    Cons[R].Rel = P[0] == RowMatrix::EQ ? RelKind::EQ : RelKind::GE;
    if (E.size() != N)
      E = AffineExpr(N);
    E.constant() = P[1];
    auto G = Gone.begin();
    for (unsigned I = 0, Col = 2; I != N; ++I) {
      if (G != Gone.end() && *G == I) {
        E.coeff(I) = 0;
        ++G;
      } else {
        E.coeff(I) = P[Col++];
      }
    }
  }
}

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
/// positive), then first-match dedupe with GE-pair merging. Returns
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
  // row that matches decides.
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
  M.Data.resize(size_t(Kept) * W);
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

/// Normalizes \p S into rows; false when it is empty on its face.
bool normalizedRows(const System &S, RowMatrix &M) {
  loadRows(S.constraints(), S.numVars(), M);
  return normalizeRows(M);
}

/// The cache key of normalized rows \p M: variable and row counts, then
/// the rows in lexicographic order, which sorts GE before EQ, then by
/// constant, then by coefficients. Syntactic variants (row order,
/// scaling, merged equalities) share one key.
void buildKey(const RowMatrix &M, detail::CacheKey &Key) {
  const unsigned W = M.Width;
  std::vector<unsigned> Order(M.Rows);
  for (unsigned R = 0; R != M.Rows; ++R)
    Order[R] = R;
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

/// The memo key of \p S (see buildKey) for the redundancy cache. Returns
/// false when \p S is empty on its face.
bool canonicalKey(const System &S, detail::CacheKey &Key) {
  RowMatrix M;
  if (!normalizedRows(S, M))
    return false;
  buildKey(M, Key);
  return true;
}

} // namespace

bool System::normalize() {
  RowMatrix M;
  loadRows(Cons, Sp.size(), M);
  bool Ok = normalizeRows(M);
  storeRows(M, Sp.size(), {}, Cons);
  return Ok;
}

System System::fmEliminated(unsigned I, bool *Exact) const {
  assert(I < Sp.size() && "variable index out of range");
  RowMatrix In, Out;
  ElimScratch S;
  loadRows(Cons, Sp.size(), In);
  eliminateColumn(In, Out, 2 + I, S, Exact);
  System R(Sp);
  storeRows(Out, Sp.size(), {I}, R.Cons);
  return R;
}

System System::eliminated(const std::vector<unsigned> &Vars,
                          bool *Exact) const {
  RowMatrix M, Next;
  ElimScratch S;
  loadRows(Cons, Sp.size(), M);
  std::vector<unsigned> Gone; // eliminated so far, ascending
  for (unsigned V : Vars) {
    assert(V < Sp.size() && "variable index out of range");
    auto It = std::lower_bound(Gone.begin(), Gone.end(), V);
    if (It != Gone.end() && *It == V)
      continue;
    // Column of V once the variables before it in Gone are dropped.
    unsigned Col = 2 + V - static_cast<unsigned>(It - Gone.begin());
    if (!involvesColumn(M, Col))
      continue;
    eliminateColumn(M, Next, Col, S, Exact);
    std::swap(M, Next);
    Gone.insert(It, V);
  }
  System R(Sp);
  storeRows(M, Sp.size(), Gone, R.Cons);
  return R;
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

bool System::holds(const std::vector<IntT> &Vals) const {
  for (const Constraint &C : Cons)
    if (!C.holds(Vals))
      return false;
  return true;
}

namespace {

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
  IntSearch(const System &S, unsigned NodeBudget)
      : Orig(S), Budget(NodeBudget) {}

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

  const System &Orig;
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
  PointEnumerator(const System &S, const FmChain &Chain,
                  const std::function<void(const std::vector<IntT> &)> &Fn,
                  unsigned Budget)
      : Orig(S), Chain(Chain), Fn(Fn), Budget(Budget),
        Vals(S.numVars(), 0) {}

  void scan(unsigned K) {
    if (Used >= Budget)
      fatalError("enumeratePoints budget exhausted (unbounded system?)");
    if (K == Vals.size()) {
      ++Used;
      if (Orig.holds(Vals))
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
  const System &Orig;
  const FmChain &Chain;
  const std::function<void(const std::vector<IntT> &)> &Fn;
  unsigned Budget;
  unsigned Used = 0;
  std::vector<IntT> Vals;
};

} // namespace

Feasibility System::checkIntegerFeasible(unsigned NodeBudget) const {
  const ProjectionOptions &PO = projectionOptions();
  ProjectionStats &PS = projectionStats();
  if (NodeBudget == 0)
    NodeBudget = PO.SearchBudget;
  ++PS.FeasQueries;

  // One normalization serves the key and the search.
  RowMatrix Rows;
  bool NonEmpty = normalizedRows(*this, Rows);
  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache) {
    if (!NonEmpty)
      return Feasibility::Empty;
    buildKey(Rows, Key);
    Feasibility R;
    if (detail::feasCacheLookup(Key, NodeBudget, R)) {
      ++PS.FeasCacheHits;
      return R;
    }
    ++PS.FeasCacheMisses;
    Keyed = true;
  }

  IntSearch Search(*this, NodeBudget);
  Feasibility R = NonEmpty && Search.prepare(Rows) ? Search.run(nullptr)
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

  RowMatrix Rows;
  if (!normalizedRows(*this, Rows))
    return std::nullopt;
  // A memoized Empty verdict saves the search; a Feasible one still
  // needs a point, so only the negative side short-circuits.
  detail::CacheKey Key;
  bool Keyed = false;
  if (PO.Cache) {
    buildKey(Rows, Key);
    Feasibility Known;
    if (detail::feasCacheLookup(Key, NodeBudget, Known) &&
        Known == Feasibility::Empty)
      return std::nullopt;
    Keyed = true;
  }

  IntSearch Search(*this, NodeBudget);
  if (!Search.prepare(Rows))
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
  RowMatrix Rows;
  if (!normalizedRows(*this, Rows))
    return;
  // Level 0's verdict is not consulted: an empty range stops the scan,
  // and an unbounded level reached before it still aborts.
  FmChain Chain;
  (void)Chain.build(Rows);
  PointEnumerator(*this, Chain, Fn, Budget).scan(0);
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
  if (PO.Cache && canonicalKey(*this, Key)) {
    Key.push_back(static_cast<IntT>(NodeBudget));
    if (detail::sysCacheLookup(Key, Cons)) {
      ++PS.RedundancyCacheHits;
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
    detail::sysCacheStore(Key, Cons);
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
