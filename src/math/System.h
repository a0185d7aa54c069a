//===- math/System.h - Systems of linear inequalities ----------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A System is a conjunction of linear constraints over a named Space: the
/// paper's uniform representation for iteration sets, decompositions,
/// access functions, last-write relations and communication sets
/// (Section 4). The projection operations implement Section 5.1
/// (Fourier-Motzkin elimination with superfluous-constraint removal via
/// integer feasibility tests), and boundsOf() feeds the polyhedron-scanning
/// code generator of Section 5.2.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_MATH_SYSTEM_H
#define DMCC_MATH_SYSTEM_H

#include "math/Affine.h"
#include "math/Projection.h"
#include "math/Space.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// A lower or upper bound on a variable extracted from a system:
///   lower:  v >= ceil(Num / Den)      upper:  v <= floor(Num / Den)
/// with Den >= 1. Num ranges over the other variables of the same space.
struct VarBound {
  AffineExpr Num;
  IntT Den = 1;
};

namespace detail {

/// The constraints of a System as one flat integer matrix: row R is
///   Data[R*Width, (R+1)*Width) = [rel, const, c0 ... c(Width-3)]
/// with rel GE for Expr >= 0 and EQ for Expr == 0. Normalization,
/// Fourier-Motzkin elimination and the integer-feasibility search all
/// run on these rows (System.cpp); callers read them through
/// ConstraintRef.
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

} // namespace detail

/// A read-only view of one constraint of a System, valid until the
/// System changes.
class ConstraintRef {
public:
  RelKind rel() const { return isEquality() ? RelKind::EQ : RelKind::GE; }
  bool isEquality() const { return Row[0] == detail::RowMatrix::EQ; }
  IntT constant() const { return Row[1]; }
  IntT coeff(unsigned I) const {
    assert(I < N && "coefficient index out of range");
    return Row[2 + I];
  }
  bool involves(unsigned I) const { return coeff(I) != 0; }
  /// The constraint's expression, over the System's space.
  AffineExpr expr() const;
  Constraint constraint() const { return Constraint(expr(), rel()); }

private:
  friend class ConstraintList;
  ConstraintRef(const IntT *Row, unsigned N) : Row(Row), N(N) {}
  const IntT *Row;
  unsigned N;
};

/// The constraints of a System in order, as ConstraintRefs.
class ConstraintList {
public:
  /// Refers to the System's rows, not to this list.
  struct iterator {
    const detail::RowMatrix *M;
    unsigned R;
    ConstraintRef operator*() const { return ConstraintList(*M)[R]; }
    iterator &operator++() {
      ++R;
      return *this;
    }
    bool operator==(const iterator &) const = default;
  };

  iterator begin() const { return {&M, 0}; }
  iterator end() const { return {&M, M.Rows}; }
  ConstraintRef operator[](unsigned R) const {
    assert(R < M.Rows && "constraint index out of range");
    return ConstraintRef(M.row(R), M.Width - 2);
  }

private:
  friend class System;
  explicit ConstraintList(const detail::RowMatrix &M) : M(M) {}
  const detail::RowMatrix &M;
};

/// Maps a variable name of one space to a name of another.
using NameMapFn = std::function<std::string(const std::string &)>;

/// A conjunction of affine constraints over a Space, stored as flat rows
/// (detail::RowMatrix).
class System {
public:
  System() = default;
  explicit System(Space Sp) : Sp(std::move(Sp)) { M.Width = numVars() + 2; }

  const Space &space() const { return Sp; }
  unsigned numVars() const { return Sp.size(); }

  ConstraintList constraints() const { return ConstraintList(M); }
  unsigned numConstraints() const { return M.Rows; }

  /// Appends a variable to the space, extending every constraint with a
  /// zero coefficient. Returns the new variable's index.
  unsigned addVar(const std::string &Name, VarKind Kind);

  /// Creates the zero expression over this system's space.
  AffineExpr zero() const { return AffineExpr(Sp.size()); }
  /// Creates the expression  v_I.
  AffineExpr varExpr(unsigned I) const {
    return AffineExpr::var(Sp.size(), I);
  }
  /// Creates the constant expression \p C.
  AffineExpr constExpr(IntT C) const {
    return AffineExpr::constant(Sp.size(), C);
  }

  void addConstraint(const Constraint &C);
  /// Adds  E >= 0.
  void addGE(AffineExpr E) { addConstraint(Constraint::ge(std::move(E))); }
  /// Adds  E == 0.
  void addEQ(AffineExpr E) { addConstraint(Constraint::eq(std::move(E))); }
  /// Adds  A <= B  (i.e. B - A >= 0).
  void addLE(const AffineExpr &A, const AffineExpr &B) { addGE(B - A); }
  /// Adds  A == B.
  void addEq(const AffineExpr &A, const AffineExpr &B) { addEQ(B - A); }
  /// Adds  Lo <= v_I <= Hi  for constants.
  void addRange(unsigned I, IntT Lo, IntT Hi);

  /// Adds every constraint of \p Other, translating its variables to this
  /// space by \p MapName(name), or by equal name when it is null, as
  /// mapExpr does. Every variable a constraint of \p Other uses must map
  /// to a variable here.
  void addAllMapped(const System &Other, const NameMapFn &MapName = nullptr);

  /// Gcd-reduces constraints (with GE tightening and the EQ divisibility
  /// test), drops tautologies and duplicates, and merges  E >= 0, -E >= 0
  /// into  E == 0. Normalizing again changes nothing. Returns false if a
  /// constraint is unsatisfiable on its face (the system is empty); the
  /// constraints are then left rewritten up to that one, with none
  /// dropped.
  bool normalize();

  /// True if any constraint mentions variable \p I.
  bool involves(unsigned I) const;

  /// Replaces variable \p I by \p Repl everywhere (Repl must not involve
  /// \p I). The variable remains in the space with zero coefficients.
  void substitute(unsigned I, const AffineExpr &Repl);

  /// Removes variable \p I from the space; asserts no constraint uses it.
  void removeVar(unsigned I);

  /// Fourier-Motzkin eliminates variable \p I, keeping the space unchanged
  /// (the variable simply no longer appears in any constraint), and
  /// normalizes the result. If the elimination is exact over the
  /// integers, *Exact is left unchanged; otherwise it is set to false.
  /// Equalities with a +/-1 coefficient are used as exact substitutions
  /// first.
  System fmEliminated(unsigned I, bool *Exact = nullptr) const;

  /// Projects out \p Vars in the given order: each one that still
  /// appears in a constraint is eliminated as by fmEliminated, the rest
  /// are skipped (and not counted), and the space stays unchanged.
  System eliminated(const std::vector<unsigned> &Vars,
                    bool *Exact = nullptr) const;

  /// Extracts all bounds on variable \p I. Equalities contribute to both
  /// sides. Bounds may reference any other variable of the space.
  void boundsOf(unsigned I, std::vector<VarBound> &Lower,
                std::vector<VarBound> &Upper) const;

  /// True under the assignment \p Vals (one value per space variable).
  bool holds(const std::vector<IntT> &Vals) const;

  /// True when some constraint alone implies  E >= 0  on its face (see
  /// the free impliesOnItsFace).
  bool impliesOnItsFace(const AffineExpr &E) const;

  /// Exhaustive-by-construction integer feasibility (branch and bound over
  /// a Fourier-Motzkin chain). \p NodeBudget bounds the search; 0 means
  /// projectionOptions().SearchBudget. Results are memoized on the
  /// canonicalized constraint matrix when the projection cache is on.
  Feasibility checkIntegerFeasible(unsigned NodeBudget = 0) const;

  /// Convenience: checkIntegerFeasible() == Empty.
  bool isIntegerEmpty(unsigned NodeBudget = 0) const {
    return checkIntegerFeasible(NodeBudget) == Feasibility::Empty;
  }

  /// Finds one integer point, if the search succeeds within budget
  /// (0 = projectionOptions().SearchBudget). Shares checkIntegerFeasible's
  /// memo and counters; a memoized Feasible verdict holds no point, so
  /// that one case searches again.
  std::optional<std::vector<IntT>> sampleIntPoint(
      unsigned NodeBudget = 0) const;

  /// Enumerates every integer point in lexicographic variable order. The
  /// system must be bounded; aborts (via budget) otherwise. Intended for
  /// tests and for small exhaustive checks.
  void enumeratePoints(const std::function<void(const std::vector<IntT> &)>
                           &Fn,
                       unsigned Budget = 1000000) const;

  /// Drops constraints whose negation makes the system integer-empty
  /// (the superfluous-constraint test of Section 5.1). \p NodeBudget
  /// bounds each per-constraint test; 0 means
  /// projectionOptions().RedundancyBudget. Budget-exhausted (Unknown)
  /// tests conservatively keep the constraint. Syntactic quick-checks
  /// run in front of the exact tests when enabled in
  /// projectionOptions().
  void removeRedundant(unsigned NodeBudget = 0);

  /// Renders one constraint per line.
  std::string str() const;

private:
  Space Sp;
  detail::RowMatrix M; ///< Width == numVars() + 2
};

/// True when \p C alone implies  E >= 0  on its face, with no feasibility
/// test: C is an inequality over E's coefficient row with a constant no
/// larger, or an equality over E's row or its negation that pins E to a
/// nonnegative value. These are removeRedundant's quick checks.
bool impliesOnItsFace(const Constraint &C, const AffineExpr &E);

/// Translates \p E from \p From to \p To, mapping variables by
/// \p MapName(name); every mapped name must exist in \p To. Passing the
/// identity function maps variables by equal name.
AffineExpr mapExpr(const AffineExpr &E, const Space &From, const Space &To,
                   const NameMapFn &MapName = nullptr);

} // namespace dmcc

#endif // DMCC_MATH_SYSTEM_H
