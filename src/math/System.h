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

/// A conjunction of affine constraints over a Space.
class System {
public:
  System() = default;
  explicit System(Space Sp) : Sp(std::move(Sp)) {}

  const Space &space() const { return Sp; }
  unsigned numVars() const { return Sp.size(); }

  const std::vector<Constraint> &constraints() const { return Cons; }
  unsigned numConstraints() const { return Cons.size(); }

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

  void addConstraint(Constraint C);
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

  /// Adds \p C, translating variable indices from \p From to this space by
  /// name. Every variable used by \p C must exist here.
  void addMapped(const Constraint &C, const Space &From);
  /// Adds every constraint of \p Other, mapped by name.
  void addAllMapped(const System &Other);

  /// Gcd-reduces constraints (with GE tightening and the EQ divisibility
  /// test), drops tautologies and duplicates, and merges  E >= 0, -E >= 0
  /// into  E == 0. Returns false if a constraint is unsatisfiable on its
  /// face (the system is empty); the constraints are then left rewritten
  /// up to that one, with none dropped.
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
  /// are skipped (and not counted), and the space stays unchanged. The
  /// constraints are loaded once for the whole chain.
  System eliminated(const std::vector<unsigned> &Vars,
                    bool *Exact = nullptr) const;

  /// Extracts all bounds on variable \p I. Equalities contribute to both
  /// sides. Bounds may reference any other variable of the space.
  void boundsOf(unsigned I, std::vector<VarBound> &Lower,
                std::vector<VarBound> &Upper) const;

  /// True under the assignment \p Vals (one value per space variable).
  bool holds(const std::vector<IntT> &Vals) const;

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
  /// (0 = projectionOptions().SearchBudget).
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
  /// and a whole-result memo run in front of the exact tests when
  /// enabled in projectionOptions().
  void removeRedundant(unsigned NodeBudget = 0);

  /// Renders one constraint per line.
  std::string str() const;

private:
  Space Sp;
  std::vector<Constraint> Cons;
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
                   const std::function<std::string(const std::string &)>
                       &MapName = nullptr);

} // namespace dmcc

#endif // DMCC_MATH_SYSTEM_H
