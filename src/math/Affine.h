//===- math/Affine.h - Affine expressions and constraints ------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense integer affine expressions over a Space, their sparse
/// evaluation form, and the single-relation constraints (Expr >= 0 /
/// Expr == 0) that Section 4 of the paper uses to represent iteration
/// domains, access functions, decompositions and last-write relations
/// uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_MATH_AFFINE_H
#define DMCC_MATH_AFFINE_H

#include "math/Space.h"
#include "support/IntOps.h"

#include <string>
#include <vector>

namespace dmcc {

/// An integer affine expression  sum_i Coeffs[i] * v_i + Const  over the
/// first size() variables of some Space. The Space itself is not stored;
/// callers pair expressions with the System / Space they belong to.
class AffineExpr {
public:
  AffineExpr() = default;

  /// Creates the zero expression over \p NumVars variables.
  explicit AffineExpr(unsigned NumVars) : Coeffs(NumVars, 0) {}

  /// Creates the constant expression \p C.
  static AffineExpr constant(unsigned NumVars, IntT C) {
    AffineExpr E(NumVars);
    E.Cst = C;
    return E;
  }

  /// Creates the expression  C * v_I.
  static AffineExpr var(unsigned NumVars, unsigned I, IntT C = 1) {
    AffineExpr E(NumVars);
    E.coeff(I) = C;
    return E;
  }

  unsigned size() const { return Coeffs.size(); }

  IntT coeff(unsigned I) const {
    assert(I < Coeffs.size() && "coefficient index out of range");
    return Coeffs[I];
  }
  IntT &coeff(unsigned I) {
    assert(I < Coeffs.size() && "coefficient index out of range");
    return Coeffs[I];
  }

  IntT constant() const { return Cst; }
  IntT &constant() { return Cst; }

  AffineExpr &operator+=(const AffineExpr &O);
  AffineExpr &operator-=(const AffineExpr &O);

  friend AffineExpr operator+(AffineExpr A, const AffineExpr &B) {
    A += B;
    return A;
  }
  friend AffineExpr operator-(AffineExpr A, const AffineExpr &B) {
    A -= B;
    return A;
  }

  /// Multiplies every term by \p F.
  AffineExpr &scale(IntT F);

  /// Overflow-reporting variant of scale(): multiplies every term by
  /// \p F, returning false (leaving the expression partially scaled)
  /// instead of aborting when a term overflows. Callers that can name
  /// their context (e.g. Fourier-Motzkin combination) use this to fail
  /// with a better diagnostic than the raw arithmetic would.
  [[nodiscard]] bool scaleChecked(IntT F);

  /// Overflow-reporting variant of operator+=: returns false instead of
  /// aborting when a term overflows.
  [[nodiscard]] bool addChecked(const AffineExpr &O);

  /// Returns -this.
  AffineExpr negated() const;

  /// True iff O == -this, without materializing the negation.
  bool isNegationOf(const AffineExpr &O) const;

  /// Returns this + C.
  AffineExpr plusConst(IntT C) const;

  /// True if every coefficient is zero.
  bool isConstant() const;

  /// True if every coefficient and the constant are zero.
  bool isZero() const { return isConstant() && Cst == 0; }

  /// True if the coefficient of \p I is nonzero.
  bool involves(unsigned I) const { return coeff(I) != 0; }

  /// True if some coefficient is nonzero; returns its index in \p Idx.
  bool firstVar(unsigned &Idx) const;

  /// Replaces every occurrence of variable \p I with \p Repl (which must
  /// not itself involve \p I): this := this + coeff(I)*Repl, coeff(I) := 0.
  void substitute(unsigned I, const AffineExpr &Repl);

  /// Grows the expression for a newly appended variable (coefficient 0).
  void appendVar() { Coeffs.push_back(0); }

  /// Removes the coefficient slot of variable \p I; asserts it is zero.
  void removeVar(unsigned I);

  /// Gcd of all coefficients (not the constant); 0 for constant exprs.
  IntT coeffGcd() const;

  /// Divides every term (including the constant) by \p D; all terms must
  /// be divisible.
  void divExact(IntT D);

  /// Evaluates with Vals[i] as the value of v_i.
  IntT evaluate(const std::vector<IntT> &Vals) const;

  bool operator==(const AffineExpr &O) const = default;

  /// Renders e.g. "2*i - j + N - 1" using names from \p Sp.
  std::string str(const Space &Sp) const;

private:
  std::vector<IntT> Coeffs;
  IntT Cst = 0;
};

/// One nonzero term of a LinearForm: Coeff * v_Var.
struct LinearTerm {
  unsigned Var = 0;
  IntT Coeff = 0;
};

/// An AffineExpr in sparse form, for expressions evaluated many times:
/// the constant plus the nonzero terms in ascending variable order. The
/// terms live in a caller-owned pool, so the forms of a whole program
/// share one allocation. evaluate() performs the same checked additions
/// and multiplications as AffineExpr::evaluate, in the same order, so
/// the two agree on every value and abort on the same overflow.
class LinearForm {
public:
  LinearForm() = default;

  /// Appends \p E's nonzero terms to \p Pool.
  LinearForm(const AffineExpr &E, std::vector<LinearTerm> &Pool)
      : Cst(E.constant()), Begin(Pool.size()) {
    for (unsigned I = 0, N = E.size(); I != N; ++I)
      if (E.coeff(I) != 0)
        Pool.push_back({I, E.coeff(I)});
    End = Pool.size();
  }

  /// Evaluates with Vals[i] as the value of v_i; \p Pool is the pool
  /// the form was built in.
  IntT evaluate(const std::vector<LinearTerm> &Pool,
                const std::vector<IntT> &Vals) const {
    IntT R = Cst;
    for (size_t K = Begin; K != End; ++K) {
      const LinearTerm &T = Pool[K];
      assert(T.Var < Vals.size() && "too few values for evaluation");
      R = addChk(R, mulChk(T.Coeff, Vals[T.Var]));
    }
    return R;
  }

private:
  IntT Cst = 0;
  size_t Begin = 0, End = 0; ///< the terms: Pool[Begin, End)
};

/// The relation a Constraint asserts about its expression.
enum class RelKind {
  GE, ///< Expr >= 0
  EQ, ///< Expr == 0
};

/// A single linear constraint  Expr >= 0  or  Expr == 0.
struct Constraint {
  AffineExpr Expr;
  RelKind Rel = RelKind::GE;

  Constraint() = default;
  Constraint(AffineExpr E, RelKind R) : Expr(std::move(E)), Rel(R) {}

  static Constraint ge(AffineExpr E) {
    return Constraint(std::move(E), RelKind::GE);
  }
  static Constraint eq(AffineExpr E) {
    return Constraint(std::move(E), RelKind::EQ);
  }

  bool isEquality() const { return Rel == RelKind::EQ; }

  /// True under the assignment \p Vals.
  bool holds(const std::vector<IntT> &Vals) const {
    IntT V = Expr.evaluate(Vals);
    return Rel == RelKind::EQ ? V == 0 : V >= 0;
  }

  bool operator==(const Constraint &O) const = default;

  /// Renders e.g. "i - 3 >= 0" using names from \p Sp.
  std::string str(const Space &Sp) const;
};

} // namespace dmcc

#endif // DMCC_MATH_AFFINE_H
