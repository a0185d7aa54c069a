//===- math/LexOpt.h - Parametric lexicographic optimization ---*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parametric lexicographic maximization/minimization over a polyhedron:
/// given a System over objective variables and parameters, compute, as a
/// piecewise affine function of the parameters, the lexicographically
/// extreme objective point. This is the engine behind Last Write Tree
/// construction (Section 3.1): the last write instance is the lex maximum
/// of the candidate write instances, and the case splits of the recursion
/// become the internal nodes of the tree.
///
/// The algorithm follows the paper's framework rather than Feautrier's
/// dual-simplex PIP: bounds on each objective are obtained by
/// Fourier-Motzkin projection, the active minimum upper bound is selected
/// by explicit case splits on rational bound comparisons (monotone under
/// floor, hence valid for integers), and non-unit divisors introduce
/// auxiliary floor variables exactly as Section 4.4.2 introduces auxiliary
/// variables for modulo constraints.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_MATH_LEXOPT_H
#define DMCC_MATH_LEXOPT_H

#include "math/System.h"

#include <string>
#include <vector>

namespace dmcc {

/// One leaf of the piecewise solution: within Context (over the parameter
/// variables plus any introduced Aux floor variables), the lexicographic
/// optimum assigns Values[k] to the k-th objective variable.
struct LexPiece {
  System Context;
  std::vector<AffineExpr> Values; ///< over Context.space()
};

/// A piecewise affine solution. Pieces are pairwise disjoint by
/// construction; parameter points in no piece have no solution (the
/// objective polyhedron is empty there).
struct LexResult {
  std::vector<LexPiece> Pieces;
  /// False if some Fourier-Motzkin step was inexact over the integers, in
  /// which case piece contexts may slightly over-approximate.
  bool Exact = true;

  std::string str() const;
};

/// Lexicographically maximizes the variables \p Objs (most significant
/// first) of \p S; all other variables are parameters. Every objective
/// must be bounded above within S (fatal error otherwise).
LexResult lexMax(const System &S, const std::vector<unsigned> &Objs);

/// Lexicographic minimum; same contract as lexMax with boundedness below.
LexResult lexMin(const System &S, const std::vector<unsigned> &Objs);

} // namespace dmcc

#endif // DMCC_MATH_LEXOPT_H
