//===- codegen/Scan.h - Scanning polyhedra with DO loops -------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ancourt-Irigoin polyhedron scanning (Section 5.2): given a system of
/// inequalities and a variable order, produce a loop nest that enumerates
/// exactly the integer solutions in lexicographic order. Loop bounds come
/// from Fourier-Motzkin projections; single-valued variables become
/// assignments instead of loops (the degenerate-loop elimination the
/// paper describes).
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_CODEGEN_SCAN_H
#define DMCC_CODEGEN_SCAN_H

#include "codegen/SpmdAst.h"
#include "math/System.h"

#include <functional>
#include <vector>

namespace dmcc {

/// Options for scanning one variable.
struct ScanVarPlan {
  unsigned Var = 0;
  /// Instead of looping, pin the variable to this expression and guard
  /// with its bounds (used to bind pr/ps to the executing processor).
  bool BindTo = false;
  AffineExpr BoundValue;
};

/// Scans \p S lexicographically in the order given by \p Plan. Every
/// non-parameter variable of S that appears in constraints must occur in
/// the plan. \p MakeBody produces the innermost statements; it receives
/// the fully projected system for reference. Returns the outermost
/// statement list.
///
/// Variables bound via BindTo generate an If guard (their constraints
/// with the bound value substituted) around a SetVar; single-valued variables generate SetVar
/// with a floor division when needed.
std::vector<SpmdStmt> scanPolyhedron(
    const System &S, const std::vector<ScanVarPlan> &Plan,
    const std::function<std::vector<SpmdStmt>()> &MakeBody);

} // namespace dmcc

#endif // DMCC_CODEGEN_SCAN_H
