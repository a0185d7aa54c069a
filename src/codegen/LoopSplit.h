//===- codegen/LoopSplit.h - Static loop splitting -------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5.4's static loop splitting: instead of testing affine guards
/// in every iteration of a merged loop, split the iteration range at the
/// guards' breakpoints so each sub-range runs guard-free:
///
///     for i = 0 to 300 {            for i = 0 to 99    { recv; }
///       if (i <= 200) recv;   ==>   for i = 100 to 200 { recv; send; }
///       if (i >= 100) send;         for i = 201 to 300 { send; }
///     }
///
/// Like the paper's compiler, splitting is applied when the relative
/// order of the breakpoints is known: the split condition is affine in
/// the loop variable and in variables the body never assigns (the
/// executing processor, parameters, enclosing loops), so each breakpoint
/// is a bound expression the loop header can evaluate once. Splitting
/// runs inside the context walk of Simplify.h. A condition that the
/// context already implies or contradicts is never split on; every
/// segment is simplified under the context plus its own bounds, so the
/// guard disappears from it, and a segment with an empty range or body is
/// not emitted. When one segment is left, it replaces the loop (a tighter
/// range, no guard) and is searched for further splits. Guards that do
/// not meet the criterion stay as run-time tests (the paper's dynamic
/// fallback).
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_CODEGEN_LOOPSPLIT_H
#define DMCC_CODEGEN_LOOPSPLIT_H

#include "codegen/SpmdAst.h"

namespace dmcc {

/// Statistics of one splitting pass.
struct LoopSplitStats {
  unsigned LoopsSplit = 0;
  unsigned GuardsEliminated = 0;
  unsigned GuardsKept = 0;
};

/// The compiler's bound on the segments one loop may be split into.
constexpr unsigned DefaultMaxSegments = 8;

/// Simplifies \p Prog under its context (Simplify.h) and splits eligible
/// loops in place. \p MaxSegments bounds code growth per loop: a split
/// that would leave more nonempty segments than the loop's remaining
/// budget is not made.
LoopSplitStats splitLoops(SpmdProgram &Prog,
                          unsigned MaxSegments = DefaultMaxSegments);

} // namespace dmcc

#endif // DMCC_CODEGEN_LOOPSPLIT_H
