//===- tests/math/RegionPoints.h - Point queries on Regions ----*- C++ -*-===//
//
// Test-side set operations on Regions: membership of a concrete point
// and intersection with a system. The compiler never asks either
// question; the Region tests use them to check subtraction against
// brute force.
//
//===----------------------------------------------------------------------===//

#ifndef DMCC_TESTS_MATH_REGIONPOINTS_H
#define DMCC_TESTS_MATH_REGIONPOINTS_H

#include "math/Region.h"

#include <vector>

namespace dmcc {

/// True if the point (over base-space variables, in base order) lies in
/// some piece of \p R; existential Aux variables are searched for.
inline bool containsPoint(const Region &R, const std::vector<IntT> &Vals) {
  const Space &Base = R.baseSpace();
  assert(Vals.size() == Base.size() && "point over a different space");
  for (const System &P : R.pieces()) {
    // Pin the base variables to the point and search for aux witnesses.
    System Pinned = P;
    bool BadMapping = false;
    for (unsigned I = 0, E = Base.size(); I != E; ++I) {
      int J = Pinned.space().indexOf(Base.name(I));
      if (J < 0) {
        BadMapping = true;
        break;
      }
      AffineExpr E2 = Pinned.varExpr(static_cast<unsigned>(J));
      Pinned.addEQ(E2.plusConst(-Vals[I]));
    }
    if (BadMapping)
      continue;
    if (Pinned.checkIntegerFeasible() == Feasibility::Feasible)
      return true;
  }
  return false;
}

/// Intersects every piece of \p R with the constraints of \p S (mapped by
/// name; S must be over base-space variables only).
inline void intersectWith(Region &R, const System &S) {
  Region Out(R.baseSpace());
  for (System P : R.pieces()) {
    P.addAllMapped(S);
    Out.addPiece(P);
  }
  if (!R.isExact())
    Out.markInexact();
  R = std::move(Out);
}

} // namespace dmcc

#endif // DMCC_TESTS_MATH_REGIONPOINTS_H
