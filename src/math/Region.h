//===- math/Region.h - Unions of polyhedra ---------------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Region is a finite union of constraint systems over a common base
/// space. Pieces may carry extra existentially quantified Aux variables
/// (the paper's auxiliary variables for modulo constraints, Section 4.4.2).
/// Regions support the set operations the Last-Write-Tree construction
/// needs: intersection, and subtraction (for "the reads not covered by any
/// deeper-level writer").
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_MATH_REGION_H
#define DMCC_MATH_REGION_H

#include "math/System.h"

#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dmcc {

/// A union of Systems over a shared base space.
class Region {
public:
  Region() = default;
  explicit Region(Space Base) : Base(std::move(Base)) {}

  /// A region consisting of the single system \p S. The base space is S's
  /// space with Aux variables considered existential.
  static Region fromSystem(const System &S);

  const Space &baseSpace() const { return Base; }
  const std::vector<System> &pieces() const { return Pieces; }
  bool hasPieces() const { return !Pieces.empty(); }

  /// True if every set operation performed so far was integer-exact.
  bool isExact() const { return Exact; }
  void markInexact() { Exact = false; }

  /// Adds \p S as a piece. S's non-Aux variables must match the base space
  /// by name (order may differ); Aux variables are existential witnesses.
  void addPiece(const System &S);

  /// Returns this \ Other. Requires eliminating Other's Aux variables; if
  /// that elimination is integer-inexact the result is marked inexact.
  Region subtract(const Region &Other) const;

  /// Removes integer-empty pieces (best effort under \p NodeBudget;
  /// 0 means the projectionOptions() search budget).
  void pruneEmpty(unsigned NodeBudget = 0);

  /// True if all pieces are provably integer-empty.
  bool isIntegerEmpty(unsigned NodeBudget = 0) const;

  std::string str() const;

private:
  /// Returns \p P \ \p S as pieces over P's space; sets *OK to false when
  /// S's Aux variables cannot be eliminated exactly.
  std::vector<System> subtractSystem(const System &P, const System &S,
                                     bool *ExactOut) const;

  Space Base;
  std::vector<System> Pieces;
  bool Exact = true;
};

/// Eliminates all Aux variables of \p S by projection, removing their
/// dimensions. Sets *Exact to false if any elimination step was inexact
/// over the integers.
System eliminateAuxVars(const System &S, bool *Exact);

/// Attempts to represent A union B as a single convex system: the
/// constraints common to both, provided they add no extra integer points.
/// Typical use: undoing case splits whose branches carry identical
/// payloads. Returns nullopt when the union is not exactly convex (or the
/// spaces differ).
std::optional<System> coalesceSystems(const System &A, const System &B);

/// Merges the items of \p Items pairwise with coalesceSystems until no
/// pair merges. \p Compatible(X, Y) says whether two items' payloads allow
/// a merge; \p SystemOf(X) returns a reference to an item's system. Pairs
/// are visited as (I, J) with I < J, starting over at (0, 1) after every
/// merge; the union replaces item I and item J is erased. A pair that
/// failed is not tried again until one of its items has been merged into.
template <typename T, typename CompatibleFn, typename SystemOfFn>
void coalesceAll(std::vector<T> &Items, CompatibleFn Compatible,
                 SystemOfFn SystemOf) {
  // An item's version changes whenever its system does; a failed pair is
  // remembered by the versions it was tried at.
  std::vector<unsigned> Version(Items.size());
  std::iota(Version.begin(), Version.end(), 0u);
  unsigned NextVersion = Items.size();
  std::set<std::pair<unsigned, unsigned>> Failed;
  for (bool Merged = true; Merged;) {
    Merged = false;
    for (unsigned I = 0; I < Items.size() && !Merged; ++I) {
      for (unsigned J = I + 1; J < Items.size(); ++J) {
        if (!Compatible(Items[I], Items[J]) ||
            Failed.count({Version[I], Version[J]}))
          continue;
        std::optional<System> U =
            coalesceSystems(SystemOf(Items[I]), SystemOf(Items[J]));
        if (!U) {
          Failed.insert({Version[I], Version[J]});
          continue;
        }
        SystemOf(Items[I]) = std::move(*U);
        Version[I] = NextVersion++;
        Items.erase(Items.begin() + J);
        Version.erase(Version.begin() + J);
        Merged = true;
        break;
      }
    }
  }
}

} // namespace dmcc

#endif // DMCC_MATH_REGION_H
