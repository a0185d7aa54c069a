//===- math/Region.cpp ----------------------------------------*- C++ -*-===//

#include "math/Region.h"

using namespace dmcc;

System dmcc::eliminateAuxVars(const System &S, bool *Exact) {
  System R = S;
  R.normalize();
  std::vector<unsigned> Aux; // highest index first
  for (unsigned I = R.space().size(); I-- > 0;)
    if (R.space().kind(I) == VarKind::Aux)
      Aux.push_back(I);
  R = R.eliminated(Aux, Exact);
  for (unsigned I : Aux)
    R.removeVar(I);
  return R;
}

namespace {

/// Expands equalities into inequality pairs.
std::vector<AffineExpr> asInequalities(const System &S) {
  std::vector<AffineExpr> Out;
  for (ConstraintRef C : S.constraints()) {
    Out.push_back(C.expr());
    if (C.isEquality())
      Out.push_back(Out.back().negated());
  }
  return Out;
}

/// True if S entails E >= 0 (i.e. S and E <= -1 has no integer point).
bool entails(const System &S, const AffineExpr &E) {
  System Q = S;
  Q.addGE(E.negated().plusConst(-1));
  return Q.checkIntegerFeasible(projectionOptions().FeasibilityBudget) ==
         Feasibility::Empty;
}

/// A constraint E >= 0 or E == 0 of a system being subtracted, over the
/// space of the system it is subtracted from. Below marks that the piece
/// with E <= -1 is wanted, Above (equalities only) the piece with E >= 1.
struct Cut {
  Constraint C;
  bool Below, Above;
};

/// The constraints of \p S as cuts over \p P's space, after eliminating
/// S's Aux variables: a point is outside S iff no witness exists, which
/// projection expresses. Sets *Exact to false if that elimination is
/// integer-inexact. With \p SkipImplied, a side of a constraint that \p P
/// implies on its face gets no piece, and a constraint with no piece left
/// is dropped.
std::vector<Cut> cutsOf(const System &S, const System &P, bool SkipImplied,
                        bool *Exact) {
  System SB = eliminateAuxVars(S, Exact);
  auto Implied = [&](const AffineExpr &E) {
    return SkipImplied && P.impliesOnItsFace(E);
  };
  std::vector<Cut> Out;
  for (ConstraintRef C : SB.constraints()) {
    AffineExpr E = mapExpr(C.expr(), SB.space(), P.space());
    bool Below = !Implied(E);
    bool Above = C.isEquality() && !Implied(E.negated());
    if (Below || Above)
      Out.push_back(Cut{Constraint(std::move(E), C.rel()), Below, Above});
  }
  return Out;
}

/// Visits the pieces of  Prefix \ Cuts,  i.e. the union over j of
/// Prefix /\ c_0 /\ ... /\ c_{j-1} /\ not(c_j), and stops at the first
/// piece for which \p Visit returns false. Returns false if it stopped.
template <typename VisitFn>
bool forEachPiece(System Prefix, const std::vector<Cut> &Cuts,
                  VisitFn Visit) {
  for (const Cut &K : Cuts) {
    if (K.Below) {
      System Piece = Prefix;
      Piece.addGE(K.C.Expr.negated().plusConst(-1)); // E <= -1
      if (!Visit(std::move(Piece)))
        return false;
    }
    if (K.Above) {
      System Piece = Prefix;
      Piece.addGE(K.C.Expr.plusConst(-1)); // E >= 1
      if (!Visit(std::move(Piece)))
        return false;
    }
    Prefix.addConstraint(K.C);
  }
  return true;
}

} // namespace

Region Region::fromSystem(const System &S) {
  Space Base;
  for (unsigned I = 0, E = S.space().size(); I != E; ++I)
    if (S.space().kind(I) != VarKind::Aux)
      Base.add(S.space().name(I), S.space().kind(I));
  Region R(std::move(Base));
  R.addPiece(S);
  return R;
}

void Region::addPiece(const System &S) {
#ifndef NDEBUG
  for (unsigned I = 0, E = Base.size(); I != E; ++I)
    assert(S.space().contains(Base.name(I)) &&
           "piece is missing a base-space variable");
  for (unsigned I = 0, E = S.space().size(); I != E; ++I)
    assert((S.space().kind(I) == VarKind::Aux ||
            Base.contains(S.space().name(I))) &&
           "piece has a non-aux variable outside the base space");
#endif
  Pieces.push_back(S);
}

std::vector<System> Region::subtractSystem(const System &P, const System &S,
                                           bool *ExactOut) const {
  std::vector<System> Out;
  forEachPiece(P, cutsOf(S, P, /*SkipImplied=*/false, ExactOut),
               [&](System Piece) {
                 Out.push_back(std::move(Piece));
                 return true;
               });
  return Out;
}

Region Region::subtract(const Region &Other) const {
  Region R(Base);
  R.Exact = Exact && Other.Exact;
  R.Pieces = Pieces;
  for (const System &S : Other.Pieces) {
    std::vector<System> Next;
    for (const System &P : R.Pieces)
      for (System &D : subtractSystem(P, S, &R.Exact))
        Next.push_back(std::move(D));
    R.Pieces = std::move(Next);
    R.pruneEmpty();
  }
  return R;
}

void Region::pruneEmpty(unsigned NodeBudget) {
  std::vector<System> Kept;
  for (System &P : Pieces)
    if (P.checkIntegerFeasible(NodeBudget) != Feasibility::Empty)
      Kept.push_back(std::move(P));
  Pieces = std::move(Kept);
}

bool Region::isIntegerEmpty(unsigned NodeBudget) const {
  for (const System &P : Pieces)
    if (P.checkIntegerFeasible(NodeBudget) != Feasibility::Empty)
      return false;
  return true;
}

std::optional<System> dmcc::coalesceSystems(const System &A,
                                            const System &B) {
  PhaseTimer Timer("math.coalesce");
  if (A.space() != B.space())
    return std::nullopt;
  System NA = A, NB = B;
  if (!NA.normalize())
    return B;
  if (!NB.normalize())
    return A;
  // The candidate hull: every face of one system that the other also
  // satisfies. A face the other system implies on its face needs no
  // query.
  bool Quick = projectionOptions().QuickChecks;
  System U(A.space());
  auto addFacesOf = [&](const System &From, const System &Other) {
    for (const AffineExpr &E : asInequalities(From))
      if ((Quick && Other.impliesOnItsFace(E)) || entails(Other, E))
        U.addGE(E);
  };
  addFacesOf(NA, NB);
  addFacesOf(NB, NA);
  if (!U.normalize())
    return std::nullopt;
  // Exactness: U \ A \ B must hold no integer point. A constraint U
  // implies on its face only yields empty pieces, so just the cut
  // constraints are split on, and the first piece that may hold a point
  // ends the test. B's cuts are built on first use: an inexact
  // elimination of B's Aux variables refuses the merge only when some
  // piece of U \ A may hold a point.
  bool Exact = true;
  std::vector<Cut> CutsA = cutsOf(NA, U, Quick, &Exact), CutsB;
  if (!Exact)
    return std::nullopt;
  bool HaveCutsB = false;
  bool Empty = forEachPiece(U, CutsA, [&](const System &OutsideA) {
    if (OutsideA.isIntegerEmpty())
      return true;
    if (!HaveCutsB) {
      CutsB = cutsOf(NB, U, Quick, &Exact);
      HaveCutsB = true;
      if (!Exact)
        return false;
    }
    return forEachPiece(OutsideA, CutsB, [](const System &Outside) {
      return Outside.isIntegerEmpty();
    });
  });
  if (!Empty)
    return std::nullopt;
  System Out = std::move(U);
  Out.removeRedundant();
  return Out;
}

std::string Region::str() const {
  std::string S;
  for (unsigned I = 0, E = Pieces.size(); I != E; ++I) {
    S += "piece " + std::to_string(I) + " over " +
         Pieces[I].space().str() + ":\n";
    S += Pieces[I].str();
  }
  if (Pieces.empty())
    S = "(empty region)\n";
  return S;
}
