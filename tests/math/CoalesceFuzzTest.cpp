//===- tests/math/CoalesceFuzzTest.cpp ------------------------*- C++ -*-===//
//
// Differential fuzzing of coalesceSystems. The reference below is the
// earlier implementation, kept verbatim: it builds the hull with one
// entailment query per face and decides exactness by subtracting both
// systems from the hull as Regions. The current implementation answers
// some faces syntactically and tests only the cut pieces with an early
// exit; it must make the same decision and return the same constraint
// list on every seeded pair, with the syntactic checks on and off.
// Whenever a union is returned, its integer points are checked against
// A u B by enumerating a box.
//
// Runs under its own binary (dmcc_coalescefuzz_test) with the `fuzz`
// ctest label; DMCC_FUZZ_ITERS sets the number of pairs.
//
//===----------------------------------------------------------------------===//

#include "FuzzIters.h"
#include "math/Region.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace dmcc;

namespace {

//===-- Reference implementation ------------------------------------------===//

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

std::optional<System> referenceCoalesce(const System &A, const System &B) {
  if (A.space() != B.space())
    return std::nullopt;
  System NA = A, NB = B;
  if (!NA.normalize())
    return B;
  if (!NB.normalize())
    return A;
  // The candidate hull: every face of one system that the other also
  // satisfies.
  System U(A.space());
  for (const AffineExpr &E : asInequalities(NA))
    if (entails(NB, E))
      U.addGE(E);
  for (const AffineExpr &E : asInequalities(NB))
    if (entails(NA, E))
      U.addGE(E);
  if (!U.normalize())
    return std::nullopt;
  // Exactness: the hull must not contain points outside A union B.
  Region R = Region::fromSystem(U);
  R = R.subtract(Region::fromSystem(NA));
  R = R.subtract(Region::fromSystem(NB));
  if (!R.isExact() || !R.isIntegerEmpty())
    return std::nullopt;
  System Out = std::move(U);
  Out.removeRedundant();
  return Out;
}

//===-- Pair generator -----------------------------------------------------===//

/// Loop variables stay inside [Lo, Hi], the parameter inside
/// [ParamLo, ParamHi]; membership is checked one step beyond both.
constexpr IntT Lo = -3, Hi = 3;
constexpr IntT ParamLo = 0, ParamHi = 3;
/// Window searched for an Aux witness (q = floor((v0 + k) / 2)).
constexpr IntT AuxWindow = 8;

/// A random space of 2-4 variables: loop variables v0.., sometimes a
/// parameter N, sometimes an Aux variable q.
Space randomSpace(std::mt19937 &Rng) {
  unsigned Total = std::uniform_int_distribution<unsigned>(2, 4)(Rng);
  bool Param = Rng() % 3 == 0;
  bool Aux = Rng() % 3 == 0 && Total - Param >= 2;
  Space Sp;
  for (unsigned I = 0, E = Total - Param - Aux; I != E; ++I)
    Sp.add("v" + std::to_string(I), VarKind::Loop);
  if (Param)
    Sp.add("N", VarKind::Param);
  if (Aux)
    Sp.add("q", VarKind::Aux);
  return Sp;
}

AffineExpr randomExpr(const System &S, std::mt19937 &Rng) {
  std::uniform_int_distribution<int> Coef(-2, 2), Cst(-3, 3);
  AffineExpr E = S.zero();
  while (E.isConstant())
    for (unsigned I = 0; I != S.numVars(); ++I)
      E.coeff(I) = Coef(Rng);
  E.constant() = Cst(Rng);
  return E;
}

void addRandom(System &S, std::mt19937 &Rng) {
  AffineExpr E = randomExpr(S, Rng);
  if (Rng() % 6 == 0)
    S.addEQ(std::move(E));
  else
    S.addGE(std::move(E));
}

/// The shared part of a pair: the bounding box, the Aux definition
/// 2q <= v0 + k <= 2q + 1, and up to two random constraints.
System randomBase(const Space &Sp, std::mt19937 &Rng) {
  System P(Sp);
  for (unsigned I = 0; I != Sp.size(); ++I) {
    if (Sp.kind(I) == VarKind::Loop)
      P.addRange(I, Lo, Hi);
    else if (Sp.kind(I) == VarKind::Param)
      P.addRange(I, ParamLo, ParamHi);
  }
  int Q = Sp.indexOf("q");
  if (Q >= 0) {
    AffineExpr Twice = P.varExpr(static_cast<unsigned>(Q));
    Twice.scale(2);
    AffineExpr V = P.varExpr(0).plusConst(static_cast<IntT>(Rng() % 2));
    P.addLE(Twice, V);
    P.addLE(V, Twice.plusConst(1));
  }
  for (unsigned C = Rng() % 3; C-- > 0;)
    addRandom(P, Rng);
  return P;
}

struct Pair {
  System A, B;
  const char *Kind;
};

Pair randomPair(std::mt19937 &Rng) {
  Space Sp = randomSpace(Rng);
  System P = randomBase(Sp, Rng);
  Pair Out{P, P, ""};
  unsigned NumLoops = Sp.indicesOfKind(VarKind::Loop).size();
  switch (Rng() % 5) {
  case 0: { // a case split P /\ c, P /\ not c
    AffineExpr E = randomExpr(P, Rng);
    Out.A.addGE(E);
    Out.B.addGE(E.negated().plusConst(-1));
    Out.Kind = "split";
    break;
  }
  case 1: { // two of the three pieces of an equality split
    AffineExpr E = randomExpr(P, Rng);
    System Pieces[3] = {P, P, P};
    Pieces[0].addGE(E.negated().plusConst(-1)); // E <= -1
    Pieces[1].addEQ(E);
    Pieces[2].addGE(E.plusConst(-1)); // E >= 1
    unsigned X = Rng() % 3, Y = (X + 1 + Rng() % 2) % 3;
    Out.A = Pieces[X];
    Out.B = Pieces[Y];
    Out.Kind = "eq-split";
    break;
  }
  case 2: { // overlapping or touching boxes
    for (unsigned I = 0; I != NumLoops; ++I) {
      IntT A0 = Lo + static_cast<IntT>(Rng() % 4);
      IntT A1 = A0 + static_cast<IntT>(Rng() % 4);
      IntT B0 = A0 + static_cast<IntT>(Rng() % (A1 - A0 + 2));
      IntT B1 = B0 + static_cast<IntT>(Rng() % 3);
      Out.A.addRange(I, A0, A1);
      Out.B.addRange(I, B0, B1);
    }
    Out.Kind = "overlap";
    break;
  }
  case 3: { // boxes with a gap along one variable
    unsigned G = Rng() % NumLoops;
    IntT A1 = Lo + static_cast<IntT>(Rng() % 3);
    IntT B0 = A1 + 2 + static_cast<IntT>(Rng() % 2);
    Out.A.addRange(G, Lo, A1);
    Out.B.addRange(G, B0, Hi);
    for (unsigned I = 0; I != NumLoops; ++I)
      if (I != G && Rng() % 2)
        Out.B.addRange(I, Lo + 1, Hi);
    Out.Kind = "gap";
    break;
  }
  default: // unrelated extra constraints on each side
    addRandom(Out.A, Rng);
    addRandom(Out.B, Rng);
    if (Rng() % 2)
      addRandom(Out.B, Rng);
    Out.Kind = "random";
    break;
  }
  if (Rng() % 2)
    std::swap(Out.A, Out.B);
  return Out;
}

/// True if \p S holds at the loop and parameter values \p Base for some
/// Aux witness in the window.
bool member(const System &S, std::vector<IntT> Base) {
  int Q = S.space().indexOf("q");
  if (Q < 0)
    return S.holds(Base);
  for (IntT V = -AuxWindow; V <= AuxWindow; ++V) {
    Base[static_cast<unsigned>(Q)] = V;
    if (S.holds(Base))
      return true;
  }
  return false;
}

/// Checks that \p U holds exactly the points of A u B over the box one
/// step beyond every variable's range.
void expectSamePoints(const System &U, const Pair &Pr, unsigned Trial) {
  const Space &Sp = U.space();
  std::vector<unsigned> Vars;
  std::vector<IntT> From, To;
  for (unsigned I = 0; I != Sp.size(); ++I) {
    if (Sp.kind(I) == VarKind::Aux)
      continue;
    bool Param = Sp.kind(I) == VarKind::Param;
    Vars.push_back(I);
    From.push_back((Param ? ParamLo : Lo) - 1);
    To.push_back((Param ? ParamHi : Hi) + 1);
  }
  std::vector<IntT> Pt(Sp.size(), 0);
  for (unsigned K = 0; K != Vars.size(); ++K)
    Pt[Vars[K]] = From[K];
  for (;;) {
    bool InUnion = member(Pr.A, Pt) || member(Pr.B, Pt);
    ASSERT_EQ(member(U, Pt), InUnion)
        << "trial " << Trial << " (" << Pr.Kind << ")\nA:\n"
        << Pr.A.str() << "B:\n" << Pr.B.str() << "union:\n" << U.str();
    unsigned K = Vars.size();
    while (K-- > 0) {
      if (++Pt[Vars[K]] <= To[K])
        break;
      Pt[Vars[K]] = From[K];
      if (K == 0)
        return;
    }
  }
}

} // namespace

TEST(CoalesceFuzz, MatchesTheReferenceOnSeededPairs) {
  ProjectionOptions Saved = projectionOptions();
  const unsigned NumPairs = fuzzIters(2000);
  unsigned Merged = 0;
  std::mt19937 Rng(20261017);
  for (unsigned Trial = 0; Trial != NumPairs; ++Trial) {
    Pair Pr = randomPair(Rng);
    // Both legs of the syntactic checks: on (the default) and off, the
    // mode that measures the exact queries.
    for (bool Quick : {true, false}) {
      projectionOptions() = ProjectionOptions();
      projectionOptions().QuickChecks = Quick;
      clearProjectionCaches();
      std::optional<System> Want = referenceCoalesce(Pr.A, Pr.B);
      clearProjectionCaches();
      std::optional<System> Got = coalesceSystems(Pr.A, Pr.B);
      ASSERT_EQ(Got.has_value(), Want.has_value())
          << "trial " << Trial << " (" << Pr.Kind << ", quick " << Quick
          << ")\nA:\n" << Pr.A.str() << "B:\n" << Pr.B.str();
      if (!Got)
        continue;
      ASSERT_EQ(Got->space(), Want->space()) << "trial " << Trial;
      // Over one space, equal renderings are equal rows.
      ASSERT_EQ(Got->str(), Want->str())
          << "trial " << Trial << " (" << Pr.Kind << ", quick " << Quick
          << ")\nA:\n" << Pr.A.str() << "B:\n" << Pr.B.str();
      Merged += Quick;
      if (Quick)
        expectSamePoints(*Got, Pr, Trial);
    }
  }
  projectionOptions() = Saved;
  clearProjectionCaches();
  // The generator must exercise both outcomes.
  EXPECT_GE(Merged, NumPairs / 5);
  EXPECT_LE(Merged, NumPairs - NumPairs / 5);
}
