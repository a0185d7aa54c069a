//===- math/LexOpt.cpp ----------------------------------------*- C++ -*-===//

#include "math/LexOpt.h"

#include <algorithm>

using namespace dmcc;

namespace {

/// Recursive solver for parametric lexicographic maxima. See the header
/// for the algorithm outline.
class LexMaxSolver {
public:
  LexMaxSolver(const System &S, std::vector<unsigned> Objs)
      : Input(S), Objs(std::move(Objs)) {}

  LexResult run() {
    std::vector<AffineExpr> Solved;
    recurse(Input, std::move(Solved), 0);
    return std::move(Result);
  }

private:
  void recurse(System S, std::vector<AffineExpr> Solved, unsigned Pos) {
    if (!S.normalize())
      return;
    if (S.checkIntegerFeasible(projectionOptions().FeasibilityBudget) ==
        Feasibility::Empty)
      return;
    if (Pos == Objs.size())
      return finish(std::move(S), std::move(Solved));

    unsigned Obj = Objs[Pos];
    // Project away the less significant objectives so the bounds on Obj
    // are expressed over parameters (and already-introduced aux vars).
    System Proj = S.eliminated(
        std::vector<unsigned>(Objs.begin() + Pos + 1, Objs.end()),
        &Result.Exact);
    Proj.removeRedundant();

    std::vector<VarBound> Lower, Upper;
    Proj.boundsOf(Obj, Lower, Upper);
    if (Upper.empty())
      fatalError("lexMax: objective variable is unbounded above");

    // Deduplicate identical bounds.
    std::vector<VarBound> Uniq;
    for (VarBound &B : Upper) {
      bool Dup = false;
      for (const VarBound &U : Uniq)
        if (U.Den == B.Den && U.Num == B.Num) {
          Dup = true;
          break;
        }
      if (!Dup)
        Uniq.push_back(std::move(B));
    }
    tournament(std::move(S), std::move(Solved), Pos, std::move(Uniq));
  }

  /// Case-splits on which upper bound is the rational minimum; rational
  /// dominance implies floor dominance, so the winner's floor is the
  /// integer maximum of the objective.
  void tournament(System S, std::vector<AffineExpr> Solved, unsigned Pos,
                  std::vector<VarBound> Uppers) {
    assert(!Uppers.empty() && "tournament requires at least one bound");
    if (Uppers.size() == 1)
      return bindObjective(std::move(S), std::move(Solved), Pos,
                           Uppers[0]);

    VarBound B0 = Uppers[0];
    VarBound B1 = Uppers[1];
    // Cond >= 0  <=>  B0.Num/B0.Den <= B1.Num/B1.Den.
    AffineExpr Cond = B1.Num;
    Cond.scale(B0.Den);
    AffineExpr R = B0.Num;
    R.scale(B1.Den);
    Cond -= R;

    {
      // Branch where B0 dominates: B1 can never be the strict minimum.
      System SA = S;
      SA.addGE(Cond);
      std::vector<VarBound> UA = Uppers;
      UA.erase(UA.begin() + 1);
      if (SA.normalize() &&
          SA.checkIntegerFeasible(projectionOptions().FeasibilityBudget) !=
              Feasibility::Empty)
        tournament(std::move(SA), Solved, Pos, std::move(UA));
    }
    {
      // Branch where B1 is strictly smaller: drop B0.
      System SB = std::move(S);
      SB.addGE(Cond.negated().plusConst(-1));
      std::vector<VarBound> UB = std::move(Uppers);
      UB.erase(UB.begin());
      if (SB.normalize() &&
          SB.checkIntegerFeasible(projectionOptions().FeasibilityBudget) !=
              Feasibility::Empty)
        tournament(std::move(SB), std::move(Solved), Pos, std::move(UB));
    }
  }

  void bindObjective(System S, std::vector<AffineExpr> Solved, unsigned Pos,
                     const VarBound &Bound) {
    unsigned Obj = Objs[Pos];
    AffineExpr Num = Bound.Num;
    AffineExpr Value(S.numVars());
    if (Bound.Den == 1) {
      Value = Num;
    } else {
      // Obj = floor(Num / Den): introduce an auxiliary witness exactly as
      // the paper does for modulo constraints (Section 4.4.2).
      std::string Name = S.space().freshName("@f");
      unsigned Q = S.addVar(Name, VarKind::Aux);
      Num.appendVar();
      for (AffineExpr &V : Solved)
        V.appendVar();
      AffineExpr QE = S.varExpr(Q);
      // Den*Q <= Num <= Den*Q + Den - 1.
      AffineExpr DQ = QE;
      DQ.scale(Bound.Den);
      S.addGE(Num - DQ);
      S.addGE(DQ.plusConst(Bound.Den - 1) - Num);
      Value = QE;
    }
    assert(!Value.involves(Obj) && "objective value must not be recursive");
    S.substitute(Obj, Value);
    Solved.push_back(std::move(Value));
    recurse(std::move(S), std::move(Solved), Pos + 1);
  }

  void finish(System S, std::vector<AffineExpr> Solved) {
    // All objectives have been substituted away; drop their dimensions in
    // descending index order to keep indices stable.
    std::vector<unsigned> Sorted = Objs;
    std::sort(Sorted.rbegin(), Sorted.rend());
    for (unsigned Idx : Sorted) {
      assert(!S.involves(Idx) && "objective survived substitution");
      S.removeVar(Idx);
      for (AffineExpr &V : Solved)
        V.removeVar(Idx);
    }
    S.removeRedundant();
    Result.Pieces.push_back(LexPiece{std::move(S), std::move(Solved)});
  }

  System Input;
  std::vector<unsigned> Objs;
  LexResult Result;
};

} // namespace

LexResult dmcc::lexMax(const System &S, const std::vector<unsigned> &Objs) {
#ifndef NDEBUG
  for (unsigned O : Objs)
    assert(O < S.numVars() && "objective index out of range");
#endif
  PhaseTimer Timer("math.lexopt");
  ++projectionStats().LexMaxCalls;
  LexMaxSolver Solver(S, Objs);
  return Solver.run();
}

LexResult dmcc::lexMin(const System &S, const std::vector<unsigned> &Objs) {
  // lexmin(x) = -lexmax(-x): flip the objective columns, maximize, negate.
  System Out(S.space());
  for (ConstraintRef C : S.constraints()) {
    Constraint NC = C.constraint();
    for (unsigned O : Objs)
      NC.Expr.coeff(O) = -NC.Expr.coeff(O);
    Out.addConstraint(std::move(NC));
  }
  LexResult R = lexMax(Out, Objs);
  for (LexPiece &P : R.Pieces)
    for (AffineExpr &V : P.Values)
      V = V.negated();
  return R;
}

std::string LexResult::str() const {
  std::string S;
  for (unsigned I = 0, E = Pieces.size(); I != E; ++I) {
    const LexPiece &P = Pieces[I];
    S += "piece " + std::to_string(I) + ": values (";
    for (unsigned K = 0, KE = P.Values.size(); K != KE; ++K) {
      if (K)
        S += ", ";
      S += P.Values[K].str(P.Context.space());
    }
    S += ") when\n" + P.Context.str();
  }
  if (Pieces.empty())
    S = "(no solution anywhere)\n";
  if (!Exact)
    S += "(warning: result is approximate)\n";
  return S;
}
