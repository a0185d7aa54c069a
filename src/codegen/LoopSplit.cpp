//===- codegen/LoopSplit.cpp ----------------------------------*- C++ -*-===//

#include "codegen/LoopSplit.h"

#include "codegen/Simplify.h"

#include <algorithm>

using namespace dmcc;

std::vector<SpmdStmt> SpmdSimplifier::splitLoop(SpmdStmt For,
                                                const SpmdContext &Ctx,
                                                unsigned Budget,
                                                std::vector<Constraint> Tried) {
  std::vector<SpmdStmt> Out;
  if (Budget < 2) {
    Out.push_back(std::move(For));
    return Out;
  }
  std::set<unsigned> Assigned;
  assignedVars(For.Body, Assigned);
  SpmdContext In = bodyContext(For, Ctx, Assigned);
  Assigned.insert(For.Var);
  // Segments run one after another, so each starts without the facts
  // on anything the loop assigns.
  SpmdContext SegCtx = Ctx;
  SegCtx.forget(Assigned);

  // Find a top-level guard condition affine in the loop variable, free of
  // body-assigned variables, that holds on part of the range only. Guards
  // of sibling fragments often repeat one another; each is tried once.
  for (const SpmdStmt &If : For.Body) {
    if (If.K != SpmdStmt::Kind::If)
      continue;
    for (const Constraint &C : If.Conds) {
      IntT A = For.Var < C.Expr.size() ? C.Expr.coeff(For.Var) : 0;
      if (A == 0)
        continue;
      Constraint Wide = C;
      while (Wide.Expr.size() < NumVars)
        Wide.Expr.appendVar();
      if (std::find(Tried.begin(), Tried.end(), Wide) != Tried.end())
        continue;
      Tried.push_back(std::move(Wide));
      bool Clean = true;
      for (unsigned V = 0; V != C.Expr.size(); ++V)
        if (V != For.Var && C.Expr.involves(V) && Assigned.count(V))
          Clean = false;
      if (!Clean)
        continue;
      if (C.isEquality() && (A != 1 && A != -1))
        continue; // divisibility: keep as a run-time test
      if (In.implies(C) || !In.admits({C}))
        continue;

      // Rest of the condition without the loop variable.
      AffineExpr R = C.Expr;
      R.coeff(For.Var) = 0;
      std::vector<SpmdStmt> Segs;
      auto MakeSeg = [&](std::vector<SpmdBound> ExtraLo,
                         std::vector<SpmdBound> ExtraHi) {
        SpmdStmt Seg = For;
        for (SpmdBound &B : ExtraLo)
          Seg.Lower.push_back(std::move(B));
        for (SpmdBound &B : ExtraHi)
          Seg.Upper.push_back(std::move(B));
        // The segment's bounds decide the condition; simplifying the
        // segment drops it or the guarded statement.
        for (SpmdStmt &S : loop(std::move(Seg), SegCtx, false))
          Segs.push_back(std::move(S));
      };
      if (C.isEquality()) {
        // A*v + R == 0 with A = +/-1: v == -R/A.
        AffineExpr Val = A == 1 ? R.negated() : R;
        MakeSeg({}, {SpmdBound{Val.plusConst(-1), 1}});
        MakeSeg({SpmdBound{Val, 1}}, {SpmdBound{Val, 1}});
        MakeSeg({SpmdBound{Val.plusConst(1), 1}}, {});
      } else if (A > 0) {
        // Holds iff v >= ceil(-R/A); false iff v <= floor((-R-1)/A).
        MakeSeg({}, {SpmdBound{R.negated().plusConst(-1), A}});
        MakeSeg({SpmdBound{R.negated(), A}}, {});
      } else {
        // Holds iff v <= floor(R/-A); false iff v >= ceil((R+1)/-A).
        MakeSeg({}, {SpmdBound{R, -A}});
        MakeSeg({SpmdBound{R.plusConst(1), -A}}, {});
      }
      if (Segs.empty())
        continue;
      if (Segs.size() > Budget) {
        ++Split.GuardsKept;
        continue;
      }
      ++Split.GuardsEliminated;
      // When the other segments do no work, the one left is the loop,
      // with a tighter range and without the guard: split it further.
      if (Segs.size() == 1)
        return splitLoop(std::move(Segs[0]), Ctx, Budget, std::move(Tried));

      // Recursively split each segment on the remaining guards.
      unsigned SubBudget = Budget / Segs.size();
      for (SpmdStmt &Seg : Segs)
        for (SpmdStmt &Sub : splitLoop(std::move(Seg), SegCtx, SubBudget))
          Out.push_back(std::move(Sub));
      return Out;
    }
  }
  Out.push_back(std::move(For));
  return Out;
}

LoopSplitStats dmcc::splitLoops(SpmdProgram &Prog, unsigned MaxSegments) {
  SpmdSimplifier S(Prog, MaxSegments);
  S.run(Prog.Top);
  return S.Split;
}
