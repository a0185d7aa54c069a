//===- tests/codegen/LoopSplitTest.cpp ------------------------*- C++ -*-===//
//
// Section 5.4 static loop splitting: guards on the loop variable become
// segment bounds; semantics (the multiset of executed statements per
// env) must be preserved.
//
//===----------------------------------------------------------------------===//

#include "codegen/LoopSplit.h"
#include "frontend/Parser.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

/// Interprets an SPMD statement list, recording (marker, env-var) events
/// for Compute leaves; enough to compare pre/post-splitting behaviour.
void interpret(const std::vector<SpmdStmt> &Stmts, std::vector<IntT> &Env,
               std::vector<std::pair<unsigned, IntT>> &Trace,
               unsigned TraceVar) {
  for (const SpmdStmt &S : Stmts) {
    switch (S.K) {
    case SpmdStmt::Kind::For: {
      IntT Lo = INT64_MIN, Hi = INT64_MAX;
      for (const SpmdBound &B : S.Lower)
        Lo = std::max(Lo, ceilDiv(B.Num.evaluate(Env), B.Den));
      for (const SpmdBound &B : S.Upper)
        Hi = std::min(Hi, floorDiv(B.Num.evaluate(Env), B.Den));
      for (IntT I = Lo; I <= Hi; ++I) {
        Env[S.Var] = I;
        interpret(S.Body, Env, Trace, TraceVar);
      }
      break;
    }
    case SpmdStmt::Kind::If: {
      bool Holds = true;
      for (const Constraint &C : S.Conds) {
        IntT V = C.Expr.evaluate(Env);
        if (C.isEquality() ? V != 0 : V < 0)
          Holds = false;
      }
      if (Holds)
        interpret(S.Body, Env, Trace, TraceVar);
      break;
    }
    case SpmdStmt::Kind::SetVar:
      Env[S.Var] = S.Value.evaluate(Env);
      break;
    case SpmdStmt::Kind::Compute:
      Trace.emplace_back(S.StmtId, Env[TraceVar]);
      break;
    default:
      break;
    }
  }
}

SpmdStmt makeCompute(unsigned Id) {
  SpmdStmt C;
  C.K = SpmdStmt::Kind::Compute;
  C.StmtId = Id;
  return C;
}

} // namespace

TEST(LoopSplitTest, PaperSection54Example) {
  // for i = 0..300 { if (i <= 200) recv; if (i >= 100) send; } becomes
  // three guard-free segments.
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  Prog.MyProcVars = {};
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::constant(1, 0), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(1, 300), 1}};
  SpmdStmt IfRecv;
  IfRecv.K = SpmdStmt::Kind::If;
  IfRecv.Conds = {Constraint::ge(
      AffineExpr::var(1, I, -1).plusConst(200))}; // i <= 200
  IfRecv.Body.push_back(makeCompute(0));
  SpmdStmt IfSend;
  IfSend.K = SpmdStmt::Kind::If;
  IfSend.Conds = {
      Constraint::ge(AffineExpr::var(1, I).plusConst(-100))}; // i >= 100
  IfSend.Body.push_back(makeCompute(1));
  For.Body.push_back(std::move(IfRecv));
  For.Body.push_back(std::move(IfSend));
  Prog.Top.push_back(std::move(For));

  std::vector<IntT> Env(1, 0);
  std::vector<std::pair<unsigned, IntT>> Before;
  interpret(Prog.Top, Env, Before, I);

  LoopSplitStats St = splitLoops(Prog);
  EXPECT_GE(St.LoopsSplit, 1u);
  EXPECT_GE(St.GuardsEliminated, 2u); // the 2nd guard splits per segment
  // No If with loop-var conditions remains at loop level.
  for (const SpmdStmt &S : Prog.Top) {
    ASSERT_EQ(S.K, SpmdStmt::Kind::For);
    for (const SpmdStmt &B : S.Body)
      EXPECT_NE(B.K, SpmdStmt::Kind::If);
  }

  std::vector<std::pair<unsigned, IntT>> After;
  interpret(Prog.Top, Env, After, I);
  EXPECT_EQ(Before, After);
}

TEST(LoopSplitTest, EqualityGuardMakesThreeSegments) {
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::constant(1, 0), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(1, 9), 1}};
  SpmdStmt If;
  If.K = SpmdStmt::Kind::If;
  If.Conds = {Constraint::eq(AffineExpr::var(1, I).plusConst(-4))};
  If.Body.push_back(makeCompute(7));
  For.Body.push_back(makeCompute(0));
  For.Body.push_back(std::move(If));
  Prog.Top.push_back(std::move(For));

  std::vector<IntT> Env(1, 0);
  std::vector<std::pair<unsigned, IntT>> Before;
  interpret(Prog.Top, Env, Before, I);
  splitLoops(Prog);
  std::vector<std::pair<unsigned, IntT>> After;
  interpret(Prog.Top, Env, After, I);
  EXPECT_EQ(Before, After);
  EXPECT_EQ(Prog.Top.size(), 3u);
}

TEST(LoopSplitTest, GuardsOnBodyAssignedVarsAreKept) {
  // if (q <= 5) with q assigned inside the loop must NOT move to bounds.
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  unsigned Q = Prog.Sp.add("q", VarKind::Proc);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::constant(2, 0), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(2, 9), 1}};
  SpmdStmt Set;
  Set.K = SpmdStmt::Kind::SetVar;
  Set.Var = Q;
  Set.Value = AffineExpr::var(2, I); // q = i
  SpmdStmt If;
  If.K = SpmdStmt::Kind::If;
  If.Conds = {Constraint::ge(
      AffineExpr::var(2, Q, -1).plusConst(5) + AffineExpr::var(2, I, 1) -
      AffineExpr::var(2, I, 1))}; // q <= 5 (involves q only)
  If.Body.push_back(makeCompute(3));
  For.Body.push_back(std::move(Set));
  For.Body.push_back(std::move(If));
  Prog.Top.push_back(std::move(For));

  LoopSplitStats St = splitLoops(Prog);
  EXPECT_EQ(St.LoopsSplit, 0u);
  EXPECT_EQ(St.GuardsEliminated, 0u);
}

TEST(LoopSplitTest, ImpliedOrContradictedGuardsAreNotSplitOn) {
  // for i = 1 to 9 { if (i >= 0) S0; if (i <= 0) S1; S2 }: the bounds
  // imply the first guard and contradict the second, so splitting on
  // either would only add an empty segment. Neither is split on; the
  // context drops the first guard and deletes the second statement.
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::constant(1, 1), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(1, 9), 1}};
  SpmdStmt Implied;
  Implied.K = SpmdStmt::Kind::If;
  Implied.Conds = {Constraint::ge(AffineExpr::var(1, I))}; // i >= 0
  Implied.Body.push_back(makeCompute(0));
  SpmdStmt Contradicted;
  Contradicted.K = SpmdStmt::Kind::If;
  Contradicted.Conds = {Constraint::ge(AffineExpr::var(1, I, -1))}; // i <= 0
  Contradicted.Body.push_back(makeCompute(1));
  For.Body.push_back(std::move(Implied));
  For.Body.push_back(std::move(Contradicted));
  For.Body.push_back(makeCompute(2));
  Prog.Top.push_back(std::move(For));

  std::vector<IntT> Env(1, 0);
  std::vector<std::pair<unsigned, IntT>> Before;
  interpret(Prog.Top, Env, Before, I);
  LoopSplitStats St = splitLoops(Prog);
  EXPECT_EQ(St.LoopsSplit, 0u);
  EXPECT_EQ(St.GuardsEliminated, 0u);
  ASSERT_EQ(Prog.Top.size(), 1u);
  const SpmdStmt &Loop = Prog.Top[0];
  ASSERT_EQ(Loop.Body.size(), 2u) << Prog.str();
  EXPECT_EQ(Loop.Body[0].K, SpmdStmt::Kind::Compute);
  EXPECT_EQ(Loop.Body[1].K, SpmdStmt::Kind::Compute);
  std::vector<std::pair<unsigned, IntT>> After;
  interpret(Prog.Top, Env, After, I);
  EXPECT_EQ(Before, After);
}

TEST(LoopSplitTest, OneNonemptySegmentBecomesTheLoop) {
  // for i = 0 to 9 { if (i <= p) S0 }: the segment i > p does no work,
  // so the loop becomes for i = 0 to min(9, p) { S0 }.
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  unsigned P = Prog.Sp.add("p", VarKind::Proc);
  Prog.MyProcVars = {P};
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::constant(2, 0), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(2, 9), 1}};
  SpmdStmt If;
  If.K = SpmdStmt::Kind::If;
  If.Conds = {Constraint::ge(AffineExpr::var(2, P) -
                             AffineExpr::var(2, I))}; // i <= p
  If.Body.push_back(makeCompute(0));
  For.Body.push_back(std::move(If));
  Prog.Top.push_back(std::move(For));
  SpmdProgram Before = Prog;

  LoopSplitStats St = splitLoops(Prog);
  EXPECT_EQ(St.LoopsSplit, 0u);
  EXPECT_EQ(St.GuardsEliminated, 1u);
  ASSERT_EQ(Prog.Top.size(), 1u) << Prog.str();
  const SpmdStmt &Loop = Prog.Top[0];
  ASSERT_EQ(Loop.Body.size(), 1u) << Prog.str();
  EXPECT_EQ(Loop.Body[0].K, SpmdStmt::Kind::Compute) << Prog.str();
  bool BoundReadsP = false;
  for (const SpmdBound &B : Loop.Upper)
    BoundReadsP = BoundReadsP || B.Num.involves(P);
  EXPECT_TRUE(BoundReadsP) << Prog.str();
  for (IntT PVal : {-3, 0, 4, 9, 20}) {
    std::vector<IntT> Env(2, 0);
    Env[P] = PVal;
    std::vector<std::pair<unsigned, IntT>> Want, Got;
    interpret(Before.Top, Env, Want, I);
    interpret(Prog.Top, Env, Got, I);
    EXPECT_EQ(Want, Got) << "p = " << PVal;
  }
}

TEST(LoopSplitTest, CompilerAppliesSplitting) {
  // LU over cyclic rows: the pivot loop's guards compare i1 with the
  // executing processor, so splitting gives receive-and-update,
  // send, and (deleted) idle segments.
  Program P = parseProgramOrDie(R"(
param N;
array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}
)");
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompilerOptions On, Off;
  Off.SplitLoops = false;
  CompiledProgram CPOn = compile(P, Spec, On);
  CompiledProgram CPOff = compile(P, Spec, Off);
  EXPECT_GT(CPOn.Stats.GuardsEliminated, 0u);
  EXPECT_EQ(CPOff.Stats.GuardsEliminated, 0u);

  // Both variants must behave identically on the machine.
  SimOptions SO;
  SO.PhysGrid = {4};
  SO.ParamValues = {{"N", 15}};
  SO.Functional = true;
  SimResult ROn = Simulator(P, CPOn, Spec, SO).run();
  SimResult ROff = Simulator(P, CPOff, Spec, SO).run();
  ASSERT_TRUE(ROn.Ok) << ROn.Error;
  ASSERT_TRUE(ROff.Ok) << ROff.Error;
  EXPECT_EQ(ROn.MakespanSeconds, ROff.MakespanSeconds);
  EXPECT_EQ(ROn.Messages, ROff.Messages);
  EXPECT_EQ(ROn.Words, ROff.Words);
  EXPECT_EQ(ROn.Flops, ROff.Flops);
  // Splitting takes the per-iteration guard tests out of the run.
  EXPECT_LT(ROn.TotalEvents, ROff.TotalEvents);
}
