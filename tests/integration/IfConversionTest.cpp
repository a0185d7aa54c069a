//===- tests/integration/IfConversionTest.cpp -----------------*- C++ -*-===//
//
// Section 4.1: conditional statements without loops are if-converted —
// the guarded assignment reads its own current value, so the exact data
// flow (and therefore the communication) remains correct whichever way
// the condition goes at run time.
//
//===----------------------------------------------------------------------===//

#include "dataflow/LastWriteTree.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace dmcc;

TEST(IfConversionTest, ParseAndSelfRead) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array B[N + 1];
for i = 0 to N {
  if (B[i] - 1) {
    A[i] = B[i] * 2;
  }
}
)");
  ASSERT_EQ(P.numStatements(), 1u);
  const Statement &S = P.statement(0);
  // Reads: B[i] (condition), B[i] (then-value), A[i] (current value).
  ASSERT_EQ(S.Reads.size(), 3u);
  EXPECT_EQ(S.Reads.back().ArrayId, S.Write.ArrayId);
  EXPECT_EQ(S.RPool[S.RRoot].K, RVal::Kind::Select);
  // Pretty-printing shows the if-converted form.
  EXPECT_NE(P.str().find("?"), std::string::npos);
}

TEST(IfConversionTest, SequentialSemantics) {
  // Condition (i - 5): negative for i < 5, so only i >= 5 updates land.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
for i = 0 to N {
  if (i - 5) {
    A[i] = 7;
  }
}
)");
  SeqInterpreter I(P, {{"N", 9}});
  I.run();
  for (IntT K = 0; K <= 9; ++K) {
    if (K >= 5)
      EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), 7.0) << K;
    else
      EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), initialArrayValue(0, K)) << K;
  }
}

TEST(IfConversionTest, DataFlowSeesTheSelfRead) {
  // Because the guarded statement may keep the old value, a later read
  // must see a flow from BOTH the guarded writer and whatever wrote the
  // location before it — which the self-read models exactly.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array C[N + 1];
for i = 0 to N {
  A[i] = 1;
}
for k = 0 to N {
  if (C[k] - 1) {
    A[k] = 2;
  }
}
for j = 0 to N {
  C[j] = A[j];
}
)");
  // The final read A[j] is produced by the guarded statement (which
  // itself read the first loop's value through the self-read).
  LastWriteTree T = buildLWT(P, 2, 0);
  ASSERT_TRUE(T.Exact);
  for (const LWTContext &Ctx : T.Contexts) {
    ASSERT_TRUE(Ctx.HasWriter);
    EXPECT_EQ(Ctx.WriteStmtId, 1u);
  }
  // And the guarded statement's self-read (read #1: A[k]) flows from the
  // first loop.
  int SelfRead = -1;
  const Statement &S1 = P.statement(1);
  for (unsigned R = 0; R != S1.Reads.size(); ++R)
    if (S1.Reads[R].ArrayId == S1.Write.ArrayId)
      SelfRead = static_cast<int>(R);
  ASSERT_GE(SelfRead, 0);
  LastWriteTree TS = buildLWT(P, 1, static_cast<unsigned>(SelfRead));
  ASSERT_TRUE(TS.Exact);
  for (const LWTContext &Ctx : TS.Contexts) {
    ASSERT_TRUE(Ctx.HasWriter);
    EXPECT_EQ(Ctx.WriteStmtId, 0u);
  }
}

TEST(IfConversionTest, DistributedExecutionMatchesSequential) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array C[N + 1];
for i = 0 to N {
  A[i] = i;
}
for k = 0 to N {
  if (C[N - k] - 1) {
    A[k] = A[k] + 100;
  }
}
)");
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 0, 4)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 0, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  CompiledProgram CP = compile(P, Spec);
  EXPECT_TRUE(CP.Stats.AllExact) << CP.Diagnostics;

  std::map<std::string, IntT> Params{{"N", 14}};
  SeqInterpreter Gold(P, Params);
  Gold.run();
  SimOptions SO;
  SO.PhysGrid = {3};
  SO.ParamValues = Params;
  Simulator Sim(P, CP, Spec, SO);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  unsigned Wrong = 0;
  for (IntT K = 0; K <= 14; ++K) {
    auto Got = Sim.finalValue(0, {K});
    if (!Got || *Got != Gold.arrayValue(0, {K}))
      ++Wrong;
  }
  EXPECT_EQ(Wrong, 0u);
  // The condition array C is read from the mirrored block: real
  // communication happened for the guard values too.
  EXPECT_GT(R.Messages + R.IntraMessages, 0u);
}

TEST(IfConversionTest, NestedControlIsRejected) {
  EXPECT_FALSE(parseProgram(R"(
param N;
array A[N];
if (1) {
  for i = 0 to N - 1 { A[i] = 1; }
}
)").ok());
}

namespace {

/// Compiles \p P with statement \p Stmt's iterations and every array in
/// blocks of 4, simulates it functionally on 3 processors with N = 14,
/// and counts the elements of array 0 that differ from the sequential
/// interpreter's.
unsigned mismatchesWithSequential(const Program &P, unsigned Stmt) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{Stmt, blockComputation(P, Stmt, 0, 4)});
  for (unsigned A = 0; A != P.numArrays(); ++A)
    Spec.InitialData.emplace(A, blockData(P, A, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  CompiledProgram CP = compile(P, Spec);
  EXPECT_TRUE(CP.Ok) << CP.ErrorMessage;

  std::map<std::string, IntT> Params{{"N", 14}};
  SeqInterpreter Gold(P, Params);
  Gold.run();
  SimOptions SO;
  SO.PhysGrid = {3};
  SO.ParamValues = Params;
  SO.Functional = true;
  Simulator Sim(P, CP, Spec, SO);
  SimResult R = Sim.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  unsigned Wrong = 0;
  for (IntT K = 0; K <= 14; ++K) {
    auto Got = Sim.finalValue(0, {K});
    if (!Got || *Got != Gold.arrayValue(0, {K}))
      ++Wrong;
  }
  return Wrong;
}

} // namespace

TEST(IfConversionTest, UntakenBranchIsNotEvaluated) {
  // At i = N the guard fails and the then-value reads B[N + 1], one
  // past the end of B. Its block is the one that computes i = N, so no
  // message is involved. The simulator evaluates a Select lazily, as the
  // sequential interpreter does, so that read never happens: no
  // locality violation, and A[N] keeps its initial value.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array B[N + 1];
for i = 0 to N {
  if (N - 1 - i) {
    A[i] = B[i + 1];
  }
}
)");
  EXPECT_EQ(mismatchesWithSequential(P, 0), 0u);
}

TEST(IfConversionTest, NaNConditionTakesTheElseBranch) {
  // 0 / 0 is NaN, and NaN >= 0 is false: both evaluators keep A's
  // current value.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array C[N + 1];
for k = 0 to N {
  if ((C[k] - C[k]) / (C[k] - C[k])) {
    A[k] = 7;
  }
}
)");
  SeqInterpreter Gold(P, {{"N", 14}});
  Gold.run();
  for (IntT K = 0; K <= 14; ++K)
    EXPECT_EQ(Gold.arrayValue(0, {K}), initialArrayValue(0, K)) << K;
  EXPECT_EQ(mismatchesWithSequential(P, 0), 0u);
}
