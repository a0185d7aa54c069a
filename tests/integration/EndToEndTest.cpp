//===- tests/integration/EndToEndTest.cpp ---------------------*- C++ -*-===//
//
// The whole pipeline: parse -> analyze -> derive communication ->
// optimize -> generate SPMD -> execute on the simulated machine -> every
// array element under the final layout must be bitwise identical to the
// sequential interpreter's result, and no locality violation or deadlock
// may occur.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

struct E2ECase {
  const char *Name;
  const char *Source;
  std::map<std::string, IntT> Params;
  IntT PhysProcs;
  /// Builds the compile spec once the program is parsed.
  CompileSpec (*MakeSpec)(const Program &P);
};

// gtest's fallback printer dumps the raw bytes of a case, pointers
// included, into every listed test name; ctest discovers tests by those
// names, so they would change with the address-space layout of each run.
void PrintTo(const E2ECase &C, std::ostream *OS) { *OS << C.Name; }

CompileSpec shiftSpec(const Program &P) {
  CompileSpec Spec;
  // Iterations of the i loop in blocks of 4; X in matching blocks.
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  return Spec;
}

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  // The paper's Section 7 configuration: cyclic rows.
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

CompileSpec stencilSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition DX = blockData(P, 0, 0, 4);
  Decomposition DY = blockData(P, 1, 0, 4);
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 4)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 4)});
  Spec.InitialData.emplace(0, DX);
  Spec.InitialData.emplace(1, DY);
  Spec.FinalData.emplace(0, DX);
  Spec.FinalData.emplace(1, DY);
  return Spec;
}

CompileSpec pipelineSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 0, 3)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 3)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 3));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 3));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 3));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 3));
  return Spec;
}

CompileSpec killChainSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 0, 4)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 0, 4)});
  Spec.Stmts.push_back(StmtPlan{2, blockComputation(P, 2, 0, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 4));
  return Spec;
}

CompileSpec backwardSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 4)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 4));
  return Spec;
}

CompileSpec reversalSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 0, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 4));
  return Spec;
}

const E2ECase Cases[] = {
    {"shift3",
     R"(param T; param N; array X[N + 1];
        for t = 0 to T { for i = 3 to N { X[i] = X[i - 3] + 1; } })",
     {{"T", 3}, {"N", 15}}, 2, shiftSpec},
    {"lu",
     R"(param N; array X[N + 1][N + 1];
        for i1 = 0 to N { for i2 = i1 + 1 to N {
          X[i2][i1] = X[i2][i1] / X[i1][i1];
          for i3 = i1 + 1 to N {
            X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]; } } })",
     {{"N", 7}}, 3, luSpec},
    {"stencil",
     R"(param T; param N; array X[N + 1]; array Y[N + 1];
        for t = 0 to T { for i = 1 to N - 1 {
            Y[i] = X[i - 1] + X[i] + X[i + 1]; }
          for i2 = 1 to N - 1 { X[i2] = Y[i2]; } })",
     {{"T", 2}, {"N", 12}}, 2, stencilSpec},
    {"pipeline",
     R"(param N; array X[N + 1]; array Y[N + 1];
        for i = 1 to N { X[i] = i;
          for j = 1 to N { Y[j] = Y[j] + X[i - 1]; } })",
     {{"N", 8}}, 2, pipelineSpec},
    {"kill_chain",
     R"(param N; array A[N + 1]; array B[N + 1];
        for i = 0 to N { A[i] = i; }
        for k = 2 to N { A[k] = A[k - 1] + 1; }
        for j = 0 to N { B[j] = A[N - j]; })",
     {{"N", 10}}, 3, killChainSpec},
    {"reversal",
     R"(param N; array A[N + 1]; array B[N + 1];
        for i = 0 to N { A[i] = B[N - i] + 1; })",
     {{"N", 11}}, 3, reversalSpec},
    // A textually-backward flow carried by the inner loop: S0 reads the
    // B value S1 wrote one i earlier, so the i loop must stay
    // interleaved (loop distribution would reorder the phases and read
    // stale data). Exercises the distribution-legality test.
    {"backward_carried",
     R"(param T; param N; array A[N + 1]; array B[N + 1];
        for t = 0 to T { for i = 1 to N {
          A[i] = B[i - 1] + 1;
          B[i] = A[i] + 2; } })",
     {{"T", 2}, {"N", 11}}, 2, backwardSpec},
};

class EndToEnd : public ::testing::TestWithParam<E2ECase> {};

} // namespace

TEST_P(EndToEnd, SimulatedSpmdMatchesSequential) {
  const E2ECase &C = GetParam();
  Program P = parseProgramOrDie(C.Source);
  CompileSpec Spec = C.MakeSpec(P);
  CompiledProgram CP = compile(P, Spec);
  EXPECT_TRUE(CP.Stats.AllExact) << CP.Diagnostics;

  // Golden sequential execution.
  SeqInterpreter Gold(P, C.Params);
  Gold.run();

  SimOptions SO;
  SO.PhysGrid = {C.PhysProcs};
  SO.ParamValues = C.Params;
  SO.Functional = true;
  Simulator Sim(P, CP, Spec, SO);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << C.Name << ": " << R.Error;

  // Every element under a final layout must match bit for bit.
  for (const auto &[ArrayId, FD] : Spec.FinalData) {
    (void)FD;
    const ArrayDecl &AD = P.array(ArrayId);
    std::vector<IntT> Env(P.space().size(), 0);
    for (unsigned I = 0; I != P.space().size(); ++I)
      if (P.space().kind(I) == VarKind::Param)
        Env[I] = C.Params.at(P.space().name(I));
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : AD.DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = false;
    unsigned Checked = 0, Missing = 0, Wrong = 0;
    while (!Done) {
      double Want = Gold.arrayValue(ArrayId, Idx);
      auto Got = Sim.finalValue(ArrayId, Idx);
      ++Checked;
      if (!Got)
        ++Missing;
      else if (*Got != Want)
        ++Wrong;
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
    EXPECT_EQ(Missing, 0u)
        << C.Name << " array " << AD.Name << ": missing final values";
    EXPECT_EQ(Wrong, 0u)
        << C.Name << " array " << AD.Name << ": wrong final values";
    EXPECT_GT(Checked, 0u);
  }
}

TEST_P(EndToEnd, PerformanceModeAgreesOnCounts) {
  const E2ECase &C = GetParam();
  Program P = parseProgramOrDie(C.Source);
  CompileSpec Spec = C.MakeSpec(P);
  CompiledProgram CP = compile(P, Spec);

  SimOptions Fn;
  Fn.PhysGrid = {C.PhysProcs};
  Fn.ParamValues = C.Params;
  Fn.Functional = true;
  SimResult RF = Simulator(P, CP, Spec, Fn).run();
  ASSERT_TRUE(RF.Ok) << RF.Error;

  SimOptions Pf = Fn;
  Pf.Functional = false;
  Pf.CollapseLoops = true;
  SimResult RP = Simulator(P, CP, Spec, Pf).run();
  ASSERT_TRUE(RP.Ok) << RP.Error;

  EXPECT_EQ(RF.Messages, RP.Messages);
  EXPECT_EQ(RF.Words, RP.Words);
  EXPECT_EQ(RF.Flops, RP.Flops);
  EXPECT_EQ(RF.ComputeIterations, RP.ComputeIterations);
  EXPECT_NEAR(RF.MakespanSeconds, RP.MakespanSeconds,
              1e-9 + 0.01 * RF.MakespanSeconds);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EndToEnd, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<E2ECase> &I) { return I.param.Name; });
