//===- tests/integration/FuzzPipelineTest.cpp -----------------*- C++ -*-===//
//
// Randomized end-to-end validation: generate affine programs from
// structural templates with random subscripts, bounds, block sizes and
// machine sizes; compile; execute on the simulated machine in functional
// mode; demand bitwise-identical final arrays. Any analysis bug —
// wrong last-write, missing transfer, bad scan bounds, broken
// aggregation — surfaces as a verification failure, a locality
// violation, or a deadlock.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace dmcc;

namespace {

struct Generated {
  std::string Source;
  IntT BlockA = 4, BlockB = 4;
  IntT Procs = 2;
  std::map<std::string, IntT> Params;
};

/// Draws one program from a family of two-array templates.
Generated generate(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> Off(1, 3);
  std::uniform_int_distribution<int> Tmpl(0, 4);
  std::uniform_int_distribution<int> BlockD(2, 6);
  std::uniform_int_distribution<int> ProcD(2, 4);
  std::uniform_int_distribution<int> ND(10, 25);
  std::uniform_int_distribution<int> TD(1, 4);

  Generated G;
  G.BlockA = BlockD(Rng);
  G.BlockB = BlockD(Rng);
  G.Procs = ProcD(Rng);
  IntT N = ND(Rng), T = TD(Rng);
  G.Params = {{"N", N}, {"T", T}};
  int O1 = Off(Rng), O2 = Off(Rng);
  std::ostringstream S;
  S << "param T;\nparam N;\narray A[N + 8];\narray B[N + 8];\n";
  switch (Tmpl(Rng)) {
  case 0: // time-iterated shift
    S << "for t = 0 to T {\n  for i = " << O1 << " to N {\n"
      << "    A[i] = A[i - " << O1 << "] + 1;\n  }\n}\n";
    break;
  case 1: // sweep + copy-back stencil
    S << "for t = 0 to T {\n  for i = " << O1 << " to N {\n"
      << "    B[i] = A[i - " << O1 << "] + A[i];\n  }\n"
      << "  for i2 = " << O1 << " to N {\n    A[i2] = B[i2];\n  }\n}\n";
    break;
  case 2: // producer + consumer with offset
    S << "for i = 0 to N {\n  A[i] = i;\n}\n"
      << "for j = " << O1 << " to N {\n  B[j] = A[j - " << O1
      << "] + A[j];\n}\n";
    break;
  case 3: // reversal through an updated array
    S << "for i = 0 to N {\n  A[i] = i + 1;\n}\n"
      << "for j = 0 to N {\n  B[j] = A[N - j];\n}\n";
    break;
  default: // forward and backward offsets in one statement
    S << "for t = 0 to T {\n  for i = " << std::max(O1, O2) << " to N - "
      << O2 << " {\n    B[i] = A[i - " << O1 << "] + A[i + " << O2
      << "];\n  }\n  for i2 = 0 to N {\n    A[i2] = B[i2] + 1;\n  }\n}\n";
    break;
  }
  G.Source = S.str();
  return G;
}

class FuzzPipeline : public ::testing::TestWithParam<unsigned> {};

/// Compiles the generated program, runs it under the given fault and
/// checkpoint configuration, and demands bitwise-identical final
/// arrays against the sequential interpreter. Accumulates recovery
/// telemetry into *Stats when non-null so callers can check the crash
/// schedule actually fired.
void compileRunAndVerify(const Generated &G, const FaultOptions &Faults,
                         const CheckpointOptions &Checkpoint,
                         SimResult *Stats = nullptr) {
  ParseOutput PO = parseProgram(G.Source);
  ASSERT_TRUE(PO.ok()) << PO.Error;
  Program &P = *PO.Prog;

  CompileSpec Spec;
  Spec.InitialData.emplace(0, blockData(P, 0, 0, G.BlockA));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, G.BlockB));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, G.BlockA));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, G.BlockB));
  for (unsigned S = 0; S != P.numStatements(); ++S) {
    unsigned A = P.statement(S).Write.ArrayId;
    Spec.Stmts.push_back(
        StmtPlan{S, ownerComputes(P, S, Spec.InitialData.at(A))});
  }

  CompiledProgram CP = compile(P, Spec);
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;
  if (!CP.Stats.AllExact)
    return; // approximate analyses are exercised elsewhere

  SeqInterpreter Gold(P, G.Params);
  Gold.run();

  SimOptions SO;
  SO.PhysGrid = {G.Procs};
  SO.ParamValues = G.Params;
  SO.Functional = true;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  Simulator Sim(P, CP, Spec, SO);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  if (Stats) {
    Stats->Crashes += R.Crashes;
    Stats->Recovery.Rollbacks += R.Recovery.Rollbacks;
    Stats->Recovery.CheckpointsTaken += R.Recovery.CheckpointsTaken;
  }

  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = G.Params.at(P.space().name(I));
  for (unsigned AId = 0; AId != P.numArrays(); ++AId) {
    IntT Size = P.array(AId).DimSizes[0].evaluate(Env);
    for (IntT K = 0; K != Size; ++K) {
      auto Got = Sim.finalValue(AId, {K});
      ASSERT_TRUE(Got.has_value())
          << P.array(AId).Name << "[" << K << "] missing";
      ASSERT_EQ(*Got, Gold.arrayValue(AId, {K}))
          << P.array(AId).Name << "[" << K << "]";
    }
  }
}

} // namespace

TEST_P(FuzzPipeline, CompiledProgramsMatchSequential) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  for (int Trial = 0; Trial != 6; ++Trial) {
    Generated G = generate(Rng);
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(Trial) + "\n" + G.Source);
    compileRunAndVerify(G, FaultOptions{}, CheckpointOptions{});
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

// The crash slice (labeled `fault` in ctest): the same random programs
// under a random crash-stop schedule with checkpointing — recovery via
// rollback/replay must still produce bitwise-identical final arrays.
TEST_P(FuzzPipeline, CrashScheduledProgramsMatchSequential) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  SimResult Total;
  for (int Trial = 0; Trial != 4; ++Trial) {
    Generated G = generate(Rng);
    FaultOptions F;
    F.CrashRate = 2e-3;
    F.CrashSeed = Rng();
    CheckpointOptions CK;
    CK.IntervalSteps = 100 + Rng() % 400;
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(Trial) + " crash-seed " +
                 std::to_string(F.CrashSeed) + " interval " +
                 std::to_string(CK.IntervalSteps) + "\n" + G.Source);
    compileRunAndVerify(G, F, CK, &Total);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The schedule must not be vacuous: across the trials of a seed, at
  // least one processor dies and at least one rollback replays.
  EXPECT_GT(Total.Crashes, 0u);
  EXPECT_GT(Total.Recovery.Rollbacks, 0u);
  EXPECT_GT(Total.Recovery.CheckpointsTaken, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));
