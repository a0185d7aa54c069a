//===- tests/sim/CrashRecoveryTest.cpp ------------------------*- C++ -*-===//
//
// Crash-stop processor failures and the coordinated checkpoint/restart
// protocol: deterministic crash schedules, bit-exact recovery of LU
// under multiple crash seeds, structured diagnostics for unrecoverable
// schedules, rewound logical counters, and a zero-overhead default.
//
//===----------------------------------------------------------------------===//

#include "SimLegs.h"
#include "core/SpecParser.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace dmcc;

namespace {

Program shift() {
  return parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 3 to N {
    X[i] = X[i - 3];
  }
}
)");
}

CompileSpec shiftSpec(const Program &P, IntT Block) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, Block)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, Block));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, Block));
  return Spec;
}

Program lu() {
  return parseProgramOrDie(R"(
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
}

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional, FaultOptions Faults = {},
                CheckpointOptions Checkpoint = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  return SO;
}

/// Checks every element of the final layout of array 0 against the
/// sequential interpreter; returns the number of mismatches/missing.
unsigned verifyArray0(const Program &P, Simulator &Sim,
                      const std::map<std::string, IntT> &Params) {
  SeqInterpreter Gold(P, Params);
  Gold.run();
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  std::vector<IntT> Sizes;
  for (const AffineExpr &D : P.array(0).DimSizes)
    Sizes.push_back(D.evaluate(Env));
  unsigned Bad = 0;
  std::vector<IntT> Idx(Sizes.size(), 0);
  bool Done = false;
  while (!Done) {
    auto Got = Sim.finalValue(0, Idx);
    if (!Got || *Got != Gold.arrayValue(0, Idx))
      ++Bad;
    for (unsigned K = Idx.size(); K-- > 0;) {
      if (++Idx[K] < Sizes[K])
        break;
      Idx[K] = 0;
      if (K == 0)
        Done = true;
    }
  }
  return Bad;
}

} // namespace

TEST(CrashRecoveryTest, CrashScheduleIsDeterministicAndSeedDriven) {
  FaultOptions F;
  F.CrashRate = 0.01;
  F.CrashSeed = 7;
  FaultModel A(F), B(F);
  F.CrashSeed = 8;
  FaultModel C(F);
  bool AnyHit = false, Differ = false;
  for (unsigned Vp = 0; Vp != 8; ++Vp)
    for (uint64_t Step = 0; Step != 512; ++Step) {
      EXPECT_EQ(A.crashAt(Vp, Step), B.crashAt(Vp, Step));
      AnyHit = AnyHit || A.crashAt(Vp, Step);
      Differ = Differ || A.crashAt(Vp, Step) != C.crashAt(Vp, Step);
    }
  EXPECT_TRUE(AnyHit);
  EXPECT_TRUE(Differ);
  // Independent of the network-fault seed.
  F.CrashSeed = 7;
  F.Seed = 999;
  FaultModel D(F);
  for (unsigned Vp = 0; Vp != 8; ++Vp)
    for (uint64_t Step = 0; Step != 128; ++Step)
      EXPECT_EQ(A.crashAt(Vp, Step), D.crashAt(Vp, Step));
}

// The tentpole acceptance test: LU at N=64 on 4 physical processors,
// five distinct crash seeds, each killing at least one virtual
// processor mid-run; every run must recover via rollback/replay and
// match the sequential interpreter bit-exact.
TEST(CrashRecoveryTest, LURecoversBitExactUnderFiveCrashSeeds) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 64}};
  for (uint64_t CrashSeed : {11u, 22u, 33u, 44u, 55u}) {
    FaultOptions F;
    F.CrashRate = 4e-5;
    F.CrashSeed = CrashSeed;
    CheckpointOptions CK;
    CK.IntervalSteps = 40000;
    Simulator Sim(P, CP, Spec, opts(4, Pv, true, F, CK));
    SimResult R = Sim.run();
    ASSERT_TRUE(R.Ok) << "seed " << CrashSeed << ": " << R.Error;
    EXPECT_GE(R.Crashes, 1u) << "seed " << CrashSeed;
    EXPECT_GE(R.Recovery.Rollbacks, 1u) << "seed " << CrashSeed;
    EXPECT_GT(R.Recovery.CheckpointsTaken, 0u);
    EXPECT_GT(R.Recovery.ReplayedSteps, 0u);
    EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u) << "seed " << CrashSeed;
  }
}

TEST(CrashRecoveryTest, RecoveredRunRewindsLogicalCounters) {
  // A recovered run must report the same logical traffic and arithmetic
  // as a fault-free one: rollbacks rewind Messages/Words/Flops, while
  // the wire-level overhead stays visible in the monotonic counters and
  // the recovery telemetry.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 6}, {"N", 127}};
  SimResult Base = Simulator(P, CP, Spec, opts(4, Pv, true)).run();
  ASSERT_TRUE(Base.Ok) << Base.Error;

  FaultOptions F;
  F.CrashRate = 2e-3;
  F.CrashSeed = 3;
  CheckpointOptions CK;
  CK.IntervalSteps = 400;
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F, CK));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GE(R.Recovery.Rollbacks, 1u);
  EXPECT_EQ(R.Messages, Base.Messages);
  EXPECT_EQ(R.Words, Base.Words);
  EXPECT_EQ(R.Flops, Base.Flops);
  EXPECT_EQ(R.ComputeIterations, Base.ComputeIterations);
  EXPECT_GT(R.Recovery.RecoverySeconds, 0.0);
  EXPECT_GT(R.MakespanSeconds, Base.MakespanSeconds);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(CrashRecoveryTest, UnrecoverableCrashYieldsStructuredDiagnostic) {
  // Checkpointing disabled: the first crash is permanent. The run must
  // end in a structured diagnostic naming the dead processor and the
  // (absent) rollback line — never a hang.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.CrashRate = 5e-4;
  F.CrashSeed = 1;
  SimResult R =
      Simulator(P, CP, Spec, opts(4, {{"T", 6}, {"N", 127}}, true, F))
          .run();
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.Diag.DeadProcs.empty());
  EXPECT_GE(R.Crashes, 1u);
  EXPECT_EQ(R.Recovery.Rollbacks, 0u);
  EXPECT_FALSE(R.Diag.RecoveryEnabled);
  const CrashEvent &C = R.Diag.DeadProcs.front();
  std::string Name = "vp(" + std::to_string(C.Coord[0]) + ")";
  EXPECT_NE(R.Error.find("crash-stop failure"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("dead: " + Name), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("rollback line: none"), std::string::npos)
      << R.Error;
}

TEST(CrashRecoveryTest, PeerDeathIsMarkedOnStuckReceivers) {
  // In the shift stencil every processor receives from its left
  // neighbor each time step, so a dead processor leaves its direct
  // neighbor blocked on it: the diagnostic must mark that receive as
  // waiting on a crashed peer.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.CrashRate = 5e-4;
  F.CrashSeed = 1;
  SimResult R =
      Simulator(P, CP, Spec, opts(4, {{"T", 6}, {"N", 127}}, true, F))
          .run();
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.Diag.DeadProcs.empty());
  ASSERT_FALSE(R.Diag.StuckProcs.empty());
  bool AnyPeerDead = std::any_of(
      R.Diag.StuckProcs.begin(), R.Diag.StuckProcs.end(),
      [](const PendingRecv &Pr) { return Pr.PeerDead; });
  EXPECT_TRUE(AnyPeerDead);
  EXPECT_NE(R.Error.find("(peer crashed)"), std::string::npos)
      << R.Error;
}

TEST(CrashRecoveryTest, RollbackBudgetExhaustionNamesTheLine) {
  // Recovery enabled but the budget is too small for the schedule: the
  // diagnostic must name the rollback line instead of thrashing.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.CrashRate = 5e-4;
  F.CrashSeed = 1;
  CheckpointOptions CK;
  CK.IntervalSteps = 500;
  CK.MaxRollbacks = 0;
  SimResult R = Simulator(P, CP, Spec,
                          opts(4, {{"T", 6}, {"N", 127}}, true, F, CK))
                    .run();
  ASSERT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diag.RecoveryEnabled);
  EXPECT_TRUE(R.Diag.HasRollbackLine);
  EXPECT_NE(R.Error.find("rollback line: global step"),
            std::string::npos)
      << R.Error;
}

TEST(CrashRecoveryTest, PartialRecoveryThenBudgetExhaustionIsNamed) {
  // The budget exhausts AFTER real recoveries, not only at zero: find a
  // schedule needing R >= 2 rollbacks, grant it R - 1, and require the
  // structured diagnostic to report exactly R - 1 performed before the
  // budget bit the run.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  uint64_t NeededRollbacks = 0, ChosenSeed = 0;
  for (uint64_t Seed : {7u, 9u, 13u, 21u, 35u}) {
    FaultOptions F;
    F.CrashRate = 4e-4;
    F.CrashSeed = Seed;
    CheckpointOptions CK;
    CK.IntervalSteps = 4000;
    SimResult R =
        Simulator(P, CP, Spec, opts(4, Pv, true, F, CK)).run();
    if (R.Ok && R.Recovery.Rollbacks >= 2) {
      NeededRollbacks = R.Recovery.Rollbacks;
      ChosenSeed = Seed;
      break;
    }
  }
  ASSERT_GE(NeededRollbacks, 2u)
      << "no candidate seed produced a multi-rollback schedule";

  FaultOptions F;
  F.CrashRate = 4e-4;
  F.CrashSeed = ChosenSeed;
  CheckpointOptions CK;
  CK.IntervalSteps = 4000;
  CK.MaxRollbacks = static_cast<unsigned>(NeededRollbacks - 1);
  SimResult R = Simulator(P, CP, Spec, opts(4, Pv, true, F, CK)).run();
  ASSERT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diag.RecoveryEnabled);
  EXPECT_TRUE(R.Diag.HasRollbackLine);
  EXPECT_EQ(R.Diag.RollbacksDone, NeededRollbacks - 1);
  EXPECT_EQ(R.Recovery.Rollbacks, NeededRollbacks - 1);
  EXPECT_NE(R.Error.find("rollback budget exhausted"),
            std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find(std::to_string(NeededRollbacks - 1) +
                         " rollback(s) performed"),
            std::string::npos)
      << R.Error;
}

TEST(CrashRecoveryTest, IntervalBeyondRunLengthRollsBackToStepZero) {
  // A checkpoint interval larger than the whole run's event count:
  // only the free initial snapshot exists, so every recovery replays
  // from the very beginning — and must still end bit-exact.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};
  // Baseline with the transport engaged (crash rates engage it in the
  // recovery run, and the transport unicasts multicast traffic, which
  // changes the logical message count) but nothing failing.
  FaultOptions Reliable;
  Reliable.AlwaysReliable = true;
  SimResult Clean =
      Simulator(P, CP, Spec, opts(4, Pv, true, Reliable)).run();
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  FaultOptions F;
  F.CrashRate = 8e-4;
  F.CrashSeed = 11;
  CheckpointOptions CK;
  CK.IntervalSteps = Clean.TotalEvents * 10; // never fires mid-run
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F, CK));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Recovery.CheckpointsTaken, 1u); // the initial one only
  ASSERT_GE(R.Recovery.Rollbacks, 1u);
  // Rolling back to the initial snapshot replays everything executed
  // before the crash: at least one full pre-crash prefix re-runs.
  EXPECT_GT(R.Recovery.ReplayedSteps, 0u);
  EXPECT_EQ(R.Messages, Clean.Messages);
  EXPECT_EQ(R.Words, Clean.Words);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(CrashRecoveryTest, SameCrashSeedIdenticalRecovery) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  FaultOptions F;
  F.CrashRate = 2e-4;
  F.CrashSeed = 9;
  CheckpointOptions CK;
  CK.IntervalSteps = 5000;
  SimResult A = Simulator(P, CP, Spec, opts(4, Pv, true, F, CK)).run();
  SimResult B = Simulator(P, CP, Spec, opts(4, Pv, true, F, CK)).run();
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A, B);
}

TEST(CrashRecoveryTest, CrashesCombineWithPacketLoss) {
  // Crash-stop recovery on top of a lossy network: drops, duplicated
  // packets and rollback replay all in play, still bit-exact.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.DupRate = 0.02;
  F.CrashRate = 2e-4;
  F.CrashSeed = 9;
  CheckpointOptions CK;
  CK.IntervalSteps = 5000;
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F, CK));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.Crashes, 1u);
  EXPECT_GT(R.Retransmissions, 0u);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(CrashRecoveryTest, CheckpointOnlyOverheadIsAccounted) {
  // Checkpointing with no crashes: snapshots cost time, nothing rolls
  // back, results stay bit-exact, and the telemetry separates the
  // checkpoint share from compute and protocol.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 6}, {"N", 127}};
  SimResult Base = Simulator(P, CP, Spec, opts(4, Pv, true)).run();
  ASSERT_TRUE(Base.Ok) << Base.Error;
  CheckpointOptions CK;
  CK.IntervalSteps = 400;
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, {}, CK));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.Recovery.CheckpointsTaken, 2u); // initial + >= 1 periodic
  EXPECT_GT(R.Recovery.CheckpointBytes, 0u);
  EXPECT_EQ(R.Crashes, 0u);
  EXPECT_EQ(R.Recovery.Rollbacks, 0u);
  EXPECT_EQ(R.Recovery.RecoverySeconds, 0.0);
  EXPECT_GT(R.Recovery.CheckpointSeconds, 0.0);
  EXPECT_GT(R.Recovery.ComputeSeconds, 0.0);
  EXPECT_GT(R.MakespanSeconds, Base.MakespanSeconds);
  // Logical traffic untouched by checkpointing.
  EXPECT_EQ(R.Messages, Base.Messages);
  EXPECT_EQ(R.Words, Base.Words);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(CrashRecoveryTest, CheckpointFootprintCountsHeldElements) {
  // Functional Cholesky under packet loss and one crash schedule. Each
  // checkpoint charges every processor's held array elements (plus
  // environments, frames and buffers) to CheckpointBytes and to the
  // simulated checkpoint time, so both pin the store's notion of size:
  // held elements, never storage slots. The values were recorded with
  // the map-based store that preceded the dense windows, and re-recorded
  // each time context simplification removed statements from the
  // generated code: checkpoint intervals and crash points count executed
  // statements, so fewer checkpoints fall in the run and the crashes
  // land elsewhere.
  SpecParseOutput SP = parseWithSpec(R"(
param N = 24;
array A[N + 1][N + 1];
decompose A cyclic(0);
for k = 0 to N {
  for i = k + 1 to N {
    A[i][k] = A[i][k] / A[k][k];
  }
  for j = k + 1 to N {
    for i2 = j to N {
      A[i2][j] = A[i2][j] - A[i2][k] * A[j][k];
    }
  }
}
)");
  ASSERT_TRUE(SP.ok()) << SP.Error;
  const Program &P = *SP.Prog;
  CompiledProgram CP = compile(P, SP.Spec);
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;
  FaultOptions F;
  F.Seed = 5;
  F.DropRate = 0.01;
  F.CrashRate = 1e-4;
  F.CrashSeed = 1;
  CheckpointOptions CK;
  CK.IntervalSteps = 2000;
  Simulator Sim(P, CP, SP.Spec, opts(8, SP.ParamDefaults, true, F, CK));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Crashes, 1u);
  EXPECT_EQ(R.Recovery.Rollbacks, 1u);
  EXPECT_EQ(R.Recovery.CheckpointsTaken, 7u);
  EXPECT_EQ(R.Recovery.CheckpointBytes, 255384u);
  EXPECT_EQ(R.MakespanSeconds, 0.099739825000000393);
  EXPECT_EQ(verifyArray0(P, Sim, SP.ParamDefaults), 0u);
}

TEST(CrashRecoveryTest, DefaultPathReportsNoRecoveryTelemetry) {
  // With --crash-rate 0 and checkpointing off the new layer must be
  // invisible: identical costs, all recovery telemetry zero.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  SimResult R = Simulator(P, CP, Spec, opts(4, Pv, false)).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Recovery.CheckpointsTaken, 0u);
  EXPECT_EQ(R.Recovery.CheckpointBytes, 0u);
  EXPECT_EQ(R.Crashes, 0u);
  EXPECT_EQ(R.Recovery.Rollbacks, 0u);
  EXPECT_EQ(R.Recovery.ReplayedSteps, 0u);
  EXPECT_EQ(R.Recovery.CheckpointSeconds, 0.0);
  EXPECT_EQ(R.Recovery.RecoverySeconds, 0.0);
  // The busy split still covers the makespan's work.
  EXPECT_GT(R.Recovery.ComputeSeconds, 0.0);
}
