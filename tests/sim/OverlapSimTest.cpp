//===- tests/sim/OverlapSimTest.cpp ---------------------------*- C++ -*-===//
//
// Differential suite for early sends (DESIGN.md §11): compiling with
// CompilerOptions::EarlySends changes WHEN messages cost time, never
// WHAT they carry. Early-on and early-off runs must produce identical
// final arrays, identical logical counters (messages, words, flops,
// events), identical transport totals under lossy schedules, and
// identical crash/recovery telemetry — while the clean makespan
// strictly improves. Early-on runs must additionally stay bit-identical
// across --sim-threads counts, and SimOptions::EarlySends=false must
// reduce a marked program to exactly the blocking engine.
//
//===----------------------------------------------------------------------===//

#include "SimLegs.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

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

Program stencil() {
  return parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
array Y[N + 1];
for t = 0 to T {
  for i = 1 to N - 1 {
    Y[i] = X[i - 1] + X[i] + X[i + 1];
  }
  for i2 = 1 to N - 1 {
    X[i2] = Y[i2];
  }
}
)");
}

CompileSpec stencilSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 16)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 16)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 16, /*OverlapLo=*/1,
                                        /*OverlapHi=*/1));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 16));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 16));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 16));
  return Spec;
}

CompiledProgram compileLeg(const Program &P, const CompileSpec &Spec,
                           bool Early) {
  CompilerOptions Opts;
  Opts.EarlySends = Early;
  return compile(P, Spec, Opts);
}

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional, unsigned Threads,
                FaultOptions Faults = {},
                CheckpointOptions Checkpoint = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  SO.Threads = Threads;
  return SO;
}

/// What early sends must NOT change: everything but the clocks. Moving
/// latency off the critical path is the whole point, so the makespan,
/// busy time, the recovery time split, the overlap telemetry, the
/// nonblocking-send count and the clocks at which dead processors died
/// are taken from \p A before the bit-identity check.
void expectSameObservables(const RunOut &A, RunOut B,
                           const std::string &Tag) {
  B.R.MakespanSeconds = A.R.MakespanSeconds;
  B.R.PhysBusy = A.R.PhysBusy;
  RecoveryStats &Rc = B.R.Recovery;
  Rc.ComputeSeconds = A.R.Recovery.ComputeSeconds;
  Rc.ProtocolSeconds = A.R.Recovery.ProtocolSeconds;
  Rc.CheckpointSeconds = A.R.Recovery.CheckpointSeconds;
  Rc.RecoverySeconds = A.R.Recovery.RecoverySeconds;
  B.R.Overlap = A.R.Overlap;
  B.R.EarlySends = A.R.EarlySends;
  if (A.R.Diag.DeadProcs.size() == B.R.Diag.DeadProcs.size())
    for (size_t I = 0; I != A.R.Diag.DeadProcs.size(); ++I)
      B.R.Diag.DeadProcs[I].AtTime = A.R.Diag.DeadProcs[I].AtTime;
  expectIdentical(A, B, Tag);
}

} // namespace

TEST(OverlapSim, CompilerMarksSafeSendsNonblocking) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  EXPECT_EQ(Off.Stats.NumEarlySends, 0u);
  EXPECT_GT(On.Stats.NumEarlySends, 0u);
  // The analysis is an annotation pass: same comm plans, same fragments
  // modulo the nonblocking marks.
  EXPECT_EQ(Off.Comms.size(), On.Comms.size());
  // LU's pivot-row broadcasts print as imulticast; plain early sends
  // would print as isend.
  EXPECT_NE(On.Spmd.str().find("imulticast"), std::string::npos);
  EXPECT_EQ(Off.Spmd.str().find("imulticast"), std::string::npos);
  EXPECT_EQ(Off.Spmd.str().find("isend"), std::string::npos);
}

TEST(OverlapSim, CleanLUIdenticalArraysFasterMakespan) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, true, 1), Pv);
  RunOut B = runLeg(P, On, Spec, opts(8, Pv, true, 1), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  // The blocking leg is gold-verified, so observable equality proves
  // the early leg correct too.
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  unsigned Bad = 0, K = 0;
  for (IntT I = 0; I <= 48; ++I)
    for (IntT J = 0; J <= 48; ++J, ++K)
      if (!A.Elems[K] || *A.Elems[K] != Gold.arrayValue(0, {I, J}))
        ++Bad;
  ASSERT_EQ(Bad, 0u);
  expectSameObservables(A, B, "lu clean");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_EQ(A.R.EarlySends, 0u);
  EXPECT_GT(B.R.EarlySends, 0u);
  EXPECT_GT(B.R.Overlap.DeferredSeconds, 0.0);
  EXPECT_GE(B.R.Overlap.hiddenSeconds(), 0.0);
}

TEST(OverlapSim, CleanStencilIdenticalArraysFasterMakespan) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, 1), Pv);
  RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, 1), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  expectSameObservables(A, B, "stencil clean");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_GT(B.R.EarlySends, 0u);
}

TEST(OverlapSim, PerformanceModeMakespanImproves) {
  // Performance mode collapses loops into closed-form costs; the
  // overlap accounting must hold there too (this is the bench path).
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 96}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, false, 1), Pv);
  RunOut B = runLeg(P, On, Spec, opts(8, Pv, false, 1), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  expectSameObservables(A, B, "lu perf");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_GT(B.R.Overlap.DeferredSeconds, 0.0);
}

TEST(OverlapSim, LossyTransportSameTotalsAcrossSeeds) {
  // The fault schedule is keyed by (channel, sequence, attempt) — all
  // unchanged by early issue — so drops, duplicates and retransmission
  // totals must match the blocking engine exactly, per seed.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  for (uint64_t Seed : {1u, 2u, 3u}) {
    FaultOptions F;
    F.Seed = Seed;
    F.DropRate = 0.05;
    F.DupRate = 0.05;
    F.MaxDelaySeconds = 2e-4;
    F.MaxSlowdown = 1.5;
    RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, 1, F), Pv);
    RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, 1, F), Pv);
    ASSERT_TRUE(A.R.Ok) << "seed " << Seed << ": " << A.R.Error;
    ASSERT_TRUE(B.R.Ok) << "seed " << Seed << ": " << B.R.Error;
    ASSERT_GT(A.R.Retransmissions + A.R.DuplicatesSuppressed, 0u)
        << "seed " << Seed << " exercised no transport machinery";
    expectSameObservables(A, B, "lu-fault seed=" + std::to_string(Seed));
    EXPECT_GT(B.R.EarlySends, 0u) << "seed " << Seed;
  }
}

TEST(OverlapSim, EarlyLegsBitIdenticalAcrossThreadCounts) {
  // The NIC clocks are per-physical single-writer state and the overlap
  // telemetry is summed in fixed processor order, so the threaded
  // engine must reproduce every early-send observable bit-for-bit.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut Base = runLeg(P, On, Spec, opts(8, Pv, true, 1), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  ASSERT_GT(Base.R.EarlySends, 0u);
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, On, Spec, opts(8, Pv, true, T), Pv);
    expectIdentical(Base, Leg, "lu-early threads=" + std::to_string(T));
  }
}

TEST(OverlapSim, LossyEarlyLegsBitIdenticalAcrossThreadCounts) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.Seed = 9;
  F.DropRate = 0.08;
  F.DupRate = 0.04;
  F.MaxDelaySeconds = 1e-4;
  RunOut Base = runLeg(P, On, Spec, opts(4, Pv, true, 1, F), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, On, Spec, opts(4, Pv, true, T, F), Pv);
    expectIdentical(Base, Leg,
                    "stencil-early-fault threads=" + std::to_string(T));
  }
}

TEST(OverlapSim, CrashRecoverySameTelemetryAcrossSeeds) {
  // Crash schedules fire on logical steps and checkpoint lines are
  // drawn at step counts; early sends change neither, so the recovery
  // telemetry (and the recovered arrays) must match the blocking run.
  // In-flight early sends replay through the same sequence-number
  // window after rollback.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 64}};
  for (uint64_t CrashSeed : {11u, 22u}) {
    FaultOptions F;
    F.CrashRate = 4e-5;
    F.CrashSeed = CrashSeed;
    CheckpointOptions CK;
    CK.IntervalSteps = 40000;
    RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, 1, F, CK), Pv);
    RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, 1, F, CK), Pv);
    ASSERT_TRUE(A.R.Ok) << "seed " << CrashSeed << ": " << A.R.Error;
    ASSERT_TRUE(B.R.Ok) << "seed " << CrashSeed << ": " << B.R.Error;
    ASSERT_GE(A.R.Crashes, 1u) << "seed " << CrashSeed;
    ASSERT_GE(A.R.Recovery.Rollbacks, 1u) << "seed " << CrashSeed;
    expectSameObservables(A, B,
                          "lu-crash seed=" + std::to_string(CrashSeed));
    for (unsigned T : {2u, 8u}) {
      RunOut Leg = runLeg(P, On, Spec, opts(4, Pv, true, T, F, CK), Pv);
      expectIdentical(B, Leg,
                      "lu-crash-early seed=" + std::to_string(CrashSeed) +
                          " threads=" + std::to_string(T));
    }
  }
}

TEST(OverlapSim, UnrecoverableCrashSameDiagnostics) {
  // No checkpointing: the first crash is terminal. The structured
  // diagnostic (dead processors, stuck receivers, buffered-ahead
  // counts) is built from logical state only and must not change.
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.CrashRate = 2e-3;
  F.CrashSeed = 5;
  RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, 1, F), Pv);
  RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, 1, F), Pv);
  ASSERT_FALSE(A.R.Ok);
  ASSERT_FALSE(B.R.Ok);
  ASSERT_GE(A.R.Crashes, 1u);
  expectSameObservables(A, B, "stencil-dead");
}

TEST(OverlapSim, SimKnobOffReducesToBlockingEngine) {
  // SimOptions::EarlySends=false on a marked program must be
  // bit-identical — clocks included — to running the unmarked program:
  // the runtime knob fully disables the NIC model.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, true, 1), Pv);
  SimOptions SO = opts(8, Pv, true, 1);
  SO.EarlySends = false;
  RunOut B = runLeg(P, On, Spec, SO, Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  expectIdentical(A, B, "early-sim-knob-off");
  EXPECT_EQ(B.R.EarlySends, 0u);
}
