//===- tests/sim/ThreadedSimTest.cpp --------------------------*- C++ -*-===//
//
// Differential slice for the threaded simulator engine (DESIGN.md §10):
// LU and the Jacobi stencil pipeline at --sim-threads in {1, 2, 8},
// across clean, lossy-transport and crash/checkpoint schedules. Every
// observable of the SimResult — array contents, cost totals, per-phys
// busy time, transport counters, recovery telemetry, diagnostics — must
// be bit-identical to the sequential engine.
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
  // The Section 2.2.1 overlapped-border layout from the stencil
  // pipeline example: replicated borders, produced values cross later.
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


} // namespace

TEST(ThreadedSim, CleanFunctionalLUMatchesAcrossThreadCounts) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut Base = runLeg(P, CP, Spec, opts(8, Pv, true, 1), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  // The sequential leg itself is gold-verified, so cross-engine
  // equality below implies every threaded leg is correct too.
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  unsigned Bad = 0, K = 0;
  for (IntT I = 0; I <= 48; ++I)
    for (IntT J = 0; J <= 48; ++J, ++K)
      if (!Base.Elems[K] || *Base.Elems[K] != Gold.arrayValue(0, {I, J}))
        ++Bad;
  ASSERT_EQ(Bad, 0u);
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, CP, Spec, opts(8, Pv, true, T), Pv);
    expectIdentical(Base, Leg, "lu threads=" + std::to_string(T));
  }
}

TEST(ThreadedSim, CleanFunctionalStencilMatchesAcrossThreadCounts) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  for (unsigned T : {2u, 8u}) { // 8 clamps to the 4 physical processors
    RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T), Pv);
    expectIdentical(Base, Leg, "stencil threads=" + std::to_string(T));
  }
}

TEST(ThreadedSim, PerformanceModeCostsMatchAcrossThreadCounts) {
  // Performance mode collapses loops into closed-form costs; the
  // threaded engine must reproduce the clocks and counters exactly.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 96}};
  RunOut Base = runLeg(P, CP, Spec, opts(8, Pv, false, 1), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, CP, Spec, opts(8, Pv, false, T), Pv);
    expectIdentical(Base, Leg, "lu-perf threads=" + std::to_string(T));
  }
}

TEST(ThreadedSim, LossyTransportMatchesAcrossThreadCountsAndSeeds) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  for (uint64_t Seed : {1u, 2u, 3u}) {
    FaultOptions F;
    F.Seed = Seed;
    F.DropRate = 0.05;
    F.DupRate = 0.05;
    F.MaxDelaySeconds = 2e-4;
    F.MaxSlowdown = 1.5; // exercise the per-processor slow factors too
    RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1, F), Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << Seed << ": " << Base.R.Error;
    ASSERT_GT(Base.R.Retransmissions + Base.R.DuplicatesSuppressed, 0u)
        << "seed " << Seed << " exercised no transport machinery";
    for (unsigned T : {2u, 8u}) {
      RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T, F), Pv);
      expectIdentical(Base, Leg,
                      "lu-fault seed=" + std::to_string(Seed) +
                          " threads=" + std::to_string(T));
    }
  }
}

TEST(ThreadedSim, LossyTransportStencilMatchesAcrossThreadCounts) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.Seed = 9;
  F.DropRate = 0.08;
  F.DupRate = 0.04;
  F.MaxDelaySeconds = 1e-4;
  RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1, F), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T, F), Pv);
    expectIdentical(Base, Leg,
                    "stencil-fault threads=" + std::to_string(T));
  }
}

TEST(ThreadedSim, HostileModesMatchAcrossThreadCountsAndSeeds) {
  // The corruption / transient-partition / straggler-link modes must be
  // bit-identical across engines: every decision is a pure function of
  // (seed, channel, seq, attempt) or (seed, src phys, dst phys), never
  // of scheduler interleaving.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  for (uint64_t Seed : {4u, 5u}) {
    FaultOptions F;
    F.Seed = Seed;
    F.CorruptRate = 0.08;
    F.PartitionRate = 0.04;
    F.PartitionMaxOutage = 3;
    F.SlowLinkRate = 0.3;
    F.SlowLinkMaxFactor = 3.0;
    F.DropRate = 0.03; // mixed with the classic loss mode
    RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1, F), Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << Seed << ": " << Base.R.Error;
    ASSERT_GT(Base.R.CorruptedPackets, 0u) << "seed " << Seed;
    ASSERT_GT(Base.R.PartitionDrops, 0u) << "seed " << Seed;
    ASSERT_GT(Base.R.SlowLinkMessages, 0u) << "seed " << Seed;
    for (unsigned T : {2u, 8u}) {
      RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T, F), Pv);
      expectIdentical(Base, Leg,
                      "lu-hostile seed=" + std::to_string(Seed) +
                          " threads=" + std::to_string(T));
    }
  }
}

TEST(ThreadedSim, CrashRecoveryMatchesAcrossThreadCountsAndSeeds) {
  // Crash + coordinated checkpoint/rollback: the serialized
  // checkpoint-imminent rounds must draw every line at exactly the
  // sequential statement, so the full recovery telemetry agrees.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 64}};
  for (uint64_t CrashSeed : {11u, 22u}) {
    FaultOptions F;
    F.CrashRate = 4e-5;
    F.CrashSeed = CrashSeed;
    CheckpointOptions CK;
    CK.IntervalSteps = 40000;
    RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1, F, CK), Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << CrashSeed << ": "
                           << Base.R.Error;
    ASSERT_GE(Base.R.Crashes, 1u) << "seed " << CrashSeed;
    ASSERT_GE(Base.R.Recovery.Rollbacks, 1u) << "seed " << CrashSeed;
    for (unsigned T : {2u, 8u}) {
      RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T, F, CK), Pv);
      expectIdentical(Base, Leg,
                      "lu-crash seed=" + std::to_string(CrashSeed) +
                          " threads=" + std::to_string(T));
    }
  }
}

TEST(ThreadedSim, UnrecoverableCrashDiagnosticsMatchAcrossThreads) {
  // No checkpointing: the first crash is terminal and the run ends in a
  // structured diagnostic. The rendered report (dead processors, stuck
  // receivers, buffered-ahead counts) must be identical.
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.CrashRate = 2e-3;
  F.CrashSeed = 5;
  RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1, F), Pv);
  ASSERT_FALSE(Base.R.Ok);
  ASSERT_GE(Base.R.Crashes, 1u);
  for (unsigned T : {2u, 8u}) {
    RunOut Leg = runLeg(P, CP, Spec, opts(4, Pv, true, T, F), Pv);
    expectIdentical(Base, Leg,
                    "stencil-dead threads=" + std::to_string(T));
  }
}

TEST(ThreadedSim, ZeroThreadsPicksHardwareConcurrency) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 3}, {"N", 63}};
  RunOut Base = runLeg(P, CP, Spec, opts(4, Pv, true, 1), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  RunOut Auto = runLeg(P, CP, Spec, opts(4, Pv, true, 0), Pv);
  expectIdentical(Base, Auto, "stencil threads=auto");
}
