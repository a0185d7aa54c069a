//===- tests/sim/EventSimTest.cpp -----------------------------*- C++ -*-===//
//
// Differential slice for the discrete-event simulator engine
// (DESIGN.md §14): LU and the Jacobi stencil pipeline under
// SimEngine::Event must be bit-identical — array contents, cost
// totals, per-phys busy time, transport counters, recovery telemetry,
// diagnostics — to both the sequential and the threaded round-barrier
// engines, across clean, lossy, hostile, crash/checkpoint and durable
// kill/resume schedules. Also pins the integer-overflow regressions of
// the same PR: a saturating checkpoint gate and a non-wrapping
// transport retry budget.
//
//===----------------------------------------------------------------------===//

#include "SimLegs.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"
#include "support/StableStore.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <unistd.h>

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

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional, SimEngine Engine, unsigned Threads = 1,
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
  SO.Engine = Engine;
  return SO;
}


/// Runs the same schedule under the sequential round engine, the event
/// engine, and (optionally) the threaded engine, and requires all legs
/// bit-identical.
void expectEnginesAgree(const Program &P, const CompiledProgram &CP,
                        const CompileSpec &Spec, IntT Procs,
                        const std::map<std::string, IntT> &Pv,
                        bool Functional, FaultOptions F,
                        CheckpointOptions CK, const std::string &Tag,
                        bool AlsoThreaded = true) {
  RunOut Seq = runLeg(
      P, CP, Spec,
      opts(Procs, Pv, Functional, SimEngine::Rounds, 1, F, CK), Pv);
  RunOut Evt = runLeg(
      P, CP, Spec,
      opts(Procs, Pv, Functional, SimEngine::Event, 1, F, CK), Pv);
  expectIdentical(Seq, Evt, Tag + " event-vs-seq");
  if (AlsoThreaded) {
    RunOut Thr = runLeg(
        P, CP, Spec,
        opts(Procs, Pv, Functional, SimEngine::Rounds, 2, F, CK), Pv);
    expectIdentical(Evt, Thr, Tag + " event-vs-threaded");
  }
}

/// A scratch directory deleted (recursively, one level) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/dmcc-event-XXXXXX";
    Path = mkdtemp(Buf);
    EXPECT_FALSE(Path.empty());
  }
  ~TempDir() {
    for (const std::string &F : stable::listFiles(Path, "", ""))
      ::unlink((Path + "/" + F).c_str());
    ::rmdir(Path.c_str());
  }
};

std::vector<uint8_t> slurp(const std::string &Path) {
  std::vector<uint8_t> Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  std::fclose(F);
  return Out;
}

void spit(const std::string &Path, const std::vector<uint8_t> &Data) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fclose(F);
}

/// Copies the first \p Keep checkpoint files of \p From into \p To —
/// the on-disk state a SIGKILL mid-run would have left behind.
unsigned copyPrefix(const std::string &From, const std::string &To,
                    unsigned Keep) {
  std::vector<std::string> Files =
      stable::listFiles(From, "ckpt-", ".dmc");
  unsigned Copied = 0;
  for (const std::string &F : Files) {
    if (Copied == Keep)
      break;
    spit(To + "/" + F, slurp(From + "/" + F));
    ++Copied;
  }
  return Copied;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine differentials
//===----------------------------------------------------------------------===//

TEST(EventSim, CleanFunctionalLUMatchesAllEngines) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  // Anchor the sequential leg against the gold interpreter first, so
  // cross-engine equality below implies the event engine is correct.
  RunOut Base =
      runLeg(P, CP, Spec, opts(8, Pv, true, SimEngine::Rounds), Pv);
  ASSERT_TRUE(Base.R.Ok) << Base.R.Error;
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  unsigned Bad = 0, K = 0;
  for (IntT I = 0; I <= 48; ++I)
    for (IntT J = 0; J <= 48; ++J, ++K)
      if (!Base.Elems[K] || *Base.Elems[K] != Gold.arrayValue(0, {I, J}))
        ++Bad;
  ASSERT_EQ(Bad, 0u);
  expectEnginesAgree(P, CP, Spec, 8, Pv, true, {}, {}, "lu-clean");
}

TEST(EventSim, CleanFunctionalStencilMatchesAllEngines) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  expectEnginesAgree(P, CP, Spec, 4, Pv, true, {}, {}, "stencil-clean");
}

TEST(EventSim, PerformanceModeCostsMatchAllEngines) {
  // Performance mode collapses loops into closed-form costs; the event
  // engine must reproduce the clocks and counters exactly.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 96}};
  expectEnginesAgree(P, CP, Spec, 8, Pv, false, {}, {}, "lu-perf");
}

TEST(EventSim, LossyTransportMatchesAcrossSeeds) {
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
    F.MaxSlowdown = 1.5;
    RunOut Base = runLeg(
        P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F), Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << Seed << ": " << Base.R.Error;
    ASSERT_GT(Base.R.Retransmissions + Base.R.DuplicatesSuppressed, 0u)
        << "seed " << Seed << " exercised no transport machinery";
    expectEnginesAgree(P, CP, Spec, 4, Pv, true, F, {},
                       "lu-fault seed=" + std::to_string(Seed));
  }
}

TEST(EventSim, HostileModesMatchAllEngines) {
  // Corruption / transient-partition / straggler-link decisions are a
  // pure function of identity, never of scheduler interleaving — so the
  // event schedule must reproduce them bit-for-bit.
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
    F.DropRate = 0.03;
    RunOut Base = runLeg(
        P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F), Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << Seed << ": " << Base.R.Error;
    ASSERT_GT(Base.R.CorruptedPackets, 0u) << "seed " << Seed;
    ASSERT_GT(Base.R.PartitionDrops, 0u) << "seed " << Seed;
    ASSERT_GT(Base.R.SlowLinkMessages, 0u) << "seed " << Seed;
    expectEnginesAgree(P, CP, Spec, 4, Pv, true, F, {},
                       "lu-hostile seed=" + std::to_string(Seed));
  }
}

TEST(EventSim, CrashRecoveryMatchesAcrossSeeds) {
  // Crash + coordinated checkpoint/rollback: the event engine's
  // amortized checkpoint gate must cut rounds at exactly the sequential
  // statement, so the full recovery telemetry agrees.
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
    RunOut Base = runLeg(
        P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F, CK),
        Pv);
    ASSERT_TRUE(Base.R.Ok) << "seed " << CrashSeed << ": "
                           << Base.R.Error;
    ASSERT_GE(Base.R.Crashes, 1u) << "seed " << CrashSeed;
    ASSERT_GE(Base.R.Recovery.Rollbacks, 1u) << "seed " << CrashSeed;
    expectEnginesAgree(P, CP, Spec, 4, Pv, true, F, CK,
                       "lu-crash seed=" + std::to_string(CrashSeed));
  }
}

TEST(EventSim, UnrecoverableCrashDiagnosticsMatchAllEngines) {
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
  RunOut Base = runLeg(
      P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F), Pv);
  ASSERT_FALSE(Base.R.Ok);
  ASSERT_GE(Base.R.Crashes, 1u);
  expectEnginesAgree(P, CP, Spec, 4, Pv, true, F, {}, "stencil-dead");
}

//===----------------------------------------------------------------------===//
// Durable kill/resume under the event engine
//===----------------------------------------------------------------------===//

TEST(EventSim, DurableKillResumeIsBitIdentical) {
  // Run the schedule durably to completion under the event engine, keep
  // only a prefix of the images (the kill), resume — and require the
  // resumed run bit-identical both to the uninterrupted event run and
  // to the uninterrupted sequential run.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.CrashRate = 1e-3;
  F.CrashSeed = 7;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;

  RunOut Seq = runLeg(
      P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F, CK), Pv);
  ASSERT_TRUE(Seq.R.Ok) << Seq.R.Error;

  TempDir Ref, Cut;
  CK.DurableDir = Ref.Path;
  RunOut Full = runLeg(
      P, CP, Spec, opts(4, Pv, true, SimEngine::Event, 1, F, CK), Pv);
  ASSERT_TRUE(Full.R.Ok) << Full.R.Error;
  expectIdentical(Seq, Full, "event-durable vs sequential");

  unsigned Files = stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
  ASSERT_GE(Files, 4u) << "schedule too short to cut";
  ASSERT_EQ(copyPrefix(Ref.Path, Cut.Path, Files / 2), Files / 2);

  CK.DurableDir = Cut.Path;
  CK.Resume = true;
  Simulator Res(P, CP, Spec,
                opts(4, Pv, true, SimEngine::Event, 1, F, CK));
  RunOut RRes;
  RRes.R = Res.run();
  ASSERT_TRUE(RRes.R.Ok) << RRes.R.Error;
  const DurableResumeInfo &RI = Res.resumeInfo();
  EXPECT_TRUE(RI.Attempted);
  EXPECT_TRUE(RI.Resumed);
  EXPECT_GT(RI.ResumedAtEvents, 0u);
  EXPECT_EQ(RI.CorruptSkipped, 0u);
  RRes.Elems = finalElems(P, Spec, Res, Pv);
  expectIdentical(Full, RRes, "event kill/resume");
}

//===----------------------------------------------------------------------===//
// Integer-overflow regressions (satellite fixes of the same PR)
//===----------------------------------------------------------------------===//

TEST(EventSim, HugeCheckpointIntervalSaturatesInsteadOfWrapping) {
  // Regression: `Events + IntervalSteps` used to wrap for a near-2^64
  // interval, making every round look checkpoint-imminent — the run
  // livelocked taking checkpoints forever. The saturating gate must
  // behave exactly like "checkpointing armed but never due".
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};
  CheckpointOptions CK;
  CK.IntervalSteps = UINT64_MAX;
  for (SimEngine Eng : {SimEngine::Rounds, SimEngine::Event}) {
    RunOut Leg =
        runLeg(P, CP, Spec, opts(4, Pv, true, Eng, 1, {}, CK), Pv);
    ASSERT_TRUE(Leg.R.Ok) << Leg.R.Error;
    // Only the initial checkpoint is taken; the interval never elapses.
    EXPECT_EQ(Leg.R.Recovery.CheckpointsTaken, 1u);
    EXPECT_EQ(Leg.R.Recovery.Rollbacks, 0u);
  }
}

TEST(EventSim, MaxRetriesUintMaxDoesNotWrapTheAttemptBudget) {
  // Regression: `MaxRetries + 1` wrapped to 0 at UINT_MAX, so the
  // attempt loop never ran — packets silently vanished and the
  // retransmission counter underflowed (Made - 1 at Made == 0). An
  // unbounded budget must behave identically to a budget large enough
  // for the schedule.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  FaultOptions F;
  F.Seed = 2;
  F.DropRate = 0.1;
  F.MaxRetries = 8;
  RunOut Bounded = runLeg(
      P, CP, Spec, opts(4, Pv, true, SimEngine::Rounds, 1, F), Pv);
  ASSERT_TRUE(Bounded.R.Ok) << Bounded.R.Error;
  ASSERT_GT(Bounded.R.Retransmissions, 0u);
  EXPECT_LT(Bounded.R.Retransmissions, 1u << 20)
      << "retransmission counter wrapped";
  F.MaxRetries = UINT_MAX;
  for (SimEngine Eng : {SimEngine::Rounds, SimEngine::Event}) {
    RunOut Unbounded =
        runLeg(P, CP, Spec, opts(4, Pv, true, Eng, 1, F), Pv);
    expectIdentical(Bounded, Unbounded, "max-retries=UINT_MAX");
  }
}
