//===- tests/sim/FaultInjectionTest.cpp -----------------------*- C++ -*-===//
//
// The fault-injection harness and reliable transport: deterministic
// seed-driven schedules, bit-exact functional verification under drops,
// duplicates, delays and slowdowns, structured diagnostics on retry
// exhaustion and deadlock, and a provably untouched zero-fault path.
//
//===----------------------------------------------------------------------===//

#include "SimLegs.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

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
                bool Functional, FaultOptions Faults = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = Faults;
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

TEST(FaultInjectionTest, SameSeedIdenticalResult) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 1234;
  F.DropRate = 0.15;
  F.DupRate = 0.05;
  F.MaxDelaySeconds = 300e-6;
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  SimResult A = Simulator(P, CP, Spec, opts(4, Pv, true, F)).run();
  SimResult B = Simulator(P, CP, Spec, opts(4, Pv, true, F)).run();
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A, B);
  EXPECT_GT(A.Retransmissions, 0u); // faults actually occurred
}

TEST(FaultInjectionTest, DifferentSeedsDifferentSchedule) {
  FaultOptions F;
  F.DropRate = 0.3;
  F.Seed = 1;
  FaultModel M1(F);
  F.Seed = 2;
  FaultModel M2(F);
  uint64_t Chan = FaultModel::channelId(0, {0}, {1});
  bool Differ = false;
  for (uint64_t Seq = 0; Seq != 256 && !Differ; ++Seq)
    Differ = M1.dropData(Chan, Seq, 0) != M2.dropData(Chan, Seq, 0);
  EXPECT_TRUE(Differ);
}

TEST(FaultInjectionTest, ScheduleIndependentOfQueryOrder) {
  FaultOptions F;
  F.DropRate = 0.5;
  F.Seed = 99;
  FaultModel M(F);
  uint64_t Chan = FaultModel::channelId(3, {1, 2}, {0, 1});
  bool Forward[32], Backward[32];
  for (unsigned I = 0; I != 32; ++I)
    Forward[I] = M.dropData(Chan, I, 0);
  for (unsigned I = 32; I-- > 0;)
    Backward[I] = M.dropData(Chan, I, 0);
  for (unsigned I = 0; I != 32; ++I)
    EXPECT_EQ(Forward[I], Backward[I]);
}

TEST(FaultInjectionTest, ShiftVerifiesUnderTenPercentDrop) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.1;
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(FaultInjectionTest, LUVerifiesUnderTenPercentDrop) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.1;
  std::map<std::string, IntT> Pv = {{"N", 24}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Retransmissions, 0u);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(FaultInjectionTest, DuplicatesAreSuppressed) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 7;
  F.DupRate = 0.5;
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.DuplicatesSuppressed, 0u);
  EXPECT_EQ(R.Retransmissions, 0u); // no drops: no retries needed
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(FaultInjectionTest, DelayedDeliveryStillVerifies) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 11;
  F.MaxDelaySeconds = 2e-3; // far beyond the retry timeout
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(FaultInjectionTest, RetryExhaustionYieldsStructuredDiagnostic) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  FaultOptions F;
  F.Seed = 5;
  F.DropRate = 1.0; // every transmission lost
  F.MaxRetries = 2;
  SimResult R = Simulator(P, CP, Spec,
                          opts(2, {{"T", 2}, {"N", 63}}, true, F))
                    .run();
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.Diag.RetryExhausted.empty());
  EXPECT_EQ(R.Diag.RetryExhausted.front().Attempts, 3u); // 1 + 2 retries
  ASSERT_FALSE(R.Diag.StuckProcs.empty());
  EXPECT_NE(R.Error.find("retry exhausted"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos) << R.Error;
}

TEST(FaultInjectionTest, DeadlockDiagnosticNamesStuckProcessors) {
  // Non-fault deadlock (sabotaged peer) must also produce the structured
  // report: which processors, which channel, which peer.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::function<void(std::vector<SpmdStmt> &)> Break =
      [&](std::vector<SpmdStmt> &Stmts) {
        for (SpmdStmt &S : Stmts) {
          if (S.K == SpmdStmt::Kind::Recv)
            for (AffineExpr &E : S.Peer)
              E = E.plusConst(1000);
          Break(S.Body);
        }
      };
  Break(CP.Spmd.Top);
  SimResult R =
      Simulator(P, CP, Spec, opts(2, {{"T", 2}, {"N", 63}}, false)).run();
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.Diag.StuckProcs.empty());
  const PendingRecv &Pr = R.Diag.StuckProcs.front();
  EXPECT_FALSE(Pr.Coord.empty());
  EXPECT_FALSE(Pr.Peer.empty());
  // The rendering names the stuck processor's coordinate.
  std::string Name = "vp(" + std::to_string(Pr.Coord[0]) + ")";
  EXPECT_NE(R.Error.find(Name), std::string::npos) << R.Error;
  EXPECT_GT(R.Diag.TotalProcs, 0u);
}

TEST(FaultInjectionTest, ZeroFaultPathIsBitExact) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  SimResult Base = Simulator(P, CP, Spec, opts(4, Pv, false)).run();
  FaultOptions F; // all defaults: transport bypassed
  F.Seed = 77;    // an unused seed must change nothing
  SimResult Same = Simulator(P, CP, Spec, opts(4, Pv, false, F)).run();
  ASSERT_TRUE(Base.Ok && Same.Ok);
  EXPECT_EQ(Base, Same);
  EXPECT_EQ(Same.Retransmissions, 0u);
  EXPECT_EQ(Same.AcksSent, 0u);
  EXPECT_EQ(Same.DuplicatesSuppressed, 0u);
  EXPECT_EQ(Same.DroppedPackets, 0u);
}

TEST(FaultInjectionTest, DropsInflateMakespan) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  FaultOptions Reliable;
  Reliable.AlwaysReliable = true; // protocol overhead only
  FaultOptions Lossy = Reliable;
  Lossy.Seed = 42;
  Lossy.DropRate = 0.2;
  SimResult R0 =
      Simulator(P, CP, Spec, opts(4, Pv, true, Reliable)).run();
  SimResult R1 = Simulator(P, CP, Spec, opts(4, Pv, true, Lossy)).run();
  ASSERT_TRUE(R0.Ok && R1.Ok) << R0.Error << R1.Error;
  EXPECT_EQ(R0.Retransmissions, 0u);
  EXPECT_GT(R1.Retransmissions, 0u);
  EXPECT_GT(R1.MakespanSeconds, R0.MakespanSeconds);
  // Counters stay logical: the same app-level messages flow.
  EXPECT_EQ(R0.Messages, R1.Messages);
  EXPECT_EQ(R0.Words, R1.Words);
}

TEST(FaultInjectionTest, IntraPhysicalChannelsSequencedUnderTransport) {
  // Regression: messages between virtual processors folded onto the
  // same physical processor bypass the lossy network, but the receive
  // path still matches sequence numbers whenever the transport is
  // active. They must therefore be sequenced too, or the second message
  // on an intra-physical channel never matches and the run deadlocks.
  Program P = parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 16 to N {
    X[i] = X[i - 16];
  }
}
)");
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 4));
  CompiledProgram CP = compile(P, Spec);
  // 16 virtual processors on 4 physical: the distance-16 shift crosses
  // exactly 4 virtual processors, so every message is intra-physical.
  FaultOptions F;
  F.Seed = 21;
  F.DropRate = 0.05;
  std::map<std::string, IntT> Pv = {{"T", 3}, {"N", 63}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.IntraMessages, 0u);
  EXPECT_EQ(verifyArray0(P, Sim, Pv), 0u);
}

TEST(FaultInjectionTest, SlowdownInflatesMakespanOnly) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 4}, {"N", 127}};
  SimResult Base = Simulator(P, CP, Spec, opts(4, Pv, false)).run();
  FaultOptions F;
  F.Seed = 3;
  F.MaxSlowdown = 4.0;
  SimResult Slow = Simulator(P, CP, Spec, opts(4, Pv, false, F)).run();
  ASSERT_TRUE(Base.Ok && Slow.Ok);
  EXPECT_GT(Slow.MakespanSeconds, Base.MakespanSeconds);
  // A compute slowdown neither drops nor retransmits anything.
  EXPECT_EQ(Slow.Retransmissions, 0u);
  EXPECT_EQ(Slow.Messages, Base.Messages);
  EXPECT_EQ(Slow.Words, Base.Words);
  EXPECT_EQ(Slow.Flops, Base.Flops);
}
