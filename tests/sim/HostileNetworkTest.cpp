//===- tests/sim/HostileNetworkTest.cpp -----------------------*- C++ -*-===//
//
// The three hostile-network fault modes added with the fleet runner:
// payload corruption (checksum + NACK retransmission), transient
// partitions that heal after a seeded outage, and straggler links with
// per-link latency multipliers. Every mode must leave final arrays
// bit-identical to the sequential reference execution, report its
// telemetry, and behave as a pure function of the seed.
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

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                FaultOptions Faults) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = true;
  SO.CollapseLoops = false;
  SO.Faults = Faults;
  return SO;
}

/// Every element of array 0 must equal the sequential reference.
void verifyArray0(const Program &P, Simulator &Sim,
                  const std::map<std::string, IntT> &Params) {
  SeqInterpreter Gold(P, Params);
  Gold.run();
  IntT N = Params.at("N");
  unsigned Bad = 0, Missing = 0;
  for (IntT I = 0; I <= N; ++I)
    for (IntT J = 0; J <= N; ++J) {
      auto Got = Sim.finalValue(0, {I, J});
      if (!Got)
        ++Missing;
      else if (*Got != Gold.arrayValue(0, {I, J}))
        ++Bad;
    }
  EXPECT_EQ(Missing, 0u);
  EXPECT_EQ(Bad, 0u);
}

} // namespace

TEST(HostileNetwork, CorruptionTriggersNacksAndStaysBitExact) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  FaultOptions F;
  F.Seed = 3;
  F.CorruptRate = 0.15;
  Simulator Sim(P, CP, Spec, opts(4, Pv, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.CorruptedPackets, 0u);
  // Every checksum failure produces exactly one NACK, and the sender
  // pays for the extra attempt.
  EXPECT_EQ(R.NacksSent, R.CorruptedPackets);
  EXPECT_GE(R.Retransmissions, R.CorruptedPackets);
  verifyArray0(P, Sim, Pv);
}

TEST(HostileNetwork, PartitionsHealWithinTheRetryBudget) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  FaultOptions F;
  F.Seed = 8;
  F.PartitionRate = 0.08;
  F.PartitionMaxOutage = 3; // within the default 8-retry budget
  Simulator Sim(P, CP, Spec, opts(4, Pv, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.PartitionDrops, 0u);
  EXPECT_GE(R.Retransmissions, R.PartitionDrops);
  verifyArray0(P, Sim, Pv);
}

TEST(HostileNetwork, PartitionBeyondRetryBudgetReportsExhaustion) {
  // An outage longer than the retry budget must surface as a structured
  // retry-exhaustion diagnostic, not a hang or a silent loss.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 16}};
  FaultOptions F;
  F.Seed = 1;
  F.PartitionRate = 1.0; // every packet partitioned...
  F.PartitionMaxOutage = 30;
  F.MaxRetries = 2; // ...for longer than the sender will retry
  Simulator Sim(P, CP, Spec, opts(4, Pv, F));
  SimResult R = Sim.run();
  ASSERT_FALSE(R.Ok);
  EXPECT_FALSE(R.Diag.RetryExhausted.empty());
  EXPECT_GT(R.PartitionDrops, 0u);
}

TEST(HostileNetwork, SlowLinksStretchClocksButNotValuesOrCounts) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  Simulator Clean(P, CP, Spec, opts(4, Pv, FaultOptions()));
  SimResult RC = Clean.run();
  ASSERT_TRUE(RC.Ok) << RC.Error;
  FaultOptions F;
  F.Seed = 2;
  F.SlowLinkRate = 0.5;
  F.SlowLinkMaxFactor = 4.0;
  // Slow links alone do not need the acked transport: delivery is
  // late, never lost.
  ASSERT_FALSE(F.transportActive());
  ASSERT_TRUE(F.faulty());
  Simulator Sim(P, CP, Spec, opts(4, Pv, F));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.SlowLinkMessages, 0u);
  EXPECT_LT(R.SlowLinkMessages, R.Messages); // only seeded links lag
  EXPECT_EQ(R.Messages, RC.Messages);
  EXPECT_EQ(R.Words, RC.Words);
  EXPECT_EQ(R.Flops, RC.Flops);
  EXPECT_GT(R.MakespanSeconds, RC.MakespanSeconds);
  verifyArray0(P, Sim, Pv);
}

TEST(HostileNetwork, LinkFactorsArePureAndBounded) {
  FaultOptions F;
  F.Seed = 42;
  F.SlowLinkRate = 0.5;
  F.SlowLinkMaxFactor = 4.0;
  FaultModel M(F);
  unsigned Slow = 0;
  for (unsigned S = 0; S != 16; ++S)
    for (unsigned D = 0; D != 16; ++D) {
      double F1 = M.linkFactor(S, D);
      EXPECT_EQ(F1, M.linkFactor(S, D)) << "not pure at " << S << "->"
                                        << D;
      EXPECT_GE(F1, 1.0);
      EXPECT_LE(F1, 4.0);
      if (S == D)
        EXPECT_EQ(F1, 1.0) << "self-link must never lag";
      else if (F1 > 1.0)
        ++Slow;
    }
  EXPECT_GT(Slow, 0u);
  // The directed link a->b draws independently of b->a.
  bool Asymmetric = false;
  for (unsigned S = 0; S != 16 && !Asymmetric; ++S)
    for (unsigned D = 0; D != 16 && !Asymmetric; ++D)
      if (M.linkFactor(S, D) != M.linkFactor(D, S))
        Asymmetric = true;
  EXPECT_TRUE(Asymmetric);
}

TEST(HostileNetwork, SameSeedReproducesBitIdenticalRuns) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};
  FaultOptions F;
  F.Seed = 17;
  F.CorruptRate = 0.1;
  F.PartitionRate = 0.05;
  F.SlowLinkRate = 0.4;
  F.SlowLinkMaxFactor = 2.0;
  Simulator A(P, CP, Spec, opts(4, Pv, F));
  SimResult RA = A.run();
  Simulator B(P, CP, Spec, opts(4, Pv, F));
  SimResult RB = B.run();
  ASSERT_TRUE(RA.Ok) << RA.Error;
  EXPECT_EQ(RA, RB);
}

// Fuzz slice: a seed sweep across all three hostile modes mixed with
// classic loss/duplication. Every surviving schedule must verify
// bit-exact against the sequential reference.
TEST(HostileNetworkFuzz, MixedModeSeedSweepStaysBitExact) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    FaultOptions F;
    F.Seed = Seed;
    F.DropRate = 0.03;
    F.DupRate = 0.03;
    F.CorruptRate = 0.06;
    F.PartitionRate = 0.04;
    F.PartitionMaxOutage = 3;
    F.SlowLinkRate = 0.3;
    F.SlowLinkMaxFactor = 2.5;
    Simulator Sim(P, CP, Spec, opts(4, Pv, F));
    SimResult R = Sim.run();
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    EXPECT_GT(R.CorruptedPackets + R.PartitionDrops + R.SlowLinkMessages,
              0u)
        << "seed " << Seed << " exercised nothing";
    verifyArray0(P, Sim, Pv);
  }
}
