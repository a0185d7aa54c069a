//===- tests/sim/FleetTest.cpp --------------------------------*- C++ -*-===//
//
// Tests for the scenario fleet runner (DESIGN.md §12): every scenario
// gets the verdict its run earns, surviving scenarios hash
// bit-identical to the clean sequential run, the outcomes do not
// depend on the worker count, and the resume journal restores verdicts
// without re-running them.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Fleet.h"
#include "support/StableStore.h"
#include "support/WorkPool.h"

#include <atomic>
#include <cstdio>
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

/// A small test fixture owning one compiled LU instance.
struct FleetEnv {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Params = {{"N", 16}};

  Fleet make(FleetOptions FO) {
    return Fleet(P, CP, Spec, Params, /*Procs=*/4, FO);
  }
};

/// One clean scenario with the given index and fault seed.
FleetScenario cleanScn(unsigned Index, uint64_t Seed = 1) {
  FleetScenario S;
  S.Index = Index;
  S.Faults.Seed = Seed;
  return S;
}

/// A journal path in /tmp removed on destruction.
struct TempJournal {
  std::string Path;
  TempJournal() {
    char Buf[] = "/tmp/dmcc-fleet-journal-XXXXXX";
    int Fd = mkstemp(Buf);
    EXPECT_GE(Fd, 0);
    if (Fd >= 0)
      ::close(Fd);
    ::unlink(Buf); // run() recreates it; keep only the unique name
    Path = Buf;
  }
  ~TempJournal() { ::unlink(Path.c_str()); }
};

/// Compares two reports field by field (ElapsedSeconds is wall-clock and
/// legitimately differs).
void expectSameOutcomes(const FleetReport &A, const FleetReport &B) {
  EXPECT_EQ(A.GoldenHash, B.GoldenHash);
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size());
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    EXPECT_EQ(A.Outcomes[I].Status, B.Outcomes[I].Status) << I;
    EXPECT_EQ(A.Outcomes[I].MakespanSeconds,
              B.Outcomes[I].MakespanSeconds)
        << I;
    EXPECT_EQ(A.Outcomes[I].Retransmissions,
              B.Outcomes[I].Retransmissions)
        << I;
    EXPECT_EQ(A.Outcomes[I].Crashes, B.Outcomes[I].Crashes) << I;
    EXPECT_EQ(A.Outcomes[I].Rollbacks, B.Outcomes[I].Rollbacks) << I;
    EXPECT_EQ(A.Outcomes[I].ResultHash, B.Outcomes[I].ResultHash) << I;
    EXPECT_EQ(A.Outcomes[I].Error, B.Outcomes[I].Error) << I;
  }
}

/// A scenario whose transport deterministically gives up: a partition
/// outlasts the retry budget.
FleetScenario exhaustedScn(unsigned Index) {
  FleetScenario S = cleanScn(Index);
  S.Faults.PartitionRate = 1.0;
  S.Faults.PartitionMaxOutage = 30;
  S.Faults.MaxRetries = 2;
  return S;
}

/// Number of verdict records per scenario index in the journal at
/// \p Path.
std::map<uint32_t, unsigned> verdictFrames(const std::string &Path) {
  std::map<uint32_t, unsigned> N;
  constexpr uint32_t VerdictType = 0x464C5644u; // "FLVD"
  for (const stable::Frame &Fr : stable::readFrames(Path).Frames)
    if (Fr.Type == VerdictType)
      ++N[stable::ByteReader(Fr.Payload).u32()];
  return N;
}

} // namespace

TEST(Fleet, DeterministicSimFailuresAreTerminalWithoutRetry) {
  // A transport that gives up (partition beyond the retry budget) is a
  // deterministic property of the scenario: it is classified as
  // transport-exhausted, with the simulator's diagnostic as the reason.
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 1;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({exhaustedScn(0)});
  ASSERT_EQ(Rep.Outcomes.size(), 1u);
  EXPECT_EQ(Rep.Outcomes[0].Status, ScenarioStatus::TransportExhausted);
  EXPECT_FALSE(Rep.Outcomes[0].Error.empty());
}

TEST(Fleet, MatrixIsFullyAccountedAndBitExactUnderHostileFaults) {
  // A 12-scenario matrix mixing every hostile mode and both thread
  // counts: every scenario must get a verdict and every survivor must
  // hash identical to the clean sequential run.
  FleetEnv E;
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2, 3};
  MS.CheckpointIntervals = {0, 4096};
  MS.ThreadCounts = {1, 2};
  MS.Base.DropRate = 0.04;
  MS.Base.CorruptRate = 0.05;
  MS.Base.PartitionRate = 0.03;
  MS.Base.SlowLinkRate = 0.3;
  MS.Base.SlowLinkMaxFactor = 2.0;
  MS.Base.CrashRate = 5e-4;
  MS.Base.CrashSeed = 7;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  ASSERT_EQ(Matrix.size(), 12u);
  // Cells without checkpointing must have been scrubbed of crashes.
  for (const FleetScenario &S : Matrix)
    if (S.CheckpointInterval == 0) {
      EXPECT_EQ(S.Faults.CrashRate, 0.0);
    }

  FleetOptions FO;
  FO.Jobs = 4;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run(Matrix);
  ASSERT_EQ(Rep.Outcomes.size(), Matrix.size());
  ASSERT_NE(Rep.GoldenHash, 0u);
  for (size_t I = 0; I != Rep.Outcomes.size(); ++I) {
    const ScenarioOutcome &O = Rep.Outcomes[I];
    EXPECT_EQ(O.Scn.Index, static_cast<unsigned>(I));
    if (O.ok()) {
      EXPECT_EQ(O.ResultHash, Rep.GoldenHash)
          << "scenario " << O.Scn.Index << " diverged";
    }
  }
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), Matrix.size());
}

TEST(Fleet, OutcomesDoNotDependOnThePoolSize) {
  // Loss, corruption and crashes with checkpoints, at thread counts 1
  // and 2: one worker and four must produce the same report, since each
  // scenario's outcome is a function of the scenario alone.
  FleetEnv E;
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2};
  MS.CheckpointIntervals = {4096};
  MS.ThreadCounts = {1, 2};
  MS.Base.DropRate = 0.05;
  MS.Base.CorruptRate = 0.05;
  MS.Base.CrashRate = 5e-4;
  MS.Base.CrashSeed = 7;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  ASSERT_EQ(Matrix.size(), 4u);
  FleetOptions FO;
  FO.Jobs = 1;
  FleetReport One = E.make(FO).run(Matrix);
  FO.Jobs = 4;
  FleetReport Four = E.make(FO).run(Matrix);
  EXPECT_EQ(One.count(ScenarioStatus::Ok), Matrix.size());
  expectSameOutcomes(One, Four);
  uint64_t Crashes = 0;
  for (const ScenarioOutcome &O : One.Outcomes)
    Crashes += O.Crashes;
  EXPECT_GT(Crashes, 0u) << "the matrix must exercise crash recovery";
}

TEST(WorkPool, EveryIndexRunsOnceAndAFailedBodyStopsClaims) {
  // Every index runs exactly once at any pool size; once a body returns
  // false (the fleet's failed journal append), no thread claims another
  // index, so each thread runs at most the one it already holds.
  std::vector<std::atomic<unsigned>> Hits(50);
  forEachIndex(Hits.size(), 4, [&](size_t I) {
    ++Hits[I];
    return true;
  });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I], 1u) << I;

  std::atomic<unsigned> Ran{0};
  forEachIndex(100, 1, [&](size_t I) {
    ++Ran;
    return I != 3;
  });
  EXPECT_EQ(Ran, 4u);
  Ran = 0;
  forEachIndex(100, 4, [&](size_t) {
    ++Ran;
    return false;
  });
  EXPECT_GE(Ran, 1u);
  EXPECT_LE(Ran, 4u);
}

TEST(Fleet, RunStatusGivesAnExhaustedEventBudgetItsOwnVerdict) {
  // A run stopped by SimOptions::MaxEvents is not a deadlock: the
  // verdict function must say event-budget, and the report must count it.
  FleetEnv E;
  SimOptions SO;
  SO.PhysGrid = {4};
  SO.ParamValues = E.Params;
  SO.MaxEvents = 10;
  SimResult Cut = Simulator(E.P, E.CP, E.Spec, SO).run();
  ASSERT_FALSE(Cut.Ok);
  ASSERT_TRUE(Cut.Diag.EventBudgetExhausted);
  EXPECT_EQ(runStatus(Cut, 0, 1), ScenarioStatus::EventBudget);
  EXPECT_STREQ(scenarioStatusName(ScenarioStatus::EventBudget),
               "event-budget");

  // The other verdicts: a completed run by its hash, a stalled one by
  // whether the transport gave up.
  SO.MaxEvents = SimOptions().MaxEvents;
  SimResult Full = Simulator(E.P, E.CP, E.Spec, SO).run();
  ASSERT_TRUE(Full.Ok) << Full.Error;
  EXPECT_EQ(runStatus(Full, 7, 7), ScenarioStatus::Ok);
  EXPECT_EQ(runStatus(Full, 7, 8), ScenarioStatus::Mismatch);
  SimResult Stalled;
  EXPECT_EQ(runStatus(Stalled, 0, 0), ScenarioStatus::Deadlock);
  Stalled.Diag.RetryExhausted.emplace_back();
  EXPECT_EQ(runStatus(Stalled, 0, 0), ScenarioStatus::TransportExhausted);

  FleetReport Rep;
  Rep.Outcomes.resize(2);
  Rep.Outcomes[0].Status = ScenarioStatus::EventBudget;
  // A worker-crash verdict keeps the exception's whole text.
  Rep.Outcomes[1].Status = ScenarioStatus::WorkerCrash;
  Rep.Outcomes[1].Error = "exception: " + std::string(200, 'x');
  std::string J = Rep.json();
  EXPECT_NE(J.find("\"event-budget\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"status\": \"event-budget\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"worker-crash\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"error\": \"" + Rep.Outcomes[1].Error + "\""),
            std::string::npos)
      << J;
}

TEST(Fleet, JsonReportAccountsForEveryScenarioAndStatus) {
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 2;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0, 1), exhaustedScn(1)});
  std::string J = Rep.json();
  EXPECT_NE(J.find("\"scenarios_total\": 2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ok\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"transport-exhausted\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"worker-crash\": 0"), std::string::npos) << J;
  EXPECT_NE(J.find("\"status\": \"ok\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"status\": \"transport-exhausted\""),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"hash_match\": true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"golden_hash\": \"0x"), std::string::npos) << J;
}

TEST(Fleet, GroupedJsonNestsPerProgramReportsAndAggregatesTotals) {
  // The dmcc-fleet --programs axis renders one grouped document: each
  // program's complete report under its file name, plus cross-program
  // totals. Pin the shape with two real (tiny) runs.
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 2;
  Fleet F1 = E.make(FO);
  FleetReport R1 = F1.run({cleanScn(0, 1)});
  Fleet F2 = E.make(FO);
  FleetReport R2 = F2.run({exhaustedScn(0)});
  std::string J = groupedFleetJson(
      {NamedFleetReport{"examples/a.dm", R1},
       NamedFleetReport{"examples/b.dm", R2}});
  EXPECT_NE(J.find("\"programs\": ["), std::string::npos) << J;
  EXPECT_NE(J.find("\"file\": \"examples/a.dm\""), std::string::npos)
      << J;
  EXPECT_NE(J.find("\"file\": \"examples/b.dm\""), std::string::npos)
      << J;
  // Each nested report keeps its own full shape...
  EXPECT_NE(J.find("\"report\": {"), std::string::npos) << J;
  EXPECT_NE(J.find("\"golden_hash\": \"0x"), std::string::npos) << J;
  // ...and the totals aggregate across programs.
  EXPECT_NE(J.find("\"totals\": {\"programs\": 2, "
                   "\"scenarios_total\": 2"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"transport-exhausted\": 1, \"worker-crash\": 0}}"),
            std::string::npos)
      << J;
}

TEST(Fleet, JournaledSweepResumesWithoutRerunningVerdicts) {
  // First sweep journals every verdict. The resumed sweep must restore
  // them all and re-run nothing: a re-run would append a second verdict
  // record for its scenario.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 2;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2),
                                       cleanScn(2, 3)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  EXPECT_EQ(A.count(ScenarioStatus::Ok), 3u);
  EXPECT_EQ(A.ResumedFromJournal, 0u);

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 3u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 3u);
  expectSameOutcomes(A, B);
  std::map<uint32_t, unsigned> Verdicts = verdictFrames(J.Path);
  ASSERT_EQ(Verdicts.size(), Matrix.size());
  for (const auto &[Index, N] : Verdicts)
    EXPECT_EQ(N, 1u) << "scenario " << Index << " was re-run";
}

TEST(Fleet, ResumeRequeuesScenariosWithoutAVerdict) {
  // A journal holding verdicts for only part of the matrix (what a
  // SIGKILL mid-sweep leaves behind): the resumed run must re-run
  // exactly the unjournaled scenarios and produce the full report.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2),
                                       cleanScn(2, 3), cleanScn(3, 4)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  EXPECT_EQ(A.count(ScenarioStatus::Ok), 4u);

  // Rewrite the journal keeping the meta record and the first two
  // verdicts — scenarios 2 and 3 are left without one.
  stable::ReadFramesResult RF = stable::readFrames(J.Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  std::vector<uint8_t> Cut;
  unsigned Verdicts = 0;
  constexpr uint32_t VerdictType = 0x464C5644u; // "FLVD"
  for (const stable::Frame &Fr : RF.Frames) {
    if (Fr.Type == VerdictType && Verdicts == 2)
      continue;
    if (Fr.Type == VerdictType)
      ++Verdicts;
    std::vector<uint8_t> Enc = stable::encodeFrame(Fr.Type, Fr.Payload);
    Cut.insert(Cut.end(), Enc.begin(), Enc.end());
  }
  std::string Err;
  ASSERT_TRUE(stable::atomicWriteFile(J.Path, Cut, Err)) << Err;

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 2u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 4u);
  expectSameOutcomes(A, B);
}

TEST(Fleet, TornJournalTailIsDiscardedOnResume) {
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;

  // Tear the last record like a SIGKILL mid-append: its verdict is
  // lost, so that scenario re-runs; the report still converges.
  FILE *Fp = std::fopen(J.Path.c_str(), "rb");
  ASSERT_NE(Fp, nullptr);
  std::fseek(Fp, 0, SEEK_END);
  long Size = std::ftell(Fp);
  std::fclose(Fp);
  ASSERT_GT(Size, 4);
  ASSERT_EQ(truncate(J.Path.c_str(), Size - 4), 0);

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 1u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 2u);
  expectSameOutcomes(A, B);
}

TEST(Fleet, ForeignJournalIsRejectedNotSilentlyTrusted) {
  // A journal written for a different matrix (different scenario count)
  // must abort the sweep with a usage error instead of resuming bogus
  // verdicts into the report.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run({cleanScn(0, 1)});
  ASSERT_TRUE(A.Error.empty()) << A.Error;

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run({cleanScn(0, 1), cleanScn(1, 2)});
  EXPECT_FALSE(B.Error.empty());
  EXPECT_FALSE(B.ErrorIsIo);
  EXPECT_NE(B.Error.find("does not belong"), std::string::npos)
      << B.Error;
}

TEST(Fleet, ResumeFromMissingJournalIsAFreshSweep) {
  FleetEnv E;
  TempJournal J; // never written: the path does not exist
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  FO.Resume = true;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0, 1)});
  ASSERT_TRUE(Rep.Error.empty()) << Rep.Error;
  EXPECT_EQ(Rep.ResumedFromJournal, 0u);
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), 1u);
}

TEST(Fleet, BuildMatrixDefaultsToOneCleanCell) {
  std::vector<FleetScenario> M = buildMatrix(FleetMatrixSpec());
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].Index, 0u);
  EXPECT_EQ(M[0].Threads, 1u);
  EXPECT_EQ(M[0].CheckpointInterval, 0u);
  EXPECT_EQ(M[0].Engine, SimEngine::Rounds);
  EXPECT_FALSE(M[0].Faults.faulty());
}

TEST(Fleet, BuildMatrixEmitsEventCellsOnlySingleThreaded) {
  // The engines axis: event cells exist only at thread count 1 (the
  // event scheduler is single-threaded), and indices stay contiguous.
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2};
  MS.ThreadCounts = {1, 2, 4};
  MS.Engines = {SimEngine::Rounds, SimEngine::Event};
  std::vector<FleetScenario> M = buildMatrix(MS);
  // 2 seeds x (3 rounds cells + 1 event cell) = 8.
  ASSERT_EQ(M.size(), 8u);
  unsigned EventCells = 0;
  for (size_t I = 0; I != M.size(); ++I) {
    EXPECT_EQ(M[I].Index, static_cast<unsigned>(I));
    if (M[I].Engine == SimEngine::Event) {
      ++EventCells;
      EXPECT_EQ(M[I].Threads, 1u);
    }
  }
  EXPECT_EQ(EventCells, 2u);
}

TEST(Fleet, EventEngineScenariosHashIdenticalToTheCleanRun) {
  // Event-engine cells through the full run/classify/hash pipeline:
  // every survivor must be bit-identical to the clean sequential run.
  FleetEnv E;
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2};
  MS.CheckpointIntervals = {0, 4096};
  MS.Engines = {SimEngine::Event};
  MS.Base.DropRate = 0.05;
  MS.Base.CrashRate = 5e-4;
  MS.Base.CrashSeed = 7;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  ASSERT_EQ(Matrix.size(), 4u);
  FleetOptions FO;
  FO.Jobs = 2;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run(Matrix);
  ASSERT_EQ(Rep.Outcomes.size(), 4u);
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), 4u);
  for (const ScenarioOutcome &O : Rep.Outcomes)
    EXPECT_EQ(O.ResultHash, Rep.GoldenHash)
        << "scenario " << O.Scn.Index << " diverged";
  EXPECT_NE(Rep.json().find("\"engine\": \"event\""), std::string::npos);
}
