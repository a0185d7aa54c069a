//===- tests/decomp/SearchTest.cpp - Decomposition auto-search ----------===//
//
// Pins the decomposition search contract (decomp/Search.h): the bounded
// enumeration keeps the hand-written hint as candidate 0, the scorer
// reports infeasible candidates instead of dying on them, and — the
// acceptance criterion of the subsystem — the winner's simulated
// makespan is never worse than the hand-written spec's on any of the
// five shipped workloads.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "decomp/Search.h"
#include "frontend/Parser.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

using namespace dmcc;

namespace {

std::string repoPath(const std::string &Rel) {
  return std::string(DMCC_REPO_ROOT) + "/" + Rel;
}

SpecParseOutput loadWorkload(const std::string &Name) {
  std::ifstream In(repoPath("examples/" + Name + ".dm"));
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  EXPECT_TRUE(SP.ok()) << Name << ": " << SP.Error;
  return SP;
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

SearchOptions fastOpts(std::map<std::string, IntT> Params) {
  SearchOptions SO;
  SO.Procs = 4;
  SO.Params = std::move(Params);
  SO.Jobs = 4;
  return SO;
}

} // namespace

//===----------------------------------------------------------------------===//
// Enumeration contract
//===----------------------------------------------------------------------===//

TEST(DecompSearch, HintIsCandidateZeroAndSpaceIsBounded) {
  Program P = lu();
  CompileSpec Hint = luSpec(P);
  SearchOptions SO = fastOpts({{"N", 16}});
  std::vector<DecompCandidate> Cands =
      enumerateDecompositions(P, &Hint, SO);
  ASSERT_FALSE(Cands.empty());
  EXPECT_TRUE(Cands[0].IsHint);
  EXPECT_EQ(Cands[0].Desc, "hint (hand-written spec)");
  // 2-D array, <= MaxBlockChoices block sizes per dimension, plus the
  // hint: the space stays a handful of compiles.
  EXPECT_LE(Cands.size(), 1 + 2 * SO.MaxBlockChoices);
  // Both classic styles must be in the race for each dimension.
  bool SawCyclic0 = false, SawBlock1 = false;
  for (const DecompCandidate &C : Cands) {
    if (C.IsHint)
      continue;
    EXPECT_FALSE(C.Spec.Stmts.empty()) << C.Desc;
    if (C.Dim == 0 && C.Block == 1)
      SawCyclic0 = true;
    if (C.Dim == 1 && C.Block > 1)
      SawBlock1 = true;
  }
  EXPECT_TRUE(SawCyclic0);
  EXPECT_TRUE(SawBlock1);
}

TEST(DecompSearch, EnumerationWithoutHintStillCoversTheSpace) {
  Program P = lu();
  SearchOptions SO = fastOpts({{"N", 16}});
  std::vector<DecompCandidate> NoHint =
      enumerateDecompositions(P, nullptr, SO);
  CompileSpec Hint = luSpec(P);
  std::vector<DecompCandidate> WithHint =
      enumerateDecompositions(P, &Hint, SO);
  ASSERT_FALSE(NoHint.empty());
  EXPECT_FALSE(NoHint[0].IsHint);
  EXPECT_EQ(NoHint.size() + 1, WithHint.size());
}

TEST(DecompSearch, UnboundParameterFallsBackToHintOnly) {
  Program P = lu();
  CompileSpec Hint = luSpec(P);
  SearchOptions SO = fastOpts({}); // N unbound: extents can't evaluate
  std::vector<DecompCandidate> Cands =
      enumerateDecompositions(P, &Hint, SO);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_TRUE(Cands[0].IsHint);
}

//===----------------------------------------------------------------------===//
// Scoring contract
//===----------------------------------------------------------------------===//

TEST(DecompSearch, InfeasibleCandidatesAreReportedNotFatal) {
  Program P = lu();
  CompileSpec Good = luSpec(P);
  CompileSpec Broken; // no statement plans: the compiler must reject it
  ScoreOptions SO;
  SO.Params = {{"N", 16}};
  SO.Jobs = 2;
  std::vector<SpecScore> Scores = scoreSpecs(P, {Good, Broken}, SO);
  ASSERT_EQ(Scores.size(), 2u);
  EXPECT_TRUE(Scores[0].Ok) << Scores[0].Error;
  EXPECT_GT(Scores[0].MakespanSeconds, 0.0);
  EXPECT_FALSE(Scores[1].Ok);
  EXPECT_FALSE(Scores[1].Error.empty());
}

TEST(DecompSearch, ScoringKeepsTheWholeCompileError) {
  // The compiler's non-unique-decomposition message is longer than the
  // fixed-size record scores once travelled in; it must arrive whole.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  Spec.Stmts[0].Comp.setReplicated(0);
  std::string Expected = compile(P, Spec).ErrorMessage;
  ASSERT_GT(Expected.size(), 95u);
  ScoreOptions SO;
  SO.Params = {{"N", 16}};
  std::vector<SpecScore> Scores = scoreSpecs(P, {Spec}, SO);
  ASSERT_EQ(Scores.size(), 1u);
  EXPECT_FALSE(Scores[0].Ok);
  EXPECT_EQ(Scores[0].Error, Expected);
}

TEST(DecompSearch, CompileRejectsAStatementWithoutAPlan) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  Spec.Stmts.pop_back(); // S1 loses its computation decomposition
  CompiledProgram CP = compile(P, Spec);
  EXPECT_FALSE(CP.Ok);
  EXPECT_NE(CP.ErrorMessage.find("S1"), std::string::npos)
      << CP.ErrorMessage;
}

TEST(DecompSearch, UnboundParameterIsReportedInfeasible) {
  Program P = lu();
  ScoreOptions SO; // N unbound: the simulator cannot size anything
  std::vector<SpecScore> Scores = scoreSpecs(P, {luSpec(P)}, SO);
  ASSERT_EQ(Scores.size(), 1u);
  EXPECT_FALSE(Scores[0].Ok);
  EXPECT_NE(Scores[0].Error.find("'N'"), std::string::npos)
      << Scores[0].Error;
}

TEST(DecompSearch, TinyEventBudgetMarksEveryCandidateInfeasible) {
  Program P = lu();
  CompileSpec Hint = luSpec(P);
  SearchOptions SO = fastOpts({{"N", 16}});
  SO.MaxEvents = 10;
  SearchResult SR = searchDecompositions(P, &Hint, SO);
  EXPECT_FALSE(SR.ok());
  ASSERT_FALSE(SR.Candidates.empty());
  for (const ScoredCandidate &C : SR.Candidates) {
    EXPECT_FALSE(C.Score.Ok) << C.Cand.Desc;
    EXPECT_NE(C.Score.Error.find("event budget exhausted"),
              std::string::npos)
        << C.Cand.Desc << ": " << C.Score.Error;
  }
}

TEST(DecompSearch, ScoresDoNotDependOnThePoolSize) {
  Program P = lu();
  CompileSpec Hint = luSpec(P);
  SearchOptions SO = fastOpts({{"N", 16}});
  std::vector<CompileSpec> Specs;
  for (const DecompCandidate &C : enumerateDecompositions(P, &Hint, SO))
    Specs.push_back(C.Spec);
  SO.Jobs = 1;
  std::vector<SpecScore> One = scoreSpecs(P, Specs, SO);
  SO.Jobs = 4;
  std::vector<SpecScore> Four = scoreSpecs(P, Specs, SO);
  ASSERT_EQ(One.size(), Specs.size());
  ASSERT_EQ(Four.size(), Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    SCOPED_TRACE("candidate " + std::to_string(I));
    EXPECT_EQ(One[I].Ok, Four[I].Ok);
    EXPECT_EQ(One[I].Error, Four[I].Error);
    EXPECT_EQ(One[I].MakespanSeconds, Four[I].MakespanSeconds);
    EXPECT_EQ(One[I].Messages, Four[I].Messages);
    EXPECT_EQ(One[I].Words, Four[I].Words);
    EXPECT_EQ(One[I].CommSets, Four[I].CommSets);
  }
}

TEST(DecompSearch, SearchOnLUFindsAFeasibleWinner) {
  Program P = lu();
  CompileSpec Hint = luSpec(P);
  SearchResult SR =
      searchDecompositions(P, &Hint, fastOpts({{"N", 16}}));
  ASSERT_TRUE(SR.ok()) << SR.Error;
  EXPECT_TRUE(SR.best().Score.Ok);
  ASSERT_TRUE(SR.Candidates[0].Score.Ok) << SR.Candidates[0].Score.Error;
  EXPECT_LE(SR.best().Score.MakespanSeconds,
            SR.Candidates[0].Score.MakespanSeconds);
}

TEST(DecompSearch, RoundingTiesGoToTheLowestIndex) {
  // On 4 processors jacobi2d's block(dim 0, 4) [3] and block(dim 1, 4)
  // [6] run mirror-image schedules whose makespans differ only in how
  // the clocks were summed. The lower index must win.
  SpecParseOutput SP = loadWorkload("jacobi2d");
  ASSERT_TRUE(SP.ok());
  SearchResult SR =
      searchDecompositions(*SP.Prog, &SP.Spec, fastOpts(SP.ParamDefaults));
  ASSERT_TRUE(SR.ok()) << SR.Error;
  ASSERT_GT(SR.Candidates.size(), 6u);
  const SpecScore &Dim0 = SR.Candidates[3].Score;
  const SpecScore &Dim1 = SR.Candidates[6].Score;
  ASSERT_TRUE(Dim0.Ok && Dim1.Ok);
  EXPECT_NEAR(Dim0.MakespanSeconds, Dim1.MakespanSeconds,
              Dim1.MakespanSeconds * SearchTieTolerance);
  EXPECT_EQ(SR.BestIndex, 3) << SR.best().Cand.Desc;
}

//===----------------------------------------------------------------------===//
// Acceptance criterion: winner <= hand-written spec on every workload
//===----------------------------------------------------------------------===//

class SearchWorkload : public ::testing::TestWithParam<const char *> {};

TEST_P(SearchWorkload, WinnerIsNeverWorseThanTheHandWrittenSpec) {
  SpecParseOutput SP = loadWorkload(GetParam());
  ASSERT_TRUE(SP.ok());
  SearchResult SR =
      searchDecompositions(*SP.Prog, &SP.Spec, fastOpts(SP.ParamDefaults));
  ASSERT_TRUE(SR.ok()) << GetParam() << ": " << SR.Error;
  // The hand-written spec is candidate 0 and must itself be feasible.
  ASSERT_TRUE(SR.Candidates[0].Cand.IsHint);
  ASSERT_TRUE(SR.Candidates[0].Score.Ok)
      << GetParam() << ": " << SR.Candidates[0].Score.Error;
  EXPECT_LE(SR.best().Score.MakespanSeconds,
            SR.Candidates[0].Score.MakespanSeconds)
      << GetParam() << ": winner '" << SR.best().Cand.Desc
      << "' is worse than the hand-written spec";
}

INSTANTIATE_TEST_SUITE_P(Workloads, SearchWorkload,
                         ::testing::Values("cholesky", "jacobi2d",
                                           "jacobi3d", "adi", "floyd"),
                         [](const ::testing::TestParamInfo<const char *>
                                &I) { return std::string(I.param); });
