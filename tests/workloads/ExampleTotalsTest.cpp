//===- tests/workloads/ExampleTotalsTest.cpp ------------------*- C++ -*-===//
//
// Pins the simulated totals of every examples/*.dm at its default sizes
// on 4 and 8 processors (fault-free event engine, functional mode):
// makespan, messages, words and flops, plus final arrays equal to the
// sequential interpreter's. The generated SPMD may change shape (guards,
// loop splitting, dead-loop deletion) without moving any of these: If,
// SetVar and For charge no simulated time and per-processor statement
// order is preserved.
//
// A second test runs every decomposition the auto-search enumerates for
// each example in both simulator modes: performance mode (collapsed
// compute loops, no values) must count the same messages, words and
// flops as functional mode, and the same makespan up to the rounding of
// a different summation order.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "decomp/Search.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

using namespace dmcc;

namespace {

struct Totals {
  const char *Name;
  IntT Procs;
  const char *Makespan; ///< %.17g of SimResult::MakespanSeconds
  uint64_t Messages, Words, Flops;
};

void PrintTo(const Totals &T, std::ostream *OS) {
  *OS << T.Name << "/P" << T.Procs;
}

const Totals Pinned[] = {
    {"lu", 4, "0.019883280000000163", 378, 6425, 180960},
    {"lu", 8, "0.02226328000000008", 854, 14931, 180960},
    {"stencil", 4, "0.0017888100000000018", 54, 54, 1116},
    {"stencil", 8, "0.0017888100000000018", 54, 54, 1116},
    {"cholesky", 4, "0.0084758700000000676", 829, 829, 5500},
    {"cholesky", 8, "0.0067349649999999973", 1631, 1631, 5500},
    {"jacobi2d", 4, "0.0015596899999999947", 41, 380, 3920},
    {"jacobi2d", 8, "0.0014165499999999949", 41, 380, 3920},
    {"jacobi3d", 4, "0.00076198000000000021", 28, 296, 1296},
    {"jacobi3d", 8, "0.00076198000000000021", 28, 296, 1296},
    {"adi", 4, "0.00080266000000000278", 9, 144, 1440},
    {"adi", 8, "0.00080266000000000278", 9, 144, 1440},
    {"floyd", 4, "0.0031714599999999762", 60, 720, 5184},
    {"floyd", 8, "0.0034030199999999875", 112, 1344, 5184},
};

class ExampleTotals : public ::testing::TestWithParam<Totals> {};

SpecParseOutput parseExample(const std::string &Name) {
  std::ifstream In(std::string(DMCC_REPO_ROOT) + "/examples/" + Name +
                   ".dm");
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseWithSpec(Buf.str());
}

class ModeAgreement : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ExampleTotals, SimulatedTotalsAndFinalArraysArePinned) {
  const Totals &T = GetParam();
  std::ifstream In(std::string(DMCC_REPO_ROOT) + "/examples/" + T.Name +
                   ".dm");
  ASSERT_TRUE(In.good()) << T.Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  ASSERT_TRUE(SP.ok()) << SP.Error;
  CompiledProgram CP = compile(*SP.Prog, SP.Spec, CompilerOptions());
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;

  SimOptions SO;
  SO.PhysGrid = {T.Procs};
  SO.ParamValues = SP.ParamDefaults;
  SO.Functional = true;
  SO.Engine = SimEngine::Event;
  Simulator Sim(*SP.Prog, CP, SP.Spec, SO);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  char Makespan[32];
  std::snprintf(Makespan, sizeof Makespan, "%.17g", R.MakespanSeconds);
  EXPECT_EQ(std::string(Makespan), T.Makespan);
  EXPECT_EQ(R.Messages, T.Messages);
  EXPECT_EQ(R.Words, T.Words);
  EXPECT_EQ(R.Flops, T.Flops);

  const Program &P = *SP.Prog;
  SeqInterpreter Gold(P, SP.ParamDefaults);
  Gold.run();
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = SP.ParamDefaults.at(P.space().name(I));
  unsigned Checked = 0, Bad = 0;
  for (const auto &[AId, FD] : SP.Spec.FinalData) {
    (void)FD;
    std::vector<double> Want = Gold.arrayContents(AId);
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : P.array(AId).DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    size_t Flat = 0;
    bool Done = Sizes.empty();
    while (!Done) {
      std::optional<double> Got = Sim.finalValue(AId, Idx);
      ++Checked;
      if (!Got || *Got != Want[Flat])
        ++Bad;
      ++Flat;
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
  EXPECT_GT(Checked, 0u);
  EXPECT_EQ(Bad, 0u) << "simulator vs interpreter";
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ExampleTotals, ::testing::ValuesIn(Pinned),
    [](const ::testing::TestParamInfo<Totals> &I) {
      return std::string(I.param.Name) + "_P" +
             std::to_string(I.param.Procs);
    });

TEST_P(ModeAgreement, PerformanceModeCountsWhatFunctionalModeCounts) {
  SpecParseOutput SP = parseExample(GetParam());
  ASSERT_TRUE(SP.ok()) << SP.Error;
  for (IntT Procs : {4, 8}) {
    SearchOptions SO;
    SO.Procs = Procs;
    SO.Params = SP.ParamDefaults;
    std::vector<DecompCandidate> Cands =
        enumerateDecompositions(*SP.Prog, &SP.Spec, SO);
    ASSERT_FALSE(Cands.empty());
    for (const DecompCandidate &C : Cands) {
      CompiledProgram CP = compile(*SP.Prog, C.Spec, CompilerOptions());
      if (!CP.Ok)
        continue; // the search reports these as infeasible
      SimResult R[2];
      for (int Functional = 0; Functional != 2; ++Functional) {
        SimOptions Sim;
        Sim.PhysGrid = {Procs};
        Sim.ParamValues = SP.ParamDefaults;
        Sim.Functional = Functional;
        Sim.CollapseLoops = !Functional;
        R[Functional] = Simulator(*SP.Prog, CP, C.Spec, Sim).run();
        ASSERT_TRUE(R[Functional].Ok) << R[Functional].Error;
      }
      std::string Tag = C.Desc + " on " + std::to_string(Procs);
      EXPECT_EQ(R[0].Messages, R[1].Messages) << Tag;
      EXPECT_EQ(R[0].Words, R[1].Words) << Tag;
      EXPECT_EQ(R[0].Flops, R[1].Flops) << Tag;
      EXPECT_LE(std::fabs(R[0].MakespanSeconds - R[1].MakespanSeconds),
                1e-12 * R[1].MakespanSeconds)
          << Tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, ModeAgreement,
                         ::testing::Values("lu", "stencil", "cholesky",
                                           "jacobi2d", "jacobi3d", "adi",
                                           "floyd"),
                         [](const ::testing::TestParamInfo<const char *>
                                &I) { return std::string(I.param); });
