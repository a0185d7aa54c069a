//===- tests/core/CompileCountersTest.cpp ---------------------*- C++ -*-===//
//
// Pins the polyhedral-core counters of a cold compile of every shipped
// example: feasibility queries and their cache hits and Unknowns, search
// nodes, Fourier-Motzkin eliminations, redundancy-removal calls, exact
// tests and quick kills, lexMax solves and scans. Equal counters mean
// the projection code asked the same questions in the same order and
// got rows that searched alike, so a refactor of the constraint kernel
// that moves any of them changed what the compiler computes, not just
// how.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace dmcc;

namespace {

struct Counters {
  const char *Name;
  uint64_t FeasQueries, FeasCacheHits, FeasUnknown, NodesExpanded,
      FmEliminations, RedundancyCalls, RedundancyTests, RedundancyQuickKills,
      LexMaxCalls, ScanCalls;
};

void PrintTo(const Counters &C, std::ostream *OS) { *OS << C.Name; }

const Counters Pinned[] = {
    {"lu", 4646, 1180, 0, 18757, 27998, 237, 1709, 174, 33, 18},
    {"stencil", 2334, 636, 0, 10638, 12607, 163, 1045, 95, 13, 22},
    {"cholesky", 2971, 600, 0, 12107, 17602, 176, 1188, 118, 27, 14},
    {"jacobi2d", 9608, 3938, 4, 115192, 56015, 378, 3057, 345, 15, 50},
    {"jacobi3d", 19120, 15806, 12, 251099, 18106, 339, 2016, 461, 3, 54},
    {"adi", 10269, 3183, 0, 19711, 46340, 223, 1939, 345, 24, 6},
    {"floyd", 5338, 1505, 0, 22841, 34400, 202, 1839, 130, 16, 9},
};

class CompileCounters : public ::testing::TestWithParam<Counters> {};

} // namespace

TEST_P(CompileCounters, ColdCompileCountersArePinned) {
  const Counters &Want = GetParam();
  std::ifstream In(std::string(DMCC_REPO_ROOT) + "/examples/" + Want.Name +
                   ".dm");
  ASSERT_TRUE(In.good()) << Want.Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  ASSERT_TRUE(SP.ok()) << SP.Error;
  clearProjectionCaches();
  CompiledProgram CP = compile(*SP.Prog, SP.Spec, CompilerOptions());
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;

  const ProjectionStats &Got = CP.Stats.Proj;
  EXPECT_EQ(Got.FeasQueries, Want.FeasQueries);
  EXPECT_EQ(Got.FeasCacheHits, Want.FeasCacheHits);
  EXPECT_EQ(Got.FeasUnknown, Want.FeasUnknown);
  EXPECT_EQ(Got.NodesExpanded, Want.NodesExpanded);
  EXPECT_EQ(Got.FmEliminations, Want.FmEliminations);
  EXPECT_EQ(Got.RedundancyCalls, Want.RedundancyCalls);
  EXPECT_EQ(Got.RedundancyTests, Want.RedundancyTests);
  EXPECT_EQ(Got.RedundancyQuickKills, Want.RedundancyQuickKills);
  EXPECT_EQ(Got.LexMaxCalls, Want.LexMaxCalls);
  EXPECT_EQ(Got.ScanCalls, Want.ScanCalls);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, CompileCounters, ::testing::ValuesIn(Pinned),
    [](const ::testing::TestParamInfo<Counters> &I) {
      return std::string(I.param.Name);
    });
