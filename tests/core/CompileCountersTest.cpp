//===- tests/core/CompileCountersTest.cpp ---------------------*- C++ -*-===//
//
// Pins the polyhedral-core counters of a cold compile of every shipped
// example: feasibility queries and their cache hits and Unknowns, search
// nodes, Fourier-Motzkin eliminations, redundancy-removal calls, exact
// tests, quick kills and cache hits, lexMax solves and scans. Equal
// counters mean the projection code asked the same questions in the
// same order and got rows that searched alike, so a refactor of the
// constraint kernel that moves any of them changed what the compiler
// computes, not just how.
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
      RedundancyCacheHits, LexMaxCalls, ScanCalls;
};

void PrintTo(const Counters &C, std::ostream *OS) { *OS << C.Name; }

const Counters Pinned[] = {
    {"lu", 4817, 1320, 0, 18787, 28044, 237, 1655, 174, 16, 33, 18},
    {"stencil", 2283, 585, 0, 10638, 12607, 163, 958, 82, 19, 13, 22},
    {"cholesky", 3055, 654, 0, 12160, 17656, 176, 1164, 118, 7, 27, 14},
    {"jacobi2d", 9071, 3399, 4, 115202, 56025, 378, 2488, 265, 97, 15, 50},
    {"jacobi3d", 18118, 14804, 12, 251099, 18106, 339, 1025, 235, 176, 3, 54},
    {"adi", 10234, 3103, 0, 19751, 46559, 223, 1899, 330, 6, 24, 6},
    {"floyd", 5336, 1488, 0, 22835, 34433, 202, 1794, 128, 8, 16, 9},
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
  EXPECT_EQ(Got.RedundancyCacheHits, Want.RedundancyCacheHits);
  EXPECT_EQ(Got.LexMaxCalls, Want.LexMaxCalls);
  EXPECT_EQ(Got.ScanCalls, Want.ScanCalls);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, CompileCounters, ::testing::ValuesIn(Pinned),
    [](const ::testing::TestParamInfo<Counters> &I) {
      return std::string(I.param.Name);
    });
