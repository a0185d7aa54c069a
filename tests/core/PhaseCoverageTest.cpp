//===- tests/core/PhaseCoverageTest.cpp -----------------------*- C++ -*-===//
//
// The --stats phase table must account for the compile: summed over the
// seven shipped examples, the exclusive phase rows cover at least 95% of
// CompileSeconds, so no compiler stage hides outside every PhaseTimer.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace dmcc;

namespace {

std::string readExample(const std::string &Name) {
  std::ifstream In(std::string(DMCC_REPO_ROOT) + "/examples/" + Name +
                   ".dm");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(PhaseCoverage, PhaseRowsCoverTheCompileTime) {
  double Compile = 0, Phased = 0;
  std::set<std::string> Seen;
  for (const char *Name : {"lu", "stencil", "cholesky", "jacobi2d",
                           "jacobi3d", "adi", "floyd"}) {
    SpecParseOutput SP = parseWithSpec(readExample(Name));
    ASSERT_TRUE(SP.ok()) << Name << ": " << SP.Error;
    CompiledProgram CP = compile(*SP.Prog, SP.Spec, CompilerOptions());
    ASSERT_TRUE(CP.Ok) << Name << ": " << CP.ErrorMessage;
    Compile += CP.Stats.CompileSeconds;
    for (const PhaseProfile &Ph : CP.Stats.Phases) {
      Phased += Ph.Seconds;
      Seen.insert(Ph.Name);
    }
  }
  EXPECT_GE(Phased, 0.95 * Compile)
      << "phase rows sum to " << Phased << " s of " << Compile << " s";
  for (const char *Stage :
       {"dataflow.lwt", "comm.commsets", "comm.self_reuse",
        "comm.group_reuse", "comm.coalesce", "math.coalesce",
        "comm.multicast", "comm.agg_level", "codegen.emit"})
    EXPECT_TRUE(Seen.count(Stage)) << "no phase row for " << Stage;
}
