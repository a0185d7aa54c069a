//===- tests/codegen/GoldenPrinterTest.cpp - SPMD printer snapshots ------===//
//
// Golden-file tests pinning the exact Printer output for the shipped
// examples, with and without --early-sends. Any codegen change that
// moves a fragment, renames a variable, or flips a send between
// blocking and nonblocking shows up here as a readable diff.
//
// Regenerating the snapshots after an INTENDED output change:
//
//   ./build/tests/dmcc_golden_test --update-golden
//
// (or set DMCC_UPDATE_GOLDEN=1 in the environment). This rewrites the
// files under tests/codegen/golden/ in the source tree; review the diff
// and commit them together with the codegen change.
//
//===----------------------------------------------------------------------===//

#include "GoldenDiff.h"
#include "core/SpecParser.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace dmcc;

namespace {

bool UpdateGolden = false;

// DMCC_GOLDEN_ROOT overrides the compiled-in source root so the drift
// smoke test can point the binary at a tampered copy of the tree.
std::string repoPath(const std::string &Rel) {
  std::string Root = DMCC_REPO_ROOT;
  if (const char *Env = std::getenv("DMCC_GOLDEN_ROOT"))
    if (Env[0])
      Root = Env;
  return Root + "/" + Rel;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

struct GoldenCase {
  const char *Name;       // test parameter name
  const char *Source;     // .dm file, relative to the repo root
  bool EarlySends;        // compile with CompilerOptions::EarlySends
  const char *Golden;     // snapshot, relative to the repo root
};

// Without this, gtest prints a case as its raw bytes, pointers included,
// so the listed test names would change with each run's address layout.
void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << C.Name; }

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, PrinterOutputMatchesSnapshot) {
  const GoldenCase &C = GetParam();
  std::string Src;
  ASSERT_TRUE(readFile(repoPath(C.Source), Src))
      << "cannot read " << repoPath(C.Source);
  SpecParseOutput SP = parseWithSpec(Src);
  ASSERT_TRUE(SP.ok()) << SP.Error;

  CompilerOptions Opts;
  Opts.EarlySends = C.EarlySends;
  CompiledProgram CP = compile(*SP.Prog, SP.Spec, Opts);
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;
  std::string Got = CP.Spmd.str();

  const std::string GoldenPath = repoPath(C.Golden);
  if (UpdateGolden) {
    std::ofstream Out(GoldenPath);
    ASSERT_TRUE(Out.good()) << "cannot write " << GoldenPath;
    Out << Got;
    return;
  }
  std::string Want;
  ASSERT_TRUE(readFile(GoldenPath, Want))
      << "missing snapshot " << GoldenPath
      << "; run dmcc_golden_test --update-golden to create it";
  std::string Diff = golden::renderGoldenDiff(Want, Got, C.Golden);
  EXPECT_TRUE(Diff.empty()) << Diff;
}

INSTANTIATE_TEST_SUITE_P(
    Snapshots, Golden,
    ::testing::Values(
        GoldenCase{"lu", "examples/lu.dm", false,
                   "tests/codegen/golden/lu.spmd.txt"},
        GoldenCase{"lu_early", "examples/lu.dm", true,
                   "tests/codegen/golden/lu.early.spmd.txt"},
        GoldenCase{"stencil", "examples/stencil.dm", false,
                   "tests/codegen/golden/stencil.spmd.txt"},
        GoldenCase{"stencil_early", "examples/stencil.dm", true,
                   "tests/codegen/golden/stencil.early.spmd.txt"},
        GoldenCase{"cholesky", "examples/cholesky.dm", false,
                   "tests/codegen/golden/cholesky.spmd.txt"},
        GoldenCase{"cholesky_early", "examples/cholesky.dm", true,
                   "tests/codegen/golden/cholesky.early.spmd.txt"},
        GoldenCase{"jacobi2d", "examples/jacobi2d.dm", false,
                   "tests/codegen/golden/jacobi2d.spmd.txt"},
        GoldenCase{"jacobi2d_early", "examples/jacobi2d.dm", true,
                   "tests/codegen/golden/jacobi2d.early.spmd.txt"},
        GoldenCase{"jacobi3d", "examples/jacobi3d.dm", false,
                   "tests/codegen/golden/jacobi3d.spmd.txt"},
        GoldenCase{"jacobi3d_early", "examples/jacobi3d.dm", true,
                   "tests/codegen/golden/jacobi3d.early.spmd.txt"},
        GoldenCase{"adi", "examples/adi.dm", false,
                   "tests/codegen/golden/adi.spmd.txt"},
        GoldenCase{"adi_early", "examples/adi.dm", true,
                   "tests/codegen/golden/adi.early.spmd.txt"},
        GoldenCase{"floyd", "examples/floyd.dm", false,
                   "tests/codegen/golden/floyd.spmd.txt"},
        GoldenCase{"floyd_early", "examples/floyd.dm", true,
                   "tests/codegen/golden/floyd.early.spmd.txt"}),
    [](const ::testing::TestParamInfo<GoldenCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace

int main(int argc, char **argv) {
  // Strip our flag before gtest sees it; gtest rejects unknown flags.
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--update-golden") {
      UpdateGolden = true;
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
      break;
    }
  if (const char *Env = std::getenv("DMCC_UPDATE_GOLDEN"))
    if (Env[0] && Env[0] != '0')
      UpdateGolden = true;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
