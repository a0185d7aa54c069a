//===- tests/codegen/PrinterTest.cpp --------------------------*- C++ -*-===//
//
// The C-like SPMD pretty printer (Figures 7/10/13 style): structural
// checks on real compiled programs.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

std::string compileShift(bool Split) {
  Program P = parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 3 to N {
    X[i] = X[i - 3];
  }
}
)");
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 32)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 32));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 32));
  CompilerOptions Opts;
  Opts.SplitLoops = Split;
  return compile(P, Spec, Opts).Spmd.str();
}

std::string compileLU(bool Split) {
  Program P = parseProgramOrDie(R"(
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
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompilerOptions Opts;
  Opts.SplitLoops = Split;
  return compile(P, Spec, Opts).Spmd.str();
}

unsigned countOf(const std::string &Hay, const std::string &Needle) {
  unsigned N = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + 1))
    ++N;
  return N;
}

} // namespace

TEST(PrinterTest, ShiftProgramShowsAllPieces) {
  std::string S = compileShift(false);
  // Executing-processor header.
  EXPECT_NE(S.find("executing processor = (myp0)"), std::string::npos);
  // The shared time loop over the source bounds.
  EXPECT_NE(S.find("for t = 0 to T {"), std::string::npos);
  // Sends and receives with peers and packing bodies.
  EXPECT_GT(countOf(S, "send message[c"), 0u);
  EXPECT_GT(countOf(S, "receive message[c"), 0u);
  EXPECT_GT(countOf(S, "buffer[idx++]"), 0u);
  // The compute statement.
  EXPECT_GT(countOf(S, "execute S0("), 0u);
  // Degenerate neighbour assignment (Figure 7's ps = pr - 1 shape).
  EXPECT_TRUE(S.find("ps0 = pr0 - 1") != std::string::npos ||
              S.find("pr0 = ps0 + 1") != std::string::npos)
      << S;
}

TEST(PrinterTest, FloorDivisionBoundsUseCeildFloord) {
  // Synthetic loop with divided bounds: for i = ceild(N,3) to floord(M,2).
  SpmdProgram Prog;
  unsigned I = Prog.Sp.add("i", VarKind::Loop);
  unsigned N = Prog.Sp.add("N", VarKind::Param);
  unsigned M = Prog.Sp.add("M", VarKind::Param);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = I;
  For.Lower = {SpmdBound{AffineExpr::var(3, N), 3}};
  For.Upper = {SpmdBound{AffineExpr::var(3, M), 2},
               SpmdBound{AffineExpr::var(3, N), 1}};
  Prog.Top.push_back(std::move(For));
  std::string S = Prog.str();
  EXPECT_NE(S.find("ceild(N, 3)"), std::string::npos) << S;
  EXPECT_NE(S.find("min(floord(M, 2), N)"), std::string::npos) << S;
}

TEST(PrinterTest, SplittingTradesGuardsForSegments) {
  std::string Unsplit = compileLU(false);
  std::string Split = compileLU(true);
  // Splitting LU's pivot loop at the executing processor duplicates
  // loop bodies into segments (code growth) in exchange for guard-free
  // iteration ranges: more loops, and the communication statements are
  // never lost.
  EXPECT_GT(countOf(Split, "for i1 = "), countOf(Unsplit, "for i1 = "));
  EXPECT_GE(countOf(Split, "multicast message[c"),
            countOf(Unsplit, "multicast message[c"));
  EXPECT_GE(countOf(Split, "receive message[c"),
            countOf(Unsplit, "receive message[c"));
}

TEST(PrinterTest, GuardsTheBoundsImplyAreNotSplitOn) {
  // The shift program's guards do not depend on t beyond what the loop
  // bounds already say, so splitting leaves the time loop whole.
  std::string Split = compileShift(true);
  EXPECT_EQ(countOf(Split, "for t = "), 1u) << Split;
  EXPECT_EQ(Split, compileShift(false));
}

TEST(PrinterTest, MulticastIsLabelled) {
  Program P = parseProgramOrDie(R"(
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
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  std::string S = compile(P, Spec).Spmd.str();
  EXPECT_GT(countOf(S, "multicast message[c"), 0u);
  EXPECT_GT(countOf(S, "A0[el0][el1]"), 0u); // 2-D element packing
}
