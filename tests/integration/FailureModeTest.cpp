//===- tests/integration/FailureModeTest.cpp ------------------*- C++ -*-===//
//
// Failure injection: hard errors must be loud (abort with a diagnostic),
// never silent corruption. Uses gtest death tests.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "math/LexOpt.h"
#include "sim/Simulator.h"

#include <functional>
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

} // namespace

TEST(FailureModeTest, UnboundedLexMaxAborts) {
  // max i subject to i >= 0 only: no upper bound.
  Space Sp;
  Sp.add("i", VarKind::Loop);
  System S(std::move(Sp));
  S.addGE(S.varExpr(0));
  EXPECT_DEATH(lexMax(S, {0}), "unbounded");
}

TEST(FailureModeTest, LocalityViolationAborts) {
  // Strip the initial-data layout the program relies on: processors
  // read boundary values they never owned nor received. The simulator
  // must abort with a locality diagnostic, not fabricate data.
  Program P = shift();
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 8)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 8));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 8));
  CompiledProgram CP = compile(P, Spec);

  // Sabotage: pretend a different (shifted) initial ownership at
  // simulation time, so the compiled communication no longer matches.
  CompileSpec Lying = Spec;
  Lying.InitialData.clear();
  Space ASp = arraySourceSpace(P, 0);
  Decomposition Shifted(ASp, 1);
  Shifted.setBlock(0, AffineExpr::var(ASp.size(), 0).plusConst(-17), 8);
  Lying.InitialData.emplace(0, Shifted);

  SimOptions SO;
  SO.PhysGrid = {2};
  SO.ParamValues = {{"T", 2}, {"N", 31}};
  SO.Functional = true;
  EXPECT_DEATH(
      {
        Simulator Sim(P, CP, Lying, SO);
        (void)Sim.run();
      },
      "locality violation");
}

TEST(FailureModeTest, OutOfRangePackIndexAborts) {
  // Row blocks of 4: each processor sends its first row to the block
  // above. Sabotage the packed column index to N + 1, one past the last
  // column. Row-major, X[i][N + 1] aliases X[i + 1][0], which the
  // sender holds; the simulator must check each index against its
  // dimension and report a locality violation, not send X[i + 1][0].
  Program P = parseProgramOrDie(R"(
param N;
array X[N + 1][N + 1];
for i = 0 to N - 1 {
  for j = 0 to N {
    X[i][j] = X[i + 1][j];
  }
}
)");
  CompileSpec Spec;
  Decomposition D = blockData(P, 0, 0, 4);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompiledProgram CP = compile(P, Spec);
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;

  const Space &Sp = CP.Spmd.Sp;
  std::function<bool(std::vector<SpmdStmt> &)> Sabotage =
      [&](std::vector<SpmdStmt> &List) {
        for (SpmdStmt &S : List) {
          if (S.K == SpmdStmt::Kind::PackElem) {
            S.Indices[1] =
                AffineExpr::var(Sp.size(), Sp.indexOf("N")).plusConst(1);
            return true;
          }
          if (Sabotage(S.Body))
            return true;
        }
        return false;
      };
  ASSERT_TRUE(Sabotage(CP.Spmd.Top)) << "no PackElem to sabotage";

  SimOptions SO;
  SO.PhysGrid = {2};
  SO.ParamValues = {{"N", 15}};
  SO.Functional = true;
  EXPECT_DEATH(
      {
        Simulator Sim(P, CP, Spec, SO);
        (void)Sim.run();
      },
      "locality violation");
}

TEST(FailureModeTest, OutOfRangeComputeIndexAborts) {
  // Row blocks of 4; each processor reads its own rows of X and the row
  // below them. Sabotage one column subscript of the compute statement
  // to N + 1, one past the last column. Row-major, X[i][N + 1] aliases
  // X[i + 1][0], which the processor holds because the statement reads
  // it too, and Y[i][N + 1] aliases Y[i + 1][0]. The simulator must
  // check each subscript against its dimension and report a locality
  // violation, not read or overwrite the aliased element.
  const char *Src = R"(
param N;
array X[N + 1][N + 1];
array Y[N + 1][N + 1];
for i = 0 to N - 1 {
  for j = 0 to N {
    Y[i][j] = X[i][j] + X[i + 1][j];
  }
}
)";
  for (bool SabotageWrite : {false, true}) {
    SCOPED_TRACE(SabotageWrite ? "write subscript" : "read subscript");
    Program P = parseProgramOrDie(Src);
    CompileSpec Spec;
    Decomposition DX = blockData(P, 0, 0, 4);
    Decomposition DY = blockData(P, 1, 0, 4);
    Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, DY)});
    Spec.InitialData.emplace(0, DX);
    Spec.InitialData.emplace(1, DY);
    Spec.FinalData.emplace(1, DY);
    CompiledProgram CP = compile(P, Spec);
    ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;

    // The simulator lowers the statement's accesses when it is built,
    // so the sabotage after compile() reaches only the simulation.
    Statement &S = P.statement(0);
    Access &A = SabotageWrite ? S.Write : S.Reads[0];
    A.Indices[1] =
        AffineExpr::var(P.space().size(), P.space().indexOf("N")).plusConst(1);

    SimOptions SO;
    SO.PhysGrid = {2};
    SO.ParamValues = {{"N", 15}};
    SO.Functional = true;
    EXPECT_DEATH(
        {
          Simulator Sim(P, CP, Spec, SO);
          (void)Sim.run();
        },
        "locality violation");
  }
}

TEST(FailureModeTest, MissingParameterAborts) {
  Program P = shift();
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 8)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 8));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 8));
  CompiledProgram CP = compile(P, Spec);
  SimOptions SO;
  SO.PhysGrid = {2};
  SO.ParamValues = {{"T", 2}}; // N missing
  EXPECT_DEATH(Simulator(P, CP, Spec, SO), "parameter");
}

TEST(FailureModeTest, MissingInitialLayoutAborts) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array B[N + 1];
for i = 0 to N {
  A[i] = B[i];
}
)");
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 0, 4)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 4));
  // B (read before written) has no layout.
  EXPECT_DEATH(compile(P, Spec), "initial data decomposition");
}

TEST(FailureModeTest, ParseErrorsAreDiagnosed) {
  EXPECT_DEATH(parseProgramOrDie("for i = 0 to N { }"), "parse failed");
}

TEST(FailureModeTest, FourierMotzkinOverflowIsDiagnosed) {
  // Cross-multiplying a lower bound (2x + Ky >= 0) with an upper bound
  // (-3x + Ky >= 0) produces a y coefficient of 5K. With K chosen so
  // that 3K fits in int64 but 5K does not, the scaling steps succeed
  // and the addition overflows — it must die with a named diagnostic,
  // not wrap silently.
  constexpr IntT K = 3'000'000'000'000'000'001; // odd: gcds stay 1
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  System S(std::move(Sp));
  AffineExpr Lower = S.varExpr(0);
  Lower.scale(2);
  AffineExpr Ky = S.varExpr(1);
  Ky.scale(K);
  Lower += Ky;
  S.addGE(Lower);
  AffineExpr Upper = S.varExpr(0);
  Upper.scale(-3);
  Upper += Ky;
  S.addGE(Upper);
  EXPECT_DEATH(S.fmEliminated(0), "Fourier-Motzkin");
}

TEST(FailureModeTest, FourierMotzkinLargeButSafeCoefficients) {
  // Same shape with coefficients that stay inside int64: elimination
  // must succeed and keep the surviving bound on y.
  constexpr IntT K = 1'000'000'000'000'000'001;
  Space Sp;
  Sp.add("x", VarKind::Loop);
  Sp.add("y", VarKind::Loop);
  System S(std::move(Sp));
  AffineExpr Lower = S.varExpr(0);
  Lower.scale(2);
  AffineExpr Ky = S.varExpr(1);
  Ky.scale(K);
  Lower += Ky;
  S.addGE(Lower);
  AffineExpr Upper = S.varExpr(0);
  Upper.scale(-3);
  Upper += Ky;
  S.addGE(Upper);
  System R = S.fmEliminated(0);
  EXPECT_FALSE(R.involves(0));
  ASSERT_EQ(R.numConstraints(), 1u);
  // 5K*y >= 0, gcd-normalized to y >= 0.
  EXPECT_EQ(R.constraints()[0].coeff(1), 1);
}
