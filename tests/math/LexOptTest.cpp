//===- tests/math/LexOptTest.cpp ------------------------------*- C++ -*-===//

#include "math/LexOpt.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

using namespace dmcc;

namespace {

/// Space [i, j, N] with i, j objectives and N a parameter.
System ijN() {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("j", VarKind::Loop);
  Sp.add("N", VarKind::Param);
  return System(std::move(Sp));
}

Space paramSpaceN() {
  Space Sp;
  Sp.add("N", VarKind::Param);
  return Sp;
}

/// Evaluates a piecewise solution at a concrete parameter point. The point
/// assigns values to the variables of \p ParamSpace (matched by name in
/// each piece context); auxiliary floor variables are solved for
/// automatically. Returns the objective values, or nullopt if no piece
/// covers the point (no solution there).
std::optional<std::vector<IntT>> evaluatePiecewise(
    const LexResult &R, const Space &ParamSpace,
    const std::vector<IntT> &ParamVals) {
  assert(ParamVals.size() == ParamSpace.size() &&
         "parameter point over a different space");
  for (const LexPiece &P : R.Pieces) {
    System Pinned = P.Context;
    bool Mapped = true;
    for (unsigned I = 0, E = ParamSpace.size(); I != E; ++I) {
      int J = Pinned.space().indexOf(ParamSpace.name(I));
      if (J < 0) {
        Mapped = false;
        break;
      }
      Pinned.addEQ(Pinned.varExpr(static_cast<unsigned>(J))
                       .plusConst(-ParamVals[I]));
    }
    if (!Mapped)
      continue;
    auto Point = Pinned.sampleIntPoint();
    if (!Point)
      continue;
    std::vector<IntT> Out;
    Out.reserve(P.Values.size());
    for (const AffineExpr &V : P.Values)
      Out.push_back(V.evaluate(*Point));
    return Out;
  }
  return std::nullopt;
}

} // namespace

TEST(LexOptTest, ConstantBox) {
  System S = ijN();
  S.addRange(0, 0, 7);
  S.addRange(1, -2, 3);
  LexResult R = lexMax(S, {0, 1});
  ASSERT_EQ(R.Pieces.size(), 1u);
  auto V = evaluatePiecewise(R, paramSpaceN(), {0});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)[0], 7);
  EXPECT_EQ((*V)[1], 3);
}

TEST(LexOptTest, ParametricUpperBound) {
  // 0 <= i <= N: max i = N, defined only when N >= 0.
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addLE(S.varExpr(0), S.varExpr(2));
  S.addRange(1, 0, 0);
  LexResult R = lexMax(S, {0});
  for (IntT N : {-3, 0, 5}) {
    auto V = evaluatePiecewise(R, paramSpaceN(), {N});
    if (N < 0) {
      EXPECT_FALSE(V.has_value());
    } else {
      ASSERT_TRUE(V.has_value());
      EXPECT_EQ((*V)[0], N);
    }
  }
}

TEST(LexOptTest, MinOfTwoBoundsSplitsIntoPieces) {
  // 0 <= i <= N and i <= 10: max i = min(N, 10).
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addLE(S.varExpr(0), S.varExpr(2));
  S.addGE(S.constExpr(10) - S.varExpr(0));
  S.addRange(1, 0, 0);
  LexResult R = lexMax(S, {0});
  EXPECT_GE(R.Pieces.size(), 2u);
  for (IntT N : {0, 4, 10, 11, 25}) {
    auto V = evaluatePiecewise(R, paramSpaceN(), {N});
    ASSERT_TRUE(V.has_value()) << "N = " << N;
    EXPECT_EQ((*V)[0], std::min<IntT>(N, 10)) << "N = " << N;
  }
}

TEST(LexOptTest, FloorDivisionIntroducesAuxVar) {
  // 0 <= 3i <= N: max i = floor(N/3).
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addLE(S.varExpr(0).scale(3), S.varExpr(2));
  S.addRange(1, 0, 0);
  LexResult R = lexMax(S, {0});
  for (IntT N : {0, 1, 2, 3, 7, 12}) {
    auto V = evaluatePiecewise(R, paramSpaceN(), {N});
    ASSERT_TRUE(V.has_value()) << "N = " << N;
    EXPECT_EQ((*V)[0], N / 3) << "N = " << N;
  }
}

TEST(LexOptTest, TwoObjectivesTriangle) {
  // 0 <= i <= j <= N: lexmax (i, j) = (N, N).
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(1) - S.varExpr(0));
  S.addGE(S.varExpr(2) - S.varExpr(1));
  LexResult R = lexMax(S, {0, 1});
  auto V = evaluatePiecewise(R, paramSpaceN(), {6});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)[0], 6);
  EXPECT_EQ((*V)[1], 6);
}

TEST(LexOptTest, DependentSecondObjective) {
  // 0 <= i <= N, j == i - 3, j >= 0: lexmax = (N, N-3) for N >= 3.
  System S = ijN();
  S.addGE(S.varExpr(0));
  S.addLE(S.varExpr(0), S.varExpr(2));
  S.addEq(S.varExpr(1), S.varExpr(0).plusConst(-3));
  S.addGE(S.varExpr(1));
  LexResult R = lexMax(S, {0, 1});
  auto V = evaluatePiecewise(R, paramSpaceN(), {10});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)[0], 10);
  EXPECT_EQ((*V)[1], 7);
  EXPECT_FALSE(evaluatePiecewise(R, paramSpaceN(), {2}).has_value());
}

TEST(LexOptTest, LexMinMirrorsLexMax) {
  // 2 <= i <= N, 3 <= j <= N: lexmin (i, j) = (2, 3).
  System S = ijN();
  S.addRange(0, 2, 100);
  S.addLE(S.varExpr(0), S.varExpr(2));
  S.addGE(S.varExpr(1).plusConst(-3));
  S.addLE(S.varExpr(1), S.varExpr(2));
  LexResult R = lexMin(S, {0, 1});
  auto V = evaluatePiecewise(R, paramSpaceN(), {9});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)[0], 2);
  EXPECT_EQ((*V)[1], 3);
}

TEST(LexOptTest, LexMinWithFloor) {
  // 2i >= N, i <= 100: min i = ceil(N/2).
  System S = ijN();
  S.addGE(S.varExpr(0).scale(2) - S.varExpr(2));
  S.addGE(S.constExpr(100) - S.varExpr(0));
  S.addRange(1, 0, 0);
  LexResult R = lexMin(S, {0});
  for (IntT N : {0, 1, 5, 8}) {
    auto V = evaluatePiecewise(R, paramSpaceN(), {N});
    ASSERT_TRUE(V.has_value()) << "N = " << N;
    EXPECT_EQ((*V)[0], (N + 1) / 2) << "N = " << N;
  }
}

TEST(LexOptTest, PaperFigure2LastWriteRelation) {
  // The last write for read [tr, ir] in "for t: for i = 3..N: X[i]=X[i-3]"
  // is the write [tw, iw] with X-index iw == ir - 3, at the deepest level:
  // same tw == tr, iw == ir - 3, valid iff iw >= 3, i.e. ir >= 6.
  Space Sp;
  Sp.add("tw", VarKind::Loop);
  Sp.add("iw", VarKind::Loop);
  Sp.add("tr", VarKind::Param);
  Sp.add("ir", VarKind::Param);
  Sp.add("T", VarKind::Param);
  Sp.add("N", VarKind::Param);
  System S(std::move(Sp));
  // Write bounds: 0 <= tw <= T, 3 <= iw <= N.
  S.addGE(S.varExpr(0));
  S.addLE(S.varExpr(0), S.varExpr(4));
  S.addGE(S.varExpr(1).plusConst(-3));
  S.addLE(S.varExpr(1), S.varExpr(5));
  // Same array location: iw == ir - 3.
  S.addEq(S.varExpr(1), S.varExpr(3).plusConst(-3));
  // Execution order: write precedes read at level 2: tw == tr, iw < ir
  // (iw = ir - 3 < ir always holds).
  S.addEq(S.varExpr(0), S.varExpr(2));
  LexResult R = lexMax(S, {0, 1});

  Space PS;
  PS.add("tr", VarKind::Param);
  PS.add("ir", VarKind::Param);
  PS.add("T", VarKind::Param);
  PS.add("N", VarKind::Param);
  // Read [1, 8]: writer exists, [tw, iw] = [1, 5].
  auto V = evaluatePiecewise(R, PS, {1, 8, 4, 10});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)[0], 1);
  EXPECT_EQ((*V)[1], 5);
  // Read [1, 4]: X[1] is never written (iw = 1 < 3): no writer.
  EXPECT_FALSE(evaluatePiecewise(R, PS, {1, 4, 4, 10}).has_value());
}

TEST(LexOptTest, RandomizedAgainstBruteForce) {
  std::mt19937 Rng(42);
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-4, 4);
  for (int Trial = 0; Trial != 30; ++Trial) {
    System S = ijN();
    S.addRange(0, -5, 5);
    S.addRange(1, -5, 5);
    for (int C = 0; C != 3; ++C) {
      AffineExpr E(3);
      E.coeff(0) = Coef(Rng);
      E.coeff(1) = Coef(Rng);
      E.coeff(2) = Coef(Rng);
      E.constant() = Cst(Rng);
      if (!E.isConstant())
        S.addGE(std::move(E));
    }
    LexResult R = lexMax(S, {0, 1});
    if (!R.Exact)
      continue; // approximate results are exercised by curated tests
    for (IntT N = -2; N <= 2; ++N) {
      // Brute-force lexmax over the box with N pinned.
      std::optional<std::vector<IntT>> Best;
      for (IntT I = -5; I <= 5; ++I)
        for (IntT J = -5; J <= 5; ++J)
          if (S.holds({I, J, N})) {
            std::vector<IntT> P{I, J};
            if (!Best || P > *Best)
              Best = P;
          }
      auto Got = evaluatePiecewise(R, paramSpaceN(), {N});
      ASSERT_EQ(Got.has_value(), Best.has_value())
          << "trial " << Trial << " N " << N;
      if (Best) {
        EXPECT_EQ(*Got, *Best) << "trial " << Trial << " N " << N;
      }
    }
  }
}
