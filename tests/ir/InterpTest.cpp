//===- tests/ir/InterpTest.cpp --------------------------------*- C++ -*-===//

#include "frontend/Parser.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

using namespace dmcc;

TEST(InterpTest, SimpleAssignment) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N];
for i = 0 to N - 1 { A[i] = i + 1; }
)");
  SeqInterpreter I(P, {{"N", 5}});
  I.run();
  EXPECT_EQ(I.executedStatements(), 5u);
  for (IntT K = 0; K < 5; ++K)
    EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), static_cast<double>(K + 1));
}

TEST(InterpTest, ShiftReadsPriorValues) {
  // X[i] = X[i-3]: values propagate forward by 3 each t iteration.
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
  SeqInterpreter I(P, {{"T", 2}, {"N", 9}});
  I.run();
  // After any number of sweeps, X[i] ends up equal to the initial value of
  // X[i mod 3] (chains propagate the base cell forward).
  for (IntT K = 3; K <= 9; ++K)
    EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), initialArrayValue(0, K % 3));
}

TEST(InterpTest, LastWriterTracking) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N];
for i = 0 to N - 1 { A[i] = i; }
for j = 0 to N - 2 { A[j] = A[j + 1]; }
)");
  SeqInterpreter I(P, {{"N", 4}});
  I.run();
  // A[2] was last written by statement 1 at j = 2.
  const WriteInstance *W = I.lastWriter(0, {2});
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->StmtId, 1u);
  ASSERT_EQ(W->Iter.size(), 1u);
  EXPECT_EQ(W->Iter[0], 2);
  // A[3] was last written by statement 0 at i = 3.
  W = I.lastWriter(0, {3});
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->StmtId, 0u);
  EXPECT_EQ(W->Iter[0], 3);
}

TEST(InterpTest, ReadCallbackReportsWriters) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
for i = 1 to N { A[i] = A[i - 1]; }
)");
  SeqInterpreter I(P, {{"N", 3}});
  unsigned Reads = 0, FromInitial = 0, FromStmt = 0;
  I.setReadCallback([&](unsigned StmtId, unsigned ReadIdx,
                        const std::vector<IntT> &Iter,
                        const WriteInstance *Writer) {
    ++Reads;
    EXPECT_EQ(StmtId, 0u);
    EXPECT_EQ(ReadIdx, 0u);
    if (!Writer) {
      ++FromInitial;
      EXPECT_EQ(Iter[0], 1); // only A[0] is never written
    } else {
      ++FromStmt;
      EXPECT_EQ(Writer->Iter[0], Iter[0] - 1);
    }
  });
  I.run();
  EXPECT_EQ(Reads, 3u);
  EXPECT_EQ(FromInitial, 1u);
  EXPECT_EQ(FromStmt, 2u);
}

TEST(InterpTest, OverwrittenElementReportsLatestWriter) {
  Program P = parseProgramOrDie(R"(
param T;
param N;
array A[N];
for t = 0 to T {
  for i = 0 to N - 1 { A[i] = t + i; }
}
)");
  SeqInterpreter I(P, {{"T", 9}, {"N", 4}});
  I.run();
  EXPECT_EQ(I.executedStatements(), 40u);
  for (IntT K = 0; K < 4; ++K) {
    const WriteInstance *W = I.lastWriter(0, {K});
    ASSERT_NE(W, nullptr);
    EXPECT_EQ(W->StmtId, 0u);
    EXPECT_EQ(W->Iter, (std::vector<IntT>{9, K}));
    EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), static_cast<double>(9 + K));
  }
}

TEST(InterpTest, SelfUpdateReadsPreviousInstance) {
  // The read of A[i] happens before the write, so it must see the
  // previous t iteration's instance, or the initial value at t = 0.
  Program P = parseProgramOrDie(R"(
param T;
param N;
array A[N];
for t = 0 to T {
  for i = 0 to N - 1 { A[i] = A[i] + 1; }
}
)");
  SeqInterpreter I(P, {{"T", 3}, {"N", 5}});
  unsigned Reads = 0, FromInitial = 0;
  I.setReadCallback([&](unsigned StmtId, unsigned ReadIdx,
                        const std::vector<IntT> &Iter,
                        const WriteInstance *Writer) {
    ++Reads;
    EXPECT_EQ(StmtId, 0u);
    EXPECT_EQ(ReadIdx, 0u);
    ASSERT_EQ(Iter.size(), 2u);
    if (Iter[0] == 0) {
      ++FromInitial;
      EXPECT_EQ(Writer, nullptr);
      return;
    }
    ASSERT_NE(Writer, nullptr);
    EXPECT_EQ(Writer->StmtId, 0u);
    EXPECT_EQ(Writer->Iter, (std::vector<IntT>{Iter[0] - 1, Iter[1]}));
  });
  I.run();
  EXPECT_EQ(Reads, 20u);
  EXPECT_EQ(FromInitial, 5u);
  for (IntT K = 0; K < 5; ++K)
    EXPECT_DOUBLE_EQ(I.arrayValue(0, {K}), initialArrayValue(0, K) + 4);
}

TEST(InterpTest, WriterIterFollowsWriterDepth) {
  // One element written by statements of different depths: the slot's
  // Iter must take the latest writer's length, not keep a stale one.
  Program Deeper = parseProgramOrDie(R"(
param N;
array A[N];
for i = 0 to N - 1 { A[i] = 1; }
for j = 0 to N - 1 {
  for k = 0 to 1 { A[j] = k; }
}
)");
  SeqInterpreter I(Deeper, {{"N", 3}});
  I.run();
  const WriteInstance *W = I.lastWriter(0, {2});
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->StmtId, 1u);
  EXPECT_EQ(W->Iter, (std::vector<IntT>{2, 1}));

  Program Shallower = parseProgramOrDie(R"(
param N;
array A[N];
for j = 0 to N - 1 {
  for k = 0 to 1 { A[j] = k; }
}
for i = 0 to N - 1 { A[i] = 1; }
)");
  SeqInterpreter J(Shallower, {{"N", 3}});
  J.run();
  W = J.lastWriter(0, {2});
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->StmtId, 1u);
  EXPECT_EQ(W->Iter, (std::vector<IntT>{2}));
}

TEST(InterpTest, LUComputesFactorization) {
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
  SeqInterpreter I(P, {{"N", 3}});
  I.run();
  // Reconstruct A = L*U from the in-place factorization and compare with
  // the initial array contents.
  IntT N = 3;
  auto A0 = [&](IntT R, IntT C) {
    return initialArrayValue(0, R * (N + 1) + C);
  };
  auto LU = [&](IntT R, IntT C) { return I.arrayValue(0, {R, C}); };
  for (IntT R = 0; R <= N; ++R)
    for (IntT C = 0; C <= N; ++C) {
      double Sum = 0;
      for (IntT K = 0; K <= std::min(R, C); ++K) {
        double L = K == R ? 1.0 : LU(R, K);
        double U = LU(K, C);
        Sum += L * U;
      }
      EXPECT_NEAR(Sum, A0(R, C), 1e-9) << "at " << R << "," << C;
    }
}

TEST(InterpTest, ArrayContents) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N];
for i = 2 to N - 1 { A[i] = 7; }
)");
  SeqInterpreter I(P, {{"N", 4}});
  I.run();
  std::vector<double> C = I.arrayContents(0);
  ASSERT_EQ(C.size(), 4u);
  EXPECT_DOUBLE_EQ(C[0], initialArrayValue(0, 0));
  EXPECT_DOUBLE_EQ(C[1], initialArrayValue(0, 1));
  EXPECT_DOUBLE_EQ(C[2], 7);
  EXPECT_DOUBLE_EQ(C[3], 7);
}

TEST(InterpTest, InitialValuesAreDeterministic) {
  EXPECT_DOUBLE_EQ(initialArrayValue(0, 0), initialArrayValue(0, 0));
  EXPECT_NE(initialArrayValue(0, 1), initialArrayValue(0, 2));
  EXPECT_GE(initialArrayValue(3, 17), 1.0);
  EXPECT_LT(initialArrayValue(3, 17), 2.0);
}
