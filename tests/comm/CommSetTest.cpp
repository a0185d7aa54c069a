//===- tests/comm/CommSetTest.cpp -----------------------------*- C++ -*-===//
//
// Communication-set construction (Theorems 3/4, Figure 5) and the
// Section 6 redundancy optimizations, validated against ground truth from
// the instrumented sequential interpreter.
//
//===----------------------------------------------------------------------===//

#include "CountDistinct.h"
#include "comm/CommSet.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

/// Pins (ps, s, pr, r, el) and parameters; true if the set contains the
/// tuple (searching existential aux witnesses).
bool contains(const CommSet &CS, const std::vector<IntT> &Ps,
              const std::vector<IntT> &S, const std::vector<IntT> &Pr,
              const std::vector<IntT> &R, const std::vector<IntT> &El,
              const std::map<std::string, IntT> &Params) {
  // A set whose tuple shape differs (e.g. writer-produced vs initial
  // data) cannot contain the transfer.
  if (CS.PsVars.size() != Ps.size() || CS.SVars.size() != S.size() ||
      CS.PrVars.size() != Pr.size() || CS.RVars.size() != R.size() ||
      CS.ElVars.size() != El.size())
    return false;
  System Sys = CS.Sys;
  auto Pin = [&Sys](const std::vector<unsigned> &Vars,
                    const std::vector<IntT> &Vals) {
    for (unsigned K = 0; K != Vars.size(); ++K)
      Sys.addEQ(Sys.varExpr(Vars[K]).plusConst(-Vals[K]));
  };
  Pin(CS.PsVars, Ps);
  Pin(CS.SVars, S);
  Pin(CS.PrVars, Pr);
  Pin(CS.RVars, R);
  Pin(CS.ElVars, El);
  for (unsigned I = 0; I != Sys.space().size(); ++I)
    if (Sys.space().kind(I) == VarKind::Param)
      Sys.addEQ(Sys.varExpr(I).plusConst(
          -Params.at(Sys.space().name(I))));
  return Sys.checkIntegerFeasible() == Feasibility::Feasible;
}

bool anyContains(const std::vector<CommSet> &Sets,
                 const std::vector<IntT> &Ps, const std::vector<IntT> &S,
                 const std::vector<IntT> &Pr, const std::vector<IntT> &R,
                 const std::vector<IntT> &El,
                 const std::map<std::string, IntT> &Params) {
  for (const CommSet &CS : Sets)
    if (contains(CS, Ps, S, Pr, R, El, Params))
      return true;
  return false;
}

} // namespace

TEST(CommSetTest, PaperFigure5ShiftBlocks) {
  // Figure 2 with iterations of the i loop distributed in blocks of 32:
  // processor p executes iterations 32p..32p+31; the value X[i-3] read in
  // the first three iterations of a block was produced on the previous
  // processor (Figure 5's M2 set, nonempty only for ps < pr).
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
  LastWriteTree T = buildLWT(P, 0, 0);
  ASSERT_TRUE(T.Exact);
  Decomposition Comp = blockComputation(P, 0, /*LoopPos=*/1, 32);

  std::map<std::string, IntT> Params{{"T", 10}, {"N", 100}};
  std::vector<CommSet> All;
  for (const LWTContext &Ctx : T.Contexts) {
    if (!Ctx.HasWriter)
      continue; // M1 reads initial data; no producer communication
    auto Sets = buildCommSets(P, T, Ctx, Comp, &Comp, nullptr, 1);
    for (CommSet &CS : Sets)
      All.push_back(std::move(CS));
  }
  ASSERT_FALSE(All.empty());

  // Receiver p=1 at iteration (t=2, i=32) needs X[29] written by p=0 at
  // (2, 29) — the paper's boundary transfer.
  EXPECT_TRUE(anyContains(All, {0}, {2, 29}, {1}, {2, 32}, {29}, Params));
  // Iteration (2, 35) reads X[32], produced on the same processor: no
  // communication tuple may exist.
  EXPECT_FALSE(anyContains(All, {1}, {2, 32}, {1}, {2, 35}, {32}, Params));
  // And nothing flows backwards (ps > pr): receiver 0 never gets data
  // from processor 1.
  EXPECT_FALSE(anyContains(All, {1}, {2, 35}, {0}, {2, 38}, {35}, Params));
  // Per outer iteration, each of the 3 boundary elements of each interior
  // block moves once: senders 0..2 for 4 blocks of i in 3..100.
  uint64_t Transfers = 0;
  for (const CommSet &CS : All)
    Transfers += countDistinct(CS, {CS.PsVars, CS.SVars, CS.PrVars,
                                    CS.RVars, CS.ElVars},
                               Params);
  // 11 outer iterations * 3 receiving blocks (p = 1..3) * 3 elements.
  EXPECT_EQ(Transfers, 11u * 3u * 3u);
}

TEST(CommSetTest, InitialDataTheorem4) {
  // Bottom contexts fetch from the initial layout. X[0..2] are never
  // written; blocks of 32 mean those elements live on processor 0.
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
  LastWriteTree T = buildLWT(P, 0, 0);
  Decomposition Comp = blockComputation(P, 0, 1, 32);
  Decomposition Data = blockData(P, 0, 0, 32);

  std::map<std::string, IntT> Params{{"T", 4}, {"N", 100}};
  std::vector<CommSet> All;
  for (const LWTContext &Ctx : T.Contexts) {
    if (Ctx.HasWriter)
      continue;
    auto Sets = buildCommSets(P, T, Ctx, Comp, nullptr, &Data, 1);
    for (CommSet &CS : Sets)
      All.push_back(std::move(CS));
  }
  // The bottom context covers reads at i in 3..5 (t arbitrary): they read
  // X[0..2], owned by processor 0 and consumed by processor 0: with the
  // owner as the only sender and receiver 0 owning the data, no
  // communication sets survive.
  uint64_t Transfers = 0;
  for (const CommSet &CS : All)
    Transfers += countDistinct(CS, {CS.PsVars, CS.PrVars, CS.ElVars},
                               Params);
  EXPECT_EQ(Transfers, 0u);
}

TEST(CommSetTest, InitialDataCrossProcessorFetch) {
  // A reversal forces cross-processor initial fetches: iteration i reads
  // B[N - i] under block distribution of both.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array B[N + 1];
for i = 0 to N {
  A[i] = B[N - i];
}
)");
  LastWriteTree T = buildLWT(P, 0, 0);
  ASSERT_EQ(T.numWriterContexts(), 0u);
  Decomposition Comp = blockComputation(P, 0, 0, 4);
  Decomposition Data = blockData(P, 1, 0, 4);
  std::map<std::string, IntT> Params{{"N", 7}};

  std::vector<CommSet> All;
  for (const LWTContext &Ctx : T.Contexts) {
    auto Sets = buildCommSets(P, T, Ctx, Comp, nullptr, &Data, 1);
    for (CommSet &CS : Sets)
      All.push_back(std::move(CS));
  }
  // N=7: processors 0 (i=0..3) and 1 (i=4..7). i=0 reads B[7] (owner 1):
  // cross transfer; i=4 reads B[3] (owner 0): cross transfer.
  EXPECT_TRUE(anyContains(All, {1}, {}, {0}, {0}, {7}, Params));
  EXPECT_TRUE(anyContains(All, {0}, {}, {1}, {4}, {3}, Params));
  // i=3 reads B[4]... owner 1, reader 0: cross as well.
  EXPECT_TRUE(anyContains(All, {1}, {}, {0}, {3}, {4}, Params));
  uint64_t Transfers = 0;
  for (const CommSet &CS : All)
    Transfers += countDistinct(CS, {CS.PrVars, CS.ElVars}, Params);
  EXPECT_EQ(Transfers, 8u); // every read is non-local here
}

TEST(CommSetTest, ReplicatedInitialDataNeedsNoCommunication) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
array B[N + 1];
for i = 0 to N {
  A[i] = B[N - i];
}
)");
  LastWriteTree T = buildLWT(P, 0, 0);
  Decomposition Comp = blockComputation(P, 0, 0, 4);
  Decomposition Data = replicatedData(P, 1);
  for (const LWTContext &Ctx : T.Contexts) {
    auto Sets = buildCommSets(P, T, Ctx, Comp, nullptr, &Data, 1);
    EXPECT_TRUE(Sets.empty());
  }
}

TEST(CommSetTest, SelfReuseElimination) {
  // The same X[i-1] value is read by every iteration of the inner loop;
  // without optimization it would be fetched once per read instance.
  // After self-reuse elimination (Section 6.1.1), each value crosses to
  // each consuming processor exactly once, at the earliest read.
  Program P = parseProgramOrDie(R"(
param N;
array X[N + 1];
array Y[N + 1];
for i = 1 to N {
  X[i] = i;
  for j = 0 to N {
    Y[j] = Y[j] + X[i - 1];
  }
}
)");
  LastWriteTree T = buildLWT(P, 1, 1);
  ASSERT_TRUE(T.Exact);
  // Producer runs on the owner of X[i] (blocks of 4); consumer iteration
  // (i, j) runs on the owner of Y[j].
  Decomposition ProdComp = blockComputation(P, 0, 0, 4);
  Decomposition ConsComp = blockComputation(P, 1, 1, 4);

  std::map<std::string, IntT> Params{{"N", 11}};
  uint64_t Before = 0, After = 0, Values = 0;
  for (const LWTContext &Ctx : T.Contexts) {
    if (!Ctx.HasWriter)
      continue;
    auto Sets = buildCommSets(P, T, Ctx, ConsComp, &ProdComp, nullptr, 1);
    for (CommSet &CS : Sets) {
      Before += countDistinct(CS, {CS.PsVars, CS.SVars, CS.PrVars,
                                   CS.RVars, CS.ElVars},
                              Params);
      Values += countDistinct(CS, {CS.PsVars, CS.SVars, CS.PrVars,
                                   CS.ElVars},
                              Params);
      for (CommSet &Thin : eliminateSelfReuse(CS))
        After += countDistinct(Thin, {Thin.PsVars, Thin.SVars, Thin.PrVars,
                                      Thin.RVars, Thin.ElVars},
                               Params);
    }
  }
  EXPECT_GT(Before, After);
  // After elimination there is exactly one receive iteration per value.
  EXPECT_EQ(After, Values);
  EXPECT_GT(After, 0u);
}

TEST(CommSetTest, MulticastDetection) {
  // In the accumulator X[0] = X[0] + X[i] with the reduction distributed
  // cyclically, the value X[0] produced at iteration i-1 goes to exactly
  // one next processor: content depends on nothing but the sender, yet
  // the element is fixed, so the message content is independent of the
  // receiver: multicast-eligible.
  Program P = parseProgramOrDie(R"(
param N;
array X[N + 1];
for i = 1 to N {
  X[0] = X[0] + X[i];
}
)");
  LastWriteTree T = buildLWT(P, 0, 0);
  Decomposition Comp = cyclicComputation(P, 0, 0);
  for (const LWTContext &Ctx : T.Contexts) {
    if (!Ctx.HasWriter)
      continue;
    auto Sets = buildCommSets(P, T, Ctx, Comp, &Comp, nullptr, 1);
    for (CommSet &CS : Sets)
      EXPECT_TRUE(detectMulticast(CS));
  }
}

TEST(CommSetTest, GroundTruthAgainstInterpreter) {
  // Every cross-processor (value producer, consumer) pair observed during
  // real execution must appear in some communication set, and every
  // communication tuple must correspond to a real cross-processor read.
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
  std::map<std::string, IntT> Params{{"T", 3}, {"N", 23}};
  LastWriteTree T = buildLWT(P, 0, 0);
  ASSERT_TRUE(T.Exact);
  Decomposition Comp = blockComputation(P, 0, 1, 4);
  Decomposition Data = blockData(P, 0, 0, 4);

  std::vector<CommSet> All;
  for (const LWTContext &Ctx : T.Contexts) {
    auto Sets = Ctx.HasWriter
                    ? buildCommSets(P, T, Ctx, Comp, &Comp, nullptr, 1)
                    : buildCommSets(P, T, Ctx, Comp, nullptr, &Data, 1);
    for (CommSet &CS : Sets)
      All.push_back(std::move(CS));
  }

  // Ground truth from execution.
  std::set<std::vector<IntT>> Needed; // (ps, s..., pr, r..., el)
  SeqInterpreter I(P, Params);
  I.setReadCallback([&](unsigned StmtId, unsigned ReadIdx,
                        const std::vector<IntT> &Iter,
                        const WriteInstance *Writer) {
    ASSERT_EQ(StmtId, 0u);
    ASSERT_EQ(ReadIdx, 0u);
    std::vector<IntT> RSrc = Iter;
    RSrc.push_back(Params.at("T"));
    RSrc.push_back(Params.at("N"));
    IntT Pr = Comp.gridCoordinate(RSrc)[0];
    IntT El = Iter[1] - 3;
    if (Writer) {
      std::vector<IntT> WSrc = Writer->Iter;
      WSrc.push_back(Params.at("T"));
      WSrc.push_back(Params.at("N"));
      IntT Ps = Comp.gridCoordinate(WSrc)[0];
      if (Ps == Pr)
        return;
      Needed.insert({Ps, Writer->Iter[0], Writer->Iter[1], Pr, Iter[0],
                     Iter[1], El});
    } else {
      IntT Ps = Data.gridCoordinate({El, Params.at("T"),
                                     Params.at("N")})[0];
      if (Ps == Pr)
        return;
      Needed.insert({Ps, Pr, Iter[0], Iter[1], El});
    }
  });
  I.run();
  ASSERT_FALSE(Needed.empty());

  // Soundness: every needed transfer is covered.
  for (const std::vector<IntT> &Tup : Needed) {
    bool Found = false;
    if (Tup.size() == 7) {
      Found = anyContains(All, {Tup[0]}, {Tup[1], Tup[2]}, {Tup[3]},
                          {Tup[4], Tup[5]}, {Tup[6]}, Params);
    } else {
      Found = anyContains(All, {Tup[0]}, {}, {Tup[1]}, {Tup[2], Tup[3]},
                          {Tup[4]}, Params);
    }
    EXPECT_TRUE(Found) << "missing transfer";
    if (!Found)
      break;
  }

  // Precision: every enumerated tuple is genuinely needed.
  for (const CommSet &CS : All) {
    System S = CS.Sys;
    for (unsigned I2 = 0; I2 != S.space().size(); ++I2)
      if (S.space().kind(I2) == VarKind::Param)
        S.addEQ(S.varExpr(I2).plusConst(
            -Params.at(S.space().name(I2))));
    S.enumeratePoints([&](const std::vector<IntT> &Pt) {
      std::vector<IntT> Key;
      Key.push_back(Pt[CS.PsVars[0]]);
      for (unsigned V : CS.SVars)
        Key.push_back(Pt[V]);
      Key.push_back(Pt[CS.PrVars[0]]);
      for (unsigned V : CS.RVars)
        Key.push_back(Pt[V]);
      Key.push_back(Pt[CS.ElVars[0]]);
      EXPECT_TRUE(Needed.count(Key)) << "spurious transfer";
    });
  }
}
