//===- tests/dataflow/LWTPropertyTest.cpp ---------------------*- C++ -*-===//
//
// Property test: for a corpus of affine programs, every dynamic read
// instance observed by the instrumented sequential interpreter must agree
// with the Last Write Tree's prediction — same producing statement and
// iteration, or bottom exactly when the value was the initial content.
//
//===----------------------------------------------------------------------===//

#include "dataflow/LastWriteTree.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

struct Case {
  const char *Name;
  const char *Source;
  std::map<std::string, IntT> Params;
};

// Without this, gtest prints a case as its raw bytes, pointers included,
// so the listed test names would change with each run's address layout.
void PrintTo(const Case &C, std::ostream *OS) { *OS << C.Name; }

const Case Corpus[] = {
    {"shift3",
     R"(param T; param N; array X[N + 1];
        for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } })",
     {{"T", 3}, {"N", 11}}},
    {"stencil",
     R"(param T; param N; array X[N + 1]; array Y[N + 1];
        for t = 0 to T { for i = 1 to N - 1 {
          Y[i] = X[i - 1] + X[i] + X[i + 1]; }
          for i2 = 1 to N - 1 { X[i2] = Y[i2]; } })",
     {{"T", 2}, {"N", 9}}},
    {"lu",
     R"(param N; array X[N + 1][N + 1];
        for i1 = 0 to N { for i2 = i1 + 1 to N {
          X[i2][i1] = X[i2][i1] / X[i1][i1];
          for i3 = i1 + 1 to N {
            X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]; } } })",
     {{"N", 6}}},
    {"privatization",
     R"(param N; array w[N + 1]; array out[N + 1][N + 1];
        for i = 0 to N { for j = 0 to N { w[j] = i + j; }
          for j2 = 0 to N { out[i][j2] = w[j2]; } })",
     {{"N", 6}}},
    {"producer_consumer",
     R"(param N; array X[N + 1]; array Y[N + 1];
        for i = 0 to N { X[i] = i;
          for j = max(i, 1) to N { Y[j] = Y[j] + X[j - 1]; } })",
     {{"N", 8}}},
    {"kill_chain",
     R"(param N; array A[N + 1]; array B[N + 1];
        for i = 0 to N { A[i] = 1; }
        for k = 2 to N { A[k] = 3; }
        for j = 0 to N { B[j] = A[j] + A[N - j]; })",
     {{"N", 9}}},
    {"triangular",
     R"(param N; array A[N + 1][N + 1];
        for i = 0 to N { for j = i to N { A[i][j] = i + j; } }
        for i2 = 0 to N { for j2 = 0 to N {
          A[i2][j2] = A[i2][j2] + 1; } })",
     {{"N", 6}}},
    {"accumulator",
     R"(param N; array X[N + 1];
        for i = 1 to N { X[0] = X[0] + X[i]; })",
     {{"N", 9}}},
};

class LWTProperty : public ::testing::TestWithParam<Case> {};

} // namespace

TEST_P(LWTProperty, MatchesInterpreterLastWrites) {
  const Case &C = GetParam();
  Program P = parseProgramOrDie(C.Source);

  // Build one LWT per (statement, read).
  std::vector<std::vector<LastWriteTree>> Trees(P.numStatements());
  for (unsigned S = 0; S != P.numStatements(); ++S)
    for (unsigned R = 0; R != P.statement(S).Reads.size(); ++R)
      Trees[S].push_back(buildLWT(P, S, R));

  SeqInterpreter I(P, C.Params);
  // Parameter values in anchor order follow each tree's AnchorSpace:
  // reader loop indices first, then params.
  unsigned Checked = 0, Mismatches = 0;
  I.setReadCallback([&](unsigned StmtId, unsigned ReadIdx,
                        const std::vector<IntT> &Iter,
                        const WriteInstance *Writer) {
    const LastWriteTree &T = Trees[StmtId][ReadIdx];
    if (!T.Exact)
      return; // approximate trees are allowed to be conservative
    std::vector<IntT> Anchor = Iter;
    for (unsigned K = Iter.size(); K < T.AnchorSpace.size(); ++K)
      Anchor.push_back(C.Params.at(T.AnchorSpace.name(K)));
    LastWriteTree::Lookup L = T.lookup(Anchor);
    ++Checked;
    if (!L.Covered) {
      ++Mismatches;
      ADD_FAILURE() << C.Name << ": S" << StmtId << " read " << ReadIdx
                    << " not covered";
      return;
    }
    if (L.HasWriter != (Writer != nullptr)) {
      ++Mismatches;
      ADD_FAILURE() << C.Name << ": S" << StmtId << " read " << ReadIdx
                    << " writer presence mismatch";
      return;
    }
    if (Writer &&
        (L.WriteStmtId != Writer->StmtId || L.WriteIter != Writer->Iter)) {
      ++Mismatches;
      ADD_FAILURE() << C.Name << ": S" << StmtId << " read " << ReadIdx
                    << " wrong producer";
    }
  });
  I.run();
  EXPECT_GT(Checked, 0u) << "no reads were checked";
  EXPECT_EQ(Mismatches, 0u);
}

TEST_P(LWTProperty, ContextsAreDisjoint) {
  const Case &C = GetParam();
  Program P = parseProgramOrDie(C.Source);
  for (unsigned S = 0; S != P.numStatements(); ++S) {
    for (unsigned R = 0; R != P.statement(S).Reads.size(); ++R) {
      LastWriteTree T = buildLWT(P, S, R);
      if (!T.Exact)
        continue;
      // Sample the read domain and check exactly one context matches.
      System Dom = P.domainOf(S);
      for (unsigned I = 0; I != Dom.space().size(); ++I) {
        if (Dom.space().kind(I) != VarKind::Param)
          continue;
        Dom.addEQ(Dom.varExpr(I).plusConst(
            -C.Params.at(Dom.space().name(I))));
      }
      unsigned Samples = 0;
      Dom.enumeratePoints(
          [&](const std::vector<IntT> &Pt) {
            if (++Samples > 120)
              return;
            unsigned Hits = 0;
            for (const LWTContext &Ctx : T.Contexts) {
              System Pinned = Ctx.Domain;
              for (unsigned I = 0; I != T.AnchorSpace.size(); ++I) {
                int J = Pinned.space().indexOf(T.AnchorSpace.name(I));
                ASSERT_GE(J, 0);
                Pinned.addEQ(Pinned.varExpr(static_cast<unsigned>(J))
                                 .plusConst(-Pt[I]));
              }
              if (Pinned.sampleIntPoint())
                ++Hits;
            }
            EXPECT_EQ(Hits, 1u)
                << C.Name << " S" << S << " read " << R << ": read "
                << "instance in " << Hits << " contexts";
          },
          200000);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LWTProperty, ::testing::ValuesIn(Corpus),
    [](const ::testing::TestParamInfo<Case> &I) { return I.param.Name; });
