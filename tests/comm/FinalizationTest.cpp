//===- tests/comm/FinalizationTest.cpp ------------------------*- C++ -*-===//
//
// Section 4.4.3: finalization communication — moving each element's final
// value (or untouched initial value) to its home under the final layout.
//
//===----------------------------------------------------------------------===//

#include "CountDistinct.h"
#include "comm/CommSet.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace dmcc;

namespace {

bool containsFinal(const std::vector<CommSet> &Sets,
                   const std::vector<IntT> &Ps, const std::vector<IntT> &S,
                   const std::vector<IntT> &Pr, const std::vector<IntT> &El,
                   const std::map<std::string, IntT> &Params) {
  for (const CommSet &CS : Sets) {
    if (CS.PsVars.size() != Ps.size() || CS.SVars.size() != S.size() ||
        CS.PrVars.size() != Pr.size() || CS.ElVars.size() != El.size())
      continue;
    System Sys = CS.Sys;
    auto Pin = [&Sys](const std::vector<unsigned> &Vars,
                      const std::vector<IntT> &Vals) {
      for (unsigned K = 0; K != Vars.size(); ++K)
        Sys.addEQ(Sys.varExpr(Vars[K]).plusConst(-Vals[K]));
    };
    Pin(CS.PsVars, Ps);
    Pin(CS.SVars, S);
    Pin(CS.PrVars, Pr);
    Pin(CS.ElVars, El);
    for (unsigned I = 0; I != Sys.space().size(); ++I)
      if (Sys.space().kind(I) == VarKind::Param)
        Sys.addEQ(
            Sys.varExpr(I).plusConst(-Params.at(Sys.space().name(I))));
    if (Sys.checkIntegerFeasible() == Feasibility::Feasible)
      return true;
  }
  return false;
}

} // namespace

TEST(FinalizationTest, RedistributionOfComputedValues) {
  // Values are computed under owner-computes on blocks of 4 but must end
  // up cyclic: every element moves from block owner to cyclic owner.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
for i = 0 to N {
  A[i] = i;
}
)");
  LastWriteTree AT = buildArrayLastWrites(P, 0);
  ASSERT_TRUE(AT.Exact);
  Decomposition Blocks = blockData(P, 0, 0, 4);
  Decomposition Cyc = cyclicData(P, 0, 0);
  Decomposition Comp = ownerComputes(P, 0, Blocks);

  std::map<std::string, IntT> Params{{"N", 11}};
  std::vector<CommSet> All;
  for (const LWTContext &Ctx : AT.Contexts) {
    ASSERT_TRUE(Ctx.HasWriter); // every element is written
    for (CommSet &CS :
         buildFinalizationSets(P, AT, Ctx, &Comp, nullptr, Cyc, 1))
      All.push_back(std::move(CS));
  }
  ASSERT_FALSE(All.empty());
  // Element 5: computed on block owner 1, final home = cyclic owner 5.
  EXPECT_TRUE(containsFinal(All, {1}, {5}, {5}, {5}, Params));
  // Element 1: computed on 0, final home 1.
  EXPECT_TRUE(containsFinal(All, {0}, {1}, {1}, {1}, Params));
  // Element 0: computed on 0, final home 0: no transfer.
  EXPECT_FALSE(containsFinal(All, {0}, {0}, {0}, {0}, Params));
  // Total moved words = elements whose block owner != index.
  uint64_t Words = 0;
  for (const CommSet &CS : All)
    Words += countDistinct(CS, {CS.PrVars, CS.ElVars}, Params);
  uint64_t Expect = 0;
  for (IntT E = 0; E <= 11; ++E)
    if (E / 4 != E)
      ++Expect;
  EXPECT_EQ(Words, Expect);
}

TEST(FinalizationTest, UntouchedElementsMoveFromInitialOwners) {
  // Only half the array is written; the untouched half's initial values
  // must still reach the (different) final layout.
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
for i = 0 to 5 {
  A[i] = i;
}
)");
  LastWriteTree AT = buildArrayLastWrites(P, 0);
  Decomposition Init = blockData(P, 0, 0, 4);
  Decomposition Fin = blockData(P, 0, 0, 2);
  Decomposition Comp = ownerComputes(P, 0, Init);

  std::map<std::string, IntT> Params{{"N", 11}};
  std::vector<CommSet> All;
  unsigned BottomCtxs = 0;
  for (const LWTContext &Ctx : AT.Contexts) {
    if (!Ctx.HasWriter)
      ++BottomCtxs;
    for (CommSet &CS : buildFinalizationSets(
             P, AT, Ctx, Ctx.HasWriter ? &Comp : nullptr, &Init, Fin, 1))
      All.push_back(std::move(CS));
  }
  EXPECT_GE(BottomCtxs, 1u);
  // Untouched element 9: initial owner 9/4 = 2, final owner 9/2 = 4.
  EXPECT_TRUE(containsFinal(All, {2}, {}, {4}, {9}, Params));
  // Written element 5: producer owner 1, final owner 2.
  EXPECT_TRUE(containsFinal(All, {1}, {5}, {2}, {5}, Params));
  // Untouched element 8: initial owner 2, final owner 4.
  EXPECT_TRUE(containsFinal(All, {2}, {}, {4}, {8}, Params));
  // Element 1: initial/producer owner 0, final owner 0: no move.
  EXPECT_FALSE(containsFinal(All, {0}, {1}, {0}, {1}, Params));
}

TEST(FinalizationTest, IdenticalLayoutsProduceNoTraffic) {
  Program P = parseProgramOrDie(R"(
param N;
array A[N + 1];
for i = 0 to N {
  A[i] = i;
}
)");
  LastWriteTree AT = buildArrayLastWrites(P, 0);
  Decomposition D = blockData(P, 0, 0, 4);
  Decomposition Comp = ownerComputes(P, 0, D);
  for (const LWTContext &Ctx : AT.Contexts) {
    auto Sets = buildFinalizationSets(P, AT, Ctx, &Comp, &D, D, 1);
    EXPECT_TRUE(Sets.empty());
  }
}
