//===- tests/codegen/SimplifyTest.cpp -------------------------*- C++ -*-===//
//
// The context simplifier (codegen/Simplify.h) on every compiled example,
// plain and with early sends: no emitted If keeps a condition its
// context implies or has no point under it, no For has an empty range
// under its context, and simplifying again changes nothing.
//
// The checker below tracks a context of its own, weaker than the
// simplifier's (it drops every fact about a reassigned variable instead
// of projecting it out), and asks the full-width feasibility test
// directly, so a condition it finds implied is one the simplifier should
// have dropped.
//
//===----------------------------------------------------------------------===//

#include "codegen/Simplify.h"
#include "core/SpecParser.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace dmcc;

namespace {

struct Case {
  const char *Name;
  bool Early;
};

void PrintTo(const Case &C, std::ostream *OS) {
  *OS << C.Name << (C.Early ? "_early" : "");
}

CompiledProgram compileExample(const Case &C) {
  std::ifstream In(std::string(DMCC_REPO_ROOT) + "/examples/" + C.Name +
                   ".dm");
  EXPECT_TRUE(In.good()) << C.Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  EXPECT_TRUE(SP.ok()) << SP.Error;
  CompilerOptions Opts;
  Opts.EarlySends = C.Early;
  return compile(*SP.Prog, SP.Spec, Opts);
}

AffineExpr wide(AffineExpr E, unsigned N) {
  while (E.size() < N)
    E.appendVar();
  return E;
}

class Checker {
public:
  explicit Checker(const SpmdProgram &Prog) : Prog(Prog) {}

  void list(const std::vector<SpmdStmt> &Stmts, System &Ctx) {
    for (const SpmdStmt &S : Stmts)
      stmt(S, Ctx);
  }

  unsigned Loops = 0;

private:
  unsigned width() const { return Prog.Sp.size(); }

  bool empty(System S) const { return S.isIntegerEmpty(); }

  void drop(System &Ctx, const std::set<unsigned> &Vars) const {
    System Kept(Ctx.space());
    for (ConstraintRef C : Ctx.constraints()) {
      bool Reads = false;
      for (unsigned V : Vars)
        Reads = Reads || C.involves(V);
      if (!Reads)
        Kept.addConstraint(C.constraint());
    }
    Ctx = std::move(Kept);
  }

  void stmt(const SpmdStmt &S, System &Ctx) {
    unsigned N = width();
    std::set<unsigned> Assigned;
    assignedVars(S.Body, Assigned);
    switch (S.K) {
    case SpmdStmt::Kind::SetVar: {
      drop(Ctx, {S.Var});
      AffineExpr V = wide(S.Value, N);
      if (S.ValueDen == 1 && !V.involves(S.Var))
        Ctx.addEq(Ctx.varExpr(S.Var), V);
      return;
    }
    case SpmdStmt::Kind::If: {
      System In = Ctx;
      for (const Constraint &C : S.Conds) {
        AffineExpr E = wide(C.Expr, N);
        In.addConstraint(Constraint(E, C.Rel));
        System Neg = Ctx;
        Neg.addGE(E.negated().plusConst(-1)); // E <= -1
        bool Implied = empty(Neg);
        if (Implied && C.isEquality()) {
          System Pos = Ctx;
          Pos.addGE(E.plusConst(-1)); // E >= 1
          Implied = empty(Pos);
        }
        EXPECT_FALSE(Implied) << "implied guard condition "
                              << C.str(Prog.Sp) << "\n"
                              << Ctx.str();
      }
      EXPECT_FALSE(empty(In)) << "guard with no point\n" << In.str();
      list(S.Body, In);
      break;
    }
    case SpmdStmt::Kind::For: {
      ++Loops;
      Assigned.insert(S.Var);
      System In = Ctx;
      drop(In, Assigned);
      for (const SpmdBound &B : S.Lower) {
        AffineExpr Num = wide(B.Num, N);
        In.addGE(In.varExpr(S.Var).scale(B.Den) - Num);
      }
      for (const SpmdBound &B : S.Upper) {
        AffineExpr Num = wide(B.Num, N);
        In.addGE(Num - In.varExpr(S.Var).scale(B.Den));
      }
      // Terms reading body-assigned variables were added too; that only
      // matters in the first iteration, so check the range before
      // dropping them again.
      EXPECT_FALSE(empty(In)) << "loop over " << Prog.Sp.name(S.Var)
                              << " has an empty range\n"
                              << In.str();
      System Body(In.space());
      for (ConstraintRef C : In.constraints()) {
        bool Stale = false;
        for (unsigned V : Assigned)
          Stale = Stale || (V != S.Var && C.involves(V));
        if (!Stale)
          Body.addConstraint(C.constraint());
      }
      list(S.Body, Body);
      break;
    }
    case SpmdStmt::Kind::Send:
    case SpmdStmt::Kind::Recv: {
      System In = Ctx;
      list(S.Body, In);
      break;
    }
    default:
      return;
    }
    if (S.K == SpmdStmt::Kind::For)
      Assigned.insert(S.Var);
    drop(Ctx, Assigned);
  }

  const SpmdProgram &Prog;
};

class SimplifyFixpoint : public ::testing::TestWithParam<Case> {};

} // namespace

TEST_P(SimplifyFixpoint, NoImpliedGuardNoEmptyLoopAndASecondPassIsANoOp) {
  CompiledProgram CP = compileExample(GetParam());
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;
  Checker Ch(CP.Spmd);
  System Ctx((Space(CP.Spmd.Sp)));
  Ch.list(CP.Spmd.Top, Ctx);
  EXPECT_GT(Ch.Loops, 0u);

  SpmdProgram Again = CP.Spmd;
  SpmdSimplifier Simp(Again, 0);
  Simp.run(Again.Top);
  const SimplifyStats &St = Simp.Stats;
  EXPECT_EQ(Again.str(), CP.Spmd.str());
  EXPECT_EQ(St.CondsDropped, 0u);
  EXPECT_EQ(St.IfsDeleted, 0u);
  EXPECT_EQ(St.LoopsDeleted, 0u);
  EXPECT_EQ(St.BoundsFolded, 0u);
  EXPECT_EQ(St.GuardsHoisted, 0u);
  EXPECT_EQ(St.DeadSetsDeleted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, SimplifyFixpoint,
    ::testing::Values(Case{"lu", false}, Case{"lu", true},
                      Case{"stencil", false}, Case{"stencil", true},
                      Case{"cholesky", false}, Case{"cholesky", true},
                      Case{"jacobi2d", false}, Case{"jacobi2d", true},
                      Case{"jacobi3d", false}, Case{"jacobi3d", true},
                      Case{"adi", false}, Case{"adi", true},
                      Case{"floyd", false}, Case{"floyd", true}),
    [](const ::testing::TestParamInfo<Case> &I) {
      return std::string(I.param.Name) + (I.param.Early ? "_early" : "");
    });
