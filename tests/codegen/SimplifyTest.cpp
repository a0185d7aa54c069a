//===- tests/codegen/SimplifyTest.cpp -------------------------*- C++ -*-===//
//
// The context simplifier (codegen/Simplify.h) on every compiled example,
// plain and with early sends: no emitted If keeps a condition its
// context implies or has no point under it, no For has an empty range
// under its context, and simplifying again changes nothing. No SetVar's
// target is dead at its point, and no two adjacent Ifs could be merged.
// Small hand-built programs pin the liveness and merging rules.
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

void addReads(const AffineExpr &E, std::set<unsigned> &Live) {
  for (unsigned V = 0; V != E.size(); ++V)
    if (E.involves(V))
      Live.insert(V);
}

/// Plain backward liveness: a variable is live when some path reads it
/// before assigning it. A loop body may run any number of times, and an
/// If, send or receive body may be skipped. Every SetVar whose target is
/// dead by this measure is reported.
class DeadSetChecker {
public:
  explicit DeadSetChecker(const SpmdProgram &Prog) : Prog(Prog) {}

  std::set<unsigned> before(const std::vector<SpmdStmt> &Stmts,
                            std::set<unsigned> Live, bool Report) {
    for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It) {
      const SpmdStmt &S = *It;
      switch (S.K) {
      case SpmdStmt::Kind::SetVar:
        if (Report) {
          ++SetVars;
          EXPECT_TRUE(Live.count(S.Var))
              << "dead assignment to " << Prog.Sp.name(S.Var);
        }
        Live.erase(S.Var);
        addReads(S.Value, Live);
        break;
      case SpmdStmt::Kind::For: {
        std::set<unsigned> End = Live;
        End.insert(S.Var); // the next iteration advances it
        for (;;) {
          std::set<unsigned> Next = before(S.Body, End, false);
          Next.insert(End.begin(), End.end());
          if (Next == End)
            break;
          End = std::move(Next);
        }
        std::set<unsigned> In = before(S.Body, End, Report);
        In.erase(S.Var);
        Live.insert(In.begin(), In.end());
        for (const SpmdBound &B : S.Lower)
          addReads(B.Num, Live);
        for (const SpmdBound &B : S.Upper)
          addReads(B.Num, Live);
        break;
      }
      default: {
        std::set<unsigned> In = before(S.Body, Live, Report);
        Live.insert(In.begin(), In.end());
        for (const Constraint &C : S.Conds)
          addReads(C.Expr, Live);
        for (const std::vector<AffineExpr> *Es :
             {&S.Peer, &S.IterExprs, &S.Indices})
          for (const AffineExpr &E : *Es)
            addReads(E, Live);
        break;
      }
      }
    }
    return Live;
  }

  unsigned SetVars = 0;

private:
  const SpmdProgram &Prog;
};

/// Reports every pair of adjacent Ifs, at any depth, that test the same
/// conditions when the first body assigns none of their variables.
void expectNoMergeableIfs(const SpmdProgram &Prog,
                          const std::vector<SpmdStmt> &Stmts) {
  auto Conds = [&](const SpmdStmt &If) {
    std::set<std::string> Out;
    for (const Constraint &C : If.Conds)
      Out.insert(C.str(Prog.Sp));
    return Out;
  };
  for (size_t I = 0; I != Stmts.size(); ++I) {
    expectNoMergeableIfs(Prog, Stmts[I].Body);
    if (I == 0 || Stmts[I - 1].K != SpmdStmt::Kind::If ||
        Stmts[I].K != SpmdStmt::Kind::If ||
        Conds(Stmts[I - 1]) != Conds(Stmts[I]))
      continue;
    std::set<unsigned> Assigned, Read;
    assignedVars(Stmts[I - 1].Body, Assigned);
    for (const Constraint &C : Stmts[I].Conds)
      addReads(C.Expr, Read);
    bool Clobbered = false;
    for (unsigned V : Read)
      Clobbered = Clobbered || Assigned.count(V);
    std::string Shown;
    for (const std::string &C : Conds(Stmts[I]))
      Shown += " " + C;
    EXPECT_TRUE(Clobbered) << "adjacent Ifs test the same conditions:"
                           << Shown;
  }
}

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

TEST_P(SimplifyFixpoint, NoDeadAssignmentAndNoMergeableGuards) {
  CompiledProgram CP = compileExample(GetParam());
  ASSERT_TRUE(CP.Ok) << CP.ErrorMessage;
  DeadSetChecker Live(CP.Spmd);
  Live.before(CP.Spmd.Top, {}, true);
  EXPECT_GT(Live.SetVars, 0u);
  expectNoMergeableIfs(CP.Spmd, CP.Spmd.Top);
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

namespace {

SpmdStmt setVar(unsigned Var, AffineExpr Value) {
  SpmdStmt S;
  S.K = SpmdStmt::Kind::SetVar;
  S.Var = Var;
  S.Value = std::move(Value);
  return S;
}

SpmdStmt compute(unsigned Id, AffineExpr Iter) {
  SpmdStmt S;
  S.K = SpmdStmt::Kind::Compute;
  S.StmtId = Id;
  S.IterExprs.push_back(std::move(Iter));
  return S;
}

SpmdStmt guard(AffineExpr GeZero, std::vector<SpmdStmt> Body) {
  SpmdStmt S;
  S.K = SpmdStmt::Kind::If;
  S.Conds.push_back(Constraint::ge(std::move(GeZero)));
  S.Body = std::move(Body);
  return S;
}

/// A program over p (the executing processor), x and i.
struct Small {
  SpmdProgram Prog;
  unsigned P, X, I;
  Small() {
    P = Prog.Sp.add("p", VarKind::Proc);
    X = Prog.Sp.add("x", VarKind::Aux);
    I = Prog.Sp.add("i", VarKind::Loop);
    Prog.MyProcVars = {P};
  }
  AffineExpr var(unsigned V) const { return AffineExpr::var(3, V); }
  SimplifyStats simplify() {
    SpmdSimplifier S(Prog, 0);
    S.run(Prog.Top);
    return S.Stats;
  }
};

} // namespace

TEST(SimplifyTest, AssignmentReadOnlyAfterAReassignmentIsDeleted) {
  // if (p >= 0) { x = p; S0(p) }  if (p >= 1) { x = p - 1; S1(x) }: the
  // only reader of the first x is in the next fragment, which assigns x
  // before it reads it.
  Small T;
  T.Prog.Top.push_back(
      guard(T.var(T.P), {setVar(T.X, T.var(T.P)), compute(0, T.var(T.P))}));
  T.Prog.Top.push_back(guard(T.var(T.P).plusConst(-1),
                             {setVar(T.X, T.var(T.P).plusConst(-1)),
                              compute(1, T.var(T.X))}));
  SimplifyStats St = T.simplify();
  EXPECT_EQ(St.DeadSetsDeleted, 1u);
  ASSERT_EQ(T.Prog.Top.size(), 2u) << T.Prog.str();
  ASSERT_EQ(T.Prog.Top[0].Body.size(), 1u) << T.Prog.str();
  EXPECT_EQ(T.Prog.Top[0].Body[0].K, SpmdStmt::Kind::Compute);
  ASSERT_EQ(T.Prog.Top[1].Body.size(), 2u) << T.Prog.str();
  EXPECT_EQ(T.Prog.Top[1].Body[0].K, SpmdStmt::Kind::SetVar);
}

TEST(SimplifyTest, AssignmentReadOnTheNextIterationIsKept) {
  // x = 0; for i = 0 to 9 { S0(x); x = i; y = i }: the loop's x = i is
  // read only by the next iteration, and nothing reads y.
  Small T;
  unsigned Unread = T.Prog.Sp.add("y", VarKind::Aux);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = T.I;
  For.Lower = {SpmdBound{AffineExpr::constant(3, 0), 1}};
  For.Upper = {SpmdBound{AffineExpr::constant(3, 9), 1}};
  For.Body.push_back(compute(0, T.var(T.X)));
  For.Body.push_back(setVar(T.X, T.var(T.I)));
  For.Body.push_back(setVar(Unread, T.var(T.I)));
  T.Prog.Top.push_back(setVar(T.X, AffineExpr::constant(3, 0)));
  T.Prog.Top.push_back(std::move(For));
  SimplifyStats St = T.simplify();
  EXPECT_EQ(St.DeadSetsDeleted, 1u);
  ASSERT_EQ(T.Prog.Top.size(), 2u) << T.Prog.str();
  EXPECT_EQ(T.Prog.Top[0].K, SpmdStmt::Kind::SetVar);
  const SpmdStmt &Loop = T.Prog.Top[1];
  ASSERT_EQ(Loop.Body.size(), 2u) << T.Prog.str();
  EXPECT_EQ(Loop.Body[1].K, SpmdStmt::Kind::SetVar);
  EXPECT_EQ(Loop.Body[1].Var, T.X);
}

TEST(SimplifyTest, EqualAdjacentGuardsMerge) {
  // if (p >= 1) { S0(p) }  if (p >= 1) { S1(p) }  ==>  one If.
  Small T;
  T.Prog.Top.push_back(
      guard(T.var(T.P).plusConst(-1), {compute(0, T.var(T.P))}));
  T.Prog.Top.push_back(
      guard(T.var(T.P).plusConst(-1), {compute(1, T.var(T.P))}));
  T.simplify();
  ASSERT_EQ(T.Prog.Top.size(), 1u) << T.Prog.str();
  ASSERT_EQ(T.Prog.Top[0].Body.size(), 2u) << T.Prog.str();
  EXPECT_EQ(T.Prog.Top[0].Body[0].StmtId, 0u);
  EXPECT_EQ(T.Prog.Top[0].Body[1].StmtId, 1u);
}

TEST(SimplifyTest, GuardsAreNotMergedAcrossAnAssignmentToTheirVariable) {
  // if (x >= 1) { x = p; S0(x) }  if (x >= 1) { S1(x) }: the first body
  // changes what the second test sees.
  Small T;
  T.Prog.Top.push_back(
      guard(T.var(T.X).plusConst(-1),
            {setVar(T.X, T.var(T.P)), compute(0, T.var(T.X))}));
  T.Prog.Top.push_back(
      guard(T.var(T.X).plusConst(-1), {compute(1, T.var(T.X))}));
  T.simplify();
  ASSERT_EQ(T.Prog.Top.size(), 2u) << T.Prog.str();
  EXPECT_EQ(T.Prog.Top[0].Body.size(), 2u) << T.Prog.str();
}
