//===- codegen/Scan.cpp ---------------------------------------*- C++ -*-===//

#include "codegen/Scan.h"

using namespace dmcc;

namespace {

/// Recursive generator over the projection chain.
class Scanner {
public:
  Scanner(const std::vector<System> &Proj,
          const std::vector<ScanVarPlan> &Plan,
          const std::function<std::vector<SpmdStmt>()> &MakeBody)
      : Proj(Proj), Plan(Plan), MakeBody(MakeBody) {}

  std::vector<SpmdStmt> run() {
    // Constraints not involving any scanned variable become one outer
    // guard (e.g. "if p >= 0 and p <= N/32" in Figure 7).
    std::vector<SpmdStmt> Inner = emitFrom(0);
    const System &Base = Proj[0];
    std::vector<Constraint> Guard;
    for (ConstraintRef C : Base.constraints())
      Guard.push_back(C.constraint());
    if (Guard.empty())
      return Inner;
    SpmdStmt If;
    If.K = SpmdStmt::Kind::If;
    If.Conds = std::move(Guard);
    If.Body = std::move(Inner);
    std::vector<SpmdStmt> Out;
    Out.push_back(std::move(If));
    return Out;
  }

private:
  std::vector<SpmdStmt> emitFrom(unsigned J) {
    if (J == Plan.size())
      return MakeBody();

    const ScanVarPlan &VP = Plan[J];
    const System &S = Proj[J + 1];
    std::vector<SpmdStmt> Inner = emitFrom(J + 1);

    // Constraints of this level that involve the variable.
    std::vector<Constraint> Involving;
    for (ConstraintRef C : S.constraints())
      if (C.involves(VP.Var))
        Involving.push_back(C.constraint());

    std::vector<SpmdStmt> Out;
    if (VP.BindTo) {
      // Pin the variable to the executing processor's coordinate. The
      // guard is written over the bound value (myp0, not pr0), so it
      // reads only variables from outside the fragment and loop
      // splitting can move it into loop bounds.
      std::vector<Constraint> Guard;
      for (Constraint &C : Involving) {
        C.Expr.substitute(VP.Var, VP.BoundValue);
        Guard.push_back(std::move(C));
      }
      SpmdStmt Set;
      Set.K = SpmdStmt::Kind::SetVar;
      Set.Var = VP.Var;
      Set.Value = VP.BoundValue;
      Out.push_back(std::move(Set));
      for (SpmdStmt &St : Inner)
        Out.push_back(std::move(St));
      if (Guard.empty())
        return Out;
      SpmdStmt If;
      If.K = SpmdStmt::Kind::If;
      If.Conds = std::move(Guard);
      If.Body = std::move(Out);
      std::vector<SpmdStmt> Guarded;
      Guarded.push_back(std::move(If));
      return Guarded;
    }

    // Degenerate loop: a unit-coefficient equality pins the variable.
    for (const Constraint &C : Involving) {
      if (!C.isEquality())
        continue;
      IntT A = C.Expr.coeff(VP.Var);
      if (A != 1 && A != -1)
        continue;
      AffineExpr V = C.Expr;
      V.coeff(VP.Var) = 0;
      if (A == 1)
        V = V.negated();
      SpmdStmt Set;
      Set.K = SpmdStmt::Kind::SetVar;
      Set.Var = VP.Var;
      Set.Value = std::move(V);
      Out.push_back(std::move(Set));
      std::vector<Constraint> Rest;
      for (const Constraint &R : Involving)
        if (!(R == C))
          Rest.push_back(R);
      if (Rest.empty()) {
        for (SpmdStmt &St : Inner)
          Out.push_back(std::move(St));
      } else {
        SpmdStmt If;
        If.K = SpmdStmt::Kind::If;
        If.Conds = std::move(Rest);
        If.Body = std::move(Inner);
        Out.push_back(std::move(If));
      }
      return Out;
    }

    // General loop with max/min bounds.
    std::vector<VarBound> Lo, Hi;
    S.boundsOf(VP.Var, Lo, Hi);
    if (Lo.empty() || Hi.empty())
      fatalError("scanPolyhedron: scanned variable is unbounded");
    SpmdStmt For;
    For.K = SpmdStmt::Kind::For;
    For.Var = VP.Var;
    for (VarBound &B : Lo)
      For.Lower.push_back(SpmdBound{std::move(B.Num), B.Den});
    for (VarBound &B : Hi)
      For.Upper.push_back(SpmdBound{std::move(B.Num), B.Den});
    For.Body = std::move(Inner);
    Out.push_back(std::move(For));
    return Out;
  }

  const std::vector<System> &Proj;
  const std::vector<ScanVarPlan> &Plan;
  const std::function<std::vector<SpmdStmt>()> &MakeBody;
};

} // namespace

std::vector<SpmdStmt> dmcc::scanPolyhedron(
    const System &S, const std::vector<ScanVarPlan> &Plan,
    const std::function<std::vector<SpmdStmt>()> &MakeBody) {
  PhaseTimer Timer("codegen.scan");
  ++projectionStats().ScanCalls;
  System Base = S;
  if (!Base.normalize()) {
    // Empty set: no code.
    return {};
  }
  unsigned N = Plan.size();
  // Proj[j] bounds Plan[j-1].Var; Proj[0] holds the no-plan-var guard.
  std::vector<System> Proj(N + 1);
  unsigned Budget = projectionOptions().ScanBudget;
  Proj[N] = std::move(Base);
  Proj[N].removeRedundant(Budget);
  for (unsigned J = N; J-- > 0;) {
    Proj[J] = Proj[J + 1].fmEliminated(Plan[J].Var);
    Proj[J].removeRedundant(Budget);
  }
  // Each level's system should only mention its own and earlier plan
  // variables plus parameters and outer-scope variables.
  Scanner Sc(Proj, Plan, MakeBody);
  return Sc.run();
}
