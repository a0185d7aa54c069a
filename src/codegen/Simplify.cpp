//===- codegen/Simplify.cpp -----------------------------------*- C++ -*-===//

#include "codegen/Simplify.h"

#include <algorithm>

using namespace dmcc;

namespace {

AffineExpr widened(AffineExpr E, unsigned NumVars) {
  while (E.size() < NumVars)
    E.appendVar();
  return E;
}

Constraint widened(const Constraint &C, unsigned NumVars) {
  return Constraint(widened(C.Expr, NumVars), C.Rel);
}

/// v >= ceil(Num/Den)  as  Den*v - Num >= 0.
Constraint lowerFact(unsigned NumVars, unsigned Var, const SpmdBound &B) {
  return Constraint::ge(AffineExpr::var(NumVars, Var, B.Den) -
                        widened(B.Num, NumVars));
}

/// v <= floor(Num/Den)  as  Num - Den*v >= 0.
Constraint upperFact(unsigned NumVars, unsigned Var, const SpmdBound &B) {
  return Constraint::ge(widened(B.Num, NumVars) -
                        AffineExpr::var(NumVars, Var, B.Den));
}

bool readsAny(const AffineExpr &E, const std::set<unsigned> &Vars) {
  for (unsigned V : Vars)
    if (V < E.size() && E.involves(V))
      return true;
  return false;
}

/// Adds every variable that \p S's own expressions, not its body's,
/// read to \p Live.
void addReads(const SpmdStmt &S, std::vector<char> &Live) {
  auto Add = [&Live](const AffineExpr &E) {
    for (unsigned V = 0, N = E.size(); V != N; ++V)
      if (E.involves(V))
        Live[V] = 1;
  };
  Add(S.Value);
  for (const SpmdBound &B : S.Lower)
    Add(B.Num);
  for (const SpmdBound &B : S.Upper)
    Add(B.Num);
  for (const Constraint &C : S.Conds)
    Add(C.Expr);
  for (const auto *Es : {&S.IterExprs, &S.Peer, &S.Indices})
    for (const AffineExpr &E : *Es)
      Add(E);
}

void addLive(std::vector<char> &Live, const std::vector<char> &More) {
  for (unsigned V = 0, N = Live.size(); V != N; ++V)
    Live[V] |= More[V];
}

/// Backward liveness over \p Stmts: \p Live holds the variables live
/// after the list on entry and those live before it on return. A SetVar
/// whose target is dead at its point reads nothing, and neither does an
/// If or For whose body keeps no statement, so assignments that only feed
/// dead ones are dead too. With \p Deleted set, those statements are
/// deleted and the deleted SetVars counted; without, the tree is left as
/// it is and the sets are the ones pruning would give. Returns whether
/// any statement is kept.
bool liveBefore(std::vector<SpmdStmt> &Stmts, std::vector<char> &Live,
                unsigned *Deleted) {
  using K = SpmdStmt::Kind;
  std::vector<char> Keep(Stmts.size(), 1), In;
  for (size_t I = Stmts.size(); I-- > 0;) {
    SpmdStmt &S = Stmts[I];
    switch (S.K) {
    case K::SetVar:
      Keep[I] = Live[S.Var];
      Live[S.Var] = 0;
      break;
    case K::For: {
      // From the end of the body, control leaves the loop or advances the
      // loop variable into the next iteration. The set live there only
      // grows, so it reaches a fixpoint; the body is pruned once, under it.
      std::vector<char> End = Live;
      End[S.Var] = 1;
      for (;;) {
        In = End;
        Keep[I] = liveBefore(S.Body, In, nullptr);
        std::vector<char> Next = End;
        addLive(Next, In);
        if (!Keep[I] || Next == End)
          break;
        End = std::move(Next);
      }
      if (Keep[I] && Deleted)
        liveBefore(S.Body, End, Deleted);
      // A loop may run no iteration; the first one assigns its variable.
      In[S.Var] = 0;
      break;
    }
    case K::If:
    case K::Seq:
    case K::Send:
    case K::Recv:
      // The body may be skipped: a multicast send or receive reuses the
      // packing of its first destination. Messages stay, even empty.
      In = Live;
      Keep[I] = liveBefore(S.Body, In, Deleted) || S.K == K::Send ||
                S.K == K::Recv;
      break;
    default:
      break;
    }
    // A statement's own expressions (a loop's bounds, a message's peer)
    // are read before its body runs.
    if (!Keep[I])
      continue;
    if (!S.Body.empty())
      addLive(Live, In);
    addReads(S, Live);
  }
  bool Any = std::find(Keep.begin(), Keep.end(), 1) != Keep.end();
  if (!Deleted)
    return Any;
  std::vector<SpmdStmt> Out;
  for (size_t I = 0; I != Stmts.size(); ++I) {
    if (Keep[I])
      Out.push_back(std::move(Stmts[I]));
    else if (Stmts[I].K == K::SetVar)
      ++*Deleted;
  }
  Stmts = std::move(Out);
  return Any;
}

/// The condition of \p Cs equal to \p C, which is over all \p NumVars
/// variables, or Cs.end().
std::vector<Constraint>::const_iterator
findCond(const std::vector<Constraint> &Cs, const Constraint &C,
         unsigned NumVars) {
  return std::find_if(Cs.begin(), Cs.end(), [&](const Constraint &D) {
    return widened(D, NumVars) == C;
  });
}

/// Removes and returns the conditions that every top-level statement of
/// \p For's body tests (each must be an If) and that read neither the
/// loop variable nor anything the body assigns: they have the same value
/// in every iteration.
std::vector<Constraint> takeInvariantGuard(SpmdStmt &For, unsigned NumVars) {
  std::vector<Constraint> Common;
  for (const SpmdStmt &S : For.Body)
    if (S.K != SpmdStmt::Kind::If)
      return Common;
  if (For.Body.empty())
    return Common;
  std::set<unsigned> Assigned{For.Var};
  assignedVars(For.Body, Assigned);
  for (const Constraint &First : For.Body[0].Conds) {
    Constraint C = widened(First, NumVars);
    if (readsAny(C.Expr, Assigned) ||
        findCond(Common, C, NumVars) != Common.end())
      continue;
    bool All = true;
    for (const SpmdStmt &S : For.Body)
      All = All && findCond(S.Conds, C, NumVars) != S.Conds.end();
    if (All)
      Common.push_back(std::move(C));
  }
  if (Common.empty())
    return Common;
  std::vector<SpmdStmt> Body;
  for (SpmdStmt &S : For.Body) {
    for (const Constraint &C : Common)
      S.Conds.erase(findCond(S.Conds, C, NumVars));
    if (!S.Conds.empty()) {
      Body.push_back(std::move(S));
      continue;
    }
    for (SpmdStmt &B : S.Body)
      Body.push_back(std::move(B));
  }
  For.Body = std::move(Body);
  return Common;
}

/// True when \p First and \p Second are Ifs that test the same
/// conditions and \p First's body assigns nothing they read, so the
/// second test has the outcome of the first.
bool mergeable(const SpmdStmt &First, const SpmdStmt &Second,
               unsigned NumVars) {
  if (First.K != SpmdStmt::Kind::If || Second.K != SpmdStmt::Kind::If ||
      First.Conds.size() != Second.Conds.size())
    return false;
  std::set<unsigned> Assigned;
  assignedVars(First.Body, Assigned);
  for (const Constraint &C : First.Conds) {
    Constraint W = widened(C, NumVars);
    if (readsAny(W.Expr, Assigned) ||
        findCond(Second.Conds, W, NumVars) == Second.Conds.end())
      return false;
  }
  return true;
}

/// Rewrites if (C) { A } if (C) { B } as if (C) { A B } wherever the
/// pair is mergeable.
void mergeGuards(std::vector<SpmdStmt> &Stmts, unsigned NumVars) {
  for (size_t I = 1; I < Stmts.size();) {
    if (!mergeable(Stmts[I - 1], Stmts[I], NumVars)) {
      ++I;
      continue;
    }
    std::vector<SpmdStmt> &Body = Stmts[I - 1].Body;
    for (SpmdStmt &S : Stmts[I].Body)
      Body.push_back(std::move(S));
    Stmts.erase(Stmts.begin() + I);
    // Where the two bodies meet, another pair may now be adjacent.
    mergeGuards(Body, NumVars);
  }
}

} // namespace

void dmcc::assignedVars(const std::vector<SpmdStmt> &Stmts,
                        std::set<unsigned> &Out) {
  for (const SpmdStmt &S : Stmts) {
    if (S.K == SpmdStmt::Kind::For || S.K == SpmdStmt::Kind::SetVar)
      Out.insert(S.Var);
    assignedVars(S.Body, Out);
  }
}

//===----------------------------------------------------------------------===//
// SpmdContext
//===----------------------------------------------------------------------===//

namespace {

/// Generic variable names for the small systems built below; names do
/// not take part in feasibility or elimination.
const std::string &columnName(unsigned J) {
  thread_local std::vector<std::string> Names;
  while (Names.size() <= J)
    Names.push_back("v" + std::to_string(Names.size()));
  return Names[J];
}

/// A system over just the variables \p Rows mention, in ascending order
/// (returned in \p Cols), holding \p Rows.
System compactSystem(const std::vector<const Constraint *> &Rows,
                     unsigned NumVars, std::vector<unsigned> &Cols) {
  std::vector<char> Used(NumVars, 0);
  for (const Constraint *C : Rows)
    for (unsigned V = 0, E = std::min(NumVars, C->Expr.size()); V != E; ++V)
      if (C->Expr.involves(V))
        Used[V] = 1;
  Cols.clear();
  Space Small;
  for (unsigned V = 0; V != NumVars; ++V)
    if (Used[V]) {
      Small.add(columnName(Cols.size()), VarKind::Aux);
      Cols.push_back(V);
    }
  System S(std::move(Small));
  for (const Constraint *C : Rows) {
    AffineExpr E(Cols.size());
    for (unsigned J = 0; J != Cols.size(); ++J)
      if (Cols[J] < C->Expr.size())
        E.coeff(J) = C->Expr.coeff(Cols[J]);
    E.constant() = C->Expr.constant();
    S.addConstraint(Constraint(std::move(E), C->Rel));
  }
  return S;
}

} // namespace

void SpmdContext::add(const Constraint &C) {
  Facts.push_back(widened(C, NumVars));
}

void SpmdContext::forget(unsigned Var) {
  std::vector<const Constraint *> On;
  bool UnitEq = false, Small = true;
  unsigned Pos = 0, Neg = 0;
  for (const Constraint &C : Facts) {
    IntT A = C.Expr.coeff(Var);
    if (A == 0)
      continue;
    On.push_back(&C);
    for (unsigned V = 0; V != NumVars; ++V)
      Small = Small && C.Expr.coeff(V) > -(1 << 15) &&
              C.Expr.coeff(V) < (1 << 15);
    if (C.isEquality()) {
      UnitEq |= A == 1 || A == -1;
      ++Pos;
      ++Neg;
    } else if (A > 0) {
      ++Pos;
    } else {
      ++Neg;
    }
  }
  if (On.empty())
    return;
  // Project the variable out of the facts that mention it while that
  // stays small; past that, drop them (weaker, still true).
  std::vector<Constraint> Derived;
  if (Small && (UnitEq || Pos * Neg <= 16)) {
    std::vector<unsigned> Cols;
    System S = compactSystem(On, NumVars, Cols);
    unsigned Col = static_cast<unsigned>(
        std::find(Cols.begin(), Cols.end(), Var) - Cols.begin());
    System Projected = S.fmEliminated(Col);
    for (ConstraintRef C : Projected.constraints()) {
      AffineExpr E(NumVars);
      for (unsigned J = 0; J != Cols.size(); ++J)
        E.coeff(Cols[J]) = C.coeff(J);
      E.constant() = C.constant();
      Derived.push_back(Constraint(std::move(E), C.rel()));
    }
  }
  std::erase_if(Facts,
                [Var](const Constraint &C) { return C.Expr.involves(Var); });
  for (Constraint &C : Derived)
    Facts.push_back(std::move(C));
}

void SpmdContext::forget(const std::set<unsigned> &Vars) {
  for (unsigned V : Vars)
    forget(V);
}

void SpmdContext::assign(const SpmdStmt &Set) {
  forget(Set.Var);
  AffineExpr Val = widened(Set.Value, NumVars);
  if (Val.involves(Set.Var))
    return; // the new value is relative to the forgotten old one
  AffineExpr X = AffineExpr::var(NumVars, Set.Var, Set.ValueDen);
  if (Set.ValueDen == 1) {
    Facts.push_back(Constraint::eq(X - Val));
    return;
  }
  // x = floor(Val/Den):  Den*x <= Val <= Den*x + Den - 1.
  Facts.push_back(Constraint::ge(Val - X));
  Facts.push_back(Constraint::ge(X.plusConst(Set.ValueDen - 1) - Val));
}

void SpmdContext::addBounds(const SpmdStmt &For,
                            const std::set<unsigned> &Skip) {
  for (const SpmdBound &B : For.Lower)
    if (!readsAny(B.Num, Skip))
      Facts.push_back(lowerFact(NumVars, For.Var, B));
  for (const SpmdBound &B : For.Upper)
    if (!readsAny(B.Num, Skip))
      Facts.push_back(upperFact(NumVars, For.Var, B));
}

Feasibility SpmdContext::check(const std::vector<Constraint> &Extra) const {
  // Facts that share no variable, even transitively, with the question
  // cannot make it empty unless the context is empty by itself, and
  // then dropping them only costs precision. The rest goes into a
  // system over just the variables involved.
  std::vector<char> In(NumVars, 0);
  for (const Constraint &C : Extra)
    for (unsigned V = 0, E = std::min(NumVars, C.Expr.size()); V != E; ++V)
      if (C.Expr.involves(V))
        In[V] = 1;
  std::vector<const Constraint *> Rows;
  std::vector<char> Used(Facts.size(), 0);
  for (bool Grew = true; Grew;) {
    Grew = false;
    for (unsigned I = 0; I != Facts.size(); ++I) {
      const AffineExpr &E = Facts[I].Expr;
      unsigned V = 0;
      while (V != NumVars && !(In[V] && E.involves(V)))
        ++V;
      if (Used[I] || V == NumVars)
        continue;
      Used[I] = 1;
      Rows.push_back(&Facts[I]);
      for (V = 0; V != NumVars; ++V)
        In[V] |= E.involves(V);
      Grew = true;
    }
  }
  for (const Constraint &C : Extra)
    Rows.push_back(&C);
  std::vector<unsigned> Cols;
  return compactSystem(Rows, NumVars, Cols)
      .checkIntegerFeasible(projectionOptions().FeasibilityBudget);
}

bool SpmdContext::implies(const Constraint &C,
                          const std::vector<Constraint> &Also) const {
  unsigned N = NumVars;
  std::vector<Constraint> Extra;
  for (const Constraint &A : Also)
    Extra.push_back(widened(A, N));
  // E >= 0 holds when a fact says so on its face or when E <= -1 has no
  // point.
  auto Holds = [&](const AffineExpr &E) {
    for (const Constraint &K : Facts)
      if (impliesOnItsFace(K, E))
        return true;
    for (const Constraint &K : Extra)
      if (impliesOnItsFace(K, E))
        return true;
    Extra.push_back(Constraint::ge(E.negated().plusConst(-1)));
    bool Empty = check(Extra) == Feasibility::Empty;
    Extra.pop_back();
    return Empty;
  };
  AffineExpr E = widened(C.Expr, N);
  if (!Holds(E))
    return false;
  return !C.isEquality() || Holds(E.negated());
}

bool SpmdContext::admits(const std::vector<Constraint> &Conds) const {
  return check(Conds) != Feasibility::Empty;
}

//===----------------------------------------------------------------------===//
// Gist and bound folding
//===----------------------------------------------------------------------===//

bool dmcc::gistConds(const SpmdContext &Ctx, std::vector<Constraint> &Conds) {
  if (!Ctx.admits(Conds))
    return false;
  // Others holds the kept conditions except the one under test.
  std::vector<Constraint> Others;
  for (const Constraint &C : Conds)
    Others.push_back(widened(C, Ctx.numVars()));
  for (unsigned I = 0; I < Conds.size();) {
    Constraint C = std::move(Others[I]);
    Others.erase(Others.begin() + I);
    if (Ctx.implies(C, Others)) {
      Conds.erase(Conds.begin() + I);
      continue;
    }
    Others.insert(Others.begin() + I, std::move(C));
    ++I;
  }
  return true;
}

bool dmcc::foldBounds(const SpmdContext &Ctx, unsigned Var,
                      std::vector<SpmdBound> &Lower,
                      std::vector<SpmdBound> &Upper) {
  unsigned N = Ctx.numVars();
  // Term I goes when some kept term J bounds the variable at least as
  // tightly at every context point: J's bound implies I's for every v.
  auto Fold = [&](std::vector<SpmdBound> &Terms,
                  Constraint (*Fact)(unsigned, unsigned, const SpmdBound &)) {
    for (unsigned I = 0; I < Terms.size();) {
      bool Dominated = false;
      for (unsigned J = 0; J != Terms.size() && !Dominated; ++J)
        Dominated = J != I && Ctx.implies(Fact(N, Var, Terms[I]),
                                          {Fact(N, Var, Terms[J])});
      if (Dominated)
        Terms.erase(Terms.begin() + I);
      else
        ++I;
    }
  };
  Fold(Lower, lowerFact);
  Fold(Upper, upperFact);
  std::vector<Constraint> Range;
  for (const SpmdBound &B : Lower)
    Range.push_back(lowerFact(N, Var, B));
  for (const SpmdBound &B : Upper)
    Range.push_back(upperFact(N, Var, B));
  return Ctx.admits(Range);
}

//===----------------------------------------------------------------------===//
// The walk
//===----------------------------------------------------------------------===//

SpmdSimplifier::SpmdSimplifier(const SpmdProgram &Prog,
                               unsigned MaxSegments)
    : NumVars(Prog.Sp.size()), MaxSegments(MaxSegments) {}

void SpmdSimplifier::run(std::vector<SpmdStmt> &Top) {
  SpmdContext Ctx(NumVars);
  Top = list(std::move(Top), Ctx, MaxSegments > 1);
  // Deleting guards leaves assignments that nothing reads before the
  // next assignment (the pack and unpack bodies' instance coordinates,
  // for one). Nothing is live after the program.
  std::vector<char> Live(NumVars, 0);
  liveBefore(Top, Live, &Stats.DeadSetsDeleted);
}

std::vector<SpmdStmt> SpmdSimplifier::list(std::vector<SpmdStmt> Stmts,
                                           SpmdContext &Ctx,
                                           bool SplitLoops) {
  std::vector<SpmdStmt> Out;
  for (SpmdStmt &S : Stmts)
    stmt(std::move(S), Ctx, SplitLoops, Out);
  mergeGuards(Out, NumVars);
  return Out;
}

void SpmdSimplifier::stmt(SpmdStmt S, SpmdContext &Ctx, bool SplitLoops,
                          std::vector<SpmdStmt> &Out) {
  using K = SpmdStmt::Kind;
  std::set<unsigned> Assigned;
  switch (S.K) {
  case K::Seq:
    for (SpmdStmt &B : S.Body)
      stmt(std::move(B), Ctx, SplitLoops, Out);
    return;
  case K::SetVar:
    Ctx.assign(S);
    Out.push_back(std::move(S));
    return;
  case K::If: {
    unsigned Before = S.Conds.size();
    if (!gistConds(Ctx, S.Conds)) {
      ++Stats.IfsDeleted;
      return;
    }
    Stats.CondsDropped += Before - S.Conds.size();
    if (S.Conds.empty()) {
      // Always taken here: the body joins the enclosing list.
      for (SpmdStmt &B : S.Body)
        stmt(std::move(B), Ctx, SplitLoops, Out);
      return;
    }
    SpmdContext In = Ctx;
    for (const Constraint &C : S.Conds)
      In.add(C);
    S.Body = list(std::move(S.Body), In, SplitLoops);
    if (S.Body.empty()) {
      ++Stats.IfsDeleted;
      return;
    }
    if (S.Body.size() == 1 && S.Body[0].K == K::If) {
      // if (A) { if (B) { X } }  ==>  if (A && B) { X }: one test fewer.
      SpmdStmt Inner = std::move(S.Body[0]);
      for (Constraint &C : Inner.Conds)
        S.Conds.push_back(std::move(C));
      S.Body = std::move(Inner.Body);
      Before = S.Conds.size();
      if (!gistConds(Ctx, S.Conds)) {
        ++Stats.IfsDeleted;
        return;
      }
      Stats.CondsDropped += Before - S.Conds.size();
    }
    assignedVars(S.Body, Assigned);
    Out.push_back(std::move(S));
    break;
  }
  case K::For:
    for (SpmdStmt &Seg : loop(std::move(S), Ctx, SplitLoops)) {
      std::vector<Constraint> Common = takeInvariantGuard(Seg, NumVars);
      if (!Common.empty()) {
        // Test once before the loop instead of in every iteration; the
        // loop is simplified again under the hoisted guard.
        ++Stats.GuardsHoisted;
        SpmdStmt If;
        If.K = K::If;
        If.Conds = std::move(Common);
        If.Body.push_back(std::move(Seg));
        stmt(std::move(If), Ctx, false, Out);
        continue;
      }
      // Segments run one after another: the next one starts after this
      // one's assignments.
      std::set<unsigned> SegVars{Seg.Var};
      assignedVars(Seg.Body, SegVars);
      Out.push_back(std::move(Seg));
      Ctx.forget(SegVars);
    }
    return;
  case K::Send:
  case K::Recv: {
    // A message can be empty; the send and receive themselves stay.
    SpmdContext In = Ctx;
    S.Body = list(std::move(S.Body), In, SplitLoops);
    assignedVars(S.Body, Assigned);
    Out.push_back(std::move(S));
    break;
  }
  default:
    Out.push_back(std::move(S));
    return;
  }
  Ctx.forget(Assigned);
}

SpmdContext SpmdSimplifier::bodyContext(
    const SpmdStmt &For, const SpmdContext &Ctx,
    const std::set<unsigned> &Forget) const {
  // From the second iteration on, every variable the body assigns holds
  // the body's value, not the entry value; bounds are evaluated once, at
  // entry, so a term reading such a variable says nothing later.
  SpmdContext In = Ctx;
  In.forget(For.Var);
  In.forget(Forget);
  In.addBounds(For, Forget);
  return In;
}

std::vector<SpmdStmt> SpmdSimplifier::loop(SpmdStmt For,
                                           const SpmdContext &Ctx,
                                           bool SplitLoops) {
  SpmdContext Entry = Ctx;
  Entry.forget(For.Var);
  unsigned Terms = For.Lower.size() + For.Upper.size();
  if (!foldBounds(Entry, For.Var, For.Lower, For.Upper)) {
    ++Stats.LoopsDeleted;
    return {};
  }
  Stats.BoundsFolded += Terms - For.Lower.size() - For.Upper.size();

  // Simplifying the body can delete the only assignments of some
  // variable. The result is then simplified again with the facts on that
  // variable kept (a stronger context); that only deletes more, so it
  // never assigns anything the context relied on.
  std::set<unsigned> Forget;
  assignedVars(For.Body, Forget);
  SpmdContext In = bodyContext(For, Ctx, Forget);
  std::vector<SpmdStmt> Body = list(std::move(For.Body), In, SplitLoops);
  for (;;) {
    std::set<unsigned> Now;
    assignedVars(Body, Now);
    if (Now == Forget)
      break;
    Forget = std::move(Now);
    In = bodyContext(For, Ctx, Forget);
    Body = list(std::move(Body), In, false);
  }
  if (Body.empty()) {
    ++Stats.LoopsDeleted;
    return {};
  }
  For.Body = std::move(Body);
  if (!SplitLoops) {
    std::vector<SpmdStmt> One;
    One.push_back(std::move(For));
    return One;
  }
  PhaseTimer Timer("codegen.split");
  std::vector<SpmdStmt> Segs = splitLoop(std::move(For), Ctx, MaxSegments);
  if (Segs.size() > 1)
    ++Split.LoopsSplit;
  return Segs;
}
