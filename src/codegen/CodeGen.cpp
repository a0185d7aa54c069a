//===- codegen/CodeGen.cpp ------------------------------------*- C++ -*-===//

#include "codegen/CodeGen.h"

#include "codegen/Scan.h"

#include <map>

using namespace dmcc;

SpmdSpace::SpmdSpace(const Program &P, unsigned GridDims) : P(P) {
  Out.GridDims = GridDims;
  for (unsigned D = 0; D != GridDims; ++D)
    Out.MyProcVars.push_back(
        Out.Sp.add("myp" + std::to_string(D), VarKind::Proc));
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Out.Sp.add(P.space().name(I), VarKind::Param);
}

unsigned SpmdSpace::ensureVar(const std::string &Name, VarKind Kind) {
  int I = Out.Sp.indexOf(Name);
  if (I >= 0)
    return static_cast<unsigned>(I);
  return Out.Sp.add(Name, Kind);
}

System SpmdSpace::importSystem(
    const System &S,
    const std::function<std::string(const std::string &)> &Rename) {
  std::map<std::string, std::string> NameMap;
  for (unsigned I = 0, E = S.space().size(); I != E; ++I) {
    const std::string &N = S.space().name(I);
    if (S.space().kind(I) == VarKind::Aux) {
      std::string Fresh = Out.Sp.freshName(N);
      Out.Sp.add(Fresh, VarKind::Aux);
      NameMap[N] = Fresh;
      continue;
    }
    std::string Target = Rename ? Rename(N) : N;
    ensureVar(Target, S.space().kind(I));
    NameMap[N] = Target;
  }
  System R((Space(Out.Sp)));
  auto Map = [&NameMap](const std::string &N) { return NameMap.at(N); };
  R.addAllMapped(S, Map);
  return R;
}

std::vector<SpmdStmt> dmcc::genComputeFragment(SpmdSpace &SS,
                                               const StmtPlan &SP,
                                               unsigned SkipLoops) {
  const Program &P = SS.program();
  const Statement &St = P.statement(SP.StmtId);
  System Dom = P.domainOf(SP.StmtId);
  System Sys = SS.importSystem(Dom);
  SP.Comp.addConstraintsByName(Sys, SS.prog().MyProcVars);

  std::vector<ScanVarPlan> Plan;
  std::vector<AffineExpr> IterExprs;
  for (unsigned K = 0, E = St.Loops.size(); K != E; ++K) {
    const std::string &Name = P.space().name(P.loop(St.Loops[K]).VarIndex);
    unsigned V = SS.ensureVar(Name, VarKind::Loop);
    IterExprs.push_back(AffineExpr::var(Sys.numVars(), V));
    if (K >= SkipLoops)
      Plan.push_back(ScanVarPlan{V, false, AffineExpr()});
  }

  unsigned StmtId = SP.StmtId;
  return scanPolyhedron(Sys, Plan, [&]() {
    SpmdStmt C;
    C.K = SpmdStmt::Kind::Compute;
    C.StmtId = StmtId;
    C.IterExprs = IterExprs;
    std::vector<SpmdStmt> B;
    B.push_back(std::move(C));
    return B;
  });
}

namespace {

/// Node budget for guard-pruning emptiness probes during emission.
unsigned feasBudget() { return projectionOptions().FeasibilityBudget; }

/// Shared pieces of send/receive generation.
struct CommVars {
  System Sys; ///< comm-set system in the program space
  std::vector<unsigned> Ps, S, Pr, R, El;
};

/// Partitions the set's variables for a message boundary: \p InnerVars
/// (the item coordinates) plus any auxiliary variable transitively
/// coupled to them. Returns the closure and appends the discovered aux
/// variables to \p InnerPlan (the paper places auxiliaries last in the
/// scan order).
std::vector<unsigned> innerClosure(const System &Sys,
                                   std::vector<unsigned> InnerVars,
                                   std::vector<ScanVarPlan> &InnerPlan) {
  std::vector<bool> In(Sys.numVars(), false);
  for (unsigned V : InnerVars)
    In[V] = true;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ConstraintRef C : Sys.constraints()) {
      bool Touches = false;
      for (unsigned V = 0; V != Sys.numVars(); ++V)
        if (In[V] && C.involves(V)) {
          Touches = true;
          break;
        }
      if (!Touches)
        continue;
      for (unsigned V = 0; V != Sys.numVars(); ++V) {
        if (In[V] || !C.involves(V))
          continue;
        if (Sys.space().kind(V) != VarKind::Aux)
          continue;
        In[V] = true;
        InnerVars.push_back(V);
        InnerPlan.push_back(ScanVarPlan{V, false, AffineExpr()});
        Changed = true;
      }
    }
  }
  return InnerVars;
}

/// The message-set projection for the outer scan: all item coordinates
/// eliminated.
System outerProjection(const System &Sys,
                       const std::vector<unsigned> &InnerVars) {
  System R = Sys.eliminated(InnerVars);
  R.removeRedundant();
  return R;
}

/// Imports the set with the executing side's iteration variables renamed
/// to the bare source loop names ("r." for receivers, "s." for senders).
CommVars importComm(SpmdSpace &SS, const CommSet &CS, bool SendSide) {
  const char *Strip = SendSide ? "s." : "r.";
  auto Rename = [Strip](const std::string &N) -> std::string {
    if (N.rfind(Strip, 0) == 0)
      return N.substr(2);
    return N;
  };
  CommVars V;
  V.Sys = SS.importSystem(CS.Sys, Rename);
  auto Reindex = [&](const std::vector<unsigned> &Old,
                     std::vector<unsigned> &New) {
    for (unsigned I : Old) {
      std::string N = Rename(CS.Sys.space().name(I));
      int J = V.Sys.space().indexOf(N);
      assert(J >= 0 && "comm variable missing after import");
      New.push_back(static_cast<unsigned>(J));
    }
  };
  Reindex(CS.PsVars, V.Ps);
  Reindex(CS.SVars, V.S);
  Reindex(CS.PrVars, V.Pr);
  Reindex(CS.RVars, V.R);
  Reindex(CS.ElVars, V.El);
  return V;
}

} // namespace

std::vector<SpmdStmt> dmcc::genCommFragment(SpmdSpace &SS,
                                            const CommPlan &CP,
                                            unsigned CommId,
                                            bool SendSide) {
  const CommSet &CS = CP.Set;
  unsigned L = CP.AggLevel;
  assert((SendSide ? L <= CS.SVars.size() || CS.FromInitialData
                   : L <= CS.RVars.size()) &&
         "aggregation deeper than the executing side's loops");
  CommVars V = importComm(SS, CS, SendSide);
  const std::vector<unsigned> &Mine = SendSide ? V.Ps : V.Pr;
  const std::vector<unsigned> &Peers = SendSide ? V.Pr : V.Ps;

  // Outer scan: bind the executing side's processor to myp, then locate
  // the peer.
  std::vector<ScanVarPlan> Outer;
  for (unsigned D = 0, E = Mine.size(); D != E; ++D)
    Outer.push_back(ScanVarPlan{
        Mine[D], true,
        AffineExpr::var(V.Sys.numVars(), SS.prog().MyProcVars[D])});
  for (unsigned PV : Peers)
    Outer.push_back(ScanVarPlan{PV, false, AffineExpr()});

  // Inner scan (the message body): the sender's instance coordinates,
  // the reader's, then the element, then auxiliary witnesses, so pack
  // and unpack enumerate in the same order. The executing side's first
  // L loops are outer scope (the caller's shared loops) and are skipped;
  // single-valued coordinates do not perturb the enumeration.
  std::vector<ScanVarPlan> Inner;
  std::vector<unsigned> InnerVars;
  auto AddInner = [&](const std::vector<unsigned> &Vars, unsigned From) {
    for (unsigned K = From, E = Vars.size(); K < E; ++K) {
      Inner.push_back(ScanVarPlan{Vars[K], false, AffineExpr()});
      InnerVars.push_back(Vars[K]);
    }
  };
  AddInner(V.S, SendSide ? L : 0);
  AddInner(V.R, SendSide ? 0 : L);
  AddInner(V.El, 0);
  InnerVars = innerClosure(V.Sys, std::move(InnerVars), Inner);

  unsigned ArrayId = CS.ArrayId;
  std::vector<AffineExpr> ElExprs;
  for (unsigned EV : V.El)
    ElExprs.push_back(AffineExpr::var(V.Sys.numVars(), EV));

  std::vector<SpmdStmt> Body = scanPolyhedron(V.Sys, Inner, [&]() {
    SpmdStmt El;
    El.K = SendSide ? SpmdStmt::Kind::PackElem : SpmdStmt::Kind::UnpackElem;
    El.ArrayId = ArrayId;
    El.Indices = ElExprs;
    std::vector<SpmdStmt> B;
    B.push_back(std::move(El));
    return B;
  });

  std::vector<AffineExpr> Peer;
  for (unsigned PV : Peers)
    Peer.push_back(AffineExpr::var(V.Sys.numVars(), PV));
  bool Multicast = CP.Multicast && CS.Multicast;
  System OuterSys = outerProjection(V.Sys, InnerVars);
  return scanPolyhedron(OuterSys, Outer, [&]() {
    SpmdStmt Msg;
    Msg.K = SendSide ? SpmdStmt::Kind::Send : SpmdStmt::Kind::Recv;
    Msg.Peer = Peer;
    Msg.CommId = CommId;
    Msg.IsMulticast = Multicast;
    Msg.Nonblocking = SendSide && CP.earlySend();
    Msg.Body = Body;
    std::vector<SpmdStmt> B;
    B.push_back(std::move(Msg));
    return B;
  });
}

SpmdStmt dmcc::makeSharedLoop(SpmdSpace &SS, unsigned LoopId) {
  const Program &P = SS.program();
  const Loop &L = P.loop(LoopId);
  const std::string &Name = P.space().name(L.VarIndex);
  unsigned V = SS.ensureVar(Name, VarKind::Loop);
  SpmdStmt For;
  For.K = SpmdStmt::Kind::For;
  For.Var = V;
  for (const AffineExpr &E : L.Lower)
    For.Lower.push_back(SpmdBound{
        mapExpr(E, P.space(), SS.prog().Sp,
                [&SS](const std::string &N) {
                  SS.ensureVar(N, VarKind::Loop);
                  return N;
                }),
        1});
  for (const AffineExpr &E : L.Upper)
    For.Upper.push_back(SpmdBound{
        mapExpr(E, P.space(), SS.prog().Sp,
                [&SS](const std::string &N) {
                  SS.ensureVar(N, VarKind::Loop);
                  return N;
                }),
        1});
  return For;
}

bool dmcc::aggregationSafe(const Program &P, const CommSet &CS,
                           unsigned AggLevel) {
  (void)P;
  if (CS.FromInitialData)
    return AggLevel == 0;
  if (AggLevel > CS.SVars.size() || AggLevel > CS.RVars.size())
    return false;

  // Two-copy system: x1 uses the original variables, x2 a primed copy.
  System T = CS.Sys;
  std::map<std::string, std::string> Prime;
  unsigned OrigVars = CS.Sys.space().size();
  for (unsigned I = 0; I != OrigVars; ++I) {
    if (T.space().kind(I) == VarKind::Param) {
      Prime[CS.Sys.space().name(I)] = CS.Sys.space().name(I);
      continue;
    }
    std::string N = CS.Sys.space().name(I) + "$2";
    T.addVar(N, CS.Sys.space().kind(I));
    Prime[CS.Sys.space().name(I)] = N;
  }
  auto MapPrime = [&Prime](const std::string &N) { return Prime.at(N); };
  T.addAllMapped(CS.Sys, MapPrime);
  auto PrimedOf = [&](unsigned V) {
    return static_cast<unsigned>(
        T.space().indexOf(Prime.at(CS.Sys.space().name(V))));
  };
  // Same message: equal peers, equal sender prefix.
  for (unsigned Vv : CS.PsVars)
    T.addEq(T.varExpr(Vv), T.varExpr(PrimedOf(Vv)));
  for (unsigned Vv : CS.PrVars)
    T.addEq(T.varExpr(Vv), T.varExpr(PrimedOf(Vv)));
  for (unsigned K = 0; K != AggLevel; ++K)
    T.addEq(T.varExpr(CS.SVars[K]), T.varExpr(PrimedOf(CS.SVars[K])));

  // Alignment: the receiver prefix must be single-valued per message.
  for (unsigned K = 0; K != AggLevel; ++K) {
    System Q = T;
    Q.addGE(Q.varExpr(CS.RVars[K]) -
            Q.varExpr(PrimedOf(CS.RVars[K])).plusConst(1));
    if (Q.checkIntegerFeasible(feasBudget()) != Feasibility::Empty)
      return false;
    // Earlier receiver coordinates must match for this test; add the
    // equality before probing the next position.
    T.addEq(T.varExpr(CS.RVars[K]), T.varExpr(PrimedOf(CS.RVars[K])));
  }

  // Ordering: no item may be consumed at a shared iteration preceding the
  // message's sending iteration (r-prefix >= s-prefix lexicographically).
  for (unsigned J = 0; J != AggLevel; ++J) {
    System Q = T;
    for (unsigned K = 0; K != J; ++K)
      Q.addEq(Q.varExpr(CS.RVars[K]), Q.varExpr(CS.SVars[K]));
    Q.addGE(Q.varExpr(CS.SVars[J]) -
            Q.varExpr(CS.RVars[J]).plusConst(1)); // r_J < s_J
    if (Q.checkIntegerFeasible(feasBudget()) != Feasibility::Empty)
      return false;
  }

  // Monotonicity: along one channel, messages must arrive in the order
  // the receiver expects (s-prefix increasing implies r-prefix
  // non-decreasing); otherwise FIFO delivery would mismatch.
  {
    // Rebuild the two-copy system without the s-prefix/r-prefix pinning.
    System M = CS.Sys;
    for (unsigned I = 0; I != OrigVars; ++I) {
      if (M.space().kind(I) == VarKind::Param)
        continue;
      M.addVar(CS.Sys.space().name(I) + "$2", CS.Sys.space().kind(I));
    }
    M.addAllMapped(CS.Sys, MapPrime);
    auto P2 = [&](unsigned V) {
      return static_cast<unsigned>(
          M.space().indexOf(Prime.at(CS.Sys.space().name(V))));
    };
    for (unsigned Vv : CS.PsVars)
      M.addEq(M.varExpr(Vv), M.varExpr(P2(Vv)));
    for (unsigned Vv : CS.PrVars)
      M.addEq(M.varExpr(Vv), M.varExpr(P2(Vv)));
    for (unsigned J1 = 0; J1 != AggLevel; ++J1) {
      for (unsigned J2 = 0; J2 != AggLevel; ++J2) {
        System Q = M;
        for (unsigned K = 0; K != J1; ++K)
          Q.addEq(Q.varExpr(CS.SVars[K]), Q.varExpr(P2(CS.SVars[K])));
        Q.addGE(Q.varExpr(P2(CS.SVars[J1])) -
                Q.varExpr(CS.SVars[J1]).plusConst(1)); // s < s'
        for (unsigned K = 0; K != J2; ++K)
          Q.addEq(Q.varExpr(CS.RVars[K]), Q.varExpr(P2(CS.RVars[K])));
        Q.addGE(Q.varExpr(CS.RVars[J2]) -
                Q.varExpr(P2(CS.RVars[J2])).plusConst(1)); // r > r'
        if (Q.checkIntegerFeasible(feasBudget()) != Feasibility::Empty)
          return false;
      }
    }
  }
  return true;
}

bool dmcc::earlySendSafe(const Program &P, const CommSet &CS,
                         unsigned Level) {
  // Initial data exists before any statement runs: issuing its sends
  // asynchronously can never outrun a producer.
  if (CS.FromInitialData)
    return Level == 0;
  // A batch at this level holds exactly the writer's iterations sharing
  // the level-long prefix, so right after the writer's fragment the
  // content is complete by construction. What remains to verify is the
  // level reasoning itself: per-message single-valued receiver prefix
  // (alignment), no consumption at a shared iteration preceding the
  // send (ordering), and FIFO-consistent arrival order (monotonicity).
  // These are exactly the aggregationSafe() probes at the issue level;
  // when chooseAggLevel() fell back to runtime FIFO order without a
  // verified level, the probes fail here too and the send stays
  // blocking.
  return aggregationSafe(P, CS, Level);
}

bool dmcc::computeLocalBox(SpmdSpace &SS, const StmtPlan &SP,
                           const Access &A, LocalBox &Box) {
  const Program &P = SS.program();
  System Dom = P.domainOf(SP.StmtId);
  System Sys = SS.importSystem(Dom);
  SP.Comp.addConstraintsByName(Sys, SS.prog().MyProcVars);
  // Element variables for this access.
  std::vector<unsigned> ElVars;
  auto MapLoop = [&SS](const std::string &N) -> std::string {
    return N; // loop names are shared with the program space
    (void)SS;
  };
  for (unsigned K = 0, E = A.Indices.size(); K != E; ++K) {
    unsigned V = Sys.addVar(Sys.space().freshName("box.a"), VarKind::Data);
    AffineExpr F = mapExpr(A.Indices[K], P.space(), Sys.space(), MapLoop);
    Sys.addEq(Sys.varExpr(V), F);
    ElVars.push_back(V);
  }
  Box.Lower.clear();
  Box.Upper.clear();
  // Project out the iteration variables so the bounds mention only the
  // processor identity and parameters.
  const Statement &St = P.statement(SP.StmtId);
  std::vector<unsigned> Iters;
  for (unsigned L : St.Loops) {
    int J = Sys.space().indexOf(P.space().name(P.loop(L).VarIndex));
    if (J >= 0)
      Iters.push_back(static_cast<unsigned>(J));
  }
  System Proj = Sys.eliminated(Iters);
  Proj.removeRedundant();
  for (unsigned K = 0, E = ElVars.size(); K != E; ++K) {
    std::vector<VarBound> Lo, Hi;
    Proj.boundsOf(ElVars[K], Lo, Hi);
    if (Lo.empty() || Hi.empty())
      return false;
    std::vector<SpmdBound> LB, UB;
    for (VarBound &B : Lo)
      LB.push_back(SpmdBound{std::move(B.Num), B.Den});
    for (VarBound &B : Hi)
      UB.push_back(SpmdBound{std::move(B.Num), B.Den});
    Box.Lower.push_back(std::move(LB));
    Box.Upper.push_back(std::move(UB));
  }
  return true;
}
