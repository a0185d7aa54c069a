//===- baseline/LocationCompiler.cpp --------------------------*- C++ -*-===//

#include "baseline/LocationCompiler.h"

#include "baseline/LocationCentric.h"
#include "codegen/Scan.h"

#include <chrono>

using namespace dmcc;

namespace {

/// One read access's communication: fetch the non-local section from the
/// owners at every iteration of the first PrefixLen loops.
struct LocPlan {
  System Sys; ///< over (ps*, pr*, bare prefix loops, el*, params) in the
              ///< SPMD program space; iteration suffix already projected
  std::vector<unsigned> Ps, Pr, El;
  unsigned ReadStmt = 0, ReadIdx = 0;
  unsigned PrefixLen = 0;
  unsigned CommId = 0;
  bool Emitted = false;
};

/// Builds the Theorem 2 communication system for one read access and
/// projects away the post-prefix iteration variables (the polyhedral
/// regular section). Returns one LocPlan per ps != pr disjunct.
std::vector<LocPlan> buildLocationPlans(
    const Program &P, SpmdSpace &SS, unsigned Stmt, unsigned Read,
    const Decomposition &ReaderComp, const Decomposition &DataD,
    unsigned GridDims) {
  const Statement &St = P.statement(Stmt);
  const Access &RA = St.Reads[Read];
  unsigned MaxLevel = maxDependenceLevel(P, Stmt, Read);
  unsigned PrefixLen = std::min<unsigned>(MaxLevel, St.depth());

  // Space: ps, pr, reader loops (prefix bare = shared loop variables,
  // suffix under "r." to be projected), el, params.
  Space Sp;
  std::vector<unsigned> PsV, PrV, ElV;
  for (unsigned D = 0; D != GridDims; ++D)
    PsV.push_back(Sp.add("ps" + std::to_string(D), VarKind::Proc));
  for (unsigned D = 0; D != GridDims; ++D)
    PrV.push_back(Sp.add("pr" + std::to_string(D), VarKind::Proc));
  std::vector<std::string> LoopNames;
  std::vector<unsigned> LoopV;
  for (unsigned K = 0; K != St.Loops.size(); ++K) {
    std::string Base = P.space().name(P.loop(St.Loops[K]).VarIndex);
    std::string N = K < PrefixLen ? Base : "r." + Base;
    LoopNames.push_back(N);
    LoopV.push_back(Sp.add(N, VarKind::Loop));
  }
  for (unsigned K = 0; K != RA.Indices.size(); ++K)
    ElV.push_back(Sp.add("el" + std::to_string(K), VarKind::Data));
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Sp.add(P.space().name(I), VarKind::Param);

  System S(std::move(Sp));
  // Reader iteration domain.
  System Dom = P.domainOf(Stmt);
  auto MapLoop = [&](const std::string &N) -> std::string {
    for (unsigned K = 0; K != St.Loops.size(); ++K)
      if (P.space().name(P.loop(St.Loops[K]).VarIndex) == N)
        return LoopNames[K];
    return N;
  };
  S.addAllMapped(Dom, MapLoop);
  // el == fr(iteration).
  for (unsigned K = 0; K != RA.Indices.size(); ++K) {
    AffineExpr FR = mapExpr(RA.Indices[K], P.space(), S.space(), MapLoop);
    S.addEq(S.varExpr(ElV[K]), FR);
  }
  // Reader processor from the computation decomposition.
  {
    const Space &RSp = ReaderComp.sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned LPos = 0;
    for (unsigned K = 0; K != RSp.size(); ++K) {
      if (RSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      Vals.push_back(S.varExpr(LoopV[LPos++]));
    }
    ReaderComp.addConstraints(S, Vals, PrV);
  }
  // Sender = the owner of the location (Theorem 2).
  {
    const Space &DSp = DataD.sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned EPos = 0;
    for (unsigned K = 0; K != DSp.size(); ++K) {
      if (DSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      Vals.push_back(S.varExpr(ElV[EPos++]));
    }
    DataD.addConstraints(S, Vals, PsV);
  }

  // Project away the post-prefix iteration variables: the remaining set
  // of (owner, reader, elements) per prefix iteration is the polyhedral
  // regular section, over-approximation included.
  S = S.eliminated(
      std::vector<unsigned>(LoopV.begin() + PrefixLen, LoopV.end()));
  S.removeRedundant(projectionOptions().ScanBudget);

  // ps != pr disjuncts.
  std::vector<LocPlan> Out;
  for (unsigned D = 0; D != GridDims; ++D) {
    for (int Side = 0; Side != 2; ++Side) {
      LocPlan Pl;
      Pl.Sys = S;
      for (unsigned E = 0; E != D; ++E)
        Pl.Sys.addEq(Pl.Sys.varExpr(PsV[E]), Pl.Sys.varExpr(PrV[E]));
      AffineExpr Diff = Pl.Sys.varExpr(PrV[D]) - Pl.Sys.varExpr(PsV[D]);
      if (Side == 0)
        Pl.Sys.addGE(Diff.plusConst(-1));
      else
        Pl.Sys.addGE(Diff.negated().plusConst(-1));
      if (!Pl.Sys.normalize() ||
          Pl.Sys.checkIntegerFeasible(
              projectionOptions().FeasibilityBudget) == Feasibility::Empty)
        continue;
      Pl.Ps = PsV;
      Pl.Pr = PrV;
      Pl.El = ElV;
      Pl.ReadStmt = Stmt;
      Pl.ReadIdx = Read;
      Pl.PrefixLen = PrefixLen;
      // Ensure the shared loop variables exist in the SPMD space.
      for (unsigned K = 0; K != PrefixLen; ++K)
        SS.ensureVar(LoopNames[K], VarKind::Loop);
      Out.push_back(std::move(Pl));
    }
  }
  return Out;
}

/// Emits the send (owner side) and receive (reader side) fragments for
/// one plan. The section itself is the inner scan over el.
void genLocationFragments(SpmdSpace &SS, LocPlan &Pl, unsigned ArrayId,
                          std::vector<SpmdStmt> &Send,
                          std::vector<SpmdStmt> &Recv) {
  System Sys = SS.importSystem(Pl.Sys);
  auto Reindex = [&](const std::vector<unsigned> &Old) {
    std::vector<unsigned> New;
    for (unsigned V : Old)
      New.push_back(static_cast<unsigned>(
          Sys.space().indexOf(Pl.Sys.space().name(V))));
    return New;
  };
  std::vector<unsigned> Ps = Reindex(Pl.Ps), Pr = Reindex(Pl.Pr),
                        El = Reindex(Pl.El);

  std::vector<AffineExpr> ElExprs;
  std::vector<ScanVarPlan> Inner;
  for (unsigned V : El) {
    Inner.push_back(ScanVarPlan{V, false, AffineExpr()});
    ElExprs.push_back(AffineExpr::var(Sys.numVars(), V));
  }

  auto MakeItems = [&](SpmdStmt::Kind K) {
    return scanPolyhedron(Sys, Inner, [&]() {
      SpmdStmt E;
      E.K = K;
      E.ArrayId = ArrayId;
      E.Indices = ElExprs;
      std::vector<SpmdStmt> B;
      B.push_back(std::move(E));
      return B;
    });
  };
  std::vector<SpmdStmt> Pack = MakeItems(SpmdStmt::Kind::PackElem);
  std::vector<SpmdStmt> Unpack = MakeItems(SpmdStmt::Kind::UnpackElem);

  System Outer = Sys.eliminated(El);
  Outer.removeRedundant(projectionOptions().ScanBudget);

  // Sender side: bind ps to myp, enumerate readers.
  {
    std::vector<ScanVarPlan> Plan;
    for (unsigned D = 0; D != Ps.size(); ++D)
      Plan.push_back(ScanVarPlan{
          Ps[D], true,
          AffineExpr::var(Sys.numVars(), SS.prog().MyProcVars[D])});
    for (unsigned V : Pr)
      Plan.push_back(ScanVarPlan{V, false, AffineExpr()});
    std::vector<AffineExpr> Peer;
    for (unsigned V : Pr)
      Peer.push_back(AffineExpr::var(Sys.numVars(), V));
    unsigned CommId = Pl.CommId;
    Send = scanPolyhedron(Outer, Plan, [&]() {
      SpmdStmt Sd;
      Sd.K = SpmdStmt::Kind::Send;
      Sd.Peer = Peer;
      Sd.CommId = CommId;
      Sd.Body = Pack;
      std::vector<SpmdStmt> B;
      B.push_back(std::move(Sd));
      return B;
    });
  }
  // Receiver side: bind pr to myp, enumerate owners.
  {
    std::vector<ScanVarPlan> Plan;
    for (unsigned D = 0; D != Pr.size(); ++D)
      Plan.push_back(ScanVarPlan{
          Pr[D], true,
          AffineExpr::var(Sys.numVars(), SS.prog().MyProcVars[D])});
    for (unsigned V : Ps)
      Plan.push_back(ScanVarPlan{V, false, AffineExpr()});
    std::vector<AffineExpr> Peer;
    for (unsigned V : Ps)
      Peer.push_back(AffineExpr::var(Sys.numVars(), V));
    unsigned CommId = Pl.CommId;
    Recv = scanPolyhedron(Outer, Plan, [&]() {
      SpmdStmt Rv;
      Rv.K = SpmdStmt::Kind::Recv;
      Rv.Peer = Peer;
      Rv.CommId = CommId;
      Rv.Body = Unpack;
      std::vector<SpmdStmt> B;
      B.push_back(std::move(Rv));
      return B;
    });
  }
}

/// Tree walker: shared loops everywhere (the conservative original
/// interleaving), communication emitted just before the subtree holding
/// its reader at the plan's prefix depth — send first, then receive.
class LocEmitter {
public:
  LocEmitter(const Program &P, SpmdSpace &SS, const CompileSpec &Spec,
             std::vector<LocPlan> &Plans,
             const std::map<unsigned, unsigned> &ArrayOf)
      : P(P), SS(SS), Spec(Spec), Plans(Plans), ArrayOf(ArrayOf) {}

  std::vector<SpmdStmt> run() { return emitList(P.topLevel(), 0); }

private:
  const StmtPlan &planOf(unsigned StmtId) const {
    for (const StmtPlan &SP : Spec.Stmts)
      if (SP.StmtId == StmtId)
        return SP;
    fatalError("location compiler: missing statement plan");
  }

  void collect(const Node &N, std::vector<unsigned> &Stmts) const {
    if (N.K == Node::Kind::Stmt) {
      Stmts.push_back(N.Index);
      return;
    }
    for (const Node &C : P.childrenOf(N.Index))
      collect(C, Stmts);
  }

  std::vector<SpmdStmt> emitList(const std::vector<Node> &Children,
                                 unsigned Depth) {
    std::vector<SpmdStmt> Out;
    for (const Node &Child : Children) {
      std::vector<unsigned> Here;
      collect(Child, Here);
      for (LocPlan &Pl : Plans) {
        if (Pl.Emitted || Pl.PrefixLen != Depth)
          continue;
        bool Reads = false;
        for (unsigned S : Here)
          if (S == Pl.ReadStmt)
            Reads = true;
        if (!Reads)
          continue;
        std::vector<SpmdStmt> Send, Recv;
        genLocationFragments(SS, Pl, ArrayOf.at(Pl.CommId), Send, Recv);
        for (SpmdStmt &S : Send)
          Out.push_back(std::move(S));
        for (SpmdStmt &S : Recv)
          Out.push_back(std::move(S));
        Pl.Emitted = true;
      }
      if (Child.K == Node::Kind::Stmt) {
        for (SpmdStmt &S :
             genComputeFragment(SS, planOf(Child.Index), Depth))
          Out.push_back(std::move(S));
      } else {
        SpmdStmt For = makeSharedLoop(SS, Child.Index);
        For.Body = emitList(P.childrenOf(Child.Index), Depth + 1);
        Out.push_back(std::move(For));
      }
    }
    return Out;
  }

  const Program &P;
  SpmdSpace &SS;
  const CompileSpec &Spec;
  std::vector<LocPlan> &Plans;
  const std::map<unsigned, unsigned> &ArrayOf;
};

} // namespace

CompiledProgram dmcc::compileLocationCentric(const Program &P,
                                             const LocationSpec &Spec,
                                             CompileSpec &OutSpec,
                                             unsigned GridDims) {
  auto T0 = std::chrono::steady_clock::now();
  CompiledProgram Out;
  SpmdSpace SS(P, GridDims);

  // Owner-computes computation decompositions; data never moves, so the
  // final layouts equal the initial ones and no finalization is needed.
  OutSpec = CompileSpec();
  for (unsigned S = 0; S != P.numStatements(); ++S) {
    unsigned A = P.statement(S).Write.ArrayId;
    auto It = Spec.Data.find(A);
    if (It == Spec.Data.end())
      fatalError("location compiler: written array needs a decomposition");
    OutSpec.Stmts.push_back(StmtPlan{S, ownerComputes(P, S, It->second)});
  }
  for (const auto &[A, D] : Spec.Data) {
    OutSpec.InitialData.emplace(A, D);
    OutSpec.FinalData.emplace(A, D);
  }

  std::vector<LocPlan> Plans;
  std::map<unsigned, unsigned> ArrayOf; // CommId -> array
  for (unsigned S = 0; S != P.numStatements(); ++S) {
    const Statement &St = P.statement(S);
    const StmtPlan &SP = OutSpec.Stmts[S];
    for (unsigned R = 0; R != St.Reads.size(); ++R) {
      unsigned A = St.Reads[R].ArrayId;
      auto It = Spec.Data.find(A);
      if (It == Spec.Data.end())
        fatalError("location compiler: read array needs a decomposition");
      for (LocPlan &Pl :
           buildLocationPlans(P, SS, S, R, SP.Comp, It->second, GridDims)) {
        Pl.CommId = SS.nextCommId();
        ArrayOf[Pl.CommId] = A;
        Plans.push_back(std::move(Pl));
        ++Out.Stats.NumCommSets;
        ++Out.Stats.NumCommSetsAfterSelfReuse;
      }
    }
  }

  LocEmitter Em(P, SS, OutSpec, Plans, ArrayOf);
  SS.prog().Top = Em.run();
  Out.Spmd = std::move(SS.prog());
  Out.Stats.CompileSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return Out;
}
