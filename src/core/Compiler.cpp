//===- core/Compiler.cpp --------------------------------------*- C++ -*-===//

#include "core/Compiler.h"

#include "codegen/Simplify.h"
#include "dataflow/LastWriteTree.h"

#include <algorithm>
#include <chrono>
#include <set>

using namespace dmcc;

namespace {

/// One communication action with its placement bookkeeping.
struct Placed {
  CommPlan Plan;
  unsigned CommId = 0;
  bool IsFinal = false;
  bool RecvEmitted = false;
  bool SendEmitted = false;
};

/// Chooses the message batching depth for a writer-produced set:
/// prefer dependence level - 1 (the paper's aggregation) when the
/// alignment/ordering checks pass, else fall back to the dependence
/// level (clamped to the loops the statements share).
unsigned chooseAggLevel(const Program &P, const CommSet &CS,
                        const CompilerOptions &Opts, std::string &Diag) {
  if (CS.FromInitialData)
    return 0;
  unsigned CD = P.commonLoopDepth(CS.WriteStmtId, CS.ReadStmtId);
  auto Clamp = [&](int L) -> unsigned {
    int MinL = CD == 0 ? 0 : 1;
    if (L < MinL)
      L = MinL;
    if (L > static_cast<int>(CD))
      L = static_cast<int>(CD);
    return static_cast<unsigned>(L);
  };
  unsigned Coarse = Clamp(static_cast<int>(CS.Level) - 1);
  unsigned Fine = Clamp(static_cast<int>(CS.Level));
  if (Opts.AggressiveAggregation && aggregationSafe(P, CS, Coarse))
    return Coarse;
  if (aggregationSafe(P, CS, Fine))
    return Fine;
  Diag += "note: aggregation checks failed for a set of S" +
          std::to_string(CS.ReadStmtId) +
          "; relying on runtime FIFO order\n";
  return Fine;
}

/// A value flow recorded during analysis, used for the loop-distribution
/// legality test in the emitter.
struct FlowDep {
  unsigned Writer = 0, Reader = 0;
  DepLevel Level = BottomLevel;
};

/// Walks the source tree, interleaving computation fragments with the
/// receives that feed them and the sends that publish their results.
class Emitter {
public:
  Emitter(const Program &P, SpmdSpace &SS,
          const std::vector<const StmtPlan *> &PlanOf,
          std::vector<Placed> &Comms, const std::vector<FlowDep> &Deps)
      : P(P), SS(SS), PlanOf(PlanOf), Comms(Comms), Deps(Deps) {}

  std::vector<SpmdStmt> run() {
    std::vector<SpmdStmt> Out;
    // Initial-data sends precede everything (Figure 13: "first processor
    // sends initial data").
    for (Placed &Pl : Comms) {
      if (Pl.IsFinal || !Pl.Plan.Set.FromInitialData)
        continue;
      emitComm(Out, Pl, /*SendSide=*/true);
    }
    append(Out, emitList(P.topLevel(), 0));
    // Finalization: everyone publishes final values, then collects.
    for (Placed &Pl : Comms) {
      if (!Pl.IsFinal)
        continue;
      emitComm(Out, Pl, /*SendSide=*/true);
    }
    for (Placed &Pl : Comms) {
      if (!Pl.IsFinal)
        continue;
      emitComm(Out, Pl, /*SendSide=*/false);
    }
    return Out;
  }

private:
  static void append(std::vector<SpmdStmt> &Out,
                     std::vector<SpmdStmt> Frag) {
    for (SpmdStmt &S : Frag)
      Out.push_back(std::move(S));
  }

  /// Appends \p Pl's send or receive fragment and marks it emitted.
  void emitComm(std::vector<SpmdStmt> &Out, Placed &Pl, bool SendSide) {
    append(Out, genCommFragment(SS, Pl.Plan, Pl.CommId, SendSide));
    (SendSide ? Pl.SendEmitted : Pl.RecvEmitted) = true;
  }

  void collectStmts(const Node &N, std::set<unsigned> &Stmts) const {
    if (N.K == Node::Kind::Stmt) {
      Stmts.insert(N.Index);
      return;
    }
    for (const Node &C : P.childrenOf(N.Index))
      collectStmts(C, Stmts);
  }

  void collectStmtsOrdered(const Node &N, std::vector<unsigned> &S) const {
    if (N.K == Node::Kind::Stmt) {
      S.push_back(N.Index);
      return;
    }
    for (const Node &C : P.childrenOf(N.Index))
      collectStmtsOrdered(C, S);
  }

  std::vector<SpmdStmt> emitList(const std::vector<Node> &Children,
                                 unsigned Depth) {
    std::vector<SpmdStmt> Out;
    for (const Node &Child : Children) {
      std::set<unsigned> Here;
      collectStmts(Child, Here);

      // Receives feeding statements in this subtree, batched at this
      // depth, go right before it.
      for (Placed &Pl : Comms) {
        if (Pl.IsFinal || Pl.RecvEmitted || Pl.Plan.AggLevel != Depth)
          continue;
        if (!Here.count(Pl.Plan.Set.ReadStmtId))
          continue;
        emitComm(Out, Pl, /*SendSide=*/false);
      }

      if (Child.K == Node::Kind::Stmt) {
        append(Out, genComputeFragment(SS, *PlanOf[Child.Index], Depth));
      } else {
        // The loop must stay shared (interleaved) if a communication
        // batch boundary lies deeper, or if separating its statements
        // would break a textually-backward loop-carried flow
        // (distribution legality, cf. Section 5.4).
        bool Shared = false;
        for (const Placed &Pl : Comms) {
          if (Pl.IsFinal || Pl.Plan.AggLevel <= Depth)
            continue;
          bool Reads = Here.count(Pl.Plan.Set.ReadStmtId) != 0;
          bool Writes = !Pl.Plan.Set.FromInitialData &&
                        Here.count(Pl.Plan.Set.WriteStmtId) != 0;
          if (Reads || Writes) {
            Shared = true;
            break;
          }
        }
        for (const FlowDep &D : Deps) {
          if (Shared)
            break;
          if (D.Writer == D.Reader || D.Level <= Depth)
            continue;
          if (!Here.count(D.Writer) || !Here.count(D.Reader))
            continue;
          if (D.Level > P.commonLoopDepth(D.Writer, D.Reader))
            continue; // loop-independent: textual order is preserved
          if (P.precedesTextually(D.Writer, D.Reader))
            continue; // forward flow: phases keep it satisfied
          Shared = true;
        }
        if (Shared) {
          SpmdStmt For = makeSharedLoop(SS, Child.Index);
          For.Body = emitList(P.childrenOf(Child.Index), Depth + 1);
          Out.push_back(std::move(For));
        } else {
          std::vector<unsigned> Inner;
          collectStmtsOrdered(Child, Inner);
          for (unsigned S : Inner) {
            append(Out, genComputeFragment(SS, *PlanOf[S], Depth));
            // Early-send hoist (Section 6, DESIGN.md §11): a batch
            // whose content is complete once this statement's fragment
            // has run is issued here, ahead of the sibling fragments,
            // instead of after the whole subtree. HoistEarly guarantees
            // none of those siblings writes the communicated array, so
            // the packed values are the ones the blocking placement
            // would pack.
            for (Placed &Pl : Comms) {
              if (Pl.IsFinal || Pl.SendEmitted ||
                  Pl.Plan.AggLevel != Depth || !Pl.Plan.HoistEarly)
                continue;
              if (Pl.Plan.Set.FromInitialData ||
                  Pl.Plan.Set.WriteStmtId != S)
                continue;
              emitComm(Out, Pl, /*SendSide=*/true);
            }
          }
        }
      }

      // Sends publishing values produced in this subtree, batched at
      // this depth, go right after it.
      for (Placed &Pl : Comms) {
        if (Pl.IsFinal || Pl.SendEmitted || Pl.Plan.AggLevel != Depth)
          continue;
        if (Pl.Plan.Set.FromInitialData)
          continue;
        if (!Here.count(Pl.Plan.Set.WriteStmtId))
          continue;
        emitComm(Out, Pl, /*SendSide=*/true);
      }
    }
    return Out;
  }

  const Program &P;
  SpmdSpace &SS;
  const std::vector<const StmtPlan *> &PlanOf;
  std::vector<Placed> &Comms;
  const std::vector<FlowDep> &Deps;
};

} // namespace

CompiledProgram dmcc::compile(const Program &P, const CompileSpec &Spec,
                              const CompilerOptions &Opts) {
  auto T0 = std::chrono::steady_clock::now();
  // Install this compile's polyhedral-core settings process-wide and
  // snapshot the counters so Stats.Proj covers exactly this compile.
  ProjectionOptions SavedOpts = projectionOptions();
  projectionOptions() = Opts.Projection;
  resetPhaseProfiles();
  ProjectionStats Before = projectionStats();

  CompiledProgram Out;
  SpmdSpace SS(P, Opts.GridDims);

  auto finish = [&](CompiledProgram &R) -> CompiledProgram & {
    R.Stats.Proj = projectionStats() - Before;
    R.Stats.Phases = phaseProfiles();
    projectionOptions() = SavedOpts;
    R.Stats.CompileSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      T0)
            .count();
    return R;
  };

  // Each statement's plan: the first Spec.Stmts entry that names it.
  std::vector<const StmtPlan *> PlanOf(P.numStatements(), nullptr);
  for (const StmtPlan &SP : Spec.Stmts)
    if (SP.StmtId < PlanOf.size() && !PlanOf[SP.StmtId])
      PlanOf[SP.StmtId] = &SP;
  for (unsigned S = 0, E = P.numStatements(); S != E; ++S)
    if (!PlanOf[S]) {
      Out.Ok = false;
      Out.ErrorMessage = "no computation decomposition for S" +
                         std::to_string(S) +
                         ": every statement needs a plan";
      return finish(Out);
    }
  // A computation decomposition must map each iteration to exactly one
  // processor (Definition 2). A replicated dimension would silently run
  // every iteration on multiple processors, so reject the spec loudly
  // in every build type instead of asserting in debug only.
  for (const StmtPlan &SP : Spec.Stmts)
    if (!SP.Comp.isUnique()) {
      Out.Ok = false;
      Out.ErrorMessage =
          "computation decomposition for S" + std::to_string(SP.StmtId) +
          " is not unique: every iteration must map to exactly one "
          "processor (Definition 2)";
      return finish(Out);
    }

  std::vector<Placed> Comms;
  std::vector<FlowDep> Deps;
  // Analysis and communication-set derivation.
  for (unsigned S = 0, E = P.numStatements(); S != E; ++S) {
    const Statement &St = P.statement(S);
    const StmtPlan &ReaderPlan = *PlanOf[S];
    std::vector<CommSet> StmtPieces;
    for (unsigned R = 0, RE = St.Reads.size(); R != RE; ++R) {
      LastWriteTree T = buildLWT(P, S, R);
      Out.Stats.NumLWTContexts += T.Contexts.size();
      if (!T.Exact) {
        Out.Stats.AllExact = false;
        Out.Diagnostics += "warning: approximate data flow for S" +
                           std::to_string(S) + " read " +
                           std::to_string(R) + "\n";
      }
      for (const LWTContext &Ctx : T.Contexts)
        if (Ctx.HasWriter)
          Deps.push_back(FlowDep{Ctx.WriteStmtId, S, Ctx.Level});
      std::vector<CommSet> &Pieces = StmtPieces;
      for (const LWTContext &Ctx : T.Contexts) {
        const Decomposition *Init = nullptr;
        auto It = Spec.InitialData.find(St.Reads[R].ArrayId);
        if (It != Spec.InitialData.end())
          Init = &It->second;
        std::vector<CommSet> Sets;
        if (Ctx.HasWriter) {
          Sets = buildCommSets(P, T, Ctx, ReaderPlan.Comp,
                               &PlanOf[Ctx.WriteStmtId]->Comp, Init,
                               Opts.GridDims);
        } else {
          if (!Init)
            fatalError("compile: array read before written needs an "
                       "initial data decomposition");
          Sets = buildCommSets(P, T, Ctx, ReaderPlan.Comp, nullptr, Init,
                               Opts.GridDims);
        }
        Out.Stats.NumCommSets += Sets.size();
        for (CommSet &CS : Sets) {
          if (!Opts.EliminateSelfReuse) {
            Pieces.push_back(std::move(CS));
            continue;
          }
          PhaseTimer Timer("comm.self_reuse");
          for (CommSet &Thin : eliminateSelfReuse(CS))
            Pieces.push_back(std::move(Thin));
        }
      }
    }
    if (Opts.EliminateGroupReuse) {
      PhaseTimer Timer("comm.group_reuse");
      eliminateGroupReuse(StmtPieces);
    }
    {
      PhaseTimer Timer("comm.coalesce");
      coalesceCommSets(StmtPieces);
    }
    for (CommSet &Piece : StmtPieces) {
      ++Out.Stats.NumCommSetsAfterSelfReuse;
      if (Opts.DetectMulticast) {
        PhaseTimer Timer("comm.multicast");
        if (detectMulticast(Piece))
          ++Out.Stats.NumMulticastSets;
      }
      Placed Pl;
      {
        PhaseTimer Timer("comm.agg_level");
        Pl.Plan.AggLevel = chooseAggLevel(P, Piece, Opts, Out.Diagnostics);
      }
      Pl.Plan.Multicast = Piece.Multicast;
      Pl.Plan.Set = std::move(Piece);
      Comms.push_back(std::move(Pl));
    }
  }

  // Finalization.
  for (const auto &[ArrayId, FinalD] : Spec.FinalData) {
    LastWriteTree AT = buildArrayLastWrites(P, ArrayId);
    if (!AT.Exact) {
      Out.Stats.AllExact = false;
      Out.Diagnostics += "warning: approximate finalization for array " +
                         std::to_string(ArrayId) + "\n";
    }
    for (const LWTContext &Ctx : AT.Contexts) {
      const Decomposition *Init = nullptr;
      auto It = Spec.InitialData.find(ArrayId);
      if (It != Spec.InitialData.end())
        Init = &It->second;
      if (!Ctx.HasWriter && !Init)
        continue; // untouched data with no known home: nothing to move
      std::vector<CommSet> Sets = buildFinalizationSets(
          P, AT, Ctx, Ctx.HasWriter ? &PlanOf[Ctx.WriteStmtId]->Comp : nullptr,
          Init, FinalD, Opts.GridDims);
      for (CommSet &CS : Sets) {
        ++Out.Stats.NumFinalizationSets;
        Placed Pl;
        Pl.Plan.Set = std::move(CS);
        Pl.Plan.AggLevel = 0;
        Pl.IsFinal = true;
        Comms.push_back(std::move(Pl));
      }
    }
  }

  // Early sends (Section 6, DESIGN.md §11): decide per set whether its
  // sends may issue nonblocking, and whether the fragment may also be
  // hoisted to right after its producer. Hoisting moves the pack across
  // the sibling fragments that follow the writer inside its subtree, so
  // it additionally requires that none of them writes the communicated
  // array there (a conservative, syntactic stand-in for the LWT's
  // element-level guarantee) and that every data-flow tree was exact.
  if (Opts.EarlySends) {
    auto HoistSafe = [&](const CommSet &CS, unsigned Level) {
      for (unsigned S = 0, E = P.numStatements(); S != E; ++S) {
        if (S == CS.WriteStmtId ||
            P.statement(S).Write.ArrayId != CS.ArrayId)
          continue;
        if (P.commonLoopDepth(S, CS.WriteStmtId) <= Level)
          continue; // outside the batch subtree: the hoist never
                    // crosses it
        if (P.precedesTextually(CS.WriteStmtId, S))
          return false;
      }
      return true;
    };
    for (Placed &Pl : Comms) {
      CommPlan &Plan = Pl.Plan;
      if (Pl.IsFinal) {
        // Finalization sets run after every write of the program:
        // trivially complete, always safe to issue asynchronously.
        Plan.EarlyLevel = 0;
        ++Out.Stats.NumEarlySends;
        continue;
      }
      if (!earlySendSafe(P, Plan.Set, Plan.AggLevel))
        continue;
      Plan.EarlyLevel = Plan.AggLevel;
      ++Out.Stats.NumEarlySends;
      if (!Plan.Set.FromInitialData && Out.Stats.AllExact &&
          HoistSafe(Plan.Set, Plan.AggLevel)) {
        Plan.HoistEarly = true;
        ++Out.Stats.NumEarlyHoisted;
      }
    }
  }

  for (unsigned I = 0; I != Comms.size(); ++I)
    Comms[I].CommId = SS.nextCommId();

  {
    PhaseTimer Timer("codegen.emit");
    Emitter Em(P, SS, PlanOf, Comms, Deps);
    SS.prog().Top = Em.run();
  }
  Out.Spmd = std::move(SS.prog());
  Out.Stats.NumCommChannels = Out.Spmd.NumCommIds;
  {
    // Context simplification, with loop splitting in the same walk
    // (DESIGN.md §18); splitting is timed as codegen.split inside it.
    PhaseTimer Timer("codegen.simplify");
    SpmdSimplifier Simp(Out.Spmd, Opts.SplitLoops ? DefaultMaxSegments : 0);
    Simp.run(Out.Spmd.Top);
    Out.Stats.LoopsSplit = Simp.Split.LoopsSplit;
    Out.Stats.GuardsEliminated = Simp.Split.GuardsEliminated;
  }
  for (Placed &Pl : Comms)
    Out.Comms.push_back(std::move(Pl.Plan));

  return finish(Out);
}
