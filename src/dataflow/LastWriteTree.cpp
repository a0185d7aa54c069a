//===- dataflow/LastWriteTree.cpp -----------------------------*- C++ -*-===//

#include "dataflow/LastWriteTree.h"

#include "math/LexOpt.h"

#include <algorithm>
#include <map>

using namespace dmcc;

namespace {

/// Prefix used for the write-instance copy of loop variables while setting
/// up the lexmax query.
std::string writeCopyName(const std::string &LoopVar) {
  return "w." + LoopVar;
}

/// Node budget for the emptiness probes of last-write resolution.
unsigned feasBudget() { return projectionOptions().FeasibilityBudget; }

/// One candidate "this write instance produced the value" piece.
struct Candidate {
  System Context; ///< over anchor space + aux witnesses
  unsigned StmtId = 0;
  std::vector<AffineExpr> Iw; ///< over Context space
  DepLevel Level = BottomLevel;
};

/// Builds Last Write Trees; see the header for the strategy.
class LWTBuilder {
public:
  LWTBuilder(const Program &P, const System &ReadDomain, unsigned ArrayId,
             std::vector<AffineExpr> ReadIndices, const Statement *Reader)
      : P(P), ReadDomain(ReadDomain), ArrayId(ArrayId),
        ReadIndices(std::move(ReadIndices)), Reader(Reader) {}

  LastWriteTree run() {
    Result.AnchorSpace = ReadDomain.space();
    if (Reader) {
      Result.ReadStmtId = Reader->Id;
    }

    // Gather candidate pieces for every writer statement and level.
    std::vector<std::vector<Candidate>> Lists;
    for (unsigned W = 0, E = P.numStatements(); W != E; ++W) {
      const Statement &WS = P.statement(W);
      if (WS.Write.ArrayId != ArrayId)
        continue;
      if (!Reader) {
        auto L = candidatesFor(WS, /*Level=*/1, /*LoopIndep=*/false,
                               /*SharedPrefix=*/0);
        if (!L.empty())
          Lists.push_back(std::move(L));
        continue;
      }
      unsigned C = P.commonLoopDepth(W, Reader->Id);
      for (unsigned L = 1; L <= C; ++L) {
        auto Cs = candidatesFor(WS, L, /*LoopIndep=*/false,
                                /*SharedPrefix=*/L - 1);
        if (!Cs.empty())
          Lists.push_back(std::move(Cs));
      }
      if (W != Reader->Id && P.precedesTextually(W, Reader->Id)) {
        auto Cs = candidatesFor(WS, C + 1, /*LoopIndep=*/true,
                                /*SharedPrefix=*/C);
        if (!Cs.empty())
          Lists.push_back(std::move(Cs));
      }
    }

    // Merge everything: the comparator compares actual execution times, so
    // level priorities fall out of the value comparison.
    std::vector<Candidate> Merged;
    for (std::vector<Candidate> &L : Lists)
      Merged = Merged.empty() ? std::move(L)
                              : mergeLists(std::move(Merged), std::move(L));

    // Whatever part of the read domain no candidate covers reads values
    // from outside the region.
    Region Covered(baseOf(ReadDomain.space()));
    for (const Candidate &C : Merged)
      Covered.addPiece(C.Context);
    Region Bottom = Region::fromSystem(ReadDomain).subtract(Covered);
    if (!Bottom.isExact())
      Result.Exact = false;

    for (Candidate &C : Merged) {
      LWTContext Ctx;
      Ctx.Domain = std::move(C.Context);
      Ctx.HasWriter = true;
      Ctx.WriteStmtId = C.StmtId;
      Ctx.WriteInstance = std::move(C.Iw);
      Ctx.Level = C.Level;
      Result.Contexts.push_back(std::move(Ctx));
    }
    for (const System &B : Bottom.pieces()) {
      LWTContext Ctx;
      Ctx.Domain = B;
      Ctx.HasWriter = false;
      Ctx.Level = BottomLevel;
      Result.Contexts.push_back(std::move(Ctx));
    }
    coalesce();
    return std::move(Result);
  }

  /// Undoes case splits: merges contexts with identical payloads whose
  /// domains union to a convex set.
  void coalesce() {
    coalesceAll(
        Result.Contexts,
        [](const LWTContext &A, const LWTContext &B) {
          return A.HasWriter == B.HasWriter &&
                 A.WriteStmtId == B.WriteStmtId && A.Level == B.Level &&
                 A.WriteInstance == B.WriteInstance;
        },
        [](LWTContext &C) -> System & { return C.Domain; });
  }

private:
  static Space baseOf(const Space &Sp) {
    Space B;
    for (unsigned I = 0, E = Sp.size(); I != E; ++I)
      if (Sp.kind(I) != VarKind::Aux)
        B.add(Sp.name(I), Sp.kind(I));
    return B;
  }

  /// Lexmax of the write instances of \p WS matching the read, under the
  /// level constraints: positions [0, SharedPrefix) pinned to the reader's
  /// indices and, unless LoopIndep, a strict precedence at position
  /// SharedPrefix.
  std::vector<Candidate> candidatesFor(const Statement &WS, DepLevel Level,
                                       bool LoopIndep,
                                       unsigned SharedPrefix) {
    // Space: write-instance copies first, then the anchor space.
    Space FS;
    std::vector<std::string> WNames;
    for (unsigned L : WS.Loops) {
      std::string N = writeCopyName(P.space().name(P.loop(L).VarIndex));
      WNames.push_back(N);
      FS.add(N, VarKind::Loop);
    }
    for (unsigned I = 0, E = ReadDomain.space().size(); I != E; ++I)
      FS.add(ReadDomain.space().name(I), ReadDomain.space().kind(I));

    System S(std::move(FS));
    // Writer's iteration domain, with loop vars renamed to their copies.
    System WDom = P.domainOf(WS.Id);
    auto Rename = [&WDom, &WS, this](const std::string &N) -> std::string {
      int I = WDom.space().indexOf(N);
      (void)WS;
      if (I >= 0 && WDom.space().kind(static_cast<unsigned>(I)) ==
                        VarKind::Loop)
        return writeCopyName(N);
      return N;
    };
    S.addAllMapped(WDom, Rename);
    // Reader's domain (anchor variables keep their names).
    S.addAllMapped(ReadDomain);
    // Same array element: fw(iw) == fr(ir), dimension by dimension.
    auto RenameProg = [this](const std::string &N) -> std::string {
      int I = P.space().indexOf(N);
      if (I >= 0 &&
          P.space().kind(static_cast<unsigned>(I)) == VarKind::Loop)
        return writeCopyName(N);
      return N;
    };
    assert(WS.Write.Indices.size() == ReadIndices.size() &&
           "access arity mismatch");
    for (unsigned D = 0, E = ReadIndices.size(); D != E; ++D) {
      AffineExpr FW =
          mapExpr(WS.Write.Indices[D], P.space(), S.space(), RenameProg);
      AffineExpr FR = mapExpr(ReadIndices[D], ReadDomain.space(), S.space());
      S.addEq(FW, FR);
    }
    // Execution-order constraints.
    for (unsigned Pfx = 0; Pfx != SharedPrefix; ++Pfx) {
      unsigned WV = static_cast<unsigned>(S.space().indexOf(WNames[Pfx]));
      unsigned RV = static_cast<unsigned>(S.space().indexOf(
          P.space().name(P.loop(WS.Loops[Pfx]).VarIndex)));
      S.addEq(S.varExpr(WV), S.varExpr(RV));
    }
    if (!LoopIndep) {
      if (SharedPrefix < WNames.size() && Reader &&
          SharedPrefix < Reader->Loops.size()) {
        unsigned WV = static_cast<unsigned>(
            S.space().indexOf(WNames[SharedPrefix]));
        unsigned RV = static_cast<unsigned>(S.space().indexOf(
            P.space().name(P.loop(WS.Loops[SharedPrefix]).VarIndex)));
        // iw[k] <= ir[k] - 1.
        S.addGE(S.varExpr(RV).plusConst(-1) - S.varExpr(WV));
      }
    }

    std::vector<unsigned> Objs;
    for (const std::string &N : WNames)
      Objs.push_back(static_cast<unsigned>(S.space().indexOf(N)));
    LexResult LR = lexMax(S, Objs);
    if (!LR.Exact)
      Result.Exact = false;

    std::vector<Candidate> Out;
    for (LexPiece &Piece : LR.Pieces) {
      Candidate C;
      C.Context = std::move(Piece.Context);
      C.StmtId = WS.Id;
      C.Iw = std::move(Piece.Values);
      C.Level = Level;
      Out.push_back(std::move(C));
    }
    return Out;
  }

  /// Conjoins B's context into A's, renaming B's aux witnesses apart.
  /// Returns the combined system and remaps \p IwB into its space.
  System conjoin(const System &A, const System &B,
                 std::vector<AffineExpr> &IwB) {
    System Out = A;
    std::map<std::string, std::string> NameMap;
    for (unsigned I = 0, E = B.space().size(); I != E; ++I) {
      const std::string &N = B.space().name(I);
      if (B.space().kind(I) == VarKind::Aux) {
        std::string Fresh = Out.space().freshName(N);
        Out.addVar(Fresh, VarKind::Aux);
        NameMap[N] = Fresh;
      } else {
        assert(Out.space().contains(N) && "anchor variable missing");
        NameMap[N] = N;
      }
    }
    auto Map = [&NameMap](const std::string &N) { return NameMap.at(N); };
    Out.addAllMapped(B, Map);
    for (AffineExpr &E : IwB)
      E = mapExpr(E, B.space(), Out.space(), Map);
    return Out;
  }

  /// Splits \p Ctx into pieces according to which of A/B executes later,
  /// comparing the write instances coordinate by coordinate over the
  /// writers' shared loops and falling back to textual order.
  void splitCompare(System Ctx, const Candidate &A,
                    const std::vector<AffineExpr> &IwA, const Candidate &B,
                    const std::vector<AffineExpr> &IwB, unsigned Pos,
                    unsigned SharedDepth, std::vector<Candidate> &Out) {
    if (Ctx.checkIntegerFeasible(feasBudget()) == Feasibility::Empty)
      return;
    if (Pos == SharedDepth) {
      // Same shared-iteration values: textual order decides. Identical
      // statements cannot genuinely tie (their contexts are disjoint per
      // level); pick A to keep the recursion total.
      bool AWins =
          A.StmtId == B.StmtId || P.precedesTextually(B.StmtId, A.StmtId);
      Candidate C;
      C.Context = std::move(Ctx);
      C.StmtId = AWins ? A.StmtId : B.StmtId;
      C.Iw = AWins ? IwA : IwB;
      C.Level = AWins ? A.Level : B.Level;
      Out.push_back(std::move(C));
      return;
    }
    AffineExpr Diff = IwA[Pos] - IwB[Pos];
    {
      System SA = Ctx;
      SA.addGE(Diff.plusConst(-1)); // A later at this position
      if (SA.normalize() &&
          SA.checkIntegerFeasible(feasBudget()) != Feasibility::Empty) {
        Candidate C;
        C.Context = std::move(SA);
        C.StmtId = A.StmtId;
        C.Iw = IwA;
        C.Level = A.Level;
        Out.push_back(std::move(C));
      }
    }
    {
      System SB = Ctx;
      SB.addGE(Diff.negated().plusConst(-1)); // B later
      if (SB.normalize() &&
          SB.checkIntegerFeasible(feasBudget()) != Feasibility::Empty) {
        Candidate C;
        C.Context = std::move(SB);
        C.StmtId = B.StmtId;
        C.Iw = IwB;
        C.Level = B.Level;
        Out.push_back(std::move(C));
      }
    }
    System SEq = std::move(Ctx);
    SEq.addEQ(std::move(Diff));
    if (SEq.normalize())
      splitCompare(std::move(SEq), A, IwA, B, IwB, Pos + 1, SharedDepth,
                   Out);
  }

  std::vector<Candidate> mergeLists(std::vector<Candidate> AL,
                                    std::vector<Candidate> BL) {
    std::vector<Candidate> Out;
    Space Base = baseOf(ReadDomain.space());

    // Overlaps, resolved by execution-time comparison.
    for (const Candidate &A : AL) {
      for (const Candidate &B : BL) {
        std::vector<AffineExpr> IwB = B.Iw;
        System Ctx = conjoin(A.Context, B.Context, IwB);
        if (!Ctx.normalize() ||
            Ctx.checkIntegerFeasible(feasBudget()) == Feasibility::Empty)
          continue;
        std::vector<AffineExpr> IwA = A.Iw;
        for (AffineExpr &E : IwA)
          E = mapExpr(E, A.Context.space(), Ctx.space());
        unsigned Shared = P.commonLoopDepth(A.StmtId, B.StmtId);
        splitCompare(std::move(Ctx), A, IwA, B, IwB, 0, Shared, Out);
      }
    }

    // A-only and B-only residues.
    auto pushResidues = [&](const std::vector<Candidate> &Keep,
                            const std::vector<Candidate> &Minus) {
      for (const Candidate &K : Keep) {
        Region R(Base);
        R.addPiece(K.Context);
        for (const Candidate &M : Minus) {
          Region MR(Base);
          MR.addPiece(M.Context);
          R = R.subtract(MR);
        }
        if (!R.isExact())
          Result.Exact = false;
        for (const System &Piece : R.pieces()) {
          // Subtraction preserves the piece's own space, so K.Iw remains
          // valid over it.
          Candidate C;
          C.Context = Piece;
          C.StmtId = K.StmtId;
          C.Iw = K.Iw;
          C.Level = K.Level;
          Out.push_back(std::move(C));
        }
      }
    };
    pushResidues(AL, BL);
    pushResidues(BL, AL);
    return Out;
  }

  const Program &P;
  System ReadDomain;
  unsigned ArrayId;
  std::vector<AffineExpr> ReadIndices;
  const Statement *Reader;
  LastWriteTree Result;
};

} // namespace

LastWriteTree dmcc::buildLWTCore(const Program &P, const System &ReadDomain,
                                 unsigned ArrayId,
                                 const std::vector<AffineExpr> &ReadIndices,
                                 const Statement *Reader) {
  PhaseTimer Timer("dataflow.lwt");
  LWTBuilder B(P, ReadDomain, ArrayId, ReadIndices, Reader);
  return B.run();
}

LastWriteTree dmcc::buildLWT(const Program &P, unsigned ReadStmt,
                             unsigned ReadIdx) {
  const Statement &S = P.statement(ReadStmt);
  assert(ReadIdx < S.Reads.size() && "read index out of range");
  const Access &A = S.Reads[ReadIdx];
  System Domain = P.domainOf(ReadStmt);
  std::vector<AffineExpr> Idx;
  for (const AffineExpr &E : A.Indices)
    Idx.push_back(mapExpr(E, P.space(), Domain.space()));
  LastWriteTree T = buildLWTCore(P, Domain, A.ArrayId, Idx, &S);
  T.ReadStmtId = ReadStmt;
  T.ReadIdx = ReadIdx;
  return T;
}

LastWriteTree dmcc::buildArrayLastWrites(const Program &P,
                                         unsigned ArrayId) {
  const ArrayDecl &A = P.array(ArrayId);
  Space Sp;
  std::vector<unsigned> AVars;
  for (unsigned D = 0, E = A.DimSizes.size(); D != E; ++D)
    AVars.push_back(Sp.add("a" + std::to_string(D), VarKind::Data));
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Sp.add(P.space().name(I), VarKind::Param);
  System Domain(std::move(Sp));
  std::vector<AffineExpr> Idx;
  for (unsigned D = 0, E = A.DimSizes.size(); D != E; ++D) {
    Domain.addGE(Domain.varExpr(AVars[D]));
    Domain.addGE(mapExpr(A.DimSizes[D], P.space(), Domain.space())
                     .plusConst(-1) -
                 Domain.varExpr(AVars[D]));
    Idx.push_back(Domain.varExpr(AVars[D]));
  }
  return buildLWTCore(P, Domain, ArrayId, Idx, nullptr);
}

unsigned LastWriteTree::numWriterContexts() const {
  unsigned N = 0;
  for (const LWTContext &C : Contexts)
    if (C.HasWriter)
      ++N;
  return N;
}

LastWriteTree::Lookup LastWriteTree::lookup(
    const std::vector<IntT> &AnchorVals) const {
  assert(AnchorVals.size() == AnchorSpace.size() &&
         "anchor point over a different space");
  Lookup Out;
  for (const LWTContext &C : Contexts) {
    System Pinned = C.Domain;
    bool Mapped = true;
    for (unsigned I = 0, E = AnchorSpace.size(); I != E; ++I) {
      int J = Pinned.space().indexOf(AnchorSpace.name(I));
      if (J < 0) {
        Mapped = false;
        break;
      }
      Pinned.addEQ(Pinned.varExpr(static_cast<unsigned>(J))
                       .plusConst(-AnchorVals[I]));
    }
    if (!Mapped)
      continue;
    auto Point = Pinned.sampleIntPoint();
    if (!Point)
      continue;
    Out.Covered = true;
    Out.HasWriter = C.HasWriter;
    if (C.HasWriter) {
      Out.WriteStmtId = C.WriteStmtId;
      for (const AffineExpr &E : C.WriteInstance)
        Out.WriteIter.push_back(E.evaluate(*Point));
    }
    return Out;
  }
  return Out;
}

std::string LastWriteTree::str(const Program &P) const {
  std::string S = "LWT for statement " + std::to_string(ReadStmtId) +
                  " read #" + std::to_string(ReadIdx) +
                  (Exact ? "" : " (approximate)") + ":\n";
  for (unsigned I = 0, E = Contexts.size(); I != E; ++I) {
    const LWTContext &C = Contexts[I];
    S += "context " + std::to_string(I) + ": ";
    if (!C.HasWriter) {
      S += "reads values defined outside (bottom)\n";
    } else {
      S += "last write by S" + std::to_string(C.WriteStmtId) + " at (";
      for (unsigned K = 0, KE = C.WriteInstance.size(); K != KE; ++K) {
        if (K)
          S += ", ";
        S += C.WriteInstance[K].str(C.Domain.space());
      }
      S += "), level " + std::to_string(C.Level) + "\n";
    }
    S += C.Domain.str();
  }
  (void)P;
  return S;
}
