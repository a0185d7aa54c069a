//===- baseline/LocationCentric.cpp ---------------------------*- C++ -*-===//

#include "baseline/LocationCentric.h"

#include "ir/Interp.h"

#include <algorithm>
#include <map>
#include <set>

using namespace dmcc;

std::vector<Dependence> dmcc::dependencesOnto(const Program &P,
                                              unsigned ReadStmt,
                                              unsigned ReadIdx) {
  const Statement &R = P.statement(ReadStmt);
  const Access &RA = R.Reads[ReadIdx];
  std::vector<Dependence> Out;
  for (unsigned W = 0, E = P.numStatements(); W != E; ++W) {
    const Statement &WS = P.statement(W);
    if (WS.Write.ArrayId != RA.ArrayId)
      continue;
    unsigned C = P.commonLoopDepth(W, ReadStmt);

    auto feasibleAt = [&](unsigned Level, bool LoopIndep) -> bool {
      // Space: writer iteration copies, then reader domain variables.
      Space Sp;
      std::vector<std::string> WNames;
      for (unsigned L : WS.Loops) {
        std::string N = "w." + P.space().name(P.loop(L).VarIndex);
        WNames.push_back(N);
        Sp.add(N, VarKind::Loop);
      }
      System RDom = P.domainOf(ReadStmt);
      for (unsigned I = 0; I != RDom.space().size(); ++I)
        Sp.add(RDom.space().name(I), RDom.space().kind(I));
      System S(std::move(Sp));
      System WDom = P.domainOf(W);
      auto RenW = [&WDom](const std::string &N) -> std::string {
        int I = WDom.space().indexOf(N);
        if (I >= 0 &&
            WDom.space().kind(static_cast<unsigned>(I)) == VarKind::Loop)
          return "w." + N;
        return N;
      };
      S.addAllMapped(WDom, RenW);
      S.addAllMapped(RDom);
      auto RenProg = [&P](const std::string &N) -> std::string {
        int I = P.space().indexOf(N);
        if (I >= 0 &&
            P.space().kind(static_cast<unsigned>(I)) == VarKind::Loop)
          return "w." + N;
        return N;
      };
      for (unsigned D = 0, DE = RA.Indices.size(); D != DE; ++D) {
        AffineExpr FW =
            mapExpr(WS.Write.Indices[D], P.space(), S.space(), RenProg);
        AffineExpr FR = mapExpr(RA.Indices[D], P.space(), S.space());
        S.addEq(FW, FR);
      }
      unsigned Pin = LoopIndep ? Level - 1 : Level - 1;
      for (unsigned K = 0; K != Pin; ++K) {
        unsigned WV = static_cast<unsigned>(S.space().indexOf(WNames[K]));
        unsigned RV = static_cast<unsigned>(S.space().indexOf(
            P.space().name(P.loop(WS.Loops[K]).VarIndex)));
        S.addEq(S.varExpr(WV), S.varExpr(RV));
      }
      if (!LoopIndep) {
        unsigned WV = static_cast<unsigned>(
            S.space().indexOf(WNames[Level - 1]));
        unsigned RV = static_cast<unsigned>(S.space().indexOf(
            P.space().name(P.loop(WS.Loops[Level - 1]).VarIndex)));
        S.addGE(S.varExpr(RV).plusConst(-1) - S.varExpr(WV));
      }
      return S.checkIntegerFeasible() != Feasibility::Empty;
    };

    for (unsigned L = 1; L <= C; ++L)
      if (feasibleAt(L, /*LoopIndep=*/false))
        Out.push_back(Dependence{W, ReadStmt, ReadIdx, L});
    if (W != ReadStmt && P.precedesTextually(W, ReadStmt) &&
        feasibleAt(C + 1, /*LoopIndep=*/true))
      Out.push_back(Dependence{W, ReadStmt, ReadIdx, C + 1});
  }
  return Out;
}

unsigned dmcc::maxDependenceLevel(const Program &P, unsigned ReadStmt,
                                  unsigned ReadIdx) {
  unsigned Max = 0;
  for (const Dependence &D : dependencesOnto(P, ReadStmt, ReadIdx))
    Max = std::max(Max, D.Level);
  return Max;
}

uint64_t RegularSection::volume() const {
  if (Empty)
    return 0;
  uint64_t V = 1;
  for (unsigned K = 0; K != Lo.size(); ++K)
    V *= static_cast<uint64_t>(Hi[K] - Lo[K] + 1);
  return V;
}

RegularSection dmcc::sectionOf(const Program &P, unsigned ReadStmt,
                               unsigned ReadIdx,
                               const std::vector<IntT> &Prefix,
                               const std::map<std::string, IntT> &Params) {
  const Statement &R = P.statement(ReadStmt);
  const Access &RA = R.Reads[ReadIdx];
  System Dom = P.domainOf(ReadStmt);
  for (unsigned I = 0; I != Dom.space().size(); ++I) {
    if (Dom.space().kind(I) == VarKind::Param)
      Dom.addEQ(Dom.varExpr(I).plusConst(
          -Params.at(Dom.space().name(I))));
    else if (I < Prefix.size())
      Dom.addEQ(Dom.varExpr(I).plusConst(-Prefix[I]));
  }
  std::vector<AffineExpr> Idx;
  for (const AffineExpr &E : RA.Indices)
    Idx.push_back(mapExpr(E, P.space(), Dom.space()));
  RegularSection Sec;
  Sec.Lo.assign(Idx.size(), 0);
  Sec.Hi.assign(Idx.size(), 0);
  Dom.enumeratePoints([&](const std::vector<IntT> &Pt) {
    for (unsigned K = 0; K != Idx.size(); ++K) {
      IntT V = Idx[K].evaluate(Pt);
      if (Sec.Empty) {
        Sec.Lo[K] = Sec.Hi[K] = V;
      } else {
        Sec.Lo[K] = std::min(Sec.Lo[K], V);
        Sec.Hi[K] = std::max(Sec.Hi[K], V);
      }
    }
    Sec.Empty = false;
  });
  return Sec;
}

namespace {

/// Iterates a read statement's concrete iterations, calling
/// Fn(iteration values including params).
void forEachIteration(const Program &P, unsigned Stmt,
                      const std::map<std::string, IntT> &Params,
                      const std::function<void(const std::vector<IntT> &)>
                          &Fn) {
  System Dom = P.domainOf(Stmt);
  for (unsigned I = 0; I != Dom.space().size(); ++I)
    if (Dom.space().kind(I) == VarKind::Param)
      Dom.addEQ(Dom.varExpr(I).plusConst(
          -Params.at(Dom.space().name(I))));
  Dom.enumeratePoints(Fn);
}

std::vector<IntT> elementOf(const Program &P, const Access &A,
                            const Space &DomSp,
                            const std::vector<IntT> &Iter) {
  std::vector<IntT> El;
  for (const AffineExpr &E : A.Indices)
    El.push_back(mapExpr(E, P.space(), DomSp).evaluate(Iter));
  return El;
}

} // namespace

TrafficEstimate dmcc::locationCentricTraffic(
    const Program &P, unsigned ReadStmt, unsigned ReadIdx,
    const Decomposition &DataD, const std::map<std::string, IntT> &Params) {
  const Statement &R = P.statement(ReadStmt);
  const Access &RA = R.Reads[ReadIdx];
  Decomposition CompD = ownerComputes(P, ReadStmt, DataD);
  unsigned MaxLevel = maxDependenceLevel(P, ReadStmt, ReadIdx);
  unsigned PrefixLen = std::min<unsigned>(MaxLevel, R.depth());

  // Elements actually read per (prefix, reader) — to measure waste — and
  // the per-reader sections.
  struct Group {
    std::set<std::vector<IntT>> Accessed;
    RegularSection Sec;
  };
  std::map<std::pair<std::vector<IntT>, std::vector<IntT>>, Group> Groups;
  System Dom = P.domainOf(ReadStmt);
  forEachIteration(P, ReadStmt, Params, [&](const std::vector<IntT> &It) {
    std::vector<IntT> Prefix(It.begin(), It.begin() + PrefixLen);
    std::vector<IntT> Reader = CompD.gridCoordinate(It);
    std::vector<IntT> El = elementOf(P, RA, Dom.space(), It);
    Group &G = Groups[{Prefix, Reader}];
    if (G.Sec.Empty) {
      G.Sec.Lo = El;
      G.Sec.Hi = El;
      G.Sec.Empty = false;
    } else {
      for (unsigned K = 0; K != El.size(); ++K) {
        G.Sec.Lo[K] = std::min(G.Sec.Lo[K], El[K]);
        G.Sec.Hi[K] = std::max(G.Sec.Hi[K], El[K]);
      }
    }
    G.Accessed.insert(std::move(El));
  });

  // Parameter tail for ownership queries.
  std::vector<IntT> SrcTail;
  for (unsigned I = 0; I != DataD.sourceSpace().size(); ++I)
    if (DataD.sourceSpace().kind(I) == VarKind::Param)
      SrcTail.push_back(Params.at(DataD.sourceSpace().name(I)));

  TrafficEstimate T;
  for (const auto &[Key, G] : Groups) {
    const std::vector<IntT> &Reader = Key.second;
    std::set<std::vector<IntT>> Owners;
    // Walk the box.
    std::vector<IntT> El = G.Sec.Lo;
    bool Done = G.Sec.Empty;
    while (!Done) {
      std::vector<IntT> Src = El;
      Src.insert(Src.end(), SrcTail.begin(), SrcTail.end());
      std::vector<IntT> Owner = DataD.gridCoordinate(Src);
      if (Owner != Reader) {
        ++T.Words;
        if (!G.Accessed.count(El))
          ++T.WastedWords;
        Owners.insert(std::move(Owner));
      }
      for (unsigned K = El.size(); K-- > 0;) {
        if (++El[K] <= G.Sec.Hi[K])
          break;
        El[K] = G.Sec.Lo[K];
        if (K == 0)
          Done = true;
      }
    }
    T.Messages += Owners.size();
  }
  return T;
}

TrafficEstimate dmcc::valueCentricTraffic(
    const Program &P, unsigned ReadStmt, unsigned ReadIdx,
    const Decomposition &DataD, const std::map<std::string, IntT> &Params) {
  // Owner-computes computation decomposition for every statement, as in
  // the baseline, so the comparison isolates the analysis quality.
  std::vector<Decomposition> Comp;
  for (unsigned S = 0; S != P.numStatements(); ++S)
    Comp.push_back(ownerComputes(P, S, DataD));

  std::vector<IntT> SrcTail;
  for (unsigned I = 0; I != DataD.sourceSpace().size(); ++I)
    if (DataD.sourceSpace().kind(I) == VarKind::Param)
      SrcTail.push_back(Params.at(DataD.sourceSpace().name(I)));

  // Each distinct (value identity, consumer processor) pair crosses once.
  std::set<std::vector<IntT>> Transfers; // (srcProc..., dstProc..., id...)
  std::set<std::vector<IntT>> Channels;  // (srcProc..., dstProc...)
  SeqInterpreter I(P, Params);
  System RDom = P.domainOf(ReadStmt);
  I.setReadCallback([&](unsigned StmtId, unsigned RIdx,
                        const std::vector<IntT> &Iter,
                        const WriteInstance *Writer) {
    if (StmtId != ReadStmt || RIdx != ReadIdx)
      return;
    std::vector<IntT> Full = Iter;
    for (unsigned K = 0; K != RDom.space().size(); ++K)
      if (RDom.space().kind(K) == VarKind::Param)
        Full.push_back(Params.at(RDom.space().name(K)));
    std::vector<IntT> Reader =
        Comp[ReadStmt].gridCoordinate(Full);
    std::vector<IntT> Src;
    std::vector<IntT> Id;
    if (Writer) {
      const Statement &WS = P.statement(Writer->StmtId);
      System WDom = P.domainOf(Writer->StmtId);
      std::vector<IntT> WFull = Writer->Iter;
      for (unsigned K = 0; K != WDom.space().size(); ++K)
        if (WDom.space().kind(K) == VarKind::Param)
          WFull.push_back(Params.at(WDom.space().name(K)));
      Src = Comp[Writer->StmtId].gridCoordinate(WFull);
      Id.push_back(static_cast<IntT>(Writer->StmtId) + 1);
      for (IntT V : Writer->Iter)
        Id.push_back(V);
      (void)WS;
    } else {
      // Initial value: owned by the data decomposition's owner.
      const Statement &RS = P.statement(ReadStmt);
      std::vector<IntT> El =
          elementOf(P, RS.Reads[ReadIdx], RDom.space(), Full);
      std::vector<IntT> SrcV = El;
      SrcV.insert(SrcV.end(), SrcTail.begin(), SrcTail.end());
      Src = DataD.gridCoordinate(SrcV);
      Id.push_back(0);
      for (IntT V : El)
        Id.push_back(V);
    }
    if (Src == Reader)
      return;
    std::vector<IntT> TKey = Src;
    TKey.insert(TKey.end(), Reader.begin(), Reader.end());
    std::vector<IntT> CKey = TKey;
    TKey.insert(TKey.end(), Id.begin(), Id.end());
    Transfers.insert(std::move(TKey));
    Channels.insert(std::move(CKey));
  });
  I.run();
  TrafficEstimate T;
  T.Words = Transfers.size();
  T.Messages = Channels.size();
  return T;
}
