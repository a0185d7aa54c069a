//===- decomp/Search.cpp --------------------------------------*- C++ -*-===//

#include "decomp/Search.h"

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace dmcc;

namespace {

/// Block sizes to try along a dimension of extent \p E on \p Procs
/// processors: 1 (cyclic), doubling block-cyclic sizes, and the pure
/// block size ceil(E/Procs) — then trimmed from the middle down to
/// \p MaxChoices, so the cyclic and pure-block endpoints always stay
/// in the race.
std::vector<IntT> blockChoices(IntT E, IntT Procs, unsigned MaxChoices) {
  IntT Pure = std::max<IntT>(1, (E + Procs - 1) / Procs);
  std::vector<IntT> Out;
  for (IntT B = 1; B < Pure; B *= 2)
    Out.push_back(B);
  Out.push_back(Pure);
  if (MaxChoices < 2)
    MaxChoices = 2;
  while (Out.size() > MaxChoices)
    Out.erase(Out.begin() + static_cast<long>(Out.size() / 2));
  return Out;
}

} // namespace

std::vector<DecompCandidate>
dmcc::enumerateDecompositions(const Program &P, const CompileSpec *Hint,
                              const SearchOptions &SO) {
  std::vector<DecompCandidate> Out;
  if (Hint) {
    DecompCandidate C;
    C.Spec = *Hint;
    C.Desc = "hint (hand-written spec)";
    C.IsHint = true;
    Out.push_back(std::move(C));
  }

  // Extents need every parameter bound; with one missing the bounded
  // enumeration cannot size its blocks, so only the hint competes.
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I) {
    if (P.space().kind(I) != VarKind::Param)
      continue;
    auto It = SO.Params.find(P.space().name(I));
    if (It == SO.Params.end())
      return Out;
    Env[I] = It->second;
  }
  if (P.numArrays() == 0)
    return Out;

  // Final layouts cover what the hint asks to materialize — keeping the
  // finalization traffic a fixed part of every candidate's cost — or,
  // absent a hint, every written array.
  std::vector<unsigned> FinalIds;
  if (Hint) {
    for (const auto &[AId, FD] : Hint->FinalData) {
      (void)FD;
      FinalIds.push_back(AId);
    }
  } else {
    for (unsigned S = 0; S != P.numStatements(); ++S) {
      unsigned AId = P.statement(S).Write.ArrayId;
      if (std::find(FinalIds.begin(), FinalIds.end(), AId) ==
          FinalIds.end())
        FinalIds.push_back(AId);
    }
  }

  unsigned MaxRank = 0;
  for (unsigned A = 0; A != P.numArrays(); ++A)
    MaxRank = std::max<unsigned>(MaxRank, P.array(A).DimSizes.size());

  for (unsigned Dim = 0; Dim != MaxRank; ++Dim) {
    // The block axis is sized by the largest extent any array spans
    // along this (clamped) dimension, so one choice set serves all.
    IntT MaxExtent = 0;
    for (unsigned A = 0; A != P.numArrays(); ++A) {
      const ArrayDecl &AD = P.array(A);
      if (AD.DimSizes.empty())
        continue;
      unsigned D = std::min<unsigned>(Dim, AD.DimSizes.size() - 1);
      MaxExtent = std::max<IntT>(MaxExtent, AD.DimSizes[D].evaluate(Env));
    }
    if (MaxExtent <= 0)
      continue;
    for (IntT Block : blockChoices(MaxExtent, SO.Procs,
                                   SO.MaxBlockChoices)) {
      DecompCandidate C;
      C.Dim = Dim;
      C.Block = Block;
      IntT Pure =
          std::max<IntT>(1, (MaxExtent + SO.Procs - 1) / SO.Procs);
      char Buf[64];
      if (Block == 1)
        std::snprintf(Buf, sizeof Buf, "cyclic(dim %u)", Dim);
      else if (Block == Pure)
        std::snprintf(Buf, sizeof Buf, "block(dim %u, %lld)", Dim,
                      static_cast<long long>(Block));
      else
        std::snprintf(Buf, sizeof Buf, "block-cyclic(dim %u, %lld)", Dim,
                      static_cast<long long>(Block));
      C.Desc = Buf;
      bool Feasible = true;
      for (unsigned A = 0; A != P.numArrays(); ++A) {
        const ArrayDecl &AD = P.array(A);
        if (AD.DimSizes.empty()) {
          Feasible = false;
          break;
        }
        unsigned D = std::min<unsigned>(Dim, AD.DimSizes.size() - 1);
        C.Spec.InitialData.emplace(A,
                                   blockData(P, A, D, Block));
      }
      if (!Feasible)
        continue;
      for (unsigned AId : FinalIds)
        C.Spec.FinalData.emplace(AId, C.Spec.InitialData.at(AId));
      // Theorem 1: computation follows the written array's layout.
      // blockData never replicates, so the precondition always holds.
      for (unsigned S = 0; S != P.numStatements(); ++S) {
        unsigned AId = P.statement(S).Write.ArrayId;
        C.Spec.Stmts.push_back(
            StmtPlan{S, ownerComputes(P, S, C.Spec.InitialData.at(AId))});
      }
      Out.push_back(std::move(C));
    }
  }
  return Out;
}

SearchResult dmcc::searchDecompositions(const Program &P,
                                        const CompileSpec *Hint,
                                        const SearchOptions &SO) {
  SearchResult R;
  std::vector<DecompCandidate> Cands = enumerateDecompositions(P, Hint, SO);
  if (Cands.empty()) {
    R.Error = "no candidates: the program has no arrays and no hint "
              "was given";
    return R;
  }

  std::vector<CompileSpec> Specs;
  Specs.reserve(Cands.size());
  for (const DecompCandidate &C : Cands)
    Specs.push_back(C.Spec);

  std::vector<SpecScore> Scores = scoreSpecs(P, Specs, SO);

  R.Candidates.reserve(Cands.size());
  for (size_t I = 0; I != Cands.size(); ++I)
    R.Candidates.push_back(
        ScoredCandidate{std::move(Cands[I]), std::move(Scores[I])});

  double Min = std::numeric_limits<double>::infinity();
  for (const ScoredCandidate &C : R.Candidates)
    if (C.Score.Ok)
      Min = std::min(Min, C.Score.MakespanSeconds);
  // The lowest index within the tolerance wins, so a hint tied with an
  // enumerated twin still wins, and summation rounding cannot rank two
  // candidates that run the same schedule.
  for (size_t I = 0; I != R.Candidates.size(); ++I) {
    const SpecScore &S = R.Candidates[I].Score;
    if (S.Ok && S.MakespanSeconds <= Min * (1 + SearchTieTolerance)) {
      R.BestIndex = static_cast<int>(I);
      break;
    }
  }
  if (R.BestIndex < 0)
    R.Error = "no feasible candidate: every spec failed to compile or "
              "simulate";
  return R;
}
