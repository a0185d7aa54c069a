//===- decomp/Search.h - Decomposition auto-search --------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automatic decomposition selection. The paper (Section 4.2) assumes
/// the decompositions are given — by the programmer or by an earlier
/// alignment/distribution phase. This subsystem supplies a bounded
/// version of that phase: enumerate a candidate space of affine
/// decompositions, compile every candidate through the full pipeline,
/// score each by simulated makespan on in-process worker threads
/// (sim/Score.h), and return the argmin. A candidate that fails to
/// compile, deadlocks or exhausts its simulated-event budget is scored
/// infeasible, so the result depends only on the inputs.
///
/// The candidate space, deliberately bounded so the search stays a few
/// dozen compiles:
///
///  - Distributed dimension: every array dimension position up to the
///    largest array rank; each array distributes the same position
///    (clamped to its own rank), which keeps co-indexed arrays aligned.
///  - Distribution style: block size along the virtual grid, covering
///    the classic trio — Block == 1 is cyclic, Block == ceil(E/P) is
///    pure block, anything between is block-cyclic. Sizes are powers
///    of two plus the pure-block size, trimmed to MaxBlockChoices.
///  - Computation decompositions follow by owner-computes (Theorem 1)
///    from the written array's candidate layout.
///  - Processor grid: 1-D only (the pipeline's default GridDims). The
///    physical processor count is fixed by the caller; multidimensional
///    grid shapes are out of scope for the bounded search and belong to
///    the caller via SearchOptions::Compile.GridDims == 1 candidates.
///
/// A hand-written hint spec (e.g. the directives parsed from a .dm
/// file) is always candidate 0, and ties break toward the lowest index
/// — so the search result is never worse than the hint: at minimum it
/// returns the hint itself. Overlapped/replicated hint layouts are
/// thereby kept in the race even though the enumerator itself never
/// proposes them.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_DECOMP_SEARCH_H
#define DMCC_DECOMP_SEARCH_H

#include "sim/Score.h"

#include <string>
#include <vector>

namespace dmcc {

/// One point of the candidate space.
struct DecompCandidate {
  CompileSpec Spec;
  std::string Desc; ///< human-readable, e.g. "block(dim 0, 4)"
  bool IsHint = false;
  unsigned Dim = 0; ///< distributed dimension (meaningless for hints)
  IntT Block = 0;   ///< block size (meaningless for hints)
};

/// Search tuning: the scorer's options (sim/Score.h) plus the bound on
/// the block-size axis.
struct SearchOptions : ScoreOptions {
  /// Bound on the block-size axis per dimension (>= 2 keeps at least
  /// cyclic and pure block in the race).
  unsigned MaxBlockChoices = 4;
};

/// A candidate with its score attached.
struct ScoredCandidate {
  DecompCandidate Cand;
  SpecScore Score;
};

/// Relative makespan difference under which two candidates tie. Equal
/// schedules reached through different decompositions sum their clocks
/// in different orders, so their makespans can differ in the last bits.
constexpr double SearchTieTolerance = 1e-12;

/// The outcome of a search.
struct SearchResult {
  /// Every candidate in enumeration order (hint first when given),
  /// scores attached — infeasible candidates included, with the reason
  /// in Score.Error.
  std::vector<ScoredCandidate> Candidates;
  /// Index of the lowest-index feasible candidate whose makespan lies
  /// within SearchTieTolerance of the minimum. -1 when nothing was
  /// feasible.
  int BestIndex = -1;
  std::string Error; ///< non-empty iff BestIndex == -1

  bool ok() const { return BestIndex >= 0; }
  const ScoredCandidate &best() const {
    return Candidates[static_cast<size_t>(BestIndex)];
  }
};

/// Enumerates the bounded candidate space for \p P. \p Hint, when
/// non-null, becomes candidate 0. Every program parameter must be bound
/// in \p SO.Params (extents feed the block-size axis).
std::vector<DecompCandidate> enumerateDecompositions(
    const Program &P, const CompileSpec *Hint, const SearchOptions &SO);

/// Enumerates, scores (on SO.Jobs worker threads), and ranks. See
/// SearchResult for the tie-breaking guarantee that makes the result
/// never worse than the hint.
SearchResult searchDecompositions(const Program &P, const CompileSpec *Hint,
                                  const SearchOptions &SO);

} // namespace dmcc

#endif // DMCC_DECOMP_SEARCH_H
