//===- comm/CommSet.h - Communication sets ---------------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Communication sets (Definition 3): sets of tuples
/// (ir, pr, is, ps, a) saying processor ps must send the value it writes
/// into location a at iteration is to processor pr for use at read
/// iteration ir. Theorem 3 derives them from Last-Write-Tree contexts and
/// computation decompositions; Theorem 4 handles contexts whose values
/// come from the initial data layout. The ps != pr condition is expanded
/// into disjoint disjuncts (one communication set each), exactly as the
/// paper does for Figure 5.
///
/// Variable naming inside a set's system: sender grid "ps<d>", sender
/// iteration "s.<loop>", receiver grid "pr<d>", receiver iteration
/// "r.<loop>", element "el<k>"; parameters keep their names.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_COMM_COMMSET_H
#define DMCC_COMM_COMMSET_H

#include "dataflow/LastWriteTree.h"
#include "decomp/Decomposition.h"
#include "ir/Program.h"

#include <string>
#include <vector>

namespace dmcc {

/// One convex communication set.
struct CommSet {
  System Sys;

  unsigned ArrayId = 0;
  /// Whether the data is produced by a statement (Theorem 3) or fetched
  /// from the initial data layout (Theorem 4).
  bool FromInitialData = false;
  unsigned WriteStmtId = 0; ///< valid when !FromInitialData
  unsigned ReadStmtId = 0;
  unsigned ReadIdx = 0;
  /// Dependence level of the underlying LWT context; messages can legally
  /// be batched per iteration of this loop (Section 6.2).
  DepLevel Level = BottomLevel;

  /// Cached variable indices in Sys, grouped by role.
  std::vector<unsigned> PsVars, SVars, PrVars, RVars, ElVars;

  /// True if the same message content can be multicast to every receiver
  /// (element range independent of the receiver, Section 6.2.1).
  bool Multicast = false;

  std::string str() const;
};

/// Derives the communication sets for one LWT context of a read access
/// (Theorem 3 for writer contexts, Theorem 4 for bottom contexts).
///
/// \p ReaderComp maps the reader's iterations to the grid; \p WriterComp
/// maps the producing statement's iterations (writer contexts), and
/// \p InitialData maps array elements to their initial owners (bottom
/// contexts). \p GridDims is the dimensionality of the processor grid.
/// When \p DropAlreadyOwned is set, transfers whose receiver already owns
/// a copy under \p InitialData are eliminated (Section 6.1.3).
std::vector<CommSet> buildCommSets(
    const Program &P, const LastWriteTree &T, const LWTContext &Ctx,
    const Decomposition &ReaderComp, const Decomposition *WriterComp,
    const Decomposition *InitialData, unsigned GridDims,
    bool DropAlreadyOwned = true);

/// Section 4.4.3 (finalization): communication sets moving each array
/// element's final value (for writer contexts of an array last-write
/// tree) or its untouched initial value (bottom contexts) to the
/// element's owners under the final layout. Tuples are (ps, s, pr, el);
/// there is no read iteration. \p WriterComp maps the producing
/// statement's iterations to the grid (writer contexts); \p InitialData
/// locates untouched values (bottom contexts). Replicated final
/// dimensions are not supported.
std::vector<CommSet> buildFinalizationSets(
    const Program &P, const LastWriteTree &ArrayT, const LWTContext &Ctx,
    const Decomposition *WriterComp, const Decomposition *InitialData,
    const Decomposition &FinalData, unsigned GridDims);

/// Section 6.1.1: redundant communication due to self reuse. Each value
/// (identified by sender, write instance, element, receiver) is
/// transferred once, to the lexicographically earliest receive iteration;
/// later reads of the same value on the same processor hit local memory.
/// Returns the thinned communication sets (pieces of the lexmin).
std::vector<CommSet> eliminateSelfReuse(const CommSet &CS);

/// Section 6.1.2: redundant communication due to group reuse. When two
/// reads of the same statement fetch the same value (same sender, write
/// instance, element and receiver) in the same dependence-level batch,
/// the later read slot's transfer is dropped: the first delivery leaves
/// the value in local memory. Pairs whose projection is integer-inexact
/// are left untouched (safe). Rewrites \p Sets in place.
void eliminateGroupReuse(std::vector<CommSet> &Sets);

/// Merges communication sets with identical metadata whose systems union
/// to a convex set (undoing analysis case splits); shrinks \p Sets in
/// place. Reduces both generated-code size and message counts.
void coalesceCommSets(std::vector<CommSet> &Sets);

/// Section 6.2.1: marks the set as a multicast when the element range is
/// independent of the receiver coordinates. Returns the updated flag.
bool detectMulticast(CommSet &CS);

} // namespace dmcc

#endif // DMCC_COMM_COMMSET_H
