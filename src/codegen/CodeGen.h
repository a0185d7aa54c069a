//===- codegen/CodeGen.h - SPMD code generation ----------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the per-processor SPMD fragments (Section 5.3) that the
/// driver merges along the source loop tree (Section 5.4):
///
///  * computation fragments — scans of a statement's computation
///    decomposition, with the executing processor's coordinates bound;
///  * receive fragments — scans of a communication set in
///    (pr, r-prefix | ps, s, r-suffix, el) order, the message boundary
///    placed after the prefix (aggregation, Section 6.2);
///  * send fragments — scans in (ps, s-prefix | pr, s-suffix, r, el)
///    order, with multicast emission when the content is
///    receiver-independent (Section 6.2.1).
///
/// Fragments assume the shared sequential loops (the aggregation prefix)
/// are emitted by the caller; constraints on those outer variables become
/// guards inside the fragment.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_CODEGEN_CODEGEN_H
#define DMCC_CODEGEN_CODEGEN_H

#include "codegen/SpmdAst.h"
#include "comm/CommSet.h"
#include "decomp/Decomposition.h"
#include "ir/Program.h"

#include <vector>

namespace dmcc {

/// Per-statement compilation plan.
struct StmtPlan {
  unsigned StmtId = 0;
  Decomposition Comp; ///< computation decomposition (must be unique)
};

/// One communication action to emit.
struct CommPlan {
  CommSet Set;
  /// Number of outer (source) loops per message batch: messages are
  /// emitted per (peer pair, first AggLevel loop indices). The paper's
  /// aggregation at dependence level k corresponds to AggLevel == k-1;
  /// AggLevel == k is always deadlock-free (see aggregationSafe()).
  unsigned AggLevel = 0;
  bool Multicast = false;
  /// Early-send plan (paper Section 6, DESIGN.md §11). EarlyLevel is
  /// the earliest loop level at which the send fragment may be issued
  /// — equal to AggLevel when earlySendSafe() holds (the batch content
  /// is complete as soon as the producing statement's fragment at that
  /// depth has run), or the NoEarly sentinel when the send must stay
  /// blocking at its default position. HoistEarly additionally moves
  /// the fragment to immediately after the producer inside a
  /// distributed subtree; it is set only when no later statement of
  /// the subtree can overwrite the communicated array.
  static constexpr unsigned NoEarly = ~0u;
  unsigned EarlyLevel = NoEarly;
  bool HoistEarly = false;
  bool earlySend() const { return EarlyLevel != NoEarly; }
};

/// Manages the single variable space of a generated SPMD program.
class SpmdSpace {
public:
  SpmdSpace(const Program &P, unsigned GridDims);

  SpmdProgram &prog() { return Out; }
  const Program &program() const { return P; }

  /// Ensures a variable exists; returns its index in the program space.
  unsigned ensureVar(const std::string &Name, VarKind Kind);

  /// Imports \p S into the program space: variables are matched by name
  /// after applying \p Rename (aux variables are renamed apart
  /// unconditionally). Missing variables are created.
  System importSystem(const System &S,
                      const std::function<std::string(const std::string &)>
                          &Rename = nullptr);

  /// Fresh communication tag.
  unsigned nextCommId() { return Out.NumCommIds++; }

private:
  const Program &P;
  SpmdProgram Out;
};

/// Computation fragment for one statement: loops over the iterations the
/// executing processor owns, skipping the first \p SkipLoops source loops
/// (they are emitted by the caller as shared sequential loops).
std::vector<SpmdStmt> genComputeFragment(SpmdSpace &SS, const StmtPlan &SP,
                                         unsigned SkipLoops);

/// Send (\p SendSide) or receive fragment for one communication set,
/// executed by the senders or the receivers. The first CP.AggLevel
/// loops of the executing side must enclose the fragment.
std::vector<SpmdStmt> genCommFragment(SpmdSpace &SS, const CommPlan &CP,
                                      unsigned CommId, bool SendSide);

/// Shared sequential loop over a source loop's global bounds.
SpmdStmt makeSharedLoop(SpmdSpace &SS, unsigned LoopId);

/// True if batching the set's messages per (peer pair, first \p AggLevel
/// sender loops) cannot stall a consumer behind its producer: no item's
/// production follows another item's consumption within one message.
bool aggregationSafe(const Program &P, const CommSet &CS,
                     unsigned AggLevel);

/// Early-send safety (paper Section 6, DESIGN.md §11): true if the
/// set's sends may be issued nonblocking at loop level \p Level — the
/// sender continues computing while the message is in flight. Reuses
/// the aggregationSafe() level reasoning: the batch for a level-Level
/// prefix contains exactly the items the writer produced at iterations
/// sharing that prefix, so its content is complete the moment the
/// writer's fragment at that depth has run (the LWT guarantees no
/// later statement rewrites a communicated element before its read),
/// and the alignment/ordering/monotonicity probes rule out a consumer
/// stalling behind its producer or FIFO-order mismatch once issue is
/// decoupled from completion. Initial-data sets are safe at level 0:
/// their content exists before the program runs.
bool earlySendSafe(const Program &P, const CommSet &CS, unsigned Level);

/// Section 5.5: the local bounding box of array data that one processor
/// touches through the given access: per-dimension bounds over
/// (myp*, params). Returns false if some dimension is unbounded.
struct LocalBox {
  std::vector<std::vector<SpmdBound>> Lower, Upper;
};
bool computeLocalBox(SpmdSpace &SS, const StmtPlan &SP, const Access &A,
                     LocalBox &Box);

} // namespace dmcc

#endif // DMCC_CODEGEN_CODEGEN_H
