//===- core/Compiler.h - The dmcc compiler driver --------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end compiler of the paper: given a program, a computation
/// decomposition per statement, and initial/final data decompositions per
/// array, produce the optimized SPMD program:
///
///   1. exact data-flow analysis (Last Write Trees) per read access;
///   2. communication sets per LWT context (Theorems 3/4), plus
///      finalization sets (Section 4.4.3);
///   3. communication optimization: self-reuse redundancy elimination
///      (6.1.1), already-owned elimination (6.1.3), multicast detection
///      (6.2.1), and message aggregation with a safe level choice (6.2);
///   4. SPMD code generation by polyhedron scanning, merged along the
///      source loop tree with sends placed right after producers and
///      receives right before consumers (Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_CORE_COMPILER_H
#define DMCC_CORE_COMPILER_H

#include "codegen/CodeGen.h"
#include "comm/CommSet.h"
#include "decomp/Decomposition.h"
#include "ir/Program.h"
#include "math/Projection.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// Compiler options; each optimization can be toggled for ablations.
struct CompilerOptions {
  unsigned GridDims = 1;
  /// Budgets and accelerator toggles for the polyhedral core. Installed
  /// as the process-wide projectionOptions() for the duration of the
  /// compile (the previous settings are restored on return).
  ProjectionOptions Projection;
  bool EliminateSelfReuse = true;
  /// Section 6.1.2: drop transfers whose value another read of the same
  /// statement already brought in within the same batch.
  bool EliminateGroupReuse = true;
  bool DetectMulticast = true;
  /// Prefer the coarse (dependence-level - 1) aggregation when legal;
  /// otherwise messages batch per dependence-level iteration.
  bool AggressiveAggregation = true;
  /// Section 5.4: statically split merged loops at guard breakpoints so
  /// iteration ranges run guard-free.
  bool SplitLoops = true;
  /// Section 6 "early sends" (DESIGN.md §11): mark sends whose
  /// communication set passes earlySendSafe() as nonblocking so the
  /// simulator overlaps message latency with the sender's remaining
  /// computation, and hoist a send fragment to immediately after its
  /// producing statement inside a distributed subtree when no later
  /// statement there can overwrite the communicated array. Array
  /// results are bit-identical with this on or off.
  bool EarlySends = false;
};

/// Everything the compiler derived, for reporting and benchmarks.
struct CompileStats {
  unsigned NumLWTContexts = 0;
  unsigned NumCommSets = 0;
  unsigned NumCommSetsAfterSelfReuse = 0;
  unsigned NumMulticastSets = 0;
  unsigned NumFinalizationSets = 0;
  /// Distinct communication tags in the emitted SPMD program — the
  /// directed-channel count the simulator's reliable transport tracks
  /// sequence numbers for (an upper bound per src/dst pair).
  unsigned NumCommChannels = 0;
  unsigned LoopsSplit = 0;
  unsigned GuardsEliminated = 0;
  /// Communication plans marked nonblocking by the early-send analysis,
  /// and the subset additionally hoisted to right after their producer.
  unsigned NumEarlySends = 0;
  unsigned NumEarlyHoisted = 0;
  bool AllExact = true;
  double CompileSeconds = 0;
  /// Polyhedral-core counters accumulated over this compile only
  /// (feasibility queries, cache hits, FM eliminations, ...).
  ProjectionStats Proj;
  /// Per-phase wall time and counter deltas ("dataflow.lwt",
  /// "comm.commsets", "codegen.scan", ...). Nested phases are excluded
  /// from their parents, so each row is exclusive (self) cost and the
  /// rows sum to the instrumented share of CompileSeconds.
  std::vector<PhaseProfile> Phases;
};

/// The compilation result.
struct CompiledProgram {
  /// False when the spec was rejected before compilation (e.g. a
  /// non-unique computation decomposition): Spmd/Comms are empty and
  /// ErrorMessage names the offending statement. Checked in all build
  /// types — never a release-silent assert.
  bool Ok = true;
  std::string ErrorMessage;
  SpmdProgram Spmd;
  std::vector<CommPlan> Comms; ///< indexed by CommId
  CompileStats Stats;
  std::string Diagnostics; ///< human-readable notes (fallbacks etc.)
};

/// The compiler input: which processor runs what, where data starts and
/// where it must end up.
struct CompileSpec {
  std::vector<StmtPlan> Stmts;            ///< one per statement
  /// Initial layout per array id (required for arrays whose values are
  /// read before being written).
  std::map<unsigned, Decomposition> InitialData;
  /// Final layout per array id (optional; enables finalization).
  std::map<unsigned, Decomposition> FinalData;
};

/// Runs the full pipeline. Fatal error on malformed specs; analysis
/// fallbacks are recorded in Diagnostics.
CompiledProgram compile(const Program &P, const CompileSpec &Spec,
                        const CompilerOptions &Opts = CompilerOptions());

} // namespace dmcc

#endif // DMCC_CORE_COMPILER_H
