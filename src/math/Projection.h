//===- math/Projection.h - Polyhedral-core tuning and profiling -*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The knobs, counters and feasibility memo of the polyhedral core.
/// Every question the compiler asks — communication sets (Section 4),
/// superfluous-constraint removal (Section 5.1), polyhedron scanning
/// (Section 5.2), last-write resolution — reduces to Fourier-Motzkin
/// projection plus integer-feasibility queries, so this one header
/// centralizes:
///
///   * ProjectionOptions — node budgets (previously magic numbers
///     scattered across every phase) and accelerator toggles;
///   * ProjectionStats  — global counters: feasibility queries, search
///     nodes, FM eliminations, cache hits/misses, quick-kills;
///   * PhaseTimer       — RAII wall-time + counter-delta attribution so
///     `--stats` can say where compile time goes;
///   * the feasibility memo used by System (keyed on the normalized,
///     sorted constraint matrix, with a bounded size). It is the only
///     memo: redundancy removal's exact tests are feasibility queries,
///     so repeated removals are answered there, and a whole-result memo
///     would hand back the row order of whichever equivalent system was
///     reduced first.
///
/// Every piece of mutable state here — options, counters, the memo, the
/// phase table — is thread_local: each thread gets a private instance,
/// so concurrent compilations (e.g. driven from the threaded simulator's
/// workers) never contend or corrupt each other, and the single-threaded
/// compiler sees exactly the historical process-global behavior. See
/// DESIGN.md sections 9 and 10.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_MATH_PROJECTION_H
#define DMCC_MATH_PROJECTION_H

#include "math/Affine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dmcc {

/// Three-valued answer for integer feasibility questions. Unknown results
/// arise only when the branch-and-bound search exceeds its node budget;
/// callers must treat Unknown conservatively (keep the constraint, keep
/// the piece, explore the branch).
enum class Feasibility { Empty, Feasible, Unknown };

/// Tuning for the polyhedral core. One instance per thread
/// (projectionOptions()); compile() installs the per-run copy carried in
/// CompilerOptions for its duration, and the CLI exposes the budget and
/// the accelerator toggles as flags.
struct ProjectionOptions {
  /// Node budget for the emptiness probes the analysis phases issue
  /// (last-write pruning, communication-set piece tests, guard checks).
  unsigned FeasibilityBudget = 6000;
  /// Node budget for each per-constraint superfluous test inside
  /// System::removeRedundant (the paper's Section 5.1 removal).
  unsigned RedundancyBudget = 5000;
  /// Node budget for redundancy removal on the projection chains of the
  /// polyhedron-scanning code generator (Section 5.2) — these systems
  /// shape emitted loop bounds, so they get the deepest search.
  unsigned ScanBudget = 20000;
  /// Default node budget for checkIntegerFeasible / sampleIntPoint when
  /// the caller does not pass one.
  unsigned SearchBudget = 20000;

  /// Memoize feasibility results keyed on the canonicalized constraint
  /// matrix.
  bool Cache = true;
  /// Syntactic accelerators in front of the exact tests (duplicate and
  /// dominated constraints, equality-implied inequalities).
  bool QuickChecks = true;
  /// Memo entries before a wholesale eviction (bounds memory).
  unsigned CacheCapacity = 8192;
};

/// This thread's options instance (mutable, thread_local).
ProjectionOptions &projectionOptions();

/// Monotonic counters for everything the polyhedral core does. Each
/// thread accumulates its own; phases snapshot and subtract.
struct ProjectionStats {
  uint64_t FeasQueries = 0;       ///< checkIntegerFeasible entries
  uint64_t FeasCacheHits = 0;     ///< answered from the memo cache
  uint64_t FeasCacheMisses = 0;   ///< keyed but had to search
  uint64_t FeasUnknown = 0;       ///< budget-exhausted answers
  uint64_t NodesExpanded = 0;     ///< branch-and-bound nodes tried
  uint64_t FmEliminations = 0;    ///< variables eliminated by FM
  uint64_t RedundancyCalls = 0;   ///< removeRedundant entries
  uint64_t RedundancyTests = 0;   ///< exact per-constraint tests run
  uint64_t RedundancyQuickKills = 0; ///< constraints dropped syntactically
  uint64_t CacheEvictions = 0;    ///< wholesale cache clears on overflow
  uint64_t LexMaxCalls = 0;       ///< parametric lex-opt solves
  uint64_t ScanCalls = 0;         ///< polyhedron scans

  ProjectionStats operator-(const ProjectionStats &O) const;
  ProjectionStats &operator+=(const ProjectionStats &O);

  /// Feasibility-cache hit rate in [0,1]; 0 when no query was keyed.
  double feasHitRate() const {
    uint64_t T = FeasCacheHits + FeasCacheMisses;
    return T ? static_cast<double>(FeasCacheHits) / T : 0.0;
  }
};

/// This thread's counters (mutable; reset with resetProjectionStats).
ProjectionStats &projectionStats();
void resetProjectionStats();

/// Drops every memoized result (counters are unaffected).
void clearProjectionCaches();
/// Entries currently held by the feasibility memo.
std::size_t projectionCacheEntries();

/// Wall time and counter deltas attributed to one named compile phase.
/// Phases may nest (lexMax runs inside last-write construction); a
/// nested phase's time and counters are attributed to the innermost
/// enclosing timer only, so each row is *exclusive* (self) cost and the
/// taxonomy is a partition: summing the rows gives the true total with
/// nothing double-counted.
struct PhaseProfile {
  std::string Name;
  double Seconds = 0;
  uint64_t Invocations = 0;
  ProjectionStats Delta; ///< counters accumulated while the phase ran
};

/// RAII phase scope: accumulates exclusive wall time and
/// ProjectionStats deltas into this thread's phase table under \p Name.
/// Timers form a per-thread stack; a closing child hands its inclusive
/// totals to its parent, which subtracts them from its own attribution.
class PhaseTimer {
public:
  explicit PhaseTimer(const char *Name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  const char *Name;
  ProjectionStats Snap;
  double T0;
  PhaseTimer *Parent;          ///< enclosing timer on this thread
  double ChildSeconds = 0;     ///< inclusive seconds of closed children
  ProjectionStats ChildDelta;  ///< inclusive deltas of closed children
};

/// Snapshot of the accumulated phase table, in first-use order.
std::vector<PhaseProfile> phaseProfiles();
/// Clears the phase table (compile() calls this on entry).
void resetPhaseProfiles();

namespace detail {

/// A canonical constraint-matrix key: variable/constraint counts plus the
/// sorted, normalized rows, flattened to integers. Names and VarKinds do
/// not participate — feasibility and projection are matrix properties.
using CacheKey = std::vector<IntT>;

struct CacheKeyHash {
  std::size_t operator()(const CacheKey &K) const;
};

/// Feasibility memo. A Feasible/Empty entry is definite and served for
/// any budget; an Unknown entry is only served when the request's budget
/// does not exceed the budget that failed.
bool feasCacheLookup(const CacheKey &K, unsigned Budget, Feasibility &R);
void feasCacheStore(const CacheKey &K, unsigned Budget, Feasibility R);

} // namespace detail

} // namespace dmcc

#endif // DMCC_MATH_PROJECTION_H
