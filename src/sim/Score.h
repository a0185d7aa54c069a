//===- sim/Score.h - Batch candidate-spec scoring ---------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch scoring of candidate compile specs: compile each candidate and
/// simulate it once in performance mode (symbolic arithmetic, collapsed
/// compute loops), returning the predicted makespan and communication
/// volume. This is the cost model behind the decomposition auto-search
/// (decomp/Search.h): the paper picks decompositions by inspection; the
/// search replays that judgement mechanically, and the score is what it
/// ranks by.
///
/// Candidates are scored in-process by a pool of worker threads
/// (support/WorkPool.h); each thread claims the next candidate index and
/// writes its score into that candidate's slot, so the result does not
/// depend on the pool size. Every way a candidate can fail — a spec the compiler rejects,
/// an unbound parameter, a simulated deadlock, an exhausted event
/// budget — comes back as a structured infeasible score. The event
/// budget (ScoreOptions::MaxEvents) bounds a runaway candidate
/// deterministically, so a search result depends only on its inputs.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_SCORE_H
#define DMCC_SIM_SCORE_H

#include "sim/Simulator.h"

#include <string>
#include <vector>

namespace dmcc {

/// Tuning for one batch-scoring run.
struct ScoreOptions {
  IntT Procs = 4; ///< physical processors (1-D grid)
  /// Concrete parameter bindings; every program parameter needs one.
  std::map<std::string, IntT> Params;
  /// Base compiler configuration shared by every candidate.
  CompilerOptions Compile;
  unsigned Jobs = 4; ///< scoring worker threads
  /// Per-candidate simulated-event budget (SimOptions::MaxEvents); a
  /// candidate that exceeds it is scored infeasible.
  uint64_t MaxEvents = 400000000ull;
};

/// What one candidate cost. Infeasible candidates (spec rejected by the
/// compiler, unbound parameter, simulated deadlock, exhausted event
/// budget) come back with Ok == false and the reason in Error — never
/// an exception, so a search can simply skip them.
struct SpecScore {
  bool Ok = false;
  std::string Error;
  double MakespanSeconds = 0; ///< the ranking key
  uint64_t Messages = 0;
  uint64_t Words = 0;
  double CompileSeconds = 0;
  unsigned CommSets = 0; ///< communication sets after self-reuse
};

/// Scores every candidate spec against \p P; result i corresponds to
/// Specs[i].
std::vector<SpecScore> scoreSpecs(const Program &P,
                                  const std::vector<CompileSpec> &Specs,
                                  const ScoreOptions &SO);

} // namespace dmcc

#endif // DMCC_SIM_SCORE_H
