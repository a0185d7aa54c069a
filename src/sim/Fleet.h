//===- sim/Fleet.h - Scenario fleet runner ----------------------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario fleet runner: compile a program once, then run a matrix
/// of simulation scenarios (fault seed x crash seed x checkpoint
/// interval x engine/thread count) in-process on a pool of worker
/// threads (DESIGN.md §12):
///
///  - each worker claims the next scenario index (support/WorkPool.h),
///    builds its own Simulator and writes that scenario's outcome slot,
///    so the report does not depend on the pool size or interleaving;
///  - every way a scenario can end is a structured verdict: ok /
///    mismatch / deadlock / event-budget / transport-exhausted, plus
///    worker-crash for a standard-library exception. Runaway runs are
///    bounded by SimOptions::MaxEvents, the stall detector and the
///    recovery's rollback budget, so no watchdog is needed.
///
/// Surviving scenarios are checked against the clean run: the fleet
/// executes the matrix's program once, sequentially and fault-free, and
/// hashes every final-data array; each scenario hashes its own final
/// arrays the same way, and any difference is reported as a `mismatch`
/// — turning a fleet run into a standing bit-exactness proof over
/// hundreds of hostile fault schedules.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_FLEET_H
#define DMCC_SIM_FLEET_H

#include "sim/Simulator.h"

#include <string>
#include <vector>

namespace dmcc {

/// One cell of the scenario matrix: a complete fault/recovery/engine
/// configuration for a single simulated run.
struct FleetScenario {
  unsigned Index = 0;       ///< position in the matrix (report key)
  FaultOptions Faults;      ///< fault schedule, incl. Seed and CrashSeed
  uint64_t CheckpointInterval = 0; ///< logical steps; 0 = no checkpoints
  unsigned Threads = 1;     ///< simulator engine: 1 = sequential
  /// Scheduler choice (DESIGN.md §14); SimEngine::Event implies
  /// Threads == 1 (buildMatrix never emits the invalid combination).
  SimEngine Engine = SimEngine::Rounds;
};

/// Final classification of one scenario, in report order. The values
/// are journaled: changing them needs a new journal version.
enum class ScenarioStatus {
  Ok,                 ///< completed, final arrays match the clean run
  Mismatch,           ///< completed but final arrays differ (dmcc bug)
  Deadlock,           ///< simulation stalled with no transport failure
  EventBudget,        ///< stopped at SimOptions::MaxEvents (deterministic)
  TransportExhausted, ///< transport gave up on a packet (deterministic)
  WorkerCrash,        ///< the scenario threw a std::exception
};

/// Every status, in the order reports list them.
inline constexpr ScenarioStatus AllScenarioStatuses[] = {
    ScenarioStatus::Ok,          ScenarioStatus::Mismatch,
    ScenarioStatus::Deadlock,    ScenarioStatus::EventBudget,
    ScenarioStatus::TransportExhausted, ScenarioStatus::WorkerCrash};
inline constexpr unsigned NumScenarioStatuses =
    sizeof(AllScenarioStatuses) / sizeof(AllScenarioStatuses[0]);

/// Stable lower-case name used in the JSON report.
const char *scenarioStatusName(ScenarioStatus S);

/// The verdict a finished simulation earns: for a run that completed,
/// ok or mismatch by its final-array \p Hash against the clean run's
/// \p Golden; otherwise event-budget, transport-exhausted or deadlock
/// by why it stopped.
ScenarioStatus runStatus(const SimResult &R, uint64_t Hash, uint64_t Golden);

/// What happened to one scenario.
struct ScenarioOutcome {
  FleetScenario Scn;
  ScenarioStatus Status = ScenarioStatus::WorkerCrash;
  std::string Error;        ///< why the run did not complete, if it did not
  double MakespanSeconds = 0;
  uint64_t Retransmissions = 0;
  uint64_t Crashes = 0;
  uint64_t Rollbacks = 0;
  uint64_t ResultHash = 0;  ///< final-array hash (0 if never completed)

  bool ok() const { return Status == ScenarioStatus::Ok; }
};

/// How run() executes a matrix.
struct FleetOptions {
  unsigned Jobs = 4; ///< worker threads
  /// Append-only resume journal (DESIGN.md §13). When non-empty, run()
  /// records one CRC-framed record per event at this path: a meta
  /// record binding the journal to this matrix (version, scenario count
  /// and golden hash), then a verdict record per finished scenario —
  /// each fdatasync'd, so a SIGKILL of the process loses at most one
  /// torn trailing record (discarded on resume).
  std::string JournalPath;
  /// Replay JournalPath before running: scenarios with a journaled
  /// verdict are restored into the report and never re-run; the rest
  /// are queued. The resumed report is identical to an uninterrupted
  /// sweep. A missing or empty journal resumes as a fresh sweep, so a
  /// kill/restart loop can pass Resume unconditionally.
  bool Resume = false;
};

/// Aggregated fleet result: one outcome per scenario (matrix order),
/// plus the clean-run reference hash and wall-clock totals.
struct FleetReport {
  std::vector<ScenarioOutcome> Outcomes;
  uint64_t GoldenHash = 0;   ///< clean sequential run's final-array hash
  double ElapsedSeconds = 0; ///< orchestrator wall-clock
  unsigned Jobs = 0;
  /// Scenarios whose verdicts were restored from the resume journal
  /// (FleetOptions::Resume) instead of being re-run.
  unsigned ResumedFromJournal = 0;
  /// Non-empty when the sweep aborted before completion: the journal
  /// could not be opened/appended (ErrorIsIo) or does not belong to
  /// this matrix (incompatible meta record; a usage error). After an
  /// append failure no worker starts another scenario.
  std::string Error;
  bool ErrorIsIo = false;

  unsigned count(ScenarioStatus S) const;
  /// Renders the report as a single JSON document.
  std::string json() const;
};

/// Dimensions of a scenario matrix; the cross product of all vectors
/// becomes the fleet's work list. Empty vectors mean "one default cell"
/// on that axis.
struct FleetMatrixSpec {
  std::vector<uint64_t> FaultSeeds;           ///< default: {1}
  std::vector<uint64_t> CrashSeeds;           ///< default: {0}
  std::vector<uint64_t> CheckpointIntervals;  ///< default: {0}
  std::vector<unsigned> ThreadCounts;         ///< default: {1}
  /// Scheduler axis; default: {SimEngine::Rounds}. The event engine is
  /// single-threaded, so event cells are emitted only for the thread
  /// count 1 (other counts are skipped, keeping indices contiguous).
  std::vector<SimEngine> Engines;
  /// Rates shared by every scenario (Seed/CrashSeed overwritten per
  /// cell). CrashRate is zeroed in cells without checkpointing, where
  /// a crash would be unrecoverable by construction.
  FaultOptions Base;
};

/// Expands \p Spec's cross product into an indexed scenario list.
std::vector<FleetScenario> buildMatrix(const FleetMatrixSpec &Spec);

/// One program's report within a multi-program sweep (the dmcc-fleet
/// --programs axis): the program file it ran and its full report.
struct NamedFleetReport {
  std::string File;
  FleetReport Report;
};

/// Renders a multi-program sweep as one JSON document: a "programs"
/// array grouping each program's complete report under its file name,
/// plus a "totals" object aggregating scenario counts and wall-clock
/// across programs. A single-entry list still renders grouped — the
/// shape is decided by the --programs flag, not the program count.
std::string groupedFleetJson(const std::vector<NamedFleetReport> &Reports);

/// The fleet orchestrator. Holds the once-compiled program; run() fans
/// a scenario list across the worker pool and aggregates the report.
class Fleet {
public:
  Fleet(const Program &P, const CompiledProgram &CP,
        const CompileSpec &Spec, std::map<std::string, IntT> Params,
        IntT Procs, FleetOptions FO);

  /// Runs every scenario; blocks until all have a verdict. Outcomes are
  /// returned in matrix (index) order.
  FleetReport run(const std::vector<FleetScenario> &Matrix);

  /// The clean reference: sequential, fault-free, functional run,
  /// hashed over every final-data array (computed once, cached).
  uint64_t goldenHash();

private:
  SimOptions scenarioOptions(const FleetScenario &S) const;
  /// Simulates \p S and classifies it against the golden hash.
  ScenarioOutcome runScenario(const FleetScenario &S) const;

  const Program &P;
  const CompiledProgram &CP;
  const CompileSpec &Spec;
  std::map<std::string, IntT> Params;
  IntT Procs;
  FleetOptions FO;
  uint64_t Golden = 0;
  bool GoldenComputed = false;
};

} // namespace dmcc

#endif // DMCC_SIM_FLEET_H
