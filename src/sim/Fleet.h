//===- sim/Fleet.h - Crash-tolerant scenario fleet orchestration -*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario fleet runner: compile a program once, then fan a matrix
/// of simulation scenarios (fault seed x crash seed x checkpoint
/// interval x engine/thread count) across a fork-based worker pool with
/// robust supervision (DESIGN.md §12):
///
///  - every scenario runs in its own forked child, so a wedged or
///    crashed simulation never takes the orchestrator down;
///  - a wall-clock watchdog SIGKILLs children past their deadline;
///  - children that die (signal or nonzero exit) or hang are respawned
///    with exponential backoff up to a bounded retry budget;
///  - scenario i is deterministically assigned to shard i mod Jobs and
///    each shard processes its scenarios in order, so a rerun of the
///    same matrix replays the same assignment;
///  - every scenario is accounted for in the final report, with one of
///    the statuses: ok / mismatch / deadlock / event-budget /
///    transport-exhausted / timeout / worker-crash / retry-exhausted.
///
/// Surviving scenarios are checked against the clean run: the parent
/// executes the scenario matrix's program once, sequentially and
/// fault-free, and hashes every final-data array; each child hashes its
/// own final arrays the same way, and any difference is reported as a
/// `mismatch` — turning a fleet run into a standing bit-exactness proof
/// over hundreds of hostile fault schedules.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_FLEET_H
#define DMCC_SIM_FLEET_H

#include "sim/Simulator.h"

#include <chrono>
#include <set>
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

/// Final classification of one scenario after supervision. The values
/// are journaled, so new ones go at the end.
enum class ScenarioStatus {
  Ok,                 ///< completed, final arrays match the clean run
  Mismatch,           ///< completed but final arrays differ (dmcc bug)
  Deadlock,           ///< simulation stalled with no transport failure
  TransportExhausted, ///< transport gave up on a packet (deterministic)
  Timeout,            ///< watchdog killed the worker (after retries)
  WorkerCrash,        ///< worker died abnormally (after retries)
  RetryExhausted,     ///< respawn budget spent on timeouts/crashes
  EventBudget,        ///< stopped at SimOptions::MaxEvents (deterministic)
};

/// Every status, in the order reports list them.
inline constexpr ScenarioStatus AllScenarioStatuses[] = {
    ScenarioStatus::Ok,          ScenarioStatus::Mismatch,
    ScenarioStatus::Deadlock,    ScenarioStatus::EventBudget,
    ScenarioStatus::TransportExhausted, ScenarioStatus::Timeout,
    ScenarioStatus::WorkerCrash, ScenarioStatus::RetryExhausted};
inline constexpr unsigned NumScenarioStatuses =
    sizeof(AllScenarioStatuses) / sizeof(AllScenarioStatuses[0]);

/// Stable lower-case name used in the JSON report.
const char *scenarioStatusName(ScenarioStatus S);

/// The verdict a finished simulation earns: for a run that completed,
/// ok or mismatch by its final-array \p Hash against the clean run's
/// \p Golden; otherwise event-budget, transport-exhausted or deadlock
/// by why it stopped.
ScenarioStatus runStatus(const SimResult &R, uint64_t Hash, uint64_t Golden);

/// What happened to one scenario, including supervision metadata.
struct ScenarioOutcome {
  FleetScenario Scn;
  ScenarioStatus Status = ScenarioStatus::WorkerCrash;
  unsigned Attempts = 0;    ///< worker spawns consumed (1 = clean)
  std::string LastFailure;  ///< last retryable failure, if any
  double MakespanSeconds = 0;
  uint64_t Retransmissions = 0;
  uint64_t Crashes = 0;
  uint64_t Rollbacks = 0;
  uint64_t ResultHash = 0;  ///< final-array hash (0 if never completed)

  bool ok() const { return Status == ScenarioStatus::Ok; }
};

/// Orchestrator tuning plus the sabotage hooks the supervision tests
/// use to manufacture hostile workers deterministically.
struct FleetOptions {
  unsigned Jobs = 4;            ///< worker shards (concurrent children)
  double TimeoutSeconds = 30;   ///< per-scenario watchdog deadline
  unsigned MaxRetries = 2;      ///< respawns after a timeout/crash
  double RetryBackoffSeconds = 0.05; ///< first respawn delay; doubles
  /// Sabotage hooks: scenario indices whose worker hangs forever
  /// (exercises the watchdog), aborts on every attempt (exercises
  /// retry exhaustion), or aborts on the first attempt only (exercises
  /// retry-then-succeed). Applied in the child, after fork.
  std::set<unsigned> HangScenarios;
  std::set<unsigned> AbortScenarios;
  std::set<unsigned> AbortOnceScenarios;
  /// Append-only resume journal (DESIGN.md §13). When non-empty, run()
  /// records one CRC-framed record per supervision event at this path:
  /// a meta record binding the journal to this matrix (scenario count +
  /// golden hash), a start record when a scenario is first taken up,
  /// and a verdict record when it reaches a terminal status — each
  /// fdatasync'd, so a SIGKILL of the orchestrator loses at most one
  /// torn trailing record (discarded on resume).
  std::string JournalPath;
  /// Replay JournalPath before running: scenarios with a journaled
  /// verdict are restored into the report and never re-run; scenarios
  /// only started (in flight at the kill) are re-queued. The resumed
  /// report is identical to an uninterrupted sweep. A missing or empty
  /// journal resumes as a fresh sweep, so a kill/restart loop can pass
  /// Resume unconditionally.
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
  /// this matrix (incompatible meta record; a usage error).
  std::string Error;
  bool ErrorIsIo = false;

  unsigned count(ScenarioStatus S) const;
  /// True when every scenario reached a terminal status (always holds
  /// after run(); exposed so tests can assert it independently).
  bool allAccounted() const { return true; }
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

/// Saturating conversion from a seconds value to a steady_clock
/// duration for deadline arithmetic: NaN and non-positive inputs map to
/// zero, and anything above ~31 years pins at that cap — so
/// `Clock::now() + boundedSeconds(x)` can never shift past the clock's
/// 63-bit nanosecond range (duration_cast of an unrepresentable double
/// is undefined behavior, not merely a wrong deadline).
std::chrono::steady_clock::duration boundedSeconds(double Seconds);

/// Exponential respawn backoff, clamped: \p FirstSeconds doubles per
/// prior attempt but never exceeds 60 s, so an arbitrarily large retry
/// count cannot overflow the doubling into inf or push a deadline past
/// the clock range. Attempt counts from 0/1 (first spawn) upward.
double clampedBackoffSeconds(double FirstSeconds, unsigned Attempt);

/// The fleet orchestrator. Holds the once-compiled program; run() fans
/// a scenario list across the worker pool and aggregates the report.
/// The caller must not hold live threads across run(): the supervisor
/// forks, and only the children may go multi-threaded.
class Fleet {
public:
  Fleet(const Program &P, const CompiledProgram &CP,
        const CompileSpec &Spec, std::map<std::string, IntT> Params,
        IntT Procs, FleetOptions FO);

  /// Runs every scenario under supervision; blocks until all are
  /// terminal. Outcomes are returned in matrix (index) order.
  FleetReport run(const std::vector<FleetScenario> &Matrix);

  /// The clean reference: sequential, fault-free, functional run,
  /// hashed over every final-data array (computed once, cached).
  uint64_t goldenHash();

private:
  struct Shard;
  /// Runs one scenario in-process and fills the wire fields; factored
  /// out so the child body stays fork-safe and tiny.
  SimOptions scenarioOptions(const FleetScenario &S) const;

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
