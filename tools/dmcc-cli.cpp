//===- tools/dmcc-cli.cpp - Command-line compiler driver -------*- C++ -*-===//
//
// The user-facing entry point: compile an annotated mini-language file
// and inspect any stage of the pipeline, or run the result on the
// simulated machine.
//
//   dmcc-cli FILE [options]
//     --print-program        echo the parsed program
//     --print-lwt            Last Write Trees for every read access
//     --print-comm           optimized communication sets
//     --print-spmd           the generated SPMD program (default)
//     --simulate P           run on P simulated processors
//     --sim-threads N        run the simulated physical processors on N
//                            OS threads (0 = hardware concurrency;
//                            default 1 = sequential engine); results are
//                            bit-identical at every thread count
//     --sim-engine E         scheduler: 'rounds' (default; sequential
//                            or threaded global rounds) or 'event'
//                            (discrete-event queue, single-threaded,
//                            built for P >= 1024); accepts
//                            --sim-engine=E too; results are
//                            bit-identical across engines
//     --functional           simulate with real arithmetic and verify
//                            against sequential execution
//     --auto-decomp          decomposition auto-search (decomp/Search.h):
//                            enumerate the bounded candidate space, score
//                            every candidate by simulated makespan, and
//                            compile/simulate the winner instead of the
//                            file's hand-written spec (which competes as
//                            candidate 0, so the winner is never worse).
//                            Requires --simulate P; exits 3 when no
//                            candidate compiles
//     --param NAME=VALUE     parameter binding (repeatable; defaults
//                            from `param NAME = VALUE;` declarations)
//     --no-self-reuse --no-group-reuse --no-multicast --no-aggressive
//                            optimization ablations
//     --early-sends          Section 6: mark provably safe sends as
//                            nonblocking (isend) and hoist them after
//                            their producers; the simulator overlaps
//                            message latency with computation and
//                            reports per-run overlap telemetry
//     --stats                compile-phase profile: wall time per phase,
//                            feasibility cache hits, redundancy-removal
//                            tests, Fourier-Motzkin counters
//     --node-budget N        branch-and-bound node budget for all
//                            polyhedral queries (0 keeps the defaults)
//     --no-proj-cache        disable feasibility memoization
//     --no-proj-heuristics   disable the syntactic quick-checks in front
//                            of redundancy removal's exact tests
//
//   Fault injection (simulation only; enables the reliable transport):
//     --fault-seed S         deterministic fault-schedule seed
//     --drop-rate R          P(a data/ack transmission is lost), 0..1
//     --dup-rate R           P(a delivered packet is duplicated), 0..1
//     --max-delay T          extra delivery delay, uniform in [0,T] secs
//     --corrupt-rate R       P(a delivered payload fails its checksum
//                            and is NACKed back for retransmission)
//     --partition-rate R     P(a packet's first sends fall inside a
//                            transient partition that heals after a
//                            seeded number of attempts)
//     --partition-outage N   longest partition outage, in blackholed
//                            transmission attempts (default 3)
//     --slow-link-rate R     P(a directed physical link is a straggler)
//     --slow-link-factor F   straggler latency multiplier in [1,F]
//     --retry-timeout T      first retransmission timeout in seconds
//     --max-retries N        retransmissions before giving up
//     --slowdown F           per-processor compute slowdown in [1,F]
//     --reliable             engage the transport even with zero rates
//
//   Crash-stop failures and checkpoint/restart (simulation only):
//     --crash-rate R         P(a processor dies before a logical step)
//     --crash-seed S         deterministic crash-schedule seed
//     --checkpoint-interval N  logical steps between coordinated
//                            checkpoints (omit for no checkpoints;
//                            crashes are then unrecoverable)
//
//   Durable checkpoints and crash-resumable runs (DESIGN.md §13):
//     --durable-dir DIR      persist every coordinated checkpoint to
//                            DIR as a CRC-framed image (atomic
//                            temp+rename), so the run survives a kill
//                            of the simulator process itself; requires
//                            --checkpoint-interval
//     --resume               before running, restore the newest intact
//                            checkpoint image from --durable-dir
//                            (torn or corrupt files are skipped) and
//                            replay to completion bit-identically to
//                            an uninterrupted run; an empty directory
//                            starts fresh, so kill/restart loops can
//                            pass --resume unconditionally
//
//   Exit codes (support/ExitCodes.h; stable for scripted callers):
//     0 success · 2 usage/flag error · 3 parse/compile error
//     4 simulation deadlock · 5 transport retry exhaustion
//     6 verification mismatch · 7 durable-storage I/O failure
//     70 internal error
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "dataflow/LastWriteTree.h"
#include "decomp/Search.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"
#include "support/ExitCodes.h"
#include "support/StableStore.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace dmcc;

namespace {

/// Renders the --stats report: per-phase wall time with the dominant
/// polyhedral counters, then compile-wide cache totals.
void printCompileStats(const CompileStats &St) {
  std::printf("compile: %.3f ms total\n", St.CompileSeconds * 1e3);
  std::printf("  %-16s %10s %6s %10s %10s %8s\n", "phase", "ms", "calls",
              "feas", "fm-elims", "nodes");
  for (const PhaseProfile &Ph : St.Phases)
    std::printf("  %-16s %10.3f %6llu %10llu %10llu %8llu\n",
                Ph.Name.c_str(), Ph.Seconds * 1e3,
                static_cast<unsigned long long>(Ph.Invocations),
                static_cast<unsigned long long>(Ph.Delta.FeasQueries),
                static_cast<unsigned long long>(Ph.Delta.FmEliminations),
                static_cast<unsigned long long>(Ph.Delta.NodesExpanded));
  const ProjectionStats &PS = St.Proj;
  std::printf("feasibility: %llu queries, %.1f%% cache hits, %llu "
              "unknown, %llu search nodes\n",
              static_cast<unsigned long long>(PS.FeasQueries),
              PS.feasHitRate() * 100.0,
              static_cast<unsigned long long>(PS.FeasUnknown),
              static_cast<unsigned long long>(PS.NodesExpanded));
  std::printf("projection: %llu FM eliminations, %llu lexmax, %llu "
              "scans\n",
              static_cast<unsigned long long>(PS.FmEliminations),
              static_cast<unsigned long long>(PS.LexMaxCalls),
              static_cast<unsigned long long>(PS.ScanCalls));
  std::printf("redundancy: %llu calls, %llu exact tests, %llu quick "
              "kills\n",
              static_cast<unsigned long long>(PS.RedundancyCalls),
              static_cast<unsigned long long>(PS.RedundancyTests),
              static_cast<unsigned long long>(PS.RedundancyQuickKills));
  std::printf("caches: %llu entries live, %llu evictions\n",
              static_cast<unsigned long long>(projectionCacheEntries()),
              static_cast<unsigned long long>(PS.CacheEvictions));
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--print-program] [--print-lwt] "
               "[--print-comm] [--print-spmd]\n"
               "       [--simulate P] [--sim-threads N] "
               "[--sim-engine rounds|event] [--functional]\n"
               "       [--auto-decomp]\n"
               "       [--param N=V]...\n"
               "       [--no-self-reuse] [--no-group-reuse] "
               "[--no-multicast] [--no-aggressive]\n"
               "       [--early-sends]\n"
               "       [--stats] [--node-budget N] [--no-proj-cache] "
               "[--no-proj-heuristics]\n"
               "       [--fault-seed S] [--drop-rate R] [--dup-rate R] "
               "[--max-delay T]\n"
               "       [--corrupt-rate R] [--partition-rate R] "
               "[--partition-outage N]\n"
               "       [--slow-link-rate R] [--slow-link-factor F]\n"
               "       [--retry-timeout T] [--max-retries N] "
               "[--slowdown F] [--reliable]\n"
               "       [--crash-rate R] [--crash-seed S] "
               "[--checkpoint-interval N]\n"
               "       [--durable-dir DIR] [--resume]\n",
               Argv0);
  return ExitUsage;
}

/// Named range check for a probability flag: rejects anything outside
/// [0, 1] before the simulator can silently misbehave on it.
bool badProbability(const char *Flag, double V) {
  if (V >= 0.0 && V <= 1.0)
    return false;
  std::fprintf(stderr,
               "error: %s must be a probability in [0, 1], got %g\n",
               Flag, V);
  return true;
}

/// Named range check for a nonnegative duration/count flag.
bool badNonNegative(const char *Flag, double V) {
  if (V >= 0.0)
    return false;
  std::fprintf(stderr, "error: %s must be >= 0, got %g\n", Flag, V);
  return true;
}

/// Named range check for a multiplicative factor flag (>= 1).
bool badFactor(const char *Flag, double V) {
  if (V >= 1.0)
    return false;
  std::fprintf(stderr, "error: %s must be a factor >= 1, got %g\n", Flag,
               V);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  const char *File = nullptr;
  bool PrintProgram = false, PrintLWT = false, PrintComm = false;
  bool PrintSpmd = false, Functional = false, PrintStats = false;
  bool AutoDecomp = false;
  IntT SimProcs = 0;
  unsigned SimThreads = 1;
  std::string SimEngineName = "rounds";
  bool SimulateGiven = false, CheckpointGiven = false;
  long long MaxRetriesRaw = -1;
  CompilerOptions Opts;
  FaultOptions Faults;
  CheckpointOptions Checkpoint;
  std::map<std::string, IntT> Params;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--print-program") == 0)
      PrintProgram = true;
    else if (std::strcmp(A, "--print-lwt") == 0)
      PrintLWT = true;
    else if (std::strcmp(A, "--print-comm") == 0)
      PrintComm = true;
    else if (std::strcmp(A, "--print-spmd") == 0)
      PrintSpmd = true;
    else if (std::strcmp(A, "--functional") == 0)
      Functional = true;
    else if (std::strcmp(A, "--auto-decomp") == 0)
      AutoDecomp = true;
    else if (std::strcmp(A, "--no-self-reuse") == 0)
      Opts.EliminateSelfReuse = false;
    else if (std::strcmp(A, "--no-group-reuse") == 0)
      Opts.EliminateGroupReuse = false;
    else if (std::strcmp(A, "--no-multicast") == 0)
      Opts.DetectMulticast = false;
    else if (std::strcmp(A, "--no-aggressive") == 0)
      Opts.AggressiveAggregation = false;
    else if (std::strcmp(A, "--early-sends") == 0)
      Opts.EarlySends = true;
    else if (std::strcmp(A, "--stats") == 0)
      PrintStats = true;
    else if (std::strcmp(A, "--node-budget") == 0 && I + 1 < Argc) {
      unsigned B = static_cast<unsigned>(std::atoll(Argv[++I]));
      if (B != 0) {
        Opts.Projection.FeasibilityBudget = B;
        Opts.Projection.RedundancyBudget = B;
        Opts.Projection.ScanBudget = B;
        Opts.Projection.SearchBudget = B;
      }
    } else if (std::strcmp(A, "--no-proj-cache") == 0)
      Opts.Projection.Cache = false;
    else if (std::strcmp(A, "--no-proj-heuristics") == 0)
      Opts.Projection.QuickChecks = false;
    else if (std::strcmp(A, "--simulate") == 0 && I + 1 < Argc) {
      SimProcs = std::atoll(Argv[++I]);
      SimulateGiven = true;
    } else if (std::strcmp(A, "--sim-threads") == 0 && I + 1 < Argc)
      SimThreads = static_cast<unsigned>(std::atoll(Argv[++I]));
    else if (std::strcmp(A, "--sim-engine") == 0 && I + 1 < Argc)
      SimEngineName = Argv[++I];
    else if (std::strncmp(A, "--sim-engine=", 13) == 0)
      SimEngineName = A + 13;
    else if (std::strcmp(A, "--fault-seed") == 0 && I + 1 < Argc)
      Faults.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (std::strcmp(A, "--drop-rate") == 0 && I + 1 < Argc)
      Faults.DropRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--dup-rate") == 0 && I + 1 < Argc)
      Faults.DupRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--max-delay") == 0 && I + 1 < Argc)
      Faults.MaxDelaySeconds = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--corrupt-rate") == 0 && I + 1 < Argc)
      Faults.CorruptRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--partition-rate") == 0 && I + 1 < Argc)
      Faults.PartitionRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--partition-outage") == 0 && I + 1 < Argc)
      Faults.PartitionMaxOutage =
          static_cast<unsigned>(std::strtoull(Argv[++I], nullptr, 10));
    else if (std::strcmp(A, "--slow-link-rate") == 0 && I + 1 < Argc)
      Faults.SlowLinkRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--slow-link-factor") == 0 && I + 1 < Argc)
      Faults.SlowLinkMaxFactor = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--retry-timeout") == 0 && I + 1 < Argc)
      Faults.RetryTimeoutSeconds = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--max-retries") == 0 && I + 1 < Argc) {
      MaxRetriesRaw = std::atoll(Argv[++I]);
      Faults.MaxRetries = static_cast<unsigned>(MaxRetriesRaw);
    } else if (std::strcmp(A, "--slowdown") == 0 && I + 1 < Argc)
      Faults.MaxSlowdown = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--reliable") == 0)
      Faults.AlwaysReliable = true;
    else if (std::strcmp(A, "--crash-rate") == 0 && I + 1 < Argc)
      Faults.CrashRate = std::atof(Argv[++I]);
    else if (std::strcmp(A, "--crash-seed") == 0 && I + 1 < Argc)
      Faults.CrashSeed = std::strtoull(Argv[++I], nullptr, 10);
    else if (std::strcmp(A, "--checkpoint-interval") == 0 &&
             I + 1 < Argc) {
      Checkpoint.IntervalSteps = std::strtoull(Argv[++I], nullptr, 10);
      CheckpointGiven = true;
    } else if (std::strcmp(A, "--durable-dir") == 0 && I + 1 < Argc)
      Checkpoint.DurableDir = Argv[++I];
    else if (std::strcmp(A, "--resume") == 0)
      Checkpoint.Resume = true;
    else if (std::strcmp(A, "--param") == 0 && I + 1 < Argc) {
      const char *Eq = std::strchr(Argv[++I], '=');
      if (!Eq) {
        std::fprintf(stderr, "error: --param expects NAME=VALUE\n");
        return ExitUsage;
      }
      Params[std::string(Argv[I], Eq - Argv[I])] = std::atoll(Eq + 1);
    } else if (A[0] == '-') {
      // A value-taking flag at the end of the command line fails its
      // `I + 1 < Argc` guard above and lands here; name the real
      // problem instead of claiming the option is unknown.
      static const char *const ValueFlags[] = {
          "--simulate",       "--sim-threads",
          "--sim-engine",     "--node-budget",
          "--fault-seed",
          "--drop-rate",      "--dup-rate",
          "--max-delay",      "--corrupt-rate",
          "--partition-rate", "--partition-outage",
          "--slow-link-rate", "--slow-link-factor",
          "--retry-timeout",  "--max-retries",
          "--slowdown",       "--crash-rate",
          "--crash-seed",     "--checkpoint-interval",
          "--durable-dir",    "--param"};
      for (const char *VF : ValueFlags)
        if (std::strcmp(A, VF) == 0) {
          std::fprintf(stderr, "error: option '%s' requires a value\n",
                       A);
          return ExitUsage;
        }
      std::fprintf(stderr, "error: unknown option '%s'\n", A);
      return usage(Argv[0]);
    } else if (!File) {
      File = A;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!File)
    return usage(Argv[0]);

  // Range-check every fault/sim knob up front with a named error: an
  // out-of-range probability would otherwise just skew the schedule
  // (e.g. a rate of 1.5 behaves as "always"), and a negative count
  // would wrap through the unsigned conversion.
  if (badProbability("--drop-rate", Faults.DropRate) ||
      badProbability("--dup-rate", Faults.DupRate) ||
      badProbability("--corrupt-rate", Faults.CorruptRate) ||
      badProbability("--partition-rate", Faults.PartitionRate) ||
      badProbability("--slow-link-rate", Faults.SlowLinkRate) ||
      badProbability("--crash-rate", Faults.CrashRate) ||
      badNonNegative("--max-delay", Faults.MaxDelaySeconds) ||
      badNonNegative("--retry-timeout", Faults.RetryTimeoutSeconds) ||
      badFactor("--slowdown", Faults.MaxSlowdown) ||
      badFactor("--slow-link-factor", Faults.SlowLinkMaxFactor))
    return ExitUsage;
  if (MaxRetriesRaw != -1 &&
      badNonNegative("--max-retries", static_cast<double>(MaxRetriesRaw)))
    return ExitUsage;
  SimEngine Engine = SimEngine::Rounds;
  if (SimEngineName == "event")
    Engine = SimEngine::Event;
  else if (SimEngineName != "rounds") {
    std::fprintf(stderr,
                 "error: --sim-engine expects 'rounds' or 'event', got "
                 "'%s'\n",
                 SimEngineName.c_str());
    return ExitUsage;
  }
  if (Engine == SimEngine::Event && SimThreads != 1) {
    std::fprintf(stderr,
                 "error: --sim-engine event is single-threaded; it "
                 "cannot be combined with --sim-threads %u (use "
                 "--sim-engine rounds for the threaded engine)\n",
                 SimThreads);
    return ExitUsage;
  }
  if (SimulateGiven && SimProcs < 1) {
    std::fprintf(stderr,
                 "error: --simulate needs a processor count >= 1, got "
                 "%lld\n",
                 static_cast<long long>(SimProcs));
    return ExitUsage;
  }
  // The search ranks by simulated makespan, so it is meaningless
  // without a machine size to rank on.
  if (AutoDecomp && !SimulateGiven) {
    std::fprintf(stderr,
                 "error: --auto-decomp requires --simulate P; the "
                 "search ranks candidates by simulated makespan on P "
                 "processors\n");
    return ExitUsage;
  }
  if (CheckpointGiven && Checkpoint.IntervalSteps == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-interval must be >= 1 logical "
                 "step; omit the flag to disable checkpointing\n");
    return ExitUsage;
  }
  // The durable/resume flags only mean something as a trio: a durable
  // directory with no checkpoint interval would never write an image,
  // and a resume with no directory has nothing to restore from. Name
  // each missing piece rather than silently ignoring the flag.
  if (Checkpoint.Resume && !CheckpointGiven) {
    std::fprintf(stderr,
                 "error: --resume requires --checkpoint-interval N; a "
                 "resumed run must keep writing durable checkpoints\n");
    return ExitUsage;
  }
  if (Checkpoint.Resume && Checkpoint.DurableDir.empty()) {
    std::fprintf(stderr,
                 "error: --resume requires --durable-dir DIR; there is "
                 "no checkpoint directory to restore from\n");
    return ExitUsage;
  }
  if (!Checkpoint.DurableDir.empty() && !CheckpointGiven) {
    std::fprintf(stderr,
                 "error: --durable-dir requires --checkpoint-interval "
                 "N; without an interval no checkpoint would ever be "
                 "written\n");
    return ExitUsage;
  }
  if (!Checkpoint.DurableDir.empty()) {
    std::string Err;
    if (!stable::ensureDir(Checkpoint.DurableDir, Err)) {
      std::fprintf(stderr,
                   "error: cannot create durable checkpoint directory "
                   "'%s': %s\n",
                   Checkpoint.DurableDir.c_str(), Err.c_str());
      return ExitIo;
    }
  }

  if (!PrintProgram && !PrintLWT && !PrintComm && !SimProcs)
    PrintSpmd = true;

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File);
    return ExitCompileError;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  if (!SP.ok()) {
    // Standard file:line[:col]: error: format so editors can jump to it.
    if (SP.ErrorLine && SP.ErrorCol)
      std::fprintf(stderr, "%s:%u:%u: error: %s\n", File, SP.ErrorLine,
                   SP.ErrorCol, SP.Error.c_str());
    else if (SP.ErrorLine)
      std::fprintf(stderr, "%s:%u: error: %s\n", File, SP.ErrorLine,
                   SP.Error.c_str());
    else
      std::fprintf(stderr, "%s: error: %s\n", File, SP.Error.c_str());
    return ExitCompileError;
  }
  Program &P = *SP.Prog;
  for (const auto &[Name, V] : SP.ParamDefaults)
    Params.emplace(Name, V);

  projectionOptions() = Opts.Projection;

  if (PrintProgram)
    std::printf("%s\n", P.str().c_str());
  if (PrintLWT) {
    for (unsigned S = 0; S != P.numStatements(); ++S)
      for (unsigned R = 0; R != P.statement(S).Reads.size(); ++R)
        std::printf("%s\n", buildLWT(P, S, R).str(P).c_str());
  }

  if (AutoDecomp) {
    // Candidate extents need every parameter; check here (instead of
    // the later --simulate check) so the error precedes the search.
    for (unsigned I = 0; I != P.space().size(); ++I) {
      if (P.space().kind(I) != VarKind::Param)
        continue;
      if (!Params.count(P.space().name(I))) {
        std::fprintf(stderr,
                     "error: parameter '%s' needs --param %s=VALUE\n",
                     P.space().name(I).c_str(),
                     P.space().name(I).c_str());
        return ExitUsage;
      }
    }
    SearchOptions SearchOpts;
    SearchOpts.Procs = SimProcs;
    SearchOpts.Params = Params;
    SearchOpts.Compile = Opts;
    SearchResult SR = searchDecompositions(P, &SP.Spec, SearchOpts);
    if (!SR.ok()) {
      std::fprintf(stderr, "%s: error: auto-decomp: %s\n", File,
                   SR.Error.c_str());
      return ExitCompileError;
    }
    std::printf("auto-decomp: scored %zu candidates on %lld processors\n",
                SR.Candidates.size(), static_cast<long long>(SimProcs));
    for (size_t I = 0; I != SR.Candidates.size(); ++I) {
      const ScoredCandidate &C = SR.Candidates[I];
      if (C.Score.Ok)
        std::printf("auto-decomp:   [%zu] %-28s makespan %.6f s, %llu "
                    "messages, %llu words\n",
                    I, C.Cand.Desc.c_str(), C.Score.MakespanSeconds,
                    static_cast<unsigned long long>(C.Score.Messages),
                    static_cast<unsigned long long>(C.Score.Words));
      else
        std::printf("auto-decomp:   [%zu] %-28s infeasible: %s\n", I,
                    C.Cand.Desc.c_str(), C.Score.Error.c_str());
    }
    std::printf("auto-decomp: winner [%d] %s (makespan %.6f s)\n",
                SR.BestIndex, SR.best().Cand.Desc.c_str(),
                SR.best().Score.MakespanSeconds);
    // Everything downstream — printing, simulation, verification —
    // runs the winning decomposition.
    SP.Spec = SR.best().Cand.Spec;
  }

  CompiledProgram CP = compile(P, SP.Spec, Opts);
  if (!CP.Ok) {
    std::fprintf(stderr, "%s: error: %s\n", File,
                 CP.ErrorMessage.c_str());
    return ExitCompileError;
  }
  if (!CP.Diagnostics.empty())
    std::fprintf(stderr, "%s", CP.Diagnostics.c_str());
  if (PrintStats)
    printCompileStats(CP.Stats);
  if (PrintComm) {
    for (const CommPlan &Pl : CP.Comms)
      std::printf("[agg %u%s] %s\n", Pl.AggLevel,
                  Pl.Multicast ? ", multicast" : "",
                  Pl.Set.str().c_str());
  }
  if (PrintSpmd)
    std::printf("%s", CP.Spmd.str().c_str());

  if (SimProcs > 0) {
    // Every program parameter needs a value.
    for (unsigned I = 0; I != P.space().size(); ++I) {
      if (P.space().kind(I) != VarKind::Param)
        continue;
      if (!Params.count(P.space().name(I))) {
        std::fprintf(stderr,
                     "error: parameter '%s' needs --param %s=VALUE\n",
                     P.space().name(I).c_str(),
                     P.space().name(I).c_str());
        return ExitUsage;
      }
    }
    SimOptions SO;
    SO.PhysGrid = {SimProcs};
    SO.ParamValues = Params;
    SO.Functional = Functional;
    SO.CollapseLoops = !Functional;
    SO.Faults = Faults;
    SO.Checkpoint = Checkpoint;
    SO.Threads = SimThreads;
    SO.Engine = Engine;
    Simulator Sim(P, CP, SP.Spec, SO);
    SimResult R = Sim.run();
    const DurableResumeInfo &RI = Sim.resumeInfo();
    if (RI.Attempted) {
      if (RI.Resumed)
        std::printf("resume: restored '%s' at %llu events (%u "
                    "checkpoint file(s) seen, %u corrupt/torn "
                    "skipped)\n",
                    RI.File.c_str(),
                    static_cast<unsigned long long>(RI.ResumedAtEvents),
                    RI.FilesSeen, RI.CorruptSkipped);
      else
        std::printf("resume: no intact checkpoint in '%s' (%u file(s) "
                    "seen, %u corrupt/torn skipped); starting fresh\n",
                    Checkpoint.DurableDir.c_str(), RI.FilesSeen,
                    RI.CorruptSkipped);
    }
    if (!R.Ok) {
      std::fprintf(stderr, "simulation failed: %s\n", R.Error.c_str());
      // A runaway past the event budget is reported as an internal
      // error. Retry exhaustion (hostile network beat the retry budget)
      // is a distinct, expected failure class; everything else that
      // stalls the schedule reports as a deadlock.
      if (R.Diag.EventBudgetExhausted)
        return ExitInternal;
      return R.Diag.RetryExhausted.empty() ? ExitDeadlock
                                           : ExitRetryExhausted;
    }
    std::printf("simulated %lld processors: makespan %.6f s, %llu "
                "messages, %llu words, %llu flops\n",
                static_cast<long long>(SimProcs), R.MakespanSeconds,
                static_cast<unsigned long long>(R.Messages),
                static_cast<unsigned long long>(R.Words),
                static_cast<unsigned long long>(R.Flops));
    if (R.EarlySends)
      std::printf("overlap: %llu early sends, %.6f s deferred, %.6f s "
                  "exposed, %.6f s hidden\n",
                  static_cast<unsigned long long>(R.EarlySends),
                  R.Overlap.DeferredSeconds, R.Overlap.ExposedSeconds,
                  R.Overlap.hiddenSeconds());
    if (Faults.transportActive() || Faults.faulty())
      std::printf("transport (%u channels): %llu retransmissions, %llu "
                  "dropped, %llu duplicates suppressed, %llu acks\n",
                  CP.Stats.NumCommChannels,
                  static_cast<unsigned long long>(R.Retransmissions),
                  static_cast<unsigned long long>(R.DroppedPackets),
                  static_cast<unsigned long long>(R.DuplicatesSuppressed),
                  static_cast<unsigned long long>(R.AcksSent));
    if (Faults.CorruptRate > 0 || Faults.PartitionRate > 0 ||
        Faults.slowLinks())
      std::printf("hostile: %llu corrupted (%llu nacks), %llu partition "
                  "drops, %llu slow-link messages\n",
                  static_cast<unsigned long long>(R.CorruptedPackets),
                  static_cast<unsigned long long>(R.NacksSent),
                  static_cast<unsigned long long>(R.PartitionDrops),
                  static_cast<unsigned long long>(R.SlowLinkMessages));
    if (Faults.CrashRate > 0 || Checkpoint.enabled()) {
      std::printf(
          "recovery: %llu checkpoints (%llu bytes), %llu crashes, %llu "
          "rollbacks, %llu steps replayed\n",
          static_cast<unsigned long long>(R.Recovery.CheckpointsTaken),
          static_cast<unsigned long long>(R.Recovery.CheckpointBytes),
          static_cast<unsigned long long>(R.Crashes),
          static_cast<unsigned long long>(R.Recovery.Rollbacks),
          static_cast<unsigned long long>(R.Recovery.ReplayedSteps));
      std::printf("time split: compute %.6f s, protocol %.6f s, "
                  "checkpoint %.6f s, recovery %.6f s\n",
                  R.Recovery.ComputeSeconds, R.Recovery.ProtocolSeconds,
                  R.Recovery.CheckpointSeconds,
                  R.Recovery.RecoverySeconds);
    }
    if (Functional) {
      SeqInterpreter Gold(P, Params);
      Gold.run();
      unsigned Wrong = 0, Missing = 0, Checked = 0;
      std::vector<IntT> Env(P.space().size(), 0);
      for (unsigned I = 0; I != P.space().size(); ++I)
        if (P.space().kind(I) == VarKind::Param)
          Env[I] = Params.at(P.space().name(I));
      for (const auto &[AId, FD] : SP.Spec.FinalData) {
        (void)FD;
        const ArrayDecl &AD = P.array(AId);
        std::vector<IntT> Sizes;
        for (const AffineExpr &D : AD.DimSizes)
          Sizes.push_back(D.evaluate(Env));
        std::vector<IntT> Idx(Sizes.size(), 0);
        bool Done = Sizes.empty();
        for (IntT S2 : Sizes)
          if (S2 <= 0)
            Done = true;
        while (!Done) {
          ++Checked;
          auto Got = Sim.finalValue(AId, Idx);
          if (!Got)
            ++Missing;
          else if (*Got != Gold.arrayValue(AId, Idx))
            ++Wrong;
          for (unsigned K = Idx.size(); K-- > 0;) {
            if (++Idx[K] < Sizes[K])
              break;
            Idx[K] = 0;
            if (K == 0)
              Done = true;
          }
        }
      }
      std::printf("verification: %u checked, %u missing, %u wrong\n",
                  Checked, Missing, Wrong);
      if (Missing || Wrong)
        return ExitVerifyMismatch;
    }
  }
  return ExitSuccess;
}
