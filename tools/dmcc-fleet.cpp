//===- tools/dmcc-fleet.cpp - Scenario fleet orchestrator ------*- C++ -*-===//
//
// Compile a program once, then run a scenario matrix (fault seed x
// crash seed x checkpoint interval x engine/thread count) in-process on
// a pool of worker threads (DESIGN.md §12). Every surviving scenario's
// final arrays are checked bit-identical to the clean sequential run;
// the aggregated JSON report gives every scenario a verdict.
//
//   dmcc-fleet FILE [options]
//     --procs P              simulated processors per scenario (def 8)
//     --param NAME=VALUE     parameter binding (repeatable; applies to
//                            every program, after its own defaults)
//
//   Matrix axes (cross product = scenario count):
//     --programs LIST        comma-separated .dm files: the whole
//                            scenario matrix runs once per program and
//                            the JSON report groups outcomes
//                            per-program (a positional FILE is
//                            prepended to the list; with --programs the
//                            positional FILE is optional). Journals get
//                            a per-program suffix when more than one
//                            program runs.
//     --fault-seeds N        fault-schedule seeds 1..N       (def 4)
//     --crash-seeds N        crash-schedule seeds 1..N       (def 1)
//     --checkpoint-intervals LIST
//                            comma-separated logical-step intervals;
//                            0 = no checkpoints (crash rate is zeroed
//                            in those cells)                 (def 0,64)
//     --threads LIST         comma-separated engine thread counts
//                            (1 = sequential)                (def 1,2)
//     --engines LIST         comma-separated scheduler engines from
//                            {rounds, event}; event cells run only at
//                            thread count 1                (def rounds)
//
//   Base fault rates applied to every scenario:
//     --drop-rate R --dup-rate R --corrupt-rate R --partition-rate R
//     --partition-outage N --slow-link-rate R --slow-link-factor F
//     --crash-rate R --max-retries N --retry-timeout T
//
//   Execution:
//     --jobs N               worker threads (def 4)
//     --report PATH          write the JSON report here (def stdout);
//                            written atomically (temp+fsync+rename)
//
//   Crash-resumable sweeps (DESIGN.md §13):
//     --journal PATH         append-only CRC-framed journal of scenario
//                            verdicts
//     --resume               replay --journal first: journaled verdicts
//                            are restored, the other scenarios run; the
//                            merged report equals an uninterrupted sweep
//
//   Exit codes (support/ExitCodes.h): 0 when no scenario mismatched the
//   clean run; 6 on any mismatch; 2 usage (incl. a journal that belongs
//   to a different matrix); 3 parse/compile error; 7 report/journal I/O
//   failure; 70 when the library hits an internal error inside a
//   scenario (the journal keeps every verdict reached before it).
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "sim/Fleet.h"
#include "support/ExitCodes.h"
#include "support/StableStore.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace dmcc;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s FILE [--procs P] [--param N=V]...\n"
      "       [--programs FILE1,FILE2,...]\n"
      "       [--fault-seeds N] [--crash-seeds N]\n"
      "       [--checkpoint-intervals LIST] [--threads LIST]\n"
      "       [--engines LIST]\n"
      "       [--drop-rate R] [--dup-rate R] [--corrupt-rate R]\n"
      "       [--partition-rate R] [--partition-outage N]\n"
      "       [--slow-link-rate R] [--slow-link-factor F]\n"
      "       [--crash-rate R] [--max-retries N] [--retry-timeout T]\n"
      "       [--jobs N] [--report PATH] [--journal PATH] [--resume]\n",
      Argv0);
  return ExitUsage;
}

/// Parses a comma-separated list of nonnegative integers.
bool parseList(const char *Flag, const char *Arg,
               std::vector<uint64_t> &Out) {
  Out.clear();
  const char *C = Arg;
  while (*C) {
    char *End = nullptr;
    uint64_t V = std::strtoull(C, &End, 10);
    if (End == C) {
      std::fprintf(stderr,
                   "error: %s expects a comma-separated integer list, "
                   "got '%s'\n",
                   Flag, Arg);
      return false;
    }
    Out.push_back(V);
    C = End;
    if (*C == ',')
      ++C;
    else if (*C) {
      std::fprintf(stderr,
                   "error: %s expects a comma-separated integer list, "
                   "got '%s'\n",
                   Flag, Arg);
      return false;
    }
  }
  if (Out.empty()) {
    std::fprintf(stderr, "error: %s got an empty list\n", Flag);
    return false;
  }
  return true;
}

bool badProbability(const char *Flag, double V) {
  if (V >= 0.0 && V <= 1.0)
    return false;
  std::fprintf(stderr,
               "error: %s must be a probability in [0, 1], got %g\n",
               Flag, V);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  const char *File = nullptr;
  const char *ReportPath = nullptr;
  std::vector<std::string> ProgramList;
  bool ProgramsGiven = false;
  IntT Procs = 8;
  FleetMatrixSpec MS;
  uint64_t NumFaultSeeds = 4, NumCrashSeeds = 1;
  MS.CheckpointIntervals = {0, 64};
  MS.ThreadCounts = {1, 2};
  FleetOptions FO;
  std::map<std::string, IntT> Params;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 < Argc)
        return Argv[++I];
      std::fprintf(stderr, "error: option '%s' requires a value\n",
                   Flag);
      return nullptr;
    };
    const char *V;
    if (std::strcmp(A, "--procs") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      Procs = std::atoll(V);
    } else if (std::strcmp(A, "--fault-seeds") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      NumFaultSeeds = std::strtoull(V, nullptr, 10);
    } else if (std::strcmp(A, "--crash-seeds") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      NumCrashSeeds = std::strtoull(V, nullptr, 10);
    } else if (std::strcmp(A, "--checkpoint-intervals") == 0) {
      if (!(V = Value(A)) || !parseList(A, V, MS.CheckpointIntervals))
        return ExitUsage;
    } else if (std::strcmp(A, "--threads") == 0) {
      std::vector<uint64_t> L;
      if (!(V = Value(A)) || !parseList(A, V, L))
        return ExitUsage;
      MS.ThreadCounts.clear();
      for (uint64_t T : L)
        MS.ThreadCounts.push_back(static_cast<unsigned>(T ? T : 1));
    } else if (std::strcmp(A, "--engines") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Engines.clear();
      const char *C = V;
      while (*C) {
        const char *End = C;
        while (*End && *End != ',')
          ++End;
        std::string Name(C, End - C);
        if (Name == "rounds")
          MS.Engines.push_back(SimEngine::Rounds);
        else if (Name == "event")
          MS.Engines.push_back(SimEngine::Event);
        else {
          std::fprintf(stderr,
                       "error: --engines expects a comma-separated list "
                       "of 'rounds'/'event', got '%s'\n",
                       V);
          return ExitUsage;
        }
        C = *End ? End + 1 : End;
      }
      if (MS.Engines.empty()) {
        std::fprintf(stderr, "error: --engines got an empty list\n");
        return ExitUsage;
      }
    } else if (std::strcmp(A, "--drop-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.DropRate = std::atof(V);
    } else if (std::strcmp(A, "--dup-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.DupRate = std::atof(V);
    } else if (std::strcmp(A, "--corrupt-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.CorruptRate = std::atof(V);
    } else if (std::strcmp(A, "--partition-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.PartitionRate = std::atof(V);
    } else if (std::strcmp(A, "--partition-outage") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.PartitionMaxOutage =
          static_cast<unsigned>(std::strtoull(V, nullptr, 10));
    } else if (std::strcmp(A, "--slow-link-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.SlowLinkRate = std::atof(V);
    } else if (std::strcmp(A, "--slow-link-factor") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.SlowLinkMaxFactor = std::atof(V);
    } else if (std::strcmp(A, "--crash-rate") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.CrashRate = std::atof(V);
    } else if (std::strcmp(A, "--max-retries") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.MaxRetries =
          static_cast<unsigned>(std::strtoull(V, nullptr, 10));
    } else if (std::strcmp(A, "--retry-timeout") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      MS.Base.RetryTimeoutSeconds = std::atof(V);
    } else if (std::strcmp(A, "--jobs") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      FO.Jobs = static_cast<unsigned>(std::strtoull(V, nullptr, 10));
    } else if (std::strcmp(A, "--report") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      ReportPath = V;
    } else if (std::strcmp(A, "--journal") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      FO.JournalPath = V;
    } else if (std::strcmp(A, "--resume") == 0) {
      FO.Resume = true;
    } else if (std::strcmp(A, "--programs") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      ProgramsGiven = true;
      const char *C = V;
      while (*C) {
        const char *End = C;
        while (*End && *End != ',')
          ++End;
        if (End != C)
          ProgramList.emplace_back(C, End - C);
        C = *End ? End + 1 : End;
      }
      if (ProgramList.empty()) {
        std::fprintf(stderr, "error: --programs got an empty list\n");
        return ExitUsage;
      }
    } else if (std::strcmp(A, "--param") == 0) {
      if (!(V = Value(A)))
        return ExitUsage;
      const char *Eq = std::strchr(V, '=');
      if (!Eq) {
        std::fprintf(stderr, "error: --param expects NAME=VALUE\n");
        return ExitUsage;
      }
      Params[std::string(V, Eq - V)] = std::atoll(Eq + 1);
    } else if (A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A);
      return usage(Argv[0]);
    } else if (!File) {
      File = A;
    } else {
      return usage(Argv[0]);
    }
  }
  if (File)
    ProgramList.insert(ProgramList.begin(), File);
  if (ProgramList.empty())
    return usage(Argv[0]);
  if (badProbability("--drop-rate", MS.Base.DropRate) ||
      badProbability("--dup-rate", MS.Base.DupRate) ||
      badProbability("--corrupt-rate", MS.Base.CorruptRate) ||
      badProbability("--partition-rate", MS.Base.PartitionRate) ||
      badProbability("--slow-link-rate", MS.Base.SlowLinkRate) ||
      badProbability("--crash-rate", MS.Base.CrashRate))
    return ExitUsage;
  if (Procs < 1) {
    std::fprintf(stderr, "error: --procs needs a count >= 1\n");
    return ExitUsage;
  }
  if (NumFaultSeeds == 0 || NumCrashSeeds == 0) {
    std::fprintf(stderr,
                 "error: --fault-seeds/--crash-seeds need >= 1 seed\n");
    return ExitUsage;
  }
  if (FO.Resume && FO.JournalPath.empty()) {
    std::fprintf(stderr,
                 "error: --resume requires --journal PATH (there is "
                 "no journal to resume from)\n");
    return ExitUsage;
  }
  for (uint64_t S = 1; S <= NumFaultSeeds; ++S)
    MS.FaultSeeds.push_back(S);
  for (uint64_t S = 1; S <= NumCrashSeeds; ++S)
    MS.CrashSeeds.push_back(S);

  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  std::fprintf(stderr, "dmcc-fleet: %zu scenarios on %u threads%s\n",
               Matrix.size(), FO.Jobs ? FO.Jobs : 1,
               ProgramList.size() > 1 ? ", per program" : "");

  // The whole matrix runs once per program; Params holds the CLI
  // bindings only, so one program's defaults never leak into another's.
  const std::map<std::string, IntT> CliParams = Params;
  std::vector<NamedFleetReport> Reports;
  for (size_t Pi = 0; Pi != ProgramList.size(); ++Pi) {
    const std::string &ProgFile = ProgramList[Pi];
    std::ifstream In(ProgFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   ProgFile.c_str());
      return ExitCompileError;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    SpecParseOutput SP = parseWithSpec(Buf.str());
    if (!SP.ok()) {
      std::fprintf(stderr, "%s: error: %s\n", ProgFile.c_str(),
                   SP.Error.c_str());
      return ExitCompileError;
    }
    Program &P = *SP.Prog;
    std::map<std::string, IntT> ProgParams = CliParams;
    for (const auto &[Name, Val] : SP.ParamDefaults)
      ProgParams.emplace(Name, Val);
    for (unsigned I = 0; I != P.space().size(); ++I) {
      if (P.space().kind(I) != VarKind::Param)
        continue;
      if (!ProgParams.count(P.space().name(I))) {
        std::fprintf(stderr,
                     "%s: error: parameter '%s' needs --param %s=VALUE\n",
                     ProgFile.c_str(), P.space().name(I).c_str(),
                     P.space().name(I).c_str());
        return ExitUsage;
      }
    }

    // Compile once per program; every worker reuses it.
    CompiledProgram CP = compile(P, SP.Spec, CompilerOptions());
    if (!CP.Ok) {
      std::fprintf(stderr, "%s: error: %s\n", ProgFile.c_str(),
                   CP.ErrorMessage.c_str());
      return ExitCompileError;
    }

    // With several programs each gets its own journal: the scenario
    // index alone no longer identifies a cell across the sweep.
    FleetOptions ProgFO = FO;
    if (!FO.JournalPath.empty() && ProgramList.size() > 1)
      ProgFO.JournalPath = FO.JournalPath + ".p" + std::to_string(Pi);

    Fleet F(P, CP, SP.Spec, ProgParams, Procs, ProgFO);
    FleetReport Rep = F.run(Matrix);
    if (!Rep.Error.empty()) {
      std::fprintf(stderr, "%s: error: %s\n", ProgFile.c_str(),
                   Rep.Error.c_str());
      return Rep.ErrorIsIo ? ExitIo : ExitUsage;
    }
    if (Rep.ResumedFromJournal)
      std::fprintf(stderr,
                   "dmcc-fleet: %s: resumed %u verdict(s) from '%s', "
                   "re-running %zu scenario(s)\n",
                   ProgFile.c_str(), Rep.ResumedFromJournal,
                   ProgFO.JournalPath.c_str(),
                   Matrix.size() - Rep.ResumedFromJournal);
    if (ProgramList.size() > 1)
      std::fprintf(stderr, "dmcc-fleet: %s: %u ok, %u mismatch in %.2f s\n",
                   ProgFile.c_str(), Rep.count(ScenarioStatus::Ok),
                   Rep.count(ScenarioStatus::Mismatch),
                   Rep.ElapsedSeconds);
    Reports.push_back(NamedFleetReport{ProgFile, std::move(Rep)});
  }

  // Grouped shape iff --programs was given (even for a single entry);
  // a plain positional run keeps the original single-report document.
  std::string Json = ProgramsGiven ? groupedFleetJson(Reports)
                                   : Reports[0].Report.json();
  if (ReportPath) {
    // Atomic (temp+fsync+rename): a crash mid-write must never leave a
    // torn report behind — consumers see the old report or the new one.
    std::string Err;
    if (!stable::atomicWriteFile(ReportPath, Json, Err)) {
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   Err.c_str());
      return ExitIo;
    }
  } else {
    std::fputs(Json.c_str(), stdout);
  }

  unsigned Totals[NumScenarioStatuses] = {};
  double Elapsed = 0;
  for (const NamedFleetReport &R : Reports) {
    Elapsed += R.Report.ElapsedSeconds;
    for (unsigned I = 0; I != NumScenarioStatuses; ++I)
      Totals[I] += R.Report.count(AllScenarioStatuses[I]);
  }
  // "dmcc-fleet: N ok, N mismatch, N deadlock, ... in S s", one count
  // per status in report order.
  std::string Line = "dmcc-fleet: ";
  for (unsigned I = 0; I != NumScenarioStatuses; ++I)
    Line += std::to_string(Totals[I]) + " " +
            scenarioStatusName(AllScenarioStatuses[I]) +
            (I + 1 != NumScenarioStatuses ? ", " : "");
  std::fprintf(stderr, "%s in %.2f s\n", Line.c_str(), Elapsed);

  // Any mismatch against the clean sequential run is a correctness
  // failure of dmcc itself, not of the hostile scenario.
  static_assert(AllScenarioStatuses[1] == ScenarioStatus::Mismatch);
  return Totals[1] ? ExitVerifyMismatch : ExitSuccess;
}
