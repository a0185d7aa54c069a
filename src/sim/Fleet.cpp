//===- sim/Fleet.cpp ------------------------------------------*- C++ -*-===//

#include "sim/Fleet.h"

#include "support/StableStore.h"
#include "support/WorkPool.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>

using namespace dmcc;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// SplitMix64 finalizer, as in FaultModel.cpp: the fleet's final-array
/// hash must be a pure function of the array contents, so that equal
/// hashes stand for equal arrays.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t combine(uint64_t H, uint64_t X) { return mix64(H ^ mix64(X)); }

/// Hashes every final-data array of a completed functional run, in
/// array-id order, element by element (bit pattern of the double, or a
/// sentinel for missing elements). The clean run and every scenario run
/// sweep through this same code, so equal hashes mean bit-identical
/// final arrays.
uint64_t hashFinalArrays(Simulator &Sim, const Program &P,
                         const CompileSpec &Spec,
                         const std::map<std::string, IntT> &Params) {
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  uint64_t H = mix64(0xF1EE7ull);
  for (const auto &[AId, FD] : Spec.FinalData) {
    (void)FD;
    H = combine(H, AId + 1);
    const ArrayDecl &AD = P.array(AId);
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : AD.DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = Sizes.empty();
    for (IntT S : Sizes)
      if (S <= 0)
        Done = true;
    while (!Done) {
      auto Got = Sim.finalValue(AId, Idx);
      if (Got) {
        uint64_t Bits;
        double V = *Got;
        std::memcpy(&Bits, &V, sizeof Bits);
        H = combine(H, Bits);
      } else {
        H = combine(H, 0xDEADull); // distinct mark for a missing element
      }
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
  return H;
}

/// Resume-journal frame types (DESIGN.md §13) and payload version.
constexpr uint32_t JrnlMetaType = 0x464C4D54;    // "FLMT"
constexpr uint32_t JrnlVerdictType = 0x464C5644; // "FLVD"
constexpr uint32_t JournalVersion = 2;

/// Appends minimally-escaped JSON string content.
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
}

} // namespace

const char *dmcc::scenarioStatusName(ScenarioStatus S) {
  switch (S) {
  case ScenarioStatus::Ok:
    return "ok";
  case ScenarioStatus::Mismatch:
    return "mismatch";
  case ScenarioStatus::Deadlock:
    return "deadlock";
  case ScenarioStatus::TransportExhausted:
    return "transport-exhausted";
  case ScenarioStatus::WorkerCrash:
    return "worker-crash";
  case ScenarioStatus::EventBudget:
    return "event-budget";
  }
  return "unknown";
}

ScenarioStatus dmcc::runStatus(const SimResult &R, uint64_t Hash,
                               uint64_t Golden) {
  if (R.Ok)
    return Hash == Golden ? ScenarioStatus::Ok : ScenarioStatus::Mismatch;
  if (R.Diag.EventBudgetExhausted)
    return ScenarioStatus::EventBudget;
  return R.Diag.RetryExhausted.empty() ? ScenarioStatus::Deadlock
                                       : ScenarioStatus::TransportExhausted;
}

unsigned FleetReport::count(ScenarioStatus S) const {
  unsigned N = 0;
  for (const ScenarioOutcome &O : Outcomes)
    N += O.Status == S;
  return N;
}

std::string FleetReport::json() const {
  std::string Out;
  char Buf[512];
  std::snprintf(Buf, sizeof Buf,
                "{\n  \"golden_hash\": \"0x%016" PRIx64 "\",\n"
                "  \"elapsed_seconds\": %.3f,\n  \"jobs\": %u,\n"
                "  \"scenarios_total\": %zu,\n  \"counts\": {",
                GoldenHash, ElapsedSeconds, Jobs, Outcomes.size());
  Out += Buf;
  for (unsigned I = 0; I != NumScenarioStatuses; ++I) {
    ScenarioStatus S = AllScenarioStatuses[I];
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": %u", I ? ", " : "",
                  scenarioStatusName(S), count(S));
    Out += Buf;
  }
  Out += "},\n  \"scenarios\": [\n";
  for (size_t I = 0; I != Outcomes.size(); ++I) {
    const ScenarioOutcome &O = Outcomes[I];
    const FaultOptions &F = O.Scn.Faults;
    std::snprintf(
        Buf, sizeof Buf,
        "    {\"index\": %u, \"fault_seed\": %" PRIu64
        ", \"crash_seed\": %" PRIu64 ", \"checkpoint_interval\": %" PRIu64
        ", \"threads\": %u, \"engine\": \"%s\", \"drop_rate\": %g, "
        "\"corrupt_rate\": %g, "
        "\"partition_rate\": %g, \"slow_link_rate\": %g, "
        "\"crash_rate\": %g, \"status\": \"%s\", "
        "\"makespan_seconds\": %.9f, \"retransmissions\": %" PRIu64
        ", \"crashes\": %" PRIu64 ", \"rollbacks\": %" PRIu64
        ", \"hash\": \"0x%016" PRIx64 "\", \"hash_match\": %s, "
        "\"error\": \"",
        O.Scn.Index, F.Seed, F.CrashSeed, O.Scn.CheckpointInterval,
        O.Scn.Threads,
        O.Scn.Engine == SimEngine::Event ? "event" : "rounds",
        F.DropRate, F.CorruptRate, F.PartitionRate,
        F.SlowLinkRate, F.CrashRate, scenarioStatusName(O.Status),
        O.MakespanSeconds, O.Retransmissions, O.Crashes,
        O.Rollbacks, O.ResultHash,
        O.ok() && O.ResultHash == GoldenHash ? "true" : "false");
    Out += Buf;
    appendEscaped(Out, O.Error);
    Out += "\"}";
    Out += I + 1 != Outcomes.size() ? ",\n" : "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

std::string
dmcc::groupedFleetJson(const std::vector<NamedFleetReport> &Reports) {
  size_t Total = 0;
  double Elapsed = 0;
  unsigned Counts[NumScenarioStatuses] = {};
  for (const NamedFleetReport &R : Reports) {
    Total += R.Report.Outcomes.size();
    Elapsed += R.Report.ElapsedSeconds;
    for (unsigned I = 0; I != NumScenarioStatuses; ++I)
      Counts[I] += R.Report.count(AllScenarioStatuses[I]);
  }

  std::string Out = "{\n  \"programs\": [\n";
  char Buf[256];
  for (size_t I = 0; I != Reports.size(); ++I) {
    Out += "    {\"file\": \"";
    appendEscaped(Out, Reports[I].File);
    Out += "\",\n     \"report\": ";
    std::string Rep = Reports[I].Report.json();
    while (!Rep.empty() && Rep.back() == '\n')
      Rep.pop_back();
    Out += Rep;
    Out += I + 1 != Reports.size() ? "},\n" : "}\n";
  }
  std::snprintf(Buf, sizeof Buf,
                "  ],\n  \"totals\": {\"programs\": %zu, "
                "\"scenarios_total\": %zu, \"elapsed_seconds\": %.3f, "
                "\"counts\": {",
                Reports.size(), Total, Elapsed);
  Out += Buf;
  for (unsigned I = 0; I != NumScenarioStatuses; ++I) {
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": %u", I ? ", " : "",
                  scenarioStatusName(AllScenarioStatuses[I]), Counts[I]);
    Out += Buf;
  }
  Out += "}}\n}\n";
  return Out;
}

std::vector<FleetScenario> dmcc::buildMatrix(const FleetMatrixSpec &MS) {
  auto OrDefault = [](std::vector<uint64_t> V,
                      uint64_t D) -> std::vector<uint64_t> {
    return V.empty() ? std::vector<uint64_t>{D} : V;
  };
  std::vector<uint64_t> FSeeds = OrDefault(MS.FaultSeeds, 1);
  std::vector<uint64_t> CSeeds = OrDefault(MS.CrashSeeds, 0);
  std::vector<uint64_t> Intervals = OrDefault(MS.CheckpointIntervals, 0);
  std::vector<unsigned> Threads =
      MS.ThreadCounts.empty() ? std::vector<unsigned>{1} : MS.ThreadCounts;
  std::vector<SimEngine> Engines =
      MS.Engines.empty() ? std::vector<SimEngine>{SimEngine::Rounds}
                         : MS.Engines;

  std::vector<FleetScenario> Out;
  for (uint64_t FS : FSeeds)
    for (uint64_t CS : CSeeds)
      for (uint64_t IV : Intervals)
        for (SimEngine Eng : Engines)
          for (unsigned T : Threads) {
            // The event engine is single-threaded: emit its cells only
            // at thread count 1 (duplicates would re-run the identical
            // configuration under a different index).
            if (Eng == SimEngine::Event && T > 1)
              continue;
            FleetScenario S;
            S.Index = static_cast<unsigned>(Out.size());
            S.Faults = MS.Base;
            S.Faults.Seed = FS;
            S.Faults.CrashSeed = CS;
            // A crash without checkpointing is unrecoverable by
            // construction; keep those cells crash-free instead of
            // polluting the matrix with guaranteed losses.
            if (IV == 0)
              S.Faults.CrashRate = 0;
            S.CheckpointInterval = IV;
            S.Threads = T == 0 ? 1 : T;
            S.Engine = Eng;
            Out.push_back(std::move(S));
          }
  return Out;
}

Fleet::Fleet(const Program &Prog, const CompiledProgram &Comp,
             const CompileSpec &Sp, std::map<std::string, IntT> Par,
             IntT Pr, FleetOptions Opt)
    : P(Prog), CP(Comp), Spec(Sp), Params(std::move(Par)), Procs(Pr),
      FO(Opt) {
  if (FO.Jobs == 0)
    FO.Jobs = 1;
}

SimOptions Fleet::scenarioOptions(const FleetScenario &S) const {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = Params;
  SO.Functional = true;
  SO.CollapseLoops = false;
  SO.Faults = S.Faults;
  SO.Checkpoint.IntervalSteps = S.CheckpointInterval;
  SO.Threads = S.Threads;
  SO.Engine = S.Engine;
  return SO;
}

uint64_t Fleet::goldenHash() {
  if (!GoldenComputed) {
    FleetScenario Clean; // all fault knobs at defaults, sequential
    Simulator Sim(P, CP, Spec, scenarioOptions(Clean));
    SimResult R = Sim.run();
    Golden = R.Ok ? hashFinalArrays(Sim, P, Spec, Params) : 0;
    GoldenComputed = true;
  }
  return Golden;
}

ScenarioOutcome Fleet::runScenario(const FleetScenario &S) const {
  ScenarioOutcome O;
  O.Scn = S;
  try {
    Simulator Sim(P, CP, Spec, scenarioOptions(S));
    SimResult R = Sim.run();
    O.Error = R.Error;
    O.MakespanSeconds = R.MakespanSeconds;
    O.Retransmissions = R.Retransmissions;
    O.Crashes = R.Crashes;
    O.Rollbacks = R.Recovery.Rollbacks;
    if (R.Ok)
      O.ResultHash = hashFinalArrays(Sim, P, Spec, Params);
    O.Status = runStatus(R, O.ResultHash, Golden);
  } catch (const std::exception &E) {
    // dmcc raises none itself; the standard library can (e.g. bad_alloc
    // for a scenario too large to simulate). The scenario gets a
    // verdict, and the exception must not escape the worker thread.
    O = ScenarioOutcome();
    O.Scn = S;
    O.Status = ScenarioStatus::WorkerCrash;
    O.Error = std::string("exception: ") + E.what();
  }
  return O;
}

FleetReport Fleet::run(const std::vector<FleetScenario> &Matrix) {
  Clock::time_point T0 = Clock::now();
  FleetReport Rep;
  Rep.Jobs = FO.Jobs;
  Rep.GoldenHash = goldenHash();
  Rep.Outcomes.resize(Matrix.size());
  for (size_t I = 0; I != Matrix.size(); ++I)
    Rep.Outcomes[I].Scn = Matrix[I];

  // Resume journal (DESIGN.md §13): replay verdicts already on disk,
  // then open for appending with any torn tail cut off.
  stable::JournalWriter Jrnl;
  std::mutex JournalLock; // guards Jrnl and Rep.Error while workers run
  std::vector<char> Done(Matrix.size(), 0);
  bool MetaOnDisk = false;
  if (!FO.JournalPath.empty()) {
    uint64_t TruncateTo = 0;
    if (FO.Resume) {
      stable::ReadFramesResult RF = stable::readFrames(FO.JournalPath);
      // A missing/unreadable journal resumes as a fresh sweep — the
      // kill may have landed before the journal was even created.
      if (RF.Error.empty()) {
        TruncateTo = RF.ValidBytes;
        for (const stable::Frame &F : RF.Frames) {
          stable::ByteReader Rd(F.Payload);
          if (F.Type == JrnlMetaType) {
            uint32_t Ver = Rd.u32();
            uint64_t Count = Rd.u64(), Golden = Rd.u64();
            if (Ver != JournalVersion || Count != Matrix.size() ||
                Golden != Rep.GoldenHash || !Rd.ok()) {
              Rep.Error = "resume journal does not belong to this "
                          "matrix (scenario count, golden hash or "
                          "version differ): " +
                          FO.JournalPath;
              return Rep;
            }
            MetaOnDisk = true;
          } else if (F.Type == JrnlVerdictType) {
            uint32_t Index = Rd.u32(), Status = Rd.u32();
            double Makespan = Rd.f64();
            uint64_t Retrans = Rd.u64(), Crashes = Rd.u64(),
                     Rollbacks = Rd.u64(), Hash = Rd.u64();
            std::string Error = Rd.str();
            // Verdicts are trusted only under an intact, matching meta
            // record; anything malformed is ignored rather than fatal.
            if (!MetaOnDisk || !Rd.ok() || Index >= Matrix.size() ||
                Status >= NumScenarioStatuses)
              continue;
            ScenarioOutcome &O = Rep.Outcomes[Index];
            O.Status = static_cast<ScenarioStatus>(Status);
            O.MakespanSeconds = Makespan;
            O.Retransmissions = Retrans;
            O.Crashes = Crashes;
            O.Rollbacks = Rollbacks;
            O.ResultHash = Hash;
            O.Error = std::move(Error);
            if (!Done[Index]) {
              Done[Index] = 1;
              ++Rep.ResumedFromJournal;
            }
          }
        }
      }
    }
    std::string Err;
    if (!Jrnl.open(FO.JournalPath, TruncateTo, Err)) {
      Rep.Error = "resume journal: " + Err;
      Rep.ErrorIsIo = true;
      return Rep;
    }
  }
  // Any journal I/O failure after this point aborts the sweep: a fleet
  // asked to be durable must not silently run without its journal.
  auto JournalAppend = [&](uint32_t Type,
                           const stable::ByteWriter &W) -> bool {
    if (!Jrnl.isOpen())
      return true;
    std::string Err;
    if (Jrnl.append(Type, W.bytes(), Err))
      return true;
    Rep.Error = "resume journal: " + Err;
    Rep.ErrorIsIo = true;
    return false;
  };
  if (Jrnl.isOpen() && !MetaOnDisk) {
    stable::ByteWriter W;
    W.u32(JournalVersion);
    W.u64(Matrix.size());
    W.u64(Rep.GoldenHash);
    if (!JournalAppend(JrnlMetaType, W))
      return Rep;
  }

  std::vector<size_t> Todo;
  for (size_t I = 0; I != Matrix.size(); ++I)
    if (!Done[I])
      Todo.push_back(I);
  forEachIndex(Todo.size(), FO.Jobs, [&](size_t K) {
    ScenarioOutcome &O = Rep.Outcomes[Todo[K]];
    O = runScenario(Matrix[Todo[K]]);
    // The verdict hits stable storage before the scenario is considered
    // done, so a resumed sweep never re-runs a verified scenario. A
    // failed append stops the pool.
    stable::ByteWriter W;
    W.u32(O.Scn.Index);
    W.u32(static_cast<uint32_t>(O.Status));
    W.f64(O.MakespanSeconds);
    W.u64(O.Retransmissions);
    W.u64(O.Crashes);
    W.u64(O.Rollbacks);
    W.u64(O.ResultHash);
    W.str(O.Error);
    std::lock_guard<std::mutex> Lock(JournalLock);
    return JournalAppend(JrnlVerdictType, W);
  });

  Rep.ElapsedSeconds = secondsSince(T0);
  return Rep;
}
