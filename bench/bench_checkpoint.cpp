//===- bench/bench_checkpoint.cpp -----------------------------*- C++ -*-===//
//
// Checkpoint/restart cost study: LU decomposition on the simulated
// machine, sweeping the checkpoint interval. For each interval the
// benchmark runs a crash-free leg (isolating pure checkpoint overhead)
// and a crash leg with a fixed seed-driven crash schedule (adding
// detection, rollback and replay). Output is a single JSON object so
// the numbers can be plotted directly; per-leg rows separate compute,
// protocol, checkpoint and recovery time.
//
// Every crash leg is verified bit-exact against the sequential
// interpreter — a mismatch fails the benchmark.
//
// Set DMCC_FAULT_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <cstdlib>

using namespace dmcc;

namespace {

const char *LUSource = R"(
param N;
array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}
)";

SimOptions simOpts(IntT Procs, IntT N, FaultOptions F,
                   CheckpointOptions CK) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = {{"N", N}};
  SO.Functional = true; // crash legs are verified bit-exact
  SO.Faults = F;
  SO.Checkpoint = CK;
  return SO;
}

/// Returns the number of missing-or-wrong elements of X vs the
/// sequential interpreter.
unsigned verify(Simulator &Sim, const SeqInterpreter &Gold, IntT N) {
  unsigned Bad = 0;
  std::vector<IntT> Idx(2);
  for (Idx[0] = 0; Idx[0] <= N; ++Idx[0])
    for (Idx[1] = 0; Idx[1] <= N; ++Idx[1]) {
      auto Got = Sim.finalValue(0, Idx);
      if (!Got || *Got != Gold.arrayValue(0, Idx))
        ++Bad;
    }
  return Bad;
}

void printLeg(const char *Name, const SimResult &R, double Ideal,
              bool TrailingComma) {
  std::printf(
      "      \"%s\": {\"makespan_seconds\": %.6f, \"inflation\": %.4f,\n"
      "        \"compute_seconds\": %.6f, \"protocol_seconds\": %.6f,\n"
      "        \"checkpoint_seconds\": %.6f, \"recovery_seconds\": %.6f,\n"
      "        \"checkpoints\": %llu, \"checkpoint_bytes\": %llu,\n"
      "        \"crashes\": %llu, \"rollbacks\": %llu, "
      "\"replayed_steps\": %llu, \"replayed_messages\": %llu}%s\n",
      Name, R.MakespanSeconds, Ideal > 0 ? R.MakespanSeconds / Ideal : 0.0,
      R.Recovery.ComputeSeconds, R.Recovery.ProtocolSeconds,
      R.Recovery.CheckpointSeconds, R.Recovery.RecoverySeconds,
      static_cast<unsigned long long>(R.Recovery.CheckpointsTaken),
      static_cast<unsigned long long>(R.Recovery.CheckpointBytes),
      static_cast<unsigned long long>(R.Crashes),
      static_cast<unsigned long long>(R.Recovery.Rollbacks),
      static_cast<unsigned long long>(R.Recovery.ReplayedSteps),
      static_cast<unsigned long long>(R.Recovery.ReplayedMessages),
      TrailingComma ? "," : "");
}

} // namespace

int main() {
  bool Small = std::getenv("DMCC_FAULT_BENCH_SMALL") != nullptr;
  const IntT N = Small ? 32 : 64;
  const IntT Procs = 4;
  const uint64_t CrashSeed = 11;
  const double CrashRate = 4e-5;

  Program P = parseProgramOrDie(LUSource);
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompiledProgram CP = compile(P, Spec);

  SeqInterpreter Gold(P, {{"N", N}});
  Gold.run();

  // The fault-free, checkpoint-free run anchors the ideal makespan.
  double Ideal = 0;
  {
    Simulator Sim(P, CP, Spec, simOpts(Procs, N, {}, {}));
    SimResult R = Sim.run();
    if (!R.Ok || verify(Sim, Gold, N) != 0) {
      std::fprintf(stderr, "ideal leg failed: %s\n", R.Error.c_str());
      return 1;
    }
    Ideal = R.MakespanSeconds;
  }

  const uint64_t Intervals[] = {Small ? 5000u : 10000u,
                                Small ? 10000u : 20000u,
                                Small ? 20000u : 40000u,
                                Small ? 40000u : 80000u};
  const size_t NumIntervals = sizeof(Intervals) / sizeof(Intervals[0]);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"checkpoint\",\n");
  std::printf("  \"case\": \"lu\",\n");
  std::printf("  \"n\": %lld,\n  \"procs\": %lld,\n",
              static_cast<long long>(N), static_cast<long long>(Procs));
  std::printf("  \"crash_seed\": %llu,\n  \"crash_rate\": %g,\n",
              static_cast<unsigned long long>(CrashSeed), CrashRate);
  std::printf("  \"ideal_seconds\": %.6f,\n", Ideal);
  std::printf("  \"rows\": [\n");

  for (size_t I = 0; I != NumIntervals; ++I) {
    CheckpointOptions CK;
    CK.IntervalSteps = Intervals[I];

    // Crash-free leg: pure checkpoint overhead at this interval.
    Simulator CkSim(P, CP, Spec, simOpts(Procs, N, {}, CK));
    SimResult CkRes = CkSim.run();
    if (!CkRes.Ok || verify(CkSim, Gold, N) != 0) {
      std::fprintf(stderr, "checkpoint-only leg (interval %llu) failed\n",
                   static_cast<unsigned long long>(CK.IntervalSteps));
      return 1;
    }

    // Crash leg: the same interval under a seed-driven crash schedule.
    FaultOptions F;
    F.CrashRate = CrashRate;
    F.CrashSeed = CrashSeed;
    Simulator CrSim(P, CP, Spec, simOpts(Procs, N, F, CK));
    SimResult CrRes = CrSim.run();
    if (!CrRes.Ok) {
      std::fprintf(stderr, "crash leg (interval %llu) failed: %s\n",
                   static_cast<unsigned long long>(CK.IntervalSteps),
                   CrRes.Error.c_str());
      return 1;
    }
    if (verify(CrSim, Gold, N) != 0) {
      std::fprintf(stderr,
                   "crash leg (interval %llu) is NOT bit-exact\n",
                   static_cast<unsigned long long>(CK.IntervalSteps));
      return 1;
    }

    std::printf("    {\"interval_steps\": %llu,\n",
                static_cast<unsigned long long>(CK.IntervalSteps));
    printLeg("no_crash", CkRes, Ideal, true);
    printLeg("crash", CrRes, Ideal, false);
    std::printf("    }%s\n", I + 1 != NumIntervals ? "," : "");
  }

  std::printf("  ],\n");
  std::printf("  \"notes\": \"crash legs verified bit-exact against the "
              "sequential interpreter; recovery_seconds = detection + "
              "restore + undone work, checkpoint_seconds = snapshot "
              "latency + per-word copy cost\"\n");
  std::printf("}\n");
  return 0;
}
