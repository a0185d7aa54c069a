//===- bench/bench_fault_overhead.cpp -------------------------*- C++ -*-===//
//
// Cost of the reliable transport under injected faults: LU decomposition
// on the simulated machine, sweeping packet drop rates with a fixed fault
// seed. For each rate the table reports the retransmission count and the
// makespan inflation relative to the fault-free ideal, plus a functional
// leg at small N proving the result stays bit-exact against the
// sequential interpreter while packets are being dropped.
//
// Set DMCC_FAULT_BENCH_SMALL=1 to run the perf sweep at quarter scale.
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

SimOptions simOpts(IntT Procs, IntT N, bool Functional, FaultOptions F,
                   CheckpointOptions CK = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = {{"N", N}};
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = F;
  SO.Checkpoint = CK;
  return SO;
}

/// Compares the simulated final X against the sequential interpreter.
/// Returns the number of missing-or-wrong elements.
unsigned verify(const Program &P, Simulator &Sim, IntT N) {
  SeqInterpreter Gold(P, {{"N", N}});
  Gold.run();
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

} // namespace

int main() {
  bool Small = std::getenv("DMCC_FAULT_BENCH_SMALL") != nullptr;
  Program P = parseProgramOrDie(LUSource);
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompiledProgram CP = compile(P, Spec);

  std::printf("== Fault-injection overhead: LU under a lossy network ==\n");
  std::printf("compile: %.2f s; %u communication channels\n",
              CP.Stats.CompileSeconds, CP.Stats.NumCommChannels);

  // Functional leg: every element must stay bit-exact while the network
  // drops a tenth of the packets.
  {
    const IntT N = 32;
    FaultOptions F;
    F.Seed = 42;
    F.DropRate = 0.1;
    Simulator Sim(P, CP, Spec, simOpts(4, N, true, F));
    SimResult R = Sim.run();
    if (!R.Ok) {
      std::printf("functional leg failed: %s\n", R.Error.c_str());
      return 1;
    }
    unsigned Bad = verify(P, Sim, N);
    std::printf("\nfunctional leg (N = %lld, P = 4, drop = 0.10, "
                "seed = 42): %s (%llu retransmissions)\n",
                static_cast<long long>(N),
                Bad == 0 ? "bit-exact" : "MISMATCH",
                static_cast<unsigned long long>(R.Retransmissions));
    if (Bad != 0)
      return 1;
  }

  // Perf sweep: fixed seed, rising drop rate. drop = 0 runs the
  // default (unreliable, zero-overhead) path and anchors the ideal.
  const IntT N = Small ? 128 : 512;
  const IntT Procs = 8;
  // Row 0 is the default (unreliable, zero-overhead) path; the second
  // row turns the ack protocol on with no faults, isolating protocol
  // overhead from fault-recovery overhead in the rows that follow.
  struct Leg {
    const char *Name;
    double Rate;
    bool Reliable;
  };
  const Leg Legs[] = {{"ideal", 0.0, false}, {"ack-only", 0.0, true},
                      {"0.02", 0.02, true},  {"0.05", 0.05, true},
                      {"0.10", 0.1, true},   {"0.20", 0.2, true}};
  std::printf("\nperf sweep (N = %lld, P = %lld, seed = 42)\n",
              static_cast<long long>(N), static_cast<long long>(Procs));
  std::printf("%9s %12s %11s %9s %9s %11s %10s\n", "drop", "time(s)",
              "inflation", "retrans", "dropped", "dups-supp", "acks");
  double Ideal = 0;
  for (const Leg &L : Legs) {
    FaultOptions F;
    F.Seed = 42;
    F.DropRate = L.Rate;
    F.AlwaysReliable = L.Reliable;
    Simulator Sim(P, CP, Spec, simOpts(Procs, N, false, F));
    SimResult R = Sim.run();
    if (!R.Ok) {
      std::printf("  %s failed: %s\n", L.Name, R.Error.c_str());
      return 1;
    }
    if (Ideal == 0)
      Ideal = R.MakespanSeconds;
    std::printf("%9s %12.4f %10.2fx %9llu %9llu %11llu %10llu\n", L.Name,
                R.MakespanSeconds, R.MakespanSeconds / Ideal,
                static_cast<unsigned long long>(R.Retransmissions),
                static_cast<unsigned long long>(R.DroppedPackets),
                static_cast<unsigned long long>(R.DuplicatesSuppressed),
                static_cast<unsigned long long>(R.AcksSent));
  }
  std::printf("\ninflation is makespan relative to the fault-free ideal; "
              "the ack-only row is\npure stop-and-wait protocol cost. "
              "Message/word counters stay logical, so wire\noverhead "
              "appears only in the retransmission and ack columns.\n");

  // Crash leg: packet loss plus crash-stop failures with checkpoint/
  // restart recovery; the result must still be bit-exact.
  {
    const IntT CN = 32;
    FaultOptions F;
    F.Seed = 42;
    F.DropRate = 0.05;
    F.CrashRate = 1e-4;
    F.CrashSeed = 7;
    CheckpointOptions CK;
    CK.IntervalSteps = 10000;
    Simulator Sim(P, CP, Spec, simOpts(4, CN, true, F, CK));
    SimResult R = Sim.run();
    if (!R.Ok) {
      std::printf("crash leg failed: %s\n", R.Error.c_str());
      return 1;
    }
    unsigned Bad = verify(P, Sim, CN);
    std::printf("\ncrash leg (N = %lld, P = 4, drop = 0.05, crash = 1e-4, "
                "checkpoint every %llu steps):\n  %s; %llu crashes, "
                "%llu rollbacks, %llu checkpoints, %llu steps replayed\n",
                static_cast<long long>(CN),
                static_cast<unsigned long long>(CK.IntervalSteps),
                Bad == 0 ? "bit-exact" : "MISMATCH",
                static_cast<unsigned long long>(R.Crashes),
                static_cast<unsigned long long>(R.Recovery.Rollbacks),
                static_cast<unsigned long long>(R.Recovery.CheckpointsTaken),
                static_cast<unsigned long long>(R.Recovery.ReplayedSteps));
    if (Bad != 0)
      return 1;
  }
  return 0;
}
