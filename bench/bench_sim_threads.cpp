//===- bench/bench_sim_threads.cpp ----------------------------*- C++ -*-===//
//
// Scaling study for the threaded simulator engine (DESIGN.md section
// 10): LU decomposition in functional mode on a 32-processor simulated
// machine, swept over --sim-threads worker counts. Every threaded leg
// is checked bit-identical to the sequential engine — array contents
// and every SimResult field — before its wall time is reported, so a
// speedup can never be bought with a divergent schedule. Output is one
// JSON object; `hardware_concurrency` is included so a run on a
// single-core container is honest about why its speedups are flat.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale (N=64, 8 processors,
// workers {1, 2}).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

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

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

SimOptions simOpts(IntT Procs, IntT N, unsigned Threads) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = {{"N", N}};
  SO.Functional = true;
  SO.Threads = Threads;
  return SO;
}

struct Leg {
  unsigned Threads = 1;
  double WallSeconds = 0;
  bool Identical = true;
  SimResult R;
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main() {
  const bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  const IntT N = Small ? 64 : 1024;
  const IntT Procs = Small ? 8 : 32;
  std::vector<unsigned> Workers =
      Small ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};

  Program P = parseProgramOrDie(LUSource);
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  if (!CP.Ok) {
    std::fprintf(stderr, "compile failed: %s\n", CP.ErrorMessage.c_str());
    return 1;
  }

  std::vector<Leg> Legs;
  std::vector<std::optional<double>> Baseline;
  for (unsigned W : Workers) {
    Simulator Sim(P, CP, Spec, simOpts(Procs, N, W));
    Leg L;
    L.Threads = W;
    double T0 = now();
    L.R = Sim.run();
    L.WallSeconds = now() - T0;
    if (!L.R.Ok) {
      std::fprintf(stderr, "threads=%u failed: %s\n", W, L.R.Error.c_str());
      return 1;
    }
    std::vector<IntT> Idx(2);
    if (Legs.empty()) {
      Baseline.reserve(static_cast<std::size_t>(N + 1) * (N + 1));
      for (Idx[0] = 0; Idx[0] <= N; ++Idx[0])
        for (Idx[1] = 0; Idx[1] <= N; ++Idx[1])
          Baseline.push_back(Sim.finalValue(0, Idx));
    } else {
      const SimResult &B = Legs.front().R;
      L.Identical = L.R == B;
      std::size_t K = 0;
      for (Idx[0] = 0; Idx[0] <= N && L.Identical; ++Idx[0])
        for (Idx[1] = 0; Idx[1] <= N; ++Idx[1], ++K)
          if (Sim.finalValue(0, Idx) != Baseline[K]) {
            L.Identical = false;
            break;
          }
      if (!L.Identical) {
        std::fprintf(stderr,
                     "threads=%u diverges from the sequential engine\n", W);
        return 1;
      }
    }
    Legs.push_back(std::move(L));
  }

  const double Base = Legs.front().WallSeconds;
  std::printf("{\n");
  std::printf("  \"bench\": \"sim_threads\",\n");
  std::printf("  \"mode\": \"%s\",\n", Small ? "small" : "full");
  std::printf("  \"program\": \"lu\",\n");
  std::printf("  \"n\": %lld,\n", static_cast<long long>(N));
  std::printf("  \"procs\": %lld,\n", static_cast<long long>(Procs));
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"legs\": [\n");
  for (std::size_t I = 0; I != Legs.size(); ++I) {
    const Leg &L = Legs[I];
    std::printf("    {\"threads\": %u, \"wall_seconds\": %.6f, "
                "\"speedup_vs_sequential\": %.4f, "
                "\"total_events\": %llu, \"makespan_seconds\": %.6f, "
                "\"identical_to_sequential\": %s}%s\n",
                L.Threads, L.WallSeconds,
                L.WallSeconds > 0 ? Base / L.WallSeconds : 0.0,
                static_cast<unsigned long long>(L.R.TotalEvents),
                L.R.MakespanSeconds, L.Identical ? "true" : "false",
                I + 1 == Legs.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
