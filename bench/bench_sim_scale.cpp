//===- bench/bench_sim_scale.cpp ------------------------------*- C++ -*-===//
//
// Scaling study for the event-queue simulator engine (DESIGN.md section
// 14): Figure 14's LU decomposition in performance mode (collapsed
// inner loops), weak-scaled from P = 64 / N = 512 up to P = 4096 /
// N = 8192. At every cell both engines run the identical schedule; the
// event leg is checked bit-identical to the round-robin leg — every
// SimResult field — before either wall time is reported, so
// throughput can never be bought with a divergent schedule. The figure
// of merit is simulated events per second of host wall time: the knee
// in events/sec as P grows is the simulator's cache footprint, not
// scheduling overhead, so the event engine's job at this scale is to
// sustain the run — O(1) message matching and amortized checkpoint
// gates keep it at parity with the round engine on compute-dominated
// programs while never re-polling a blocked processor. Output is one
// JSON object (committed as BENCH_sim_scale.json at the repo root),
// with the build type and hardware_concurrency it was measured under.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale, or override the
// sweep with DMCC_BENCH_CELLS="P:N,P:N,...".
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
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

SimOptions simOpts(IntT Procs, IntT N, SimEngine Engine) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = {{"N", N}};
  SO.Functional = false;
  SO.CollapseLoops = true;
  SO.Engine = Engine;
  return SO;
}

struct Leg {
  double WallSeconds = 0;
  SimResult R;
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Leg runLeg(const Program &P, const CompiledProgram &CP,
           const CompileSpec &Spec, IntT Procs, IntT N, SimEngine Engine) {
  Simulator Sim(P, CP, Spec, simOpts(Procs, N, Engine));
  Leg L;
  double T0 = now();
  L.R = Sim.run();
  L.WallSeconds = now() - T0;
  return L;
}

using CellList = std::vector<std::pair<IntT, IntT>>;

// "P:N,P:N,..." override for the sweep, e.g. DMCC_BENCH_CELLS=1024:2048.
CellList parseCells(const char *Spec) {
  CellList Cells;
  while (*Spec) {
    char *End = nullptr;
    IntT Procs = std::strtoll(Spec, &End, 10);
    if (End == Spec || *End != ':')
      break;
    Spec = End + 1;
    IntT N = std::strtoll(Spec, &End, 10);
    if (End == Spec)
      break;
    Cells.emplace_back(Procs, N);
    Spec = *End == ',' ? End + 1 : End;
  }
  return Cells;
}

} // namespace

int main() {
  const bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  CellList Cells = Small ? CellList{{16, 64}, {64, 128}}
                         : CellList{{64, 512},
                                    {256, 1024},
                                    {1024, 2048},
                                    {4096, 8192}};
  if (const char *Env = std::getenv("DMCC_BENCH_CELLS"))
    Cells = parseCells(Env);

  Program P = parseProgramOrDie(LUSource);
  std::printf("{\n");
  std::printf("  \"bench\": \"sim_scale\",\n");
  std::printf("  \"mode\": \"%s\",\n", Small ? "small" : "full");
  std::printf("  \"build_type\": \"%s\",\n", DMCC_BUILD_TYPE);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"program\": \"lu\",\n");
  std::printf("  \"functional\": false,\n");
  std::printf("  \"cells\": [\n");
  for (std::size_t I = 0; I != Cells.size(); ++I) {
    const IntT Procs = Cells[I].first;
    const IntT N = Cells[I].second;
    CompileSpec Spec = luSpec(P);
    CompiledProgram CP = compile(P, Spec);
    if (!CP.Ok) {
      std::fprintf(stderr, "compile failed: %s\n", CP.ErrorMessage.c_str());
      return 1;
    }
    Leg Rounds = runLeg(P, CP, Spec, Procs, N, SimEngine::Rounds);
    Leg Event = runLeg(P, CP, Spec, Procs, N, SimEngine::Event);
    if (!Rounds.R.Ok || !Event.R.Ok) {
      std::fprintf(stderr, "P=%lld failed: %s\n",
                   static_cast<long long>(Procs),
                   (Rounds.R.Ok ? Event.R : Rounds.R).Error.c_str());
      return 1;
    }
    if (!(Rounds.R == Event.R)) {
      std::fprintf(stderr,
                   "P=%lld: event engine diverges from the round engine\n",
                   static_cast<long long>(Procs));
      return 1;
    }
    const double REv = Rounds.WallSeconds > 0
                           ? Rounds.R.TotalEvents / Rounds.WallSeconds
                           : 0.0;
    const double EEv =
        Event.WallSeconds > 0 ? Event.R.TotalEvents / Event.WallSeconds : 0.0;
    std::printf("    {\"procs\": %lld, \"n\": %lld, "
                "\"total_events\": %llu, \"makespan_seconds\": %.6f,\n"
                "     \"rounds_wall_seconds\": %.6f, "
                "\"rounds_events_per_sec\": %.0f,\n"
                "     \"event_wall_seconds\": %.6f, "
                "\"event_events_per_sec\": %.0f,\n"
                "     \"event_speedup\": %.3f, "
                "\"identical_to_rounds\": true}%s\n",
                static_cast<long long>(Procs), static_cast<long long>(N),
                static_cast<unsigned long long>(Event.R.TotalEvents),
                Event.R.MakespanSeconds, Rounds.WallSeconds, REv,
                Event.WallSeconds, EEv,
                Event.WallSeconds > 0 ? Rounds.WallSeconds / Event.WallSeconds
                                      : 0.0,
                I + 1 == Cells.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
