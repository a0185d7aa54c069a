//===- bench/bench_projection.cpp -----------------------------*- C++ -*-===//
//
// Microbenchmarks of the polyhedral primitives every compiler phase rests
// on (Section 5.1/5.2): Fourier-Motzkin elimination with and without
// superfluous-constraint removal, integer feasibility, polyhedron
// scanning, and parametric lexicographic optimization.
//
// Each case runs two legs: a baseline with the fast-path machinery off
// (no feasibility memo, no syntactic quick-checks) and an optimized leg
// with the projectionOptions() defaults. Each leg repeats one identical
// system, so the optimized leg measures warm-memo repeats: the
// feasibility memo answers every repeated query, but redundancy removal
// (redundancy_removal, and inside parametric_lexmax and scan_figure6)
// still runs its quick checks and looks up each exact test, since there
// is no whole-result memo. Output is one JSON object (same
// convention as bench_checkpoint), with the commit, build type and
// hardware_concurrency, so the speedups can be tracked across commits;
// the checked-in snapshot lives in BENCH_projection.json.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "SourceCommit.h"
#include "codegen/Scan.h"
#include "math/LexOpt.h"
#include "math/System.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

using namespace dmcc;

namespace {

/// Keeps results observable so the legs are not optimized away.
volatile unsigned long long Sink = 0;

/// The Figure 5 communication-set system for the shift example.
System figure5System() {
  Space Sp;
  Sp.add("ps", VarKind::Proc);
  Sp.add("ts", VarKind::Loop);
  Sp.add("is", VarKind::Loop);
  Sp.add("pr", VarKind::Proc);
  Sp.add("tr", VarKind::Loop);
  Sp.add("ir", VarKind::Loop);
  Sp.add("a", VarKind::Data);
  Sp.add("T", VarKind::Param);
  Sp.add("N", VarKind::Param);
  System S(std::move(Sp));
  auto V = [&](const char *N) {
    return S.varExpr(static_cast<unsigned>(S.space().indexOf(N)));
  };
  S.addGE(V("tr"));
  S.addGE(V("T") - V("tr"));
  S.addGE(V("ir").plusConst(-3));
  S.addGE(V("N") - V("ir"));
  S.addGE(V("ir").plusConst(-6));
  S.addEq(V("ts"), V("tr"));
  S.addEq(V("is"), V("ir").plusConst(-3));
  S.addEq(V("a"), V("ir").plusConst(-3));
  S.addGE(V("ir") - V("ps").scale(32));
  S.addGE(V("ps").scale(32).plusConst(31 + 3) - V("ir"));
  S.addGE(V("ir") - V("pr").scale(32));
  S.addGE(V("pr").scale(32).plusConst(31) - V("ir"));
  S.addGE(V("pr") - V("ps").plusConst(-1)); // ps < pr
  return S;
}

void fmChain() {
  System R = figure5System().eliminated({0, 1, 2, 3, 4, 5, 6});
  Sink = Sink + R.numConstraints();
}

void redundancyRemoval() {
  System R = figure5System();
  R.removeRedundant();
  Sink = Sink + R.numConstraints();
}

void integerFeasibility() {
  System S = figure5System();
  Sink = Sink + static_cast<unsigned>(S.checkIntegerFeasible());
}

void scanFigure6() {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("j", VarKind::Loop);
  System S(std::move(Sp));
  S.addGE(S.varExpr(1) - S.constExpr(16) + S.varExpr(0));
  S.addGE(S.varExpr(0).plusConst(12) - S.varExpr(1).scale(2));
  S.addGE(S.varExpr(1).plusConst(-1));
  S.addGE(S.constExpr(14) - S.varExpr(0));
  std::vector<ScanVarPlan> Plan{ScanVarPlan{0, false, AffineExpr()},
                                ScanVarPlan{1, false, AffineExpr()}};
  auto Code = scanPolyhedron(S, Plan, [&]() {
    SpmdStmt C;
    C.K = SpmdStmt::Kind::Compute;
    std::vector<SpmdStmt> B;
    B.push_back(std::move(C));
    return B;
  });
  Sink = Sink + Code.size();
}

void parametricLexMax() {
  // The Figure 2 last-write query: maximize (tw, iw).
  Space Sp;
  Sp.add("tw", VarKind::Loop);
  Sp.add("iw", VarKind::Loop);
  Sp.add("tr", VarKind::Param);
  Sp.add("ir", VarKind::Param);
  Sp.add("T", VarKind::Param);
  Sp.add("N", VarKind::Param);
  System S(std::move(Sp));
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(4) - S.varExpr(0));
  S.addGE(S.varExpr(1).plusConst(-3));
  S.addGE(S.varExpr(5) - S.varExpr(1));
  S.addEq(S.varExpr(1), S.varExpr(3).plusConst(-3));
  S.addEq(S.varExpr(0), S.varExpr(2));
  LexResult R = lexMax(S, {0, 1});
  Sink = Sink + R.Pieces.size();
}

void enumerate2DTriangle() {
  Space Sp;
  Sp.add("i", VarKind::Loop);
  Sp.add("j", VarKind::Loop);
  System S(std::move(Sp));
  S.addGE(S.varExpr(0));
  S.addGE(S.varExpr(1) - S.varExpr(0));
  S.addGE(S.constExpr(60) - S.varExpr(1));
  unsigned N = 0;
  S.enumeratePoints([&](const std::vector<IntT> &) { ++N; });
  Sink = Sink + N;
}

/// Runs \p Fn repeatedly until at least \p MinSeconds have elapsed
/// (doubling the batch size), then returns seconds per iteration.
double timeLeg(const std::function<void()> &Fn, double MinSeconds) {
  // Warm up once: first-touch allocation and (for the optimized leg)
  // cache population are not what we are measuring.
  Fn();
  using Clock = std::chrono::steady_clock;
  unsigned long long Total = 0;
  double Elapsed = 0;
  unsigned long long Batch = 1;
  for (;;) {
    auto T0 = Clock::now();
    for (unsigned long long I = 0; I != Batch; ++I)
      Fn();
    Elapsed += std::chrono::duration<double>(Clock::now() - T0).count();
    Total += Batch;
    if (Elapsed >= MinSeconds)
      return Elapsed / static_cast<double>(Total);
    Batch *= 2;
  }
}

struct Case {
  const char *Name;
  std::function<void()> Fn;
};

} // namespace

int main() {
  bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  double MinSeconds = Small ? 0.002 : 0.2;

  const Case Cases[] = {
      {"fm_elimination_chain", fmChain},
      {"redundancy_removal", redundancyRemoval},
      {"integer_feasibility", integerFeasibility},
      {"scan_figure6", scanFigure6},
      {"parametric_lexmax", parametricLexMax},
      {"enumerate_2d_triangle", enumerate2DTriangle},
  };
  constexpr unsigned NumCases = sizeof(Cases) / sizeof(Cases[0]);

  ProjectionOptions Optimized; // defaults: cache + accelerators on
  ProjectionOptions Baseline;
  Baseline.Cache = false;
  Baseline.QuickChecks = false;

  std::printf("{\n");
  std::printf("  \"benchmark\": \"projection\",\n");
  std::printf("  \"small\": %s,\n", Small ? "true" : "false");
  std::printf("  \"commit\": \"%s\",\n", sourceCommit().c_str());
  std::printf("  \"build_type\": \"%s\",\n", DMCC_BUILD_TYPE);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");
  for (unsigned I = 0; I != NumCases; ++I) {
    const Case &C = Cases[I];

    projectionOptions() = Baseline;
    clearProjectionCaches();
    double BaseSec = timeLeg(C.Fn, MinSeconds);

    projectionOptions() = Optimized;
    clearProjectionCaches();
    resetProjectionStats();
    double OptSec = timeLeg(C.Fn, MinSeconds);
    double HitRate = projectionStats().feasHitRate();

    std::printf("    {\"case\": \"%s\", \"baseline_us\": %.3f, "
                "\"optimized_us\": %.3f,\n"
                "     \"speedup\": %.2f, \"feas_cache_hit_rate\": %.3f}%s\n",
                C.Name, BaseSec * 1e6, OptSec * 1e6,
                OptSec > 0 ? BaseSec / OptSec : 0.0, HitRate,
                I + 1 != NumCases ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"notes\": \"per-iteration wall time; baseline leg runs "
              "with the feasibility memo and syntactic quick-checks "
              "disabled\"\n");
  std::printf("}\n");
  return 0;
}
