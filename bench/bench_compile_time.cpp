//===- bench/bench_compile_time.cpp ---------------------------*- C++ -*-===//
//
// Section 7 reports that the compiler pass took 2.9 seconds to generate
// the LU computation and communication code (on 1993 hardware). This
// harness times the full pipeline — Last Write Trees, communication
// sets, optimizations, SPMD generation — for several kernels, plus the
// individual analysis stages. The jacobi2d, jacobi3d and floyd cases
// compile the shipped examples/*.dm specs, whose compiles are dominated
// by comm-set coalescing.
//
// Each case runs a baseline leg (projection cache and accelerators off)
// and an optimized leg (projectionOptions() defaults); the optimized leg
// keeps its caches warm across iterations, which is exactly how repeated
// compiles in one process behave. Output is one JSON object (same
// convention as bench_checkpoint), recording the build type and
// hardware_concurrency; the checked-in snapshot lives in
// BENCH_compile_time.json.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "dataflow/LastWriteTree.h"
#include "frontend/Parser.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

using namespace dmcc;

namespace {

/// Keeps results observable so the legs are not optimized away.
volatile unsigned long long Sink = 0;

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

const char *StencilSource = R"(
param T;
param N;
array X[N + 1];
array Y[N + 1];
for t = 0 to T {
  for i = 1 to N - 1 {
    Y[i] = X[i - 1] + X[i] + X[i + 1];
  }
  for i2 = 1 to N - 1 {
    X[i2] = Y[i2];
  }
}
)";

const char *ShiftSource = R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 3 to N {
    X[i] = X[i - 3];
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

CompileSpec stencilSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition DX = blockData(P, 0, 0, 64);
  Decomposition DY = blockData(P, 1, 0, 64);
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 64)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 64)});
  Spec.InitialData.emplace(0, DX);
  Spec.InitialData.emplace(1, DY);
  Spec.FinalData.emplace(0, DX);
  Spec.FinalData.emplace(1, DY);
  return Spec;
}

CompileSpec shiftSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 32)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 32));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 32));
  return Spec;
}

/// Parses examples/<Name>.dm with its decomposition directives; exits
/// on a missing or malformed file.
SpecParseOutput loadExample(const char *Name) {
  std::string Path =
      std::string(DMCC_REPO_ROOT) + "/examples/" + Name + ".dm";
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  SpecParseOutput SP = parseWithSpec(Buf.str());
  if (!In || !SP.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                 In ? SP.Error.c_str() : "cannot open");
    std::exit(1);
  }
  return SP;
}

/// Times \p Fn over \p Iters iterations and returns seconds/iteration.
/// One extra warmup iteration runs first (it populates the caches on
/// the optimized leg — deliberately, that persistence is the feature).
double timeLeg(const std::function<void()> &Fn, unsigned Iters) {
  Fn();
  using Clock = std::chrono::steady_clock;
  auto T0 = Clock::now();
  for (unsigned I = 0; I != Iters; ++I)
    Fn();
  return std::chrono::duration<double>(Clock::now() - T0).count() / Iters;
}

struct Case {
  const char *Name;
  std::function<void()> Fn;
  bool UsesProjection; ///< false: single leg (e.g. pure parsing)
};

} // namespace

int main() {
  bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  unsigned Iters = Small ? 1 : 5;

  Program LU = parseProgramOrDie(LUSource);
  Program Stencil = parseProgramOrDie(StencilSource);
  Program Shift = parseProgramOrDie(ShiftSource);
  CompileSpec LUSpec = luSpec(LU);
  CompileSpec StSpec = stencilSpec(Stencil);
  CompileSpec ShSpec = shiftSpec(Shift);
  SpecParseOutput Jacobi2d = loadExample("jacobi2d");
  SpecParseOutput Jacobi3d = loadExample("jacobi3d");
  SpecParseOutput Floyd = loadExample("floyd");

  ProjectionOptions Baseline;
  Baseline.Cache = false;
  Baseline.QuickChecks = false;

  // The case lambdas read the current leg's options from here.
  CompilerOptions LegOpts;

  auto compileCase = [&](const Program &P, const CompileSpec &Spec) {
    Sink = Sink + compile(P, Spec, LegOpts).Comms.size();
  };

  const Case Cases[] = {
      {"parse_lu",
       [&] { Sink = Sink + parseProgramOrDie(LUSource).numStatements(); },
       false},
      {"lwt_lu",
       [&] {
         for (unsigned S = 0; S != LU.numStatements(); ++S)
           for (unsigned R = 0; R != LU.statement(S).Reads.size(); ++R)
             Sink = Sink + buildLWT(LU, S, R).Contexts.size();
       },
       true},
      {"compile_lu", [&] { compileCase(LU, LUSpec); }, true},
      {"compile_stencil", [&] { compileCase(Stencil, StSpec); }, true},
      {"compile_shift", [&] { compileCase(Shift, ShSpec); }, true},
      {"compile_jacobi2d",
       [&] { compileCase(*Jacobi2d.Prog, Jacobi2d.Spec); }, true},
      {"compile_jacobi3d",
       [&] { compileCase(*Jacobi3d.Prog, Jacobi3d.Spec); }, true},
      {"compile_floyd", [&] { compileCase(*Floyd.Prog, Floyd.Spec); },
       true},
  };
  constexpr unsigned NumCases = sizeof(Cases) / sizeof(Cases[0]);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"compile_time\",\n");
  std::printf("  \"small\": %s,\n", Small ? "true" : "false");
  std::printf("  \"iters\": %u,\n", Iters);
  std::printf("  \"build_type\": \"%s\",\n", DMCC_BUILD_TYPE);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");
  for (unsigned I = 0; I != NumCases; ++I) {
    const Case &C = Cases[I];

    // Baseline leg: accelerators off. compile() installs the options it
    // is given; the LWT case follows the process-wide setting instead.
    LegOpts.Projection = Baseline;
    projectionOptions() = Baseline;
    clearProjectionCaches();
    double BaseSec = timeLeg(C.Fn, Iters);

    LegOpts.Projection = ProjectionOptions();
    projectionOptions() = ProjectionOptions();
    clearProjectionCaches();
    resetProjectionStats();
    double OptSec = timeLeg(C.Fn, Iters);
    double HitRate = projectionStats().feasHitRate();

    std::printf("    {\"case\": \"%s\", \"baseline_ms\": %.3f, "
                "\"optimized_ms\": %.3f,\n"
                "     \"speedup\": %.2f, \"feas_cache_hit_rate\": %.3f}%s\n",
                C.Name, BaseSec * 1e3, OptSec * 1e3,
                OptSec > 0 ? BaseSec / OptSec : 0.0,
                C.UsesProjection ? HitRate : 0.0,
                I + 1 != NumCases ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"notes\": \"per-compile wall time after one warmup; the "
              "optimized leg keeps the projection caches warm across "
              "iterations\"\n");
  std::printf("}\n");
  return 0;
}
