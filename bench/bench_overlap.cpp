//===- bench/bench_overlap.cpp --------------------------------*- C++ -*-===//
//
// Communication–computation overlap study (DESIGN.md §11): LU
// decomposition and the 1-D Jacobi stencil pipeline, simulated with
// early sends off and on at the default cost model. Performance-mode
// legs report the simulated makespan reduction and the per-run overlap
// telemetry (deferred / exposed / hidden NIC seconds); a small
// functional leg per program verifies the early schedule leaves every
// final array element bit-identical before any number is reported.
// Output is one JSON object; snapshotted as BENCH_overlap.json.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
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

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

CompileSpec stencilSpec(const Program &P, IntT Block) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, Block)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, Block)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, Block, /*OverlapLo=*/1,
                                        /*OverlapHi=*/1));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, Block));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, Block));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, Block));
  return Spec;
}

SimOptions simOpts(IntT Procs, std::map<std::string, IntT> Params,
                   bool Functional) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  return SO;
}

struct ProgramCase {
  std::string Name;
  Program P;
  CompileSpec Spec;
  IntT Procs;
  std::map<std::string, IntT> PerfParams;
  std::map<std::string, IntT> FuncParams;
};

/// Runs functional legs with early sends off and on and checks every
/// element of every finalized array is bit-identical. A divergence is
/// fatal: no makespan number is worth reporting from a wrong schedule.
bool verifyIdenticalArrays(const ProgramCase &C, const CompiledProgram &Off,
                           const CompiledProgram &On) {
  Simulator A(C.P, Off, C.Spec, simOpts(C.Procs, C.FuncParams, true));
  Simulator B(C.P, On, C.Spec, simOpts(C.Procs, C.FuncParams, true));
  SimResult RA = A.run(), RB = B.run();
  if (!RA.Ok || !RB.Ok) {
    std::fprintf(stderr, "%s: functional leg failed: %s%s\n",
                 C.Name.c_str(), RA.Error.c_str(), RB.Error.c_str());
    return false;
  }
  std::vector<IntT> Env(C.P.space().size(), 0);
  for (unsigned I = 0; I != C.P.space().size(); ++I)
    if (C.P.space().kind(I) == VarKind::Param)
      Env[I] = C.FuncParams.at(C.P.space().name(I));
  for (const auto &[AId, FD] : C.Spec.FinalData) {
    (void)FD;
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : C.P.array(AId).DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = Sizes.empty();
    while (!Done) {
      if (A.finalValue(AId, Idx) != B.finalValue(AId, Idx)) {
        std::fprintf(stderr, "%s: array %u diverges with early sends\n",
                     C.Name.c_str(), AId);
        return false;
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
  return true;
}

} // namespace

int main() {
  const bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;

  std::vector<ProgramCase> Cases;
  {
    ProgramCase LU;
    LU.Name = "lu";
    LU.P = parseProgramOrDie(LUSource);
    LU.Spec = luSpec(LU.P);
    LU.Procs = Small ? 8 : 16;
    LU.PerfParams = {{"N", Small ? 96 : 256}};
    LU.FuncParams = {{"N", 32}};
    Cases.push_back(std::move(LU));

    ProgramCase St;
    St.Name = "stencil";
    St.P = parseProgramOrDie(StencilSource);
    St.Spec = stencilSpec(St.P, 32);
    St.Procs = 8;
    St.PerfParams = {{"T", Small ? 8 : 16}, {"N", 255}};
    St.FuncParams = {{"T", 5}, {"N", 255}};
    Cases.push_back(std::move(St));
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"overlap\",\n");
  std::printf("  \"mode\": \"%s\",\n", Small ? "small" : "full");
  std::printf("  \"programs\": [\n");
  for (std::size_t CI = 0; CI != Cases.size(); ++CI) {
    const ProgramCase &C = Cases[CI];
    CompilerOptions OptsOff, OptsOn;
    OptsOn.EarlySends = true;
    CompiledProgram Off = compile(C.P, C.Spec, OptsOff);
    CompiledProgram On = compile(C.P, C.Spec, OptsOn);
    if (!Off.Ok || !On.Ok) {
      std::fprintf(stderr, "%s: compile failed\n", C.Name.c_str());
      return 1;
    }
    if (!verifyIdenticalArrays(C, Off, On))
      return 1;

    Simulator SimOff(C.P, Off, C.Spec,
                     simOpts(C.Procs, C.PerfParams, false));
    Simulator SimOn(C.P, On, C.Spec,
                    simOpts(C.Procs, C.PerfParams, false));
    SimResult ROff = SimOff.run();
    SimResult ROn = SimOn.run();
    if (!ROff.Ok || !ROn.Ok) {
      std::fprintf(stderr, "%s: perf leg failed: %s%s\n", C.Name.c_str(),
                   ROff.Error.c_str(), ROn.Error.c_str());
      return 1;
    }
    double Reduction =
        ROff.MakespanSeconds > 0
            ? 1.0 - ROn.MakespanSeconds / ROff.MakespanSeconds
            : 0.0;
    std::printf("    {\"program\": \"%s\", \"procs\": %lld,\n",
                C.Name.c_str(), static_cast<long long>(C.Procs));
    std::printf("     \"early_sends_marked\": %u,\n",
                On.Stats.NumEarlySends);
    std::printf("     \"makespan_off_seconds\": %.6f,\n",
                ROff.MakespanSeconds);
    std::printf("     \"makespan_on_seconds\": %.6f,\n",
                ROn.MakespanSeconds);
    std::printf("     \"makespan_reduction\": %.4f,\n", Reduction);
    std::printf("     \"early_sends\": %llu,\n",
                static_cast<unsigned long long>(ROn.EarlySends));
    std::printf("     \"deferred_seconds\": %.6f,\n",
                ROn.Overlap.DeferredSeconds);
    std::printf("     \"exposed_seconds\": %.6f,\n",
                ROn.Overlap.ExposedSeconds);
    std::printf("     \"hidden_seconds\": %.6f,\n",
                ROn.Overlap.hiddenSeconds());
    std::printf("     \"arrays_identical\": true}%s\n",
                CI + 1 == Cases.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
