//===- bench/bench_interp_memory.cpp --------------------------*- C++ -*-===//
//
// Peak memory of functional LU (examples/lu.dm) on 32 processors, the
// run `dmcc-cli examples/lu.dm --simulate 32 --functional` makes. Two
// cells per N:
//
//   interp      the sequential reference interpreter alone;
//   sim_verify  compile, functional simulation, then the interpreter and
//               an element-by-element comparison of the final array, as
//               the CLI does.
//
// ru_maxrss only ever rises within a process, so every cell runs in a
// forked child and its peak is read from that child's own rusage
// (wait4). The parent forks before it loads anything, so each child
// starts from the same small image. A child exits nonzero when the
// simulation fails or any element differs from the interpreter.
//
// Output is one JSON object with the commit, build type and
// hardware_concurrency; the checked-in snapshot lives in
// BENCH_memory.json.
//
// Set DMCC_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "SourceCommit.h"
#include "core/SpecParser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dmcc;

namespace {

constexpr IntT Procs = 32;

SpecParseOutput loadLU() {
  std::string Path = std::string(DMCC_REPO_ROOT) + "/examples/lu.dm";
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

/// The reference interpreter alone.
int interpCell(IntT N) {
  SpecParseOutput SP = loadLU();
  SeqInterpreter Gold(*SP.Prog, {{"N", N}});
  Gold.run();
  return Gold.executedStatements() ? 0 : 1;
}

/// Compile, simulate functionally, then verify against the interpreter
/// while the simulator still holds its stores.
int simVerifyCell(IntT N) {
  SpecParseOutput SP = loadLU();
  const Program &P = *SP.Prog;
  CompiledProgram CP = compile(P, SP.Spec);
  if (!CP.Ok)
    return 1;
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = {{"N", N}};
  SO.Functional = true;
  SO.CollapseLoops = false;
  Simulator Sim(P, CP, SP.Spec, SO);
  if (!Sim.run().Ok)
    return 1;
  SeqInterpreter Gold(P, SO.ParamValues);
  Gold.run();
  std::vector<IntT> Idx(2);
  for (Idx[0] = 0; Idx[0] <= N; ++Idx[0])
    for (Idx[1] = 0; Idx[1] <= N; ++Idx[1]) {
      std::optional<double> Got = Sim.finalValue(0, Idx);
      if (!Got || *Got != Gold.arrayValue(0, Idx))
        return 1;
    }
  return 0;
}

struct CellResult {
  bool Ok = false;
  double PeakMb = 0;
  double Seconds = 0;
};

/// Runs \p Cell in a forked child; its peak RSS is the child's own.
CellResult runForked(int (*Cell)(IntT), IntT N) {
  CellResult Res;
  auto T0 = std::chrono::steady_clock::now();
  pid_t Pid = fork();
  if (Pid < 0)
    return Res;
  if (Pid == 0)
    _exit(Cell(N));
  int Status = 0;
  struct rusage RU {};
  if (wait4(Pid, &Status, 0, &RU) != Pid)
    return Res;
  Res.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  Res.Ok = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  Res.PeakMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  return Res;
}

} // namespace

int main() {
  const bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  const std::vector<IntT> Sizes =
      Small ? std::vector<IntT>{32, 64} : std::vector<IntT>{128, 256, 384};

  std::printf("{\n");
  std::printf("  \"benchmark\": \"interp_memory\",\n");
  std::printf("  \"workload\": \"examples/lu.dm --simulate %lld "
              "--functional\",\n",
              static_cast<long long>(Procs));
  std::printf("  \"small\": %s,\n", Small ? "true" : "false");
  std::printf("  \"commit\": \"%s\",\n", sourceCommit().c_str());
  std::printf("  \"build_type\": \"%s\",\n", DMCC_BUILD_TYPE);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");
  bool AllOk = true;
  for (size_t I = 0; I != Sizes.size(); ++I) {
    IntT N = Sizes[I];
    CellResult Interp = runForked(interpCell, N);
    CellResult SimVerify = runForked(simVerifyCell, N);
    AllOk = AllOk && Interp.Ok && SimVerify.Ok;
    std::printf("    {\"N\": %lld, \"interp_peak_mb\": %.1f, "
                "\"interp_s\": %.3f, \"sim_verify_peak_mb\": %.1f, "
                "\"sim_verify_s\": %.3f, \"ok\": %s}%s\n",
                static_cast<long long>(N), Interp.PeakMb, Interp.Seconds,
                SimVerify.PeakMb, SimVerify.Seconds,
                Interp.Ok && SimVerify.Ok ? "true" : "false",
                I + 1 == Sizes.size() ? "" : ",");
    std::fflush(stdout);
  }
  std::printf("  ]\n}\n");
  return AllOk ? 0 : 1;
}
