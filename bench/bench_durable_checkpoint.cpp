//===- bench/bench_durable_checkpoint.cpp ---------------------*- C++ -*-===//
//
// Durability cost study (DESIGN.md §13): LU on the simulated machine,
// sweeping the checkpoint interval. For each interval the benchmark
// times three legs by host wall clock:
//
//  - in_memory: checkpoints kept in the in-process stable store only;
//  - durable:   every checkpoint additionally serialized, CRC-framed
//               and fsynced to disk (the SIGKILL-survivable mode);
//  - resume:    a fresh simulator restoring the newest intact image
//               from a half-prefix of the durable run's directory (the
//               state a mid-run kill leaves) and replaying to the end.
//
// Every resume leg is required to reproduce the uninterrupted run's
// makespan exactly — a divergence fails the benchmark. Output is one
// JSON object with the commit, build type and hardware_concurrency; the
// repo snapshot lives in BENCH_durability.json.
//
// Set DMCC_FAULT_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "SourceCommit.h"
#include "frontend/Parser.h"
#include "sim/Simulator.h"
#include "support/StableStore.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unistd.h>

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

SimOptions simOpts(IntT N, CheckpointOptions CK) {
  SimOptions SO;
  SO.PhysGrid = {4};
  SO.ParamValues = {{"N", N}};
  SO.Functional = true;
  SO.Checkpoint = CK;
  return SO;
}

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch())
      .count();
}

void removeDir(const std::string &Dir) {
  for (const std::string &F : stable::listFiles(Dir, "", ""))
    ::unlink((Dir + "/" + F).c_str());
  ::rmdir(Dir.c_str());
}

uint64_t dirBytes(const std::string &Dir, unsigned &Files) {
  uint64_t Total = 0;
  Files = 0;
  for (const std::string &F :
       stable::listFiles(Dir, "ckpt-", ".dmc")) {
    FILE *Fp = std::fopen((Dir + "/" + F).c_str(), "rb");
    if (!Fp)
      continue;
    std::fseek(Fp, 0, SEEK_END);
    Total += static_cast<uint64_t>(std::ftell(Fp));
    std::fclose(Fp);
    ++Files;
  }
  return Total;
}

} // namespace

int main() {
  bool Small = std::getenv("DMCC_FAULT_BENCH_SMALL") != nullptr;
  const IntT N = Small ? 24 : 48;

  Program P = parseProgramOrDie(LUSource);
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompiledProgram CP = compile(P, Spec);

  char Template[] = "/tmp/dmcc-bench-durable-XXXXXX";
  std::string Root = mkdtemp(Template);
  if (Root.empty()) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  const uint64_t Intervals[] = {Small ? 100u : 500u,
                                Small ? 400u : 2000u,
                                Small ? 1600u : 8000u};
  const size_t NumIntervals = sizeof(Intervals) / sizeof(Intervals[0]);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"durable_checkpoint\",\n");
  std::printf("  \"case\": \"lu\",\n");
  std::printf("  \"n\": %lld,\n  \"procs\": 4,\n",
              static_cast<long long>(N));
  std::printf("  \"commit\": \"%s\",\n", sourceCommit().c_str());
  std::printf("  \"build_type\": \"%s\",\n", DMCC_BUILD_TYPE);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");

  int Rc = 0;
  for (size_t I = 0; I != NumIntervals && Rc == 0; ++I) {
    CheckpointOptions CK;
    CK.IntervalSteps = Intervals[I];

    // Leg 1: in-memory checkpoints only.
    double T0 = now();
    SimResult Mem = Simulator(P, CP, Spec, simOpts(N, CK)).run();
    double MemWall = now() - T0;
    if (!Mem.Ok) {
      std::fprintf(stderr, "in-memory leg failed: %s\n",
                   Mem.Error.c_str());
      Rc = 1;
      break;
    }

    // Leg 2: the same schedule with every image fsynced to disk.
    std::string Dir =
        Root + "/full-" + std::to_string(CK.IntervalSteps);
    CK.DurableDir = Dir;
    T0 = now();
    SimResult Dur = Simulator(P, CP, Spec, simOpts(N, CK)).run();
    double DurWall = now() - T0;
    unsigned Files = 0;
    uint64_t Bytes = dirBytes(Dir, Files);
    if (!Dur.Ok || Dur.MakespanSeconds != Mem.MakespanSeconds) {
      std::fprintf(stderr, "durable leg diverged from in-memory\n");
      Rc = 1;
      break;
    }

    // Leg 3: resume from a half-prefix of the images (a mid-run kill).
    std::string Cut =
        Root + "/cut-" + std::to_string(CK.IntervalSteps);
    std::string Err;
    if (!stable::ensureDir(Cut, Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      Rc = 1;
      break;
    }
    std::vector<std::string> Imgs =
        stable::listFiles(Dir, "ckpt-", ".dmc");
    for (size_t K = 0; K != Imgs.size() / 2; ++K) {
      stable::ReadFramesResult RF =
          stable::readFrames(Dir + "/" + Imgs[K]);
      std::vector<uint8_t> Raw;
      for (const stable::Frame &Fr : RF.Frames) {
        std::vector<uint8_t> E = stable::encodeFrame(Fr.Type, Fr.Payload);
        Raw.insert(Raw.end(), E.begin(), E.end());
      }
      if (!stable::atomicWriteFile(Cut + "/" + Imgs[K], Raw, Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        Rc = 1;
        break;
      }
    }
    CK.DurableDir = Cut;
    CK.Resume = true;
    T0 = now();
    Simulator Res(P, CP, Spec, simOpts(N, CK));
    SimResult RRes = Res.run();
    double ResWall = now() - T0;
    if (!RRes.Ok || RRes.MakespanSeconds != Dur.MakespanSeconds) {
      std::fprintf(stderr, "resume leg is NOT bit-identical\n");
      Rc = 1;
      break;
    }

    std::printf(
        "    {\"interval_steps\": %llu,\n"
        "      \"in_memory_wall_seconds\": %.4f,\n"
        "      \"durable_wall_seconds\": %.4f,\n"
        "      \"durable_overhead\": %.3f,\n"
        "      \"checkpoint_files\": %u, \"checkpoint_bytes\": %llu,\n"
        "      \"resume_wall_seconds\": %.4f,\n"
        "      \"resumed_at_events\": %llu, \"total_events\": %llu}%s\n",
        static_cast<unsigned long long>(CK.IntervalSteps), MemWall,
        DurWall, MemWall > 0 ? DurWall / MemWall : 0.0, Files,
        static_cast<unsigned long long>(Bytes), ResWall,
        static_cast<unsigned long long>(
            Res.resumeInfo().ResumedAtEvents),
        static_cast<unsigned long long>(RRes.TotalEvents),
        I + 1 != NumIntervals ? "," : "");

    removeDir(Cut);
    removeDir(Dir);
  }

  removeDir(Root);
  if (Rc)
    return Rc;
  std::printf("  ],\n");
  std::printf("  \"notes\": \"durable legs fsync one CRC-framed image "
              "per checkpoint via temp+rename; every resume leg "
              "restored a half-prefix kill and reproduced the "
              "uninterrupted makespan exactly\"\n");
  std::printf("}\n");
  return 0;
}
