//===- tests/workloads/WorkloadDiffTest.cpp -------------------*- C++ -*-===//
//
// Differential suite for the workload specs under examples/ (cholesky,
// 2-D and 3-D Jacobi, ADI, Floyd-Warshall). Every workload must be
//
//  - correct: the functional simulation agrees element-for-element with
//    the sequential interpreter AND the independent plain-C++ reference
//    kernels (examples/WorkloadKernels.h);
//  - engine-independent: the sequential round engine, the threaded
//    round engine and the discrete-event engine are bit-identical on
//    clean, lossy, hostile and crash/checkpoint schedules;
//  - overlap-safe: compiling with early sends changes no array element;
//  - robust under random schedules: the *Fuzz* slice pushes random
//    sizes and random enumerated decompositions through rounds-vs-event
//    under mixed hostile-network schedules (registered under the
//    `fuzz;workloads` labels; everything else is plain `workloads`).
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "decomp/Search.h"
#include "examples/WorkloadKernels.h"
#include "sim/Simulator.h"
#include "tests/sim/SimLegs.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dmcc;

namespace {

std::string repoPath(const std::string &Rel) {
  return std::string(DMCC_REPO_ROOT) + "/" + Rel;
}

/// One workload, parsed and compiled once per process (both early-send
/// settings); the five specs are shared across every test below.
struct Workload {
  SpecParseOutput SP;
  CompiledProgram CP;      // EarlySends off
  CompiledProgram CPEarly; // EarlySends on
  const Program &prog() const { return *SP.Prog; }
  const std::map<std::string, IntT> &params() const {
    return SP.ParamDefaults;
  }
};

const Workload &workload(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<Workload>> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return *It->second;
  auto W = std::make_unique<Workload>();
  std::ifstream In(repoPath("examples/" + Name + ".dm"));
  EXPECT_TRUE(In.good()) << "cannot open examples/" << Name << ".dm";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  W->SP = parseWithSpec(Buf.str());
  EXPECT_TRUE(W->SP.ok()) << Name << ": " << W->SP.Error;
  if (W->SP.ok()) {
    CompilerOptions Opts;
    W->CP = compile(*W->SP.Prog, W->SP.Spec, Opts);
    EXPECT_TRUE(W->CP.Ok) << Name << ": " << W->CP.ErrorMessage;
    Opts.EarlySends = true;
    W->CPEarly = compile(*W->SP.Prog, W->SP.Spec, Opts);
    EXPECT_TRUE(W->CPEarly.Ok) << Name << ": " << W->CPEarly.ErrorMessage;
  }
  return *Cache.emplace(Name, std::move(W)).first->second;
}

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional, SimEngine Engine, unsigned Threads = 1,
                FaultOptions Faults = {},
                CheckpointOptions Checkpoint = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  SO.Threads = Threads;
  SO.Engine = Engine;
  return SO;
}

/// Runs the same schedule under the sequential round engine, the event
/// engine and the 2-thread round engine; all legs must be identical.
void expectEnginesAgree(const Program &P, const CompiledProgram &CP,
                        const CompileSpec &Spec, IntT Procs,
                        const std::map<std::string, IntT> &Pv,
                        FaultOptions F, CheckpointOptions CK,
                        const std::string &Tag) {
  RunOut Seq = runLeg(P, CP, Spec,
                      opts(Procs, Pv, true, SimEngine::Rounds, 1, F, CK),
                      Pv);
  RunOut Evt = runLeg(P, CP, Spec,
                      opts(Procs, Pv, true, SimEngine::Event, 1, F, CK),
                      Pv);
  expectIdentical(Seq, Evt, Tag + " event-vs-seq");
  RunOut Thr = runLeg(P, CP, Spec,
                      opts(Procs, Pv, true, SimEngine::Rounds, 2, F, CK),
                      Pv);
  expectIdentical(Evt, Thr, Tag + " event-vs-threaded");
}

/// Expected array contents by independent reference kernel, keyed by
/// array id. Mirrors the table in examples/workload_suite.cpp.
std::map<unsigned, std::vector<double>>
referenceContents(const std::string &Name,
                  const std::map<std::string, IntT> &Pm) {
  using namespace dmcc::workloads;
  std::map<unsigned, std::vector<double>> Out;
  if (Name == "cholesky") {
    Out[0] = refCholesky(Pm.at("N"));
  } else if (Name == "jacobi2d") {
    auto AB = refJacobi2D(Pm.at("T"), Pm.at("N"));
    Out[0] = AB[0];
    Out[1] = AB[1];
  } else if (Name == "jacobi3d") {
    auto AB = refJacobi3D(Pm.at("N"));
    Out[0] = AB[0];
    Out[1] = AB[1];
  } else if (Name == "adi") {
    Out[0] = refADI(Pm.at("T"), Pm.at("N"));
  } else if (Name == "floyd") {
    Out[0] = refFloyd(Pm.at("N"));
  }
  return Out;
}

class WorkloadDiff : public ::testing::TestWithParam<const char *> {};

} // namespace

//===----------------------------------------------------------------------===//
// Correctness: simulator vs interpreter vs independent reference kernel
//===----------------------------------------------------------------------===//

TEST_P(WorkloadDiff, FunctionalRunMatchesInterpreterAndReference) {
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok);
  const Program &P = W.prog();
  const auto &Pv = W.params();

  Simulator Sim(P, W.CP, W.SP.Spec, opts(4, Pv, true, SimEngine::Rounds));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  SeqInterpreter Gold(P, Pv);
  Gold.run();
  std::map<unsigned, std::vector<double>> Refs =
      referenceContents(GetParam(), Pv);
  std::vector<IntT> Env = paramEnv(P, Pv);
  unsigned Checked = 0, BadSim = 0, BadRef = 0;
  for (const auto &[AId, FD] : W.SP.Spec.FinalData) {
    (void)FD;
    const std::vector<double> &Ref = Refs.at(AId);
    std::vector<double> Interp = Gold.arrayContents(AId);
    ASSERT_EQ(Interp.size(), Ref.size()) << "array " << AId;
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : P.array(AId).DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    size_t Flat = 0;
    bool Done = Sizes.empty();
    while (!Done) {
      ++Checked;
      std::optional<double> Got = Sim.finalValue(AId, Idx);
      if (!Got || *Got != Interp[Flat])
        ++BadSim;
      if (Interp[Flat] != Ref[Flat])
        ++BadRef;
      ++Flat;
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
  EXPECT_GT(Checked, 0u);
  EXPECT_EQ(BadSim, 0u) << "simulator vs interpreter";
  EXPECT_EQ(BadRef, 0u) << "interpreter vs reference kernel";
}

//===----------------------------------------------------------------------===//
// Cross-engine differentials: clean, lossy, hostile, crash/checkpoint
//===----------------------------------------------------------------------===//

TEST_P(WorkloadDiff, EnginesAgreeClean) {
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok);
  expectEnginesAgree(W.prog(), W.CP, W.SP.Spec, 4, W.params(), {}, {},
                     std::string(GetParam()) + "-clean");
}

TEST_P(WorkloadDiff, EnginesAgreeLossy) {
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok);
  for (uint64_t Seed : {1u, 2u}) {
    FaultOptions F;
    F.Seed = Seed;
    F.DropRate = 0.05;
    F.DupRate = 0.05;
    F.MaxDelaySeconds = 2e-4;
    F.MaxSlowdown = 1.5;
    RunOut Base =
        runLeg(W.prog(), W.CP, W.SP.Spec,
               opts(4, W.params(), true, SimEngine::Rounds, 1, F),
               W.params());
    ASSERT_TRUE(Base.R.Ok) << GetParam() << " seed " << Seed << ": "
                           << Base.R.Error;
    ASSERT_GT(Base.R.Messages, 0u)
        << GetParam() << " exchanges no messages; differential is vacuous";
    expectEnginesAgree(W.prog(), W.CP, W.SP.Spec, 4, W.params(), F, {},
                       std::string(GetParam()) + "-lossy seed=" +
                           std::to_string(Seed));
  }
}

TEST_P(WorkloadDiff, EnginesAgreeHostile) {
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok);
  FaultOptions F;
  F.Seed = 7;
  F.CorruptRate = 0.08;
  F.PartitionRate = 0.04;
  F.PartitionMaxOutage = 3;
  F.SlowLinkRate = 0.3;
  F.SlowLinkMaxFactor = 3.0;
  F.DropRate = 0.03;
  RunOut Base = runLeg(W.prog(), W.CP, W.SP.Spec,
                       opts(4, W.params(), true, SimEngine::Rounds, 1, F),
                       W.params());
  ASSERT_TRUE(Base.R.Ok) << GetParam() << ": " << Base.R.Error;
  expectEnginesAgree(W.prog(), W.CP, W.SP.Spec, 4, W.params(), F, {},
                     std::string(GetParam()) + "-hostile");
}

TEST_P(WorkloadDiff, EnginesAgreeUnderCrashRecovery) {
  // Crash + coordinated checkpoint/rollback. Each seed's schedule —
  // whether it crashes zero, one or more times — must replay
  // identically on every engine; across the seed set at least one
  // schedule must actually exercise recovery.
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok);
  uint64_t TotalCrashes = 0;
  for (uint64_t CrashSeed : {3u, 9u, 27u}) {
    FaultOptions F;
    F.CrashRate = 1e-3;
    F.CrashSeed = CrashSeed;
    CheckpointOptions CK;
    CK.IntervalSteps = 400;
    RunOut Base =
        runLeg(W.prog(), W.CP, W.SP.Spec,
               opts(4, W.params(), true, SimEngine::Rounds, 1, F, CK),
               W.params());
    ASSERT_TRUE(Base.R.Ok) << GetParam() << " seed " << CrashSeed << ": "
                           << Base.R.Error;
    TotalCrashes += Base.R.Crashes;
    expectEnginesAgree(W.prog(), W.CP, W.SP.Spec, 4, W.params(), F, CK,
                       std::string(GetParam()) + "-crash seed=" +
                           std::to_string(CrashSeed));
  }
  EXPECT_GE(TotalCrashes, 1u)
      << GetParam() << ": no seed crashed; raise CrashRate";
}

//===----------------------------------------------------------------------===//
// Overlap differential: early sends change no observable array element
//===----------------------------------------------------------------------===//

TEST_P(WorkloadDiff, EarlySendsPreserveEveryArrayElement) {
  const Workload &W = workload(GetParam());
  ASSERT_TRUE(W.SP.ok() && W.CP.Ok && W.CPEarly.Ok);
  RunOut Plain = runLeg(W.prog(), W.CP, W.SP.Spec,
                        opts(4, W.params(), true, SimEngine::Rounds),
                        W.params());
  RunOut Early = runLeg(W.prog(), W.CPEarly, W.SP.Spec,
                        opts(4, W.params(), true, SimEngine::Rounds),
                        W.params());
  ASSERT_TRUE(Plain.R.Ok) << Plain.R.Error;
  ASSERT_TRUE(Early.R.Ok) << Early.R.Error;
  ASSERT_EQ(Plain.Elems.size(), Early.Elems.size());
  unsigned Bad = 0;
  for (unsigned I = 0; I != Plain.Elems.size(); ++I)
    if (Plain.Elems[I] != Early.Elems[I])
      ++Bad;
  EXPECT_EQ(Bad, 0u) << GetParam()
                     << ": early sends changed array contents";
  // The early-send build must itself be engine-independent.
  expectEnginesAgree(W.prog(), W.CPEarly, W.SP.Spec, 4, W.params(), {},
                     {}, std::string(GetParam()) + "-early-clean");
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadDiff,
                         ::testing::Values("cholesky", "jacobi2d",
                                           "jacobi3d", "adi", "floyd"),
                         [](const ::testing::TestParamInfo<const char *>
                                &I) { return std::string(I.param); });

//===----------------------------------------------------------------------===//
// Fuzz slice: random sizes x random enumerated decompositions x mixed
// hostile schedules, rounds vs event vs threaded (labels fuzz;workloads)
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic splitmix64; the whole slice replays from its seed.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  IntT range(IntT Lo, IntT Hi) { // inclusive
    return Lo + static_cast<IntT>(next() % static_cast<uint64_t>(
                                      Hi - Lo + 1));
  }
  double unit() { return (next() >> 11) * 0x1p-53; }
};

} // namespace

TEST(WorkloadFuzz, RandomDecompositionsAgreeAcrossEnginesUnderHostileNet) {
  // Round-robin the five workloads; for each case draw random problem
  // sizes, enumerate the bounded decomposition space at those sizes,
  // pick a random candidate (possibly the hand-written hint), compile
  // it, draw a random hostile-network mix, and require the sequential,
  // threaded and event engines bit-identical.
  const char *Names[] = {"cholesky", "jacobi2d", "jacobi3d", "adi",
                         "floyd"};
  Rng R(0xD15C0u);
  unsigned Cases = 6;
  for (unsigned Case = 0; Case != Cases; ++Case) {
    const std::string Name = Names[Case % 5];
    const Workload &W = workload(Name);
    ASSERT_TRUE(W.SP.ok());

    std::map<std::string, IntT> Pv = W.params();
    if (Name == "cholesky")
      Pv["N"] = R.range(8, 16);
    else if (Name == "jacobi2d")
      Pv = {{"T", R.range(1, 3)}, {"N", R.range(8, 14)}};
    else if (Name == "jacobi3d")
      Pv["N"] = R.range(5, 7);
    else if (Name == "adi")
      Pv = {{"T", R.range(1, 2)}, {"N", R.range(8, 14)}};
    else
      Pv["N"] = R.range(6, 10);

    SearchOptions SO;
    SO.Procs = R.range(2, 4);
    SO.Params = Pv;
    std::vector<DecompCandidate> Cands =
        enumerateDecompositions(W.prog(), &W.SP.Spec, SO);
    ASSERT_FALSE(Cands.empty()) << Name;
    const DecompCandidate &Cand =
        Cands[static_cast<size_t>(R.next() % Cands.size())];
    CompiledProgram CP = compile(W.prog(), Cand.Spec, CompilerOptions());
    ASSERT_TRUE(CP.Ok) << Name << " " << Cand.Desc << ": "
                       << CP.ErrorMessage;

    FaultOptions F;
    F.Seed = R.next() % 1000;
    F.DropRate = 0.08 * R.unit();
    F.DupRate = 0.08 * R.unit();
    F.CorruptRate = 0.08 * R.unit();
    F.PartitionRate = 0.04 * R.unit();
    F.PartitionMaxOutage = 3;
    F.SlowLinkRate = 0.5 * R.unit();
    F.SlowLinkMaxFactor = 1.0 + 2.0 * R.unit();
    F.MaxDelaySeconds = 2e-4 * R.unit();
    F.MaxSlowdown = 1.0 + R.unit();

    std::string Tag = "fuzz case " + std::to_string(Case) + " " + Name +
                      " " + Cand.Desc + " P=" + std::to_string(SO.Procs) +
                      " seed=" + std::to_string(F.Seed);
    RunOut Base = runLeg(W.prog(), CP, Cand.Spec,
                         opts(SO.Procs, Pv, true, SimEngine::Rounds, 1, F),
                         Pv);
    ASSERT_TRUE(Base.R.Ok) << Tag << ": " << Base.R.Error;
    expectEnginesAgree(W.prog(), CP, Cand.Spec, SO.Procs, Pv, F, {}, Tag);
  }
}
