//===- tests/sim/DurableCheckpointTest.cpp --------------------*- C++ -*-===//
//
// The durable-checkpoint layer (DESIGN.md §13): CRC-framed stable-store
// primitives, and the kill/resume differential — a run restored from
// the newest intact on-disk checkpoint must finish bit-identical to the
// uninterrupted run, under clean, lossy, crash-recovery and threaded
// schedules, with torn or bit-flipped images and images whose store
// entries name no real array element detected and skipped. The image
// bytes themselves are pinned by CRC, so the format cannot drift.
//
//===----------------------------------------------------------------------===//

#include "SimLegs.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"
#include "support/StableStore.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <optional>
#include <sys/stat.h>
#include <unistd.h>

using namespace dmcc;

namespace {

/// The largest single request to operator new while Tracking is set.
/// An untrusted index that sized a store window would show up here
/// directly; peak RSS would also count allocator caching (ASan keeps
/// freed memory in quarantine), so it cannot be bounded tightly.
std::atomic<bool> Tracking{false};
std::atomic<size_t> LargestAlloc{0};

void *countedAlloc(std::size_t Size) noexcept {
  if (Tracking.load(std::memory_order_relaxed)) {
    size_t Prev = LargestAlloc.load(std::memory_order_relaxed);
    while (Size > Prev && !LargestAlloc.compare_exchange_weak(Prev, Size))
      ;
  }
  return std::malloc(Size ? Size : 1);
}

} // namespace

// Every unaligned form is replaced, so that memory from any of them is
// released by the matching free() (sanitizers check the pairing).
void *operator new(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
// Out of line, so the compiler does not pair the free() with a new
// expression at the call site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P,
                                         const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

Program lu() {
  return parseProgramOrDie(R"(
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
)");
}

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

/// A scratch directory deleted (recursively, one level) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/dmcc-durable-XXXXXX";
    Path = mkdtemp(Buf);
    EXPECT_FALSE(Path.empty());
  }
  ~TempDir() {
    for (const std::string &F :
         stable::listFiles(Path, "", ""))
      ::unlink((Path + "/" + F).c_str());
    ::rmdir(Path.c_str());
  }
};

std::vector<uint8_t> slurp(const std::string &Path) {
  std::vector<uint8_t> Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  std::fclose(F);
  return Out;
}

void spit(const std::string &Path, const std::vector<uint8_t> &Data) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fclose(F);
}

/// Copies the first \p Keep checkpoint files of \p From into \p To —
/// the on-disk state a SIGKILL mid-run would have left behind.
unsigned copyPrefix(const std::string &From, const std::string &To,
                    unsigned Keep) {
  std::vector<std::string> Files =
      stable::listFiles(From, "ckpt-", ".dmc");
  unsigned Copied = 0;
  for (const std::string &F : Files) {
    if (Copied == Keep)
      break;
    spit(To + "/" + F, slurp(From + "/" + F));
    ++Copied;
  }
  return Copied;
}

SimOptions opts(std::map<std::string, IntT> Params, FaultOptions Faults,
                CheckpointOptions Checkpoint, unsigned Threads = 1) {
  SimOptions SO;
  SO.PhysGrid = {4};
  SO.ParamValues = std::move(Params);
  SO.Functional = true;
  SO.CollapseLoops = false;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  SO.Threads = Threads;
  return SO;
}

/// The fixture the kill/resume differentials share: one compiled LU.
struct DurableEnv {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};

  /// Runs the schedule durably to completion in Ref, keeps only a
  /// prefix of the images (the kill), resumes from the prefix and
  /// checks the resumed run against the uninterrupted one.
  void killResume(FaultOptions F, unsigned Threads) {
    CheckpointOptions CK;
    CK.IntervalSteps = 100;
    TempDir Ref, Cut;
    CK.DurableDir = Ref.Path;
    Simulator Full(P, CP, Spec, opts(Pv, F, CK, Threads));
    SimResult RFull = Full.run();
    ASSERT_TRUE(RFull.Ok) << RFull.Error;

    unsigned Files =
        stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
    ASSERT_GE(Files, 4u) << "schedule too short to cut";
    ASSERT_EQ(copyPrefix(Ref.Path, Cut.Path, Files / 2), Files / 2);

    CK.DurableDir = Cut.Path;
    CK.Resume = true;
    Simulator Res(P, CP, Spec, opts(Pv, F, CK, Threads));
    SimResult RRes = Res.run();
    ASSERT_TRUE(RRes.Ok) << RRes.Error;
    const DurableResumeInfo &RI = Res.resumeInfo();
    EXPECT_TRUE(RI.Attempted);
    EXPECT_TRUE(RI.Resumed);
    EXPECT_GT(RI.ResumedAtEvents, 0u);
    EXPECT_EQ(RI.CorruptSkipped, 0u);
    EXPECT_EQ(RFull, RRes);
    std::vector<std::optional<double>> Elems =
        finalElems(P, Spec, Full, Pv);
    EXPECT_EQ(std::count(Elems.begin(), Elems.end(), std::nullopt), 0);
    EXPECT_EQ(finalElems(P, Spec, Res, Pv), Elems);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// StableStore primitives
//===----------------------------------------------------------------------===//

TEST(StableStore, Crc32MatchesTheReferenceVector) {
  EXPECT_EQ(stable::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(stable::crc32("", 0), 0u);
}

TEST(StableStore, ByteIoRoundTripsEveryPrimitiveBitExact) {
  stable::ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.i64(-42);
  W.f64(0.1); // not exactly representable: must round-trip by bits
  W.f64(-0.0);
  W.str("hello");
  stable::ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_EQ(R.f64(), 0.1);
  EXPECT_TRUE(std::signbit(R.f64()));
  EXPECT_EQ(R.str(), "hello");
  EXPECT_TRUE(R.atEnd());
}

TEST(StableStore, ReaderOverrunIsStickyNotUB) {
  stable::ByteWriter W;
  W.u32(7);
  stable::ByteReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // past the end: zero, flagged
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.str(), ""); // still failed, still no UB
  EXPECT_FALSE(R.atEnd());
}

TEST(StableStore, FramesRoundTripThroughAtomicWrite) {
  TempDir D;
  std::string Path = D.Path + "/frames.bin";
  stable::ByteWriter P1, P2;
  P1.str("first");
  P2.u64(99);
  std::vector<uint8_t> Bytes = stable::encodeFrame(1, P1.bytes());
  std::vector<uint8_t> F2 = stable::encodeFrame(2, P2.bytes());
  Bytes.insert(Bytes.end(), F2.begin(), F2.end());
  std::string Err;
  ASSERT_TRUE(stable::atomicWriteFile(Path, Bytes, Err)) << Err;

  stable::ReadFramesResult RF = stable::readFrames(Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  ASSERT_EQ(RF.Frames.size(), 2u);
  EXPECT_EQ(RF.Frames[0].Type, 1u);
  EXPECT_EQ(RF.Frames[1].Type, 2u);
  EXPECT_EQ(RF.ValidBytes, Bytes.size());
  stable::ByteReader R(RF.Frames[0].Payload);
  EXPECT_EQ(R.str(), "first");
}

TEST(StableStore, TornTailIsDroppedAndTruncationPointReported) {
  TempDir D;
  std::string Path = D.Path + "/torn.bin";
  stable::ByteWriter P1, P2;
  P1.u64(1);
  P2.u64(2);
  std::vector<uint8_t> Whole = stable::encodeFrame(1, P1.bytes());
  size_t FirstLen = Whole.size();
  std::vector<uint8_t> F2 = stable::encodeFrame(1, P2.bytes());
  Whole.insert(Whole.end(), F2.begin(), F2.end());
  // A crash mid-append: the second frame loses its last 5 bytes.
  Whole.resize(Whole.size() - 5);
  spit(Path, Whole);

  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.Error.empty()) << RF.Error;
  EXPECT_TRUE(RF.TornTail);
  ASSERT_EQ(RF.Frames.size(), 1u);
  EXPECT_EQ(RF.ValidBytes, FirstLen);
}

TEST(StableStore, BitFlipFailsTheCrcAndKillsTheFrame) {
  TempDir D;
  std::string Path = D.Path + "/flip.bin";
  stable::ByteWriter P1;
  P1.str("payload worth protecting");
  std::vector<uint8_t> Bytes = stable::encodeFrame(7, P1.bytes());
  Bytes.back() ^= 0x40; // damage one payload bit
  spit(Path, Bytes);

  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.TornTail);
  EXPECT_TRUE(RF.Frames.empty());
  EXPECT_EQ(RF.ValidBytes, 0u);
}

TEST(StableStore, JournalAppendsSurviveAndTornTailIsCutOnReopen) {
  TempDir D;
  std::string Path = D.Path + "/journal.bin";
  std::string Err;
  stable::JournalWriter J;
  ASSERT_TRUE(J.open(Path, 0, Err)) << Err;
  stable::ByteWriter P1, P2;
  P1.u64(11);
  P2.u64(22);
  ASSERT_TRUE(J.append(1, P1.bytes(), Err)) << Err;
  ASSERT_TRUE(J.append(1, P2.bytes(), Err)) << Err;
  J.close();

  // Tear the tail like a SIGKILL mid-append would.
  std::vector<uint8_t> Bytes = slurp(Path);
  Bytes.resize(Bytes.size() - 3);
  spit(Path, Bytes);
  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.TornTail);
  ASSERT_EQ(RF.Frames.size(), 1u);

  // Reopen at the valid prefix and append again: fully intact, the
  // re-appended record replacing the torn one.
  ASSERT_TRUE(J.open(Path, RF.ValidBytes, Err)) << Err;
  ASSERT_TRUE(J.append(1, P2.bytes(), Err)) << Err;
  J.close();
  RF = stable::readFrames(Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  ASSERT_EQ(RF.Frames.size(), 2u);
  stable::ByteReader R(RF.Frames[1].Payload);
  EXPECT_EQ(R.u64(), 22u);
}

TEST(StableStore, MissingFileReadsAsErrorNotCrash) {
  stable::ReadFramesResult RF =
      stable::readFrames("/tmp/dmcc-definitely-not-there.bin");
  EXPECT_FALSE(RF.Error.empty());
  EXPECT_TRUE(RF.Frames.empty());
}

//===----------------------------------------------------------------------===//
// Kill/resume differentials
//===----------------------------------------------------------------------===//

TEST(DurableCheckpoint, DurableModeDoesNotPerturbTheSimulation) {
  // Persisting images is host-side I/O: the simulated telemetry must be
  // byte-for-byte what the in-memory checkpoint run reports.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  Simulator InMem(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult A = InMem.run();
  ASSERT_TRUE(A.Ok) << A.Error;

  TempDir D;
  CK.DurableDir = D.Path;
  Simulator Dur(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult B = Dur.run();
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A, B);
  EXPECT_EQ(stable::listFiles(D.Path, "ckpt-", ".dmc").size(),
            A.Recovery.CheckpointsTaken);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalClean) {
  DurableEnv E;
  E.killResume({}, /*Threads=*/1);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalLossy) {
  DurableEnv E;
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.DupRate = 0.02;
  E.killResume(F, /*Threads=*/1);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalCrashed) {
  DurableEnv E;
  FaultOptions F;
  F.CrashRate = 1e-3;
  F.CrashSeed = 7;
  E.killResume(F, /*Threads=*/1);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalThreaded) {
  DurableEnv E;
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.CrashRate = 1e-3;
  F.CrashSeed = 7;
  E.killResume(F, /*Threads=*/2);
}

TEST(DurableCheckpoint, TornNewestImageIsSkippedOnResume) {
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir Ref, Cut;
  CK.DurableDir = Ref.Path;
  Simulator Full(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFull = Full.run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  unsigned Files = stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
  ASSERT_GE(Files, 4u);
  copyPrefix(Ref.Path, Cut.Path, Files / 2);

  // The newest surviving image is torn mid-write (truncated) — the
  // resume must fall back to its predecessor, still bit-identical.
  std::vector<std::string> Kept =
      stable::listFiles(Cut.Path, "ckpt-", ".dmc");
  std::string Newest = Cut.Path + "/" + Kept.back();
  std::vector<uint8_t> Bytes = slurp(Newest);
  Bytes.resize(Bytes.size() / 2);
  spit(Newest, Bytes);

  CK.DurableDir = Cut.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().CorruptSkipped, 1u);
  EXPECT_EQ(RFull, RRes);
}

TEST(DurableCheckpoint, BitFlippedImageIsSkippedOnResume) {
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir Ref, Cut;
  CK.DurableDir = Ref.Path;
  Simulator Full(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFull = Full.run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  unsigned Files = stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
  ASSERT_GE(Files, 4u);
  copyPrefix(Ref.Path, Cut.Path, Files / 2);

  std::vector<std::string> Kept =
      stable::listFiles(Cut.Path, "ckpt-", ".dmc");
  std::string Newest = Cut.Path + "/" + Kept.back();
  std::vector<uint8_t> Bytes = slurp(Newest);
  Bytes[Bytes.size() / 2] ^= 0x01; // silent media corruption
  spit(Newest, Bytes);

  CK.DurableDir = Cut.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().CorruptSkipped, 1u);
  EXPECT_EQ(RFull, RRes);
}

TEST(DurableCheckpoint, OutOfRangeStoreEntryIsSkippedOnResume) {
  // CRC-valid images whose store entries lie: an element far outside
  // the array (Flat = 2^40), an array that does not exist, and a key
  // repeated. Each must be treated like a torn image — skipped, the run
  // starting fresh — and no untrusted index may size an allocation.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir Ref;
  CK.DurableDir = Ref.Path;
  Simulator Full(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFull = Full.run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  std::vector<std::string> Files =
      stable::listFiles(Ref.Path, "ckpt-", ".dmc");
  ASSERT_FALSE(Files.empty());
  // The step-0 image holds the initial layout, so X[1][5] (flat 30) and
  // X[1][6] (flat 31) are stored with their initial values, adjacent.
  stable::ReadFramesResult RF =
      stable::readFrames(Ref.Path + "/" + Files.front());
  ASSERT_EQ(RF.Frames.size(), 1u);
  auto Entry = [](uint32_t ArrayId, int64_t Flat, double Val) {
    stable::ByteWriter W;
    W.u32(ArrayId);
    W.i64(Flat);
    W.f64(Val);
    return W.take();
  };
  const std::vector<uint8_t> &Img = RF.Frames[0].Payload;
  std::vector<uint8_t> Orig = Entry(0, 31, initialArrayValue(0, 31));
  auto At = std::search(Img.begin(), Img.end(), Orig.begin(), Orig.end());
  ASSERT_NE(At, Img.end()) << "X[1][6] not found in the step-0 image";
  const size_t Off = At - Img.begin();
  const std::vector<uint8_t> Tampered[] = {
      Entry(0, int64_t(1) << 40, initialArrayValue(0, 31)),
      Entry(7, 31, initialArrayValue(0, 31)),
      Entry(0, 30, initialArrayValue(0, 31)),
  };
  for (const std::vector<uint8_t> &Bad : Tampered) {
    std::vector<uint8_t> Payload = Img;
    std::copy(Bad.begin(), Bad.end(), Payload.begin() + Off);
    TempDir Cut;
    spit(Cut.Path + "/" + Files.front(),
         stable::encodeFrame(RF.Frames[0].Type, Payload));

    CheckpointOptions Res = CK;
    Res.DurableDir = Cut.Path;
    Res.Resume = true;
    LargestAlloc = 0;
    Tracking = true;
    Simulator Sim(E.P, E.CP, E.Spec, opts(E.Pv, {}, Res));
    SimResult R = Sim.run();
    Tracking = false;
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(Sim.resumeInfo().FilesSeen, 1u);
    EXPECT_EQ(Sim.resumeInfo().CorruptSkipped, 1u);
    EXPECT_FALSE(Sim.resumeInfo().Resumed);
    EXPECT_LT(LargestAlloc.load(), size_t(1) << 20)
        << "largest single allocation (bytes)";
    EXPECT_EQ(RFull, R);
  }
}

namespace {

/// File name and CRC-32 of one durable image.
struct PinnedImage {
  std::string Name;
  uint32_t Crc;
};

/// Every image in \p Dir with the CRC-32 of its whole file, in name
/// order.
std::vector<PinnedImage> imageCrcs(const std::string &Dir) {
  std::vector<PinnedImage> Out;
  for (const std::string &F : stable::listFiles(Dir, "ckpt-", ".dmc")) {
    std::vector<uint8_t> Bytes = slurp(Dir + "/" + F);
    Out.push_back({F, stable::crc32(Bytes.data(), Bytes.size())});
  }
  return Out;
}

/// Compares the images in \p Dir against \p Want; on a mismatch, prints
/// the actual table in the source form of \p Want.
void expectPinned(const std::string &Dir,
                  const std::vector<PinnedImage> &Want) {
  std::vector<PinnedImage> Got = imageCrcs(Dir);
  bool Same = Got.size() == Want.size();
  for (size_t I = 0; Same && I != Got.size(); ++I)
    Same = Got[I].Name == Want[I].Name && Got[I].Crc == Want[I].Crc;
  if (Same)
    return;
  std::string Table;
  for (const PinnedImage &G : Got) {
    char Line[96];
    std::snprintf(Line, sizeof(Line), "      {\"%s\", 0x%08Xu},\n",
                  G.Name.c_str(), G.Crc);
    Table += Line;
  }
  ADD_FAILURE() << "durable images differ from the pinned table; "
                << Got.size() << " image(s) written:\n"
                << Table;
}

} // namespace

TEST(DurableCheckpoint, ImageBytesArePinned) {
  // The image layout is a format (version 1): the same run must write
  // the same bytes. A lossy crashing functional run covers queues,
  // transport cursors, failures and crash history across a rollback; a
  // performance-mode run with early sends covers a busy NIC.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 1500;
  {
    FaultOptions F;
    F.Seed = 42;
    F.DropRate = 0.05;
    F.CrashRate = 1e-3;
    F.CrashSeed = 7;
    TempDir D;
    CK.DurableDir = D.Path;
    SimResult R = Simulator(E.P, E.CP, E.Spec, opts(E.Pv, F, CK)).run();
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_GE(R.Recovery.Rollbacks, 1u);
    expectPinned(D.Path, {
      {"ckpt-00000000000000000000.dmc", 0xE6BC6068u},
      {"ckpt-00000000000000003000.dmc", 0x81F3A8E2u},
      {"ckpt-00000000000000006000.dmc", 0x45AA8776u},
      {"ckpt-00000000000000009000.dmc", 0x718EBDD3u},
      {"ckpt-00000000000000010500.dmc", 0x34D63600u},
      {"ckpt-00000000000000013500.dmc", 0x22801FC6u},
    });
  }
  {
    CompilerOptions CO;
    CO.EarlySends = true;
    CompiledProgram Early = compile(E.P, E.Spec, CO);
    TempDir D;
    CK.DurableDir = D.Path;
    SimOptions SO = opts(E.Pv, {}, CK);
    SO.Functional = false;
    SimResult R = Simulator(E.P, Early, E.Spec, SO).run();
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_GT(R.EarlySends, 0u);
    expectPinned(D.Path, {
      {"ckpt-00000000000000000000.dmc", 0xC1A960ECu},
      {"ckpt-00000000000000001500.dmc", 0x6E20AA25u},
      {"ckpt-00000000000000003000.dmc", 0x9753EC95u},
      {"ckpt-00000000000000004500.dmc", 0xF6114600u},
      {"ckpt-00000000000000006000.dmc", 0xBA80874Au},
      {"ckpt-00000000000000007500.dmc", 0x6E601ABFu},
    });
  }
}

TEST(DurableCheckpoint, ResumeFromEachImageRewritesLaterImagesIdentically) {
  // The kill-resume tests compare results and final arrays. This one
  // compares every later image byte for byte, so a field that an image
  // carries but a resume fails to restore (a busy bucket, the crash log,
  // the per-physical checkpoint words) cannot slip through.
  DurableEnv E;
  CompilerOptions CO;
  CO.EarlySends = true;
  CompiledProgram Early = compile(E.P, E.Spec, CO);
  FaultOptions Lossy;
  Lossy.Seed = 42;
  Lossy.DropRate = 0.05;
  Lossy.CrashRate = 1e-3;
  Lossy.CrashSeed = 7;
  struct Leg {
    const CompiledProgram &CP;
    FaultOptions F;
    bool Functional;
  };
  for (const Leg &L : {Leg{E.CP, Lossy, true}, Leg{Early, {}, false}}) {
    CheckpointOptions CK;
    CK.IntervalSteps = 1500;
    TempDir Ref;
    CK.DurableDir = Ref.Path;
    SimOptions SO = opts(E.Pv, L.F, CK);
    SO.Functional = L.Functional;
    SimResult RFull = Simulator(E.P, L.CP, E.Spec, SO).run();
    ASSERT_TRUE(RFull.Ok) << RFull.Error;
    std::vector<std::string> Files =
        stable::listFiles(Ref.Path, "ckpt-", ".dmc");
    ASSERT_GE(Files.size(), 4u);
    for (size_t K = 0; K != Files.size(); ++K) {
      TempDir Cut;
      spit(Cut.Path + "/" + Files[K], slurp(Ref.Path + "/" + Files[K]));
      SO.Checkpoint.DurableDir = Cut.Path;
      SO.Checkpoint.Resume = true;
      Simulator Res(E.P, L.CP, E.Spec, SO);
      SimResult RRes = Res.run();
      ASSERT_TRUE(RRes.Ok) << RRes.Error;
      ASSERT_TRUE(Res.resumeInfo().Resumed) << Files[K];
      std::vector<std::string> Written =
          stable::listFiles(Cut.Path, "ckpt-", ".dmc");
      EXPECT_EQ(Written,
                std::vector<std::string>(Files.begin() + K, Files.end()))
          << "resumed from " << Files[K];
      for (const std::string &F : Written)
        EXPECT_TRUE(slurp(Cut.Path + "/" + F) == slurp(Ref.Path + "/" + F))
            << F << " differs after resuming from " << Files[K];
    }
  }
}

namespace {

/// Byte offsets of a few sections of a version-1 image payload, found by
/// walking the layout (DESIGN.md §13) independently of the simulator.
struct ImageOffsets {
  uint64_t NumPhys = 0;
  size_t CrashLog = 0; ///< the crash-event count
  size_t Burst0 = 0;   ///< processor 0's BurstPhys count
  size_t Queues = 0;   ///< the queue count
  size_t SendSeq = 0;  ///< the SendSeq entry count
};

ImageOffsets walkImage(const std::vector<uint8_t> &Img) {
  stable::ByteReader R(Img);
  ImageOffsets O;
  auto At = [&] { return Img.size() - R.remaining(); };
  auto Skip = [&](uint64_t Bytes) {
    for (uint64_t I = 0; I != Bytes && R.ok(); ++I)
      R.u8();
  };
  auto Vec = [&] { Skip(8 * R.u64()); };
  R.u32(); // version
  uint64_t NProcs = R.u64();
  O.NumPhys = R.u64();
  R.u32(); // grid dimensions
  Vec();   // parameter values
  Skip(8 * (1 + 15 + 5 + 1)); // events, counters, recovery totals
  for (int I = 0; I != 8; ++I)
    Vec(); // clocks, busy buckets, NIC
  Skip(NProcs); // spent crash budgets
  O.CrashLog = At();
  for (uint64_t N = R.u64(); N-- && R.ok();) {
    Vec();
    Skip(4 + 8 + 8);
  }
  for (uint64_t N = R.u64(); N-- && R.ok();) {
    Skip(4);
    Vec();
    Vec();
    Skip(8 + 4);
  }
  Vec(); // checkpoint words per physical processor
  for (uint64_t I = 0; I != NProcs && R.ok(); ++I) {
    Vec();              // Env
    Vec();              // ProgEnv
    Skip(25 * R.u64()); // frames
    Skip(1 + 8);        // Finished, Steps
    Skip(20 * R.u64()); // store entries
    Skip(8);            // LastMulticastComm
    if (I == 0)
      O.Burst0 = At();
    Skip(4 * R.u64()); // BurstPhys
    Skip(8 + 8);       // BurstReady, CachedPackComm
    Vec();             // cached payload
    Skip(8);           // CachedCount
  }
  O.Queues = At();
  for (uint64_t N = R.u64(); N-- && R.ok();) {
    Vec(); // key
    for (uint64_t M = R.u64(); M-- && R.ok();) {
      Vec(); // payload
      Skip(8 + 8 + 1 + 8);
    }
  }
  O.SendSeq = At();
  EXPECT_TRUE(R.ok());
  return O;
}

uint64_t getU64(const std::vector<uint8_t> &B, size_t Off) {
  stable::ByteReader R(B.data() + Off, B.size() - Off);
  return R.u64();
}

void putU64(std::vector<uint8_t> &B, size_t Off, uint64_t V) {
  stable::ByteWriter W;
  W.u64(V);
  std::copy(W.bytes().begin(), W.bytes().end(), B.begin() + Off);
}

/// Cuts the first key of the map whose count sits at \p Off (a queue or
/// sequence map) from 1 + 2 * GridDims coordinates to one.
void cutFirstKey(std::vector<uint8_t> &B, size_t Off) {
  ASSERT_GT(getU64(B, Off), 0u);
  ASSERT_EQ(getU64(B, Off + 8), 3u) << "a 1-D grid key is (comm, src, dst)";
  putU64(B, Off + 8, 1);
  B.erase(B.begin() + Off + 24, B.begin() + Off + 40);
}

/// Inserts \p Bytes after the count at \p Off and bumps the count.
void insertEntry(std::vector<uint8_t> &B, size_t Off,
                 const std::vector<uint8_t> &Bytes) {
  putU64(B, Off, getU64(B, Off) + 1);
  B.insert(B.begin() + Off + 8, Bytes.begin(), Bytes.end());
}

std::vector<uint8_t> crashEvent(std::vector<int64_t> Coord, uint32_t Phys) {
  stable::ByteWriter W;
  W.u64(Coord.size());
  for (int64_t C : Coord)
    W.i64(C);
  W.u32(Phys);
  W.u64(0);
  W.f64(0);
  return W.take();
}

std::vector<uint8_t> u32Bytes(uint32_t V) {
  stable::ByteWriter W;
  W.u32(V);
  return W.take();
}

/// Resumes from \p Payload, re-framed so its CRC is valid, as the only
/// image of a fresh directory. Returns whether the image was restored;
/// a skipped image must leave a fresh run identical to \p Fresh.
bool resumesFrom(DurableEnv &E, const SimOptions &Base,
                 const std::string &Name, const std::vector<uint8_t> &Payload,
                 const SimResult &Fresh) {
  TempDir Cut;
  constexpr uint32_t CkptFrameType = 0x434B5054u; // "CKPT"
  spit(Cut.Path + "/" + Name, stable::encodeFrame(CkptFrameType, Payload));
  SimOptions SO = Base;
  SO.Checkpoint.DurableDir = Cut.Path;
  SO.Checkpoint.Resume = true;
  Simulator Sim(E.P, E.CP, E.Spec, SO);
  SimResult R = Sim.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Sim.resumeInfo().FilesSeen, 1u);
  if (Sim.resumeInfo().Resumed)
    return true;
  EXPECT_EQ(Sim.resumeInfo().CorruptSkipped, 1u);
  EXPECT_EQ(Fresh, R);
  return false;
}

} // namespace

TEST(DurableCheckpoint, MalformedChannelKeyIsSkippedOnResume) {
  // A CRC-valid image from a lossy run whose first queue key (and, in a
  // second case, first SendSeq key) is cut to one coordinate. The next
  // checkpoint reads the receiver coordinate off the tail of every queue
  // key, so such an image must be skipped like a torn one.
  DurableEnv E;
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.DupRate = 0.02;
  CheckpointOptions CK;
  CK.IntervalSteps = 1500;
  TempDir Ref;
  CK.DurableDir = Ref.Path;
  SimOptions SO = opts(E.Pv, F, CK);
  SimResult RFull = Simulator(E.P, E.CP, E.Spec, SO).run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  std::vector<std::string> Files =
      stable::listFiles(Ref.Path, "ckpt-", ".dmc");
  // The first image with a queued message that is not the last, so the
  // resumed run takes another checkpoint.
  for (size_t K = 0; K + 1 < Files.size(); ++K) {
    stable::ReadFramesResult RF = stable::readFrames(Ref.Path + "/" + Files[K]);
    ASSERT_EQ(RF.Frames.size(), 1u);
    const std::vector<uint8_t> &Img = RF.Frames[0].Payload;
    ImageOffsets O = walkImage(Img);
    if (getU64(Img, O.Queues) == 0)
      continue;
    EXPECT_TRUE(resumesFrom(E, SO, Files[K], Img, RFull));
    std::vector<uint8_t> Queue = Img, Send = Img;
    cutFirstKey(Queue, O.Queues);
    EXPECT_FALSE(resumesFrom(E, SO, Files[K], Queue, RFull));
    cutFirstKey(Send, O.SendSeq);
    EXPECT_FALSE(resumesFrom(E, SO, Files[K], Send, RFull));
    return;
  }
  FAIL() << "no image with a queued message";
}

TEST(DurableCheckpoint, OutOfGridChannelKeyIsSkippedOnResume) {
  // A CRC-valid image whose first queue key (or first SendSeq key)
  // names a sender or receiver coordinate outside the virtual grid
  // (0..24 for LU at N=24) is corrupt: no channel can connect such a
  // processor. The untampered image must resume, which shows the
  // offsets are right.
  DurableEnv E;
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.DupRate = 0.02;
  CheckpointOptions CK;
  CK.IntervalSteps = 1500;
  TempDir Ref;
  CK.DurableDir = Ref.Path;
  SimOptions SO = opts(E.Pv, F, CK);
  SimResult RFull = Simulator(E.P, E.CP, E.Spec, SO).run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  std::vector<std::string> Files =
      stable::listFiles(Ref.Path, "ckpt-", ".dmc");
  for (size_t K = 0; K + 1 < Files.size(); ++K) {
    stable::ReadFramesResult RF = stable::readFrames(Ref.Path + "/" + Files[K]);
    ASSERT_EQ(RF.Frames.size(), 1u);
    const std::vector<uint8_t> &Img = RF.Frames[0].Payload;
    ImageOffsets O = walkImage(Img);
    if (getU64(Img, O.Queues) == 0 || getU64(Img, O.SendSeq) == 0)
      continue;
    EXPECT_TRUE(resumesFrom(E, SO, Files[K], Img, RFull));
    // A 1-D key is (count 3, comm, src, dst). The first key of a section
    // follows its count; SendSeq entries are a key plus a cursor, 40
    // bytes each. Keys are in ascending order, so coordinates below the
    // grid go into a first key and coordinates above it into the last
    // SendSeq key: the order stays valid and only the grid check fails.
    ASSERT_EQ(getU64(Img, O.Queues + 8), 3u);
    ASSERT_EQ(getU64(Img, O.SendSeq + 8), 3u);
    const size_t LastSend = O.SendSeq + 8 + 40 * (getU64(Img, O.SendSeq) - 1);
    struct Tamper {
      size_t Key;
      int64_t Bad;
    };
    for (Tamper T :
         {Tamper{O.Queues + 8, -1}, Tamper{O.Queues + 8, -(1 << 20)},
          Tamper{O.SendSeq + 8, -1}, Tamper{LastSend, 25},
          Tamper{LastSend, int64_t(1) << 40}})
      for (size_t Coord : {T.Key + 16, T.Key + 24}) {
        std::vector<uint8_t> B = Img;
        putU64(B, Coord, static_cast<uint64_t>(T.Bad));
        EXPECT_FALSE(resumesFrom(E, SO, Files[K], B, RFull))
            << "coordinate " << T.Bad << " at offset " << Coord;
      }
    return;
  }
  FAIL() << "no image with a queued message and a send cursor";
}

TEST(DurableCheckpoint, OutOfRangePhysicalIndexIsSkippedOnResume) {
  // Physical indices and coordinates an image carries are checked
  // against the machine: a BurstPhys entry or a CrashEvent::Phys at or
  // beyond the physical processor count, or a crash coordinate of the
  // wrong arity, makes the image corrupt. An in-range entry inserted at
  // the same offset is accepted, which shows the offsets are right.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 1500;
  TempDir Ref;
  CK.DurableDir = Ref.Path;
  SimOptions SO = opts(E.Pv, {}, CK);
  SimResult RFull = Simulator(E.P, E.CP, E.Spec, SO).run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  std::vector<std::string> Files =
      stable::listFiles(Ref.Path, "ckpt-", ".dmc");
  ASSERT_GE(Files.size(), 2u);
  stable::ReadFramesResult RF = stable::readFrames(Ref.Path + "/" + Files[1]);
  ASSERT_EQ(RF.Frames.size(), 1u);
  const std::vector<uint8_t> &Img = RF.Frames[0].Payload;
  ImageOffsets O = walkImage(Img);
  ASSERT_EQ(O.NumPhys, 4u);
  const uint32_t Beyond = static_cast<uint32_t>(O.NumPhys);

  auto WithBurst = [&](uint32_t Phys) {
    std::vector<uint8_t> B = Img;
    insertEntry(B, O.Burst0, u32Bytes(Phys));
    return B;
  };
  EXPECT_TRUE(resumesFrom(E, SO, Files[1], WithBurst(Beyond - 1), RFull));
  EXPECT_FALSE(resumesFrom(E, SO, Files[1], WithBurst(Beyond), RFull));

  auto WithCrash = [&](std::vector<int64_t> Coord, uint32_t Phys) {
    std::vector<uint8_t> B = Img;
    insertEntry(B, O.CrashLog, crashEvent(std::move(Coord), Phys));
    return B;
  };
  EXPECT_TRUE(resumesFrom(E, SO, Files[1], WithCrash({1}, 1), RFull));
  EXPECT_FALSE(resumesFrom(E, SO, Files[1], WithCrash({1}, Beyond), RFull));
  EXPECT_FALSE(resumesFrom(E, SO, Files[1], WithCrash({1, 1}, 1), RFull));
}

TEST(DurableCheckpoint, EmptyDirectoryResumesAsAFreshRun) {
  // A kill/restart loop passes --resume unconditionally; before the
  // first image lands that must behave exactly like a fresh start.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir A, B;
  CK.DurableDir = A.Path;
  Simulator Fresh(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFresh = Fresh.run();
  ASSERT_TRUE(RFresh.Ok) << RFresh.Error;

  CK.DurableDir = B.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Attempted);
  EXPECT_FALSE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().FilesSeen, 0u);
  EXPECT_EQ(RFresh, RRes);
}
