//===- sim/Simulator.cpp --------------------------------------*- C++ -*-===//

#include "sim/Simulator.h"

#include "ir/Interp.h"
#include "support/StableStore.h"

#include <algorithm>
#include <cstdio>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

using namespace dmcc;

namespace {

/// Checked parameter lookup: a missing binding is a usage error, not UB.
dmcc::IntT paramValue(const std::map<std::string, dmcc::IntT> &Params,
                      const std::string &Name) {
  auto It = Params.find(Name);
  if (It == Params.end()) {
    std::string Msg = "Simulator: missing value for parameter '" + Name +
                      "'";
    dmcc::fatalError(Msg.c_str());
  }
  return It->second;
}

/// A decomposition's source-space values with the parameters filled in
/// and zeros in the element-index slots.
std::vector<dmcc::IntT>
sourceParams(const Decomposition &D,
             const std::map<std::string, dmcc::IntT> &Params) {
  std::vector<dmcc::IntT> Src(D.sourceSpace().size(), 0);
  for (unsigned I = 0; I != D.sourceSpace().size(); ++I)
    if (D.sourceSpace().kind(I) == VarKind::Param)
      Src[I] = paramValue(Params, D.sourceSpace().name(I));
  return Src;
}

/// Number of floating-point operations in a statement's right-hand side.
unsigned countFlops(const Statement &S) {
  unsigned N = 0;
  for (const RVal &R : S.RPool)
    if (R.K == RVal::Kind::Add || R.K == RVal::Kind::Sub ||
        R.K == RVal::Kind::Mul || R.K == RVal::Kind::Div ||
        R.K == RVal::Kind::Select)
      ++N;
  return N;
}

/// A packed message payload. Immutable once packed, so a multicast
/// burst and every transport copy or duplicate of a message share one.
/// Null when there is nothing to carry (performance mode, empty bodies).
using Payload = std::shared_ptr<const std::vector<double>>;

Payload makePayload(std::vector<double> Data) {
  if (Data.empty())
    return nullptr;
  return std::make_shared<const std::vector<double>>(std::move(Data));
}

uint64_t payloadSize(const Payload &D) { return D ? D->size() : 0; }

std::string coordStr(const std::vector<IntT> &C) {
  std::string S = "(";
  for (unsigned I = 0; I != C.size(); ++I) {
    if (I)
      S += ",";
    S += std::to_string(C[I]);
  }
  S += ")";
  return S;
}

/// One virtual processor's local memory (paper Section 5.5; DESIGN.md
/// §16). Per array, a dense window over the flat range the processor
/// has touched so far, with a presence byte per slot: a slot is held
/// once the processor owned, wrote or received that element. A window
/// grows on demand (at least doubling, clamped to [0, array extent)),
/// so a store is O(touched range), not O(whole array).
class ValueStore {
public:
  ValueStore() = default;
  explicit ValueStore(unsigned NumArrays) : Windows(NumArrays) {}

  /// The held value of an element, or null when the processor does not
  /// hold it. \p Flat must lie in [0, extent).
  const double *find(unsigned ArrayId, IntT Flat) const {
    if (ArrayId >= Windows.size())
      return nullptr;
    const Window &W = Windows[ArrayId];
    IntT Off = Flat - W.Lo;
    if (Off < 0 || Off >= static_cast<IntT>(W.Has.size()) || !W.Has[Off])
      return nullptr;
    return &W.Vals[Off];
  }

  /// Stores an element; \p Flat must lie in [0, \p Extent).
  void set(unsigned ArrayId, IntT Flat, double Val, IntT Extent) {
    Window &W = Windows[ArrayId];
    IntT Size = static_cast<IntT>(W.Has.size());
    if (Size == 0 || Flat < W.Lo || Flat >= W.Lo + Size)
      grow(W, Flat, Extent);
    IntT Off = Flat - W.Lo;
    if (!W.Has[Off]) {
      W.Has[Off] = 1;
      ++Held;
    }
    W.Vals[Off] = Val;
  }

  /// Elements held (never window slots): the checkpoint footprint.
  uint64_t size() const { return Held; }

  /// Visits every held element in ascending (ArrayId, Flat) order.
  template <typename Fn> void forEach(Fn F) const {
    for (unsigned A = 0, E = Windows.size(); A != E; ++A) {
      const Window &W = Windows[A];
      for (size_t Off = 0, N = W.Has.size(); Off != N; ++Off)
        if (W.Has[Off])
          F(A, W.Lo + static_cast<IntT>(Off), W.Vals[Off]);
    }
  }

private:
  struct Window {
    IntT Lo = 0; ///< flat index of slot 0
    std::vector<double> Vals;
    std::vector<uint8_t> Has;
  };

  /// Re-windows \p W to cover \p Flat, growing toward it by at least the
  /// current size (amortized O(1) per stored element).
  static void grow(Window &W, IntT Flat, IntT Extent) {
    IntT Size = static_cast<IntT>(W.Has.size());
    IntT Lo = W.Lo, Hi = W.Lo + Size; // current window [Lo, Hi)
    if (Size == 0) {
      Lo = Flat;
      Hi = Flat + 1;
    } else if (Flat < Lo) {
      Lo = std::max<IntT>(0, std::min(Flat, Lo - Size));
    } else {
      Hi = std::max(Flat + 1, Hi + std::min(Size, Extent - Hi));
    }
    std::vector<double> Vals(static_cast<size_t>(Hi - Lo));
    std::vector<uint8_t> Has(static_cast<size_t>(Hi - Lo));
    std::copy(W.Vals.begin(), W.Vals.end(), Vals.begin() + (W.Lo - Lo));
    std::copy(W.Has.begin(), W.Has.end(), Has.begin() + (W.Lo - Lo));
    W.Lo = Lo;
    W.Vals.swap(Vals);
    W.Has.swap(Has);
  }

  std::vector<Window> Windows; ///< indexed by ArrayId
  uint64_t Held = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Internal structures
//===----------------------------------------------------------------------===//

struct Simulator::Message {
  Payload Data; ///< functional payload
  uint64_t WordCount = 0;
  double ReadyTime = 0;
  /// Multicast content is consumed directly from the communication
  /// buffer (Section 5.5), so the receiver pays no per-word copy.
  bool FromMulticast = false;
  /// Reliable-transport sequence number on this channel (0 when the
  /// transport is bypassed).
  uint64_t Seq = 0;
  /// Flat Procs index of the sender and the scheduler round of the push.
  /// The threaded engine's visibility rule reads both to reproduce the
  /// sequential engine's intra-round ordering: a current-round push is
  /// visible to a receiver only when the sender's processor index does
  /// not exceed the receiver's (the sequential scheduler would have run
  /// the sender's slice first). Ignored by the sequential engine.
  unsigned SenderId = 0;
  uint64_t PushRound = 0;
};

/// One directed channel (DESIGN.md §17): its receive queue and the
/// reliable transport's cursors (next sequence number to send and to
/// receive), plus presence bits. Each bit says whether the channel has
/// an entry in that part of the channel state: a queue from its first
/// push, a send cursor from its first transport send, a receive cursor
/// from its first transport send or transport receive attempt. The
/// durable image lists the entries that are present, an empty queue
/// or a zero cursor included. An absent part is empty or zero.
struct Simulator::Channel {
  std::vector<Message> Queue;
  uint64_t SendSeq = 0, RecvSeq = 0;
  ChanKey Key; // after the 8-byte fields: the record packs into 56 bytes
  bool HasQueue = false, HasSendSeq = false, HasRecvSeq = false;
};

/// A lowered loop bound: ceil(Num / Den) (lower) or floor (upper).
struct Simulator::ExecBound {
  LinearForm Num;
  IntT Den = 1;
};

/// A lowered guard: Expr == 0 when IsEq, otherwise Expr >= 0.
struct Simulator::ExecCond {
  LinearForm Expr;
  bool IsEq = false;
};

/// A lowered compute's loop variable: ProgEnv[Var] = Value, a form
/// over the SPMD space.
struct Simulator::ExecBind {
  LinearForm Value;
  unsigned Var = 0;
};

/// One op of a compute statement's right-hand side lowered to postfix
/// code (DESIGN.md §17). The ops run in order on a value stack: Read,
/// Const and Affine push a value; Add, Sub, Mul and Div pop two and push
/// one. A Select is lowered to
///   cond; JumpUnlessGE else; then; Jump end; else: ...; end:
/// so the branch not taken is never evaluated, and a NaN condition, for
/// which cond >= 0 is false, takes the else branch.
struct Simulator::ExecOp {
  enum class Kind : unsigned char {
    Read,
    Const,
    Affine,
    Add,
    Sub,
    Mul,
    Div,
    JumpUnlessGE, ///< pops the condition; jumps unless it is >= 0
    Jump,
  };
  Kind K = Kind::Const;
  /// Read: the array. JumpUnlessGE and Jump: the target, an Ops index.
  unsigned Arg = 0;
  /// Read: one subscript per dimension; Affine: the one value. In Forms,
  /// over the program space.
  Span Subs;
  double Const = 0;
};

/// One SpmdStmt lowered for execution (DESIGN.md §17): same kind and
/// same position, with a Body that mirrors the SpmdStmt's, so call-stack
/// frames and their durable encoding are unchanged. Lists are spans of
/// the simulator's pools (Stmts, Bounds, Conds, Forms, Binds, Ops),
/// affine expressions are sparse LinearForms over Terms, and what the
/// interpreter would otherwise recompute on every execution is computed
/// once here.
struct Simulator::ExecStmt {
  SpmdStmt::Kind K = SpmdStmt::Kind::Seq;
  Span Body; ///< in Stmts

  // For / SetVar.
  unsigned Var = 0;
  Span Lower, Upper; ///< in Bounds
  LinearForm Value;
  IntT ValueDen = 1;
  /// For: the body is non-empty and holds only Compute and SetVar, so
  /// performance mode may collapse the loop into a closed-form cost.
  bool Collapsible = false;
  /// For inside a message body: each iteration packs or unpacks exactly
  /// one element unconditionally.
  bool OneItem = false;
  /// For, when Collapsible: one iteration's summed statement cost,
  /// flops and compute statements.
  double IterCost = 0;
  uint64_t IterFlops = 0, IterComputes = 0;

  // If.
  Span Conds; ///< in Conds

  // Compute: the binding of each of the statement's loop variables, its
  // right-hand side as postfix code, and the cost and flops of one
  // execution. The written element is ArrayId and Indices.
  Span Binds; ///< in Binds
  Span Code;  ///< in Ops
  double Cost = 0;
  unsigned Flops = 0;

  // Send / Recv.
  Span Peer; ///< in Forms
  unsigned CommId = 0;
  bool IsMulticast = false;
  bool Nonblocking = false;

  // PackElem / UnpackElem: the element, over the SPMD space. Compute:
  // the written element, over the program space.
  unsigned ArrayId = 0;
  Span Indices; ///< in Forms
};

struct Simulator::Frame {
  Span List; ///< the statements this frame runs, in Stmts
  unsigned Pos = 0;
  const ExecStmt *LoopStmt = nullptr; ///< non-null for loop body frames
  IntT LoopCur = 0, LoopHi = 0;
};

/// One virtual processor's local memory, multicast-burst state and
/// place in the SPMD program: everything a rollback restores (paper
/// Section 5.5). A checkpoint holds one per processor, and the durable
/// image serializes exactly these fields (Image::io).
struct Simulator::ProcState {
  std::vector<IntT> Env;
  std::vector<IntT> ProgEnv;
  std::vector<Frame> Stack;
  bool Finished = false;
  /// Logical time: statements this incarnation has executed. Restored on
  /// rollback, so replay passes through the same (proc, step) points.
  uint64_t Steps = 0;
  ValueStore Store;
  int LastMulticastComm = -1;
  /// Physical destinations already served within the current multicast
  /// burst (one wire message per physical processor, Section 6.1.3).
  std::set<unsigned> BurstPhys;
  double BurstReady = 0;
  /// Cached packed content of the current multicast burst (the content is
  /// receiver-independent, so it is packed once per burst).
  int CachedPackComm = -1;
  Payload CachedData;
  uint64_t CachedCount = 0;

  /// Snapshot footprint in 8-byte words: array partition, environments,
  /// loop cursors (4 words per live frame) and the cached multicast
  /// packing.
  uint64_t words() const {
    return Store.size() + Env.size() + ProgEnv.size() + 4 * Stack.size() +
           payloadSize(CachedData);
  }
};

namespace {

/// A virtual processor's identity and scheduler flags. VirtProc lists it
/// as its first base, ahead of its ProcState, so what every slice reads
/// (Phys for the clocks, the flags for scheduling) shares cache lines
/// with the environments and the call stack. Placed behind the
/// ProcState, these fields cost 5-7% of lu_perf simulate time on a
/// 4-core x86-64 host.
struct ProcIdentity {
  std::vector<IntT> Coord;
  unsigned Id = 0;   ///< flat index in Procs: crash-schedule identity
  unsigned Phys = 0;
  bool Blocked = false;
  /// Killed by the crash-stop schedule and not yet rolled back: executes
  /// nothing, and its ProcState is considered lost.
  bool Crashed = false;
};

} // namespace

struct Simulator::VirtProc : ProcIdentity, ProcState {
  /// What this processor was waiting for the last time it blocked; the
  /// deadlock detector reads it to build the structured diagnostic.
  PendingRecv LastBlock;
  /// The channel of that receive, where the event engine parks it, or
  /// NoChan when the peer lies outside the grid and nothing can wake it.
  static constexpr unsigned NoChan = ~0u;
  unsigned BlockChan = NoChan;
};

/// One coordinated checkpoint in the stable store: everything a rollback
/// must restore. Taken at statement boundaries between scheduler rounds,
/// so it is a consistent cut by construction; the receive queues stand in
/// for the channel state a distributed protocol would record with
/// markers. Clocks and the monotonic overhead counters never rewind, so
/// a rollback reads only the logical group of Counters.
struct Simulator::Checkpoint {
  std::vector<ProcState> Procs;
  /// The channel table at the line, indexed by the live table's ids (a
  /// channel interned after the line lies beyond its end).
  std::vector<Channel> Chans;
  std::vector<TransportFailure> Failures;
  SimCounters Counters;
  /// Useful-work bucket values at the line; the delta at rollback is the
  /// undone work that moves into the recovery bucket.
  std::vector<double> BusyCompute, BusyProtocol, BusyCheckpoint;
  uint64_t EventsAtTaken = 0;
  /// Snapshot size per physical processor in 8-byte words, charged again
  /// as the stable-store read on restore.
  std::vector<uint64_t> WordsPerPhys;
};

/// Everything one slice of one virtual processor needs beyond the
/// processor itself: where counters, transport failures and crash
/// events go, the exact global-event base for the checkpoint gate and
/// the runaway budget, and — in threaded runs — the engine hooks for
/// the wavefront visibility rule.
struct Simulator::StepCtx {
  SimCounters &C;
  std::vector<TransportFailure> &Failures;
  std::vector<CrashEvent> &Crashes;
  /// Program error sink: the first error of the slice's processor
  /// order wins (see sendOutsideGrid).
  std::string &Error;
  /// Global Events immediately before this slice. Exact in the
  /// sequential engine and in serialized (checkpoint-imminent) threaded
  /// rounds; the round-start value otherwise.
  uint64_t EventsBase = 0;
  /// Statements executed by this slice (out-parameter; blocked receive
  /// attempts are not counted, matching the sequential engine).
  uint64_t Executed = 0;
  /// Set when the slice stopped because the next statement would
  /// exceed SimOptions::MaxEvents (out-parameter).
  bool OverBudget = false;
  /// Whether the checkpoint gate may fire inside this slice. Parallel
  /// threaded rounds disable it — they are classified so the gate
  /// provably cannot trigger in the sequential engine either.
  bool GateCheckpoints = true;
  uint64_t Round = 0;          ///< scheduler round (message tagging)
  ThreadEngine *TE = nullptr;  ///< non-null in threaded runs
  EventEngine *EE = nullptr;   ///< non-null under the event scheduler
};

/// The threaded engine: a persistent pool of worker threads, one round
/// barrier, and per-processor completion tracking for the wavefront
/// rule. Physical processor p is owned by worker p % Workers for the
/// whole run, so per-physical clocks and busy buckets are single-writer
/// by construction; each worker steps its processors in ascending flat
/// index, which the visibility and wait rules below extend to the exact
/// sequential order where it is observable. See DESIGN.md §10 for the
/// determinism argument.
struct Simulator::ThreadEngine {
  Simulator &S;
  const unsigned Workers;

  /// Guards the round-control fields and DoneRound; the condition
  /// variables hang off it.
  std::mutex Mu;
  std::condition_variable StartCv; ///< workers await a round start
  std::condition_variable DoneCv;  ///< main awaits worker completion
  std::condition_variable ProcCv;  ///< per-processor wavefront waits
  uint64_t Round = 0;
  bool Serial = false; ///< this round runs one processor at a time
  bool Stop = false;
  unsigned DoneWorkers = 0;
  uint64_t EventsAtRoundStart = 0;
  /// Serialized rounds only: Events plus the executed counts of every
  /// processor that already finished this round — exactly the live
  /// counter the sequential engine's checkpoint gate reads.
  uint64_t PrefixEvents = 0;
  std::vector<uint64_t> DoneRound; ///< per proc: last completed round

  /// Per-processor round-local outputs, merged by the main thread in
  /// ascending processor order so Failures/CrashLog keep the sequential
  /// append order exactly.
  std::vector<uint64_t> ProcExecuted;
  std::vector<std::vector<TransportFailure>> ProcFailures;
  std::vector<std::vector<CrashEvent>> ProcCrashes;
  std::vector<std::string> ProcErrors;

  struct WorkerOut {
    SimCounters C;
    bool Progress = false, AllDone = true, AnyDead = false,
         OverBudget = false;
  };
  std::vector<WorkerOut> Outs;

  /// Guards the channel table (Chans, ChanSlots) — the only
  /// state two workers can touch concurrently. Message operations are
  /// rare next to compute statements, so one lock suffices. Interning
  /// can grow Chans, so no reference into it is held across an unlock.
  std::mutex ChanMu;

  std::vector<std::thread> Threads;

  ThreadEngine(Simulator &S, unsigned Workers) : S(S), Workers(Workers) {
    DoneRound.assign(S.Procs.size(), 0);
    ProcExecuted.assign(S.Procs.size(), 0);
    ProcFailures.resize(S.Procs.size());
    ProcCrashes.resize(S.Procs.size());
    ProcErrors.resize(S.Procs.size());
    Outs.resize(Workers);
    Threads.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back([this, W] { workerLoop(W); });
  }

  ~ThreadEngine() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    StartCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  bool procDone(unsigned J, uint64_t R) {
    std::lock_guard<std::mutex> L(Mu);
    return DoneRound[J] >= R;
  }

  void waitProcDone(unsigned J, uint64_t R) {
    std::unique_lock<std::mutex> L(Mu);
    ProcCv.wait(L, [&] { return DoneRound[J] >= R; });
  }

  void markDone(unsigned J, uint64_t Executed, bool SerialRound) {
    std::lock_guard<std::mutex> L(Mu);
    ProcExecuted[J] = Executed;
    if (SerialRound)
      PrefixEvents += Executed;
    DoneRound[J] = Round;
    ProcCv.notify_all();
  }

  void workerLoop(unsigned W) {
    uint64_t Seen = 0;
    for (;;) {
      bool SerialRound;
      {
        std::unique_lock<std::mutex> L(Mu);
        StartCv.wait(L, [&] { return Stop || Round > Seen; });
        if (Stop)
          return;
        Seen = Round;
        SerialRound = Serial;
      }
      WorkerOut &Out = Outs[W];
      for (unsigned J = 0, E = S.Procs.size(); J != E; ++J) {
        if (S.Procs[J].Phys % Workers != W)
          continue;
        runProc(J, Seen, SerialRound, Out);
      }
      {
        std::lock_guard<std::mutex> L(Mu);
        if (++DoneWorkers == Workers)
          DoneCv.notify_all();
      }
    }
  }

  void runProc(unsigned J, uint64_t R, bool SerialRound, WorkerOut &Out) {
    // Serialized (checkpoint-imminent) rounds reproduce the sequential
    // processor order in full: nobody starts until every lower-index
    // processor has completed this round, so the events gate sees the
    // exact live counter. The predecessor chain suffices — J-1 was
    // itself only marked done after J-2, inductively.
    if (SerialRound && J > 0)
      waitProcDone(J - 1, R);
    VirtProc &V = S.Procs[J];
    if (V.Crashed) {
      Out.AllDone = false;
      Out.AnyDead = true;
      markDone(J, 0, SerialRound);
      return;
    }
    if (V.Finished) {
      markDone(J, 0, SerialRound);
      return;
    }
    V.Blocked = false;
    StepCtx Ctx{Out.C, ProcFailures[J], ProcCrashes[J], ProcErrors[J]};
    Ctx.TE = this;
    Ctx.Round = R;
    if (SerialRound) {
      {
        std::lock_guard<std::mutex> L(Mu);
        Ctx.EventsBase = PrefixEvents;
      }
      Ctx.GateCheckpoints = true;
    } else {
      // Parallel rounds are classified so the gate cannot trigger (in
      // either engine); the stale base only delays the runaway-budget
      // stop, which runRound re-checks at the barrier.
      Ctx.EventsBase = EventsAtRoundStart;
      Ctx.GateCheckpoints = false;
    }
    if (S.stepProc(V, Ctx))
      Out.Progress = true;
    Out.OverBudget = Out.OverBudget || Ctx.OverBudget;
    if (V.Crashed)
      Out.AnyDead = true;
    if (!V.Finished)
      Out.AllDone = false;
    markDone(J, Ctx.Executed, SerialRound);
  }

  /// Runs one barrier-synchronized round across the pool and merges all
  /// per-worker and per-processor outputs back into the simulator, in
  /// the sequential engine's order.
  RoundFlags runRound() {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Round;
      EventsAtRoundStart = S.Events;
      PrefixEvents = S.Events;
      // Checkpoint-imminent classification: if the gate could fire
      // inside this round even when every processor runs a full slice,
      // serialize the round. Otherwise Events stays strictly below the
      // trigger for the whole round in the sequential engine too, so
      // running the gate-free parallel path is exact.
      Serial = S.NextCheckpointEvents != 0 &&
               addSat(S.Events, mulSat(S.Procs.size(), S.sliceBudget())) >=
                   S.NextCheckpointEvents;
      DoneWorkers = 0;
    }
    StartCv.notify_all();
    {
      std::unique_lock<std::mutex> L(Mu);
      DoneCv.wait(L, [&] { return DoneWorkers == Workers; });
    }
    RoundFlags F;
    for (WorkerOut &O : Outs) {
      F.Progress = F.Progress || O.Progress;
      F.AllDone = F.AllDone && O.AllDone;
      F.AnyDead = F.AnyDead || O.AnyDead;
      F.OverBudget = F.OverBudget || O.OverBudget;
      S.Ctr.add(O.C);
      O = WorkerOut();
    }
    for (unsigned J = 0, E = S.Procs.size(); J != E; ++J) {
      S.Events += ProcExecuted[J];
      ProcExecuted[J] = 0;
      for (TransportFailure &TF : ProcFailures[J])
        S.Failures.push_back(std::move(TF));
      ProcFailures[J].clear();
      for (CrashEvent &CE : ProcCrashes[J])
        S.CrashLog.push_back(std::move(CE));
      ProcCrashes[J].clear();
      if (S.RunError.empty())
        S.RunError = std::move(ProcErrors[J]);
      ProcErrors[J].clear();
    }
    // Parallel slices count from the round-start base, so the budget
    // is re-checked here against the merged total.
    F.OverBudget = F.OverBudget || S.Events > S.Opts.MaxEvents;
    return F;
  }
};

/// The discrete-event scheduler (DESIGN.md §14). The sequential engine
/// sweeps every virtual processor every round; at P >= 1024 most of
/// those slices are blocked receive attempts — pure no-ops that rewind
/// their own step counters and touch nothing else. This engine executes
/// the exact same statement sequence while skipping the provable
/// no-ops: a blocked receiver parks in its channel's slot of a wait
/// array (Waiter) and only the send that pushes onto its channel can make
/// its next attempt differ, so the push wakes it in O(1) and nothing
/// else ever reschedules it. Ascending-index pops plus the wake rule
/// below reproduce the sequential intra-round visibility exactly, which
/// is what makes the results — clocks, counters, arrays, diagnostics —
/// bit-identical (the determinism argument is spelled out in §14).
struct Simulator::EventEngine {
  Simulator &S;

  static constexpr unsigned NoWaiter = ~0u;

  /// Processors runnable this round / next round. Ordered sets: the
  /// round drains RunQ in ascending flat index, which IS the sequential
  /// sweep order restricted to non-skippable slices.
  std::set<unsigned> RunQ, NextQ;
  /// Channel id -> the one processor blocked receiving on it, or
  /// NoWaiter (a channel names its receiver, so at most one waiter per
  /// channel). Grows with the channel table. Every live unfinished
  /// processor is in exactly one of RunQ, NextQ or Waiter, except one
  /// blocked on a receive from outside the grid, which nothing wakes.
  std::vector<unsigned> Waiter;
  unsigned Running = 0; ///< proc whose slice is executing
  bool InRound = false;
  uint64_t FinishedCount = 0, DeadCount = 0;

  explicit EventEngine(Simulator &S) : S(S) { reset(); }

  /// Rebuild the scheduler state from the processor flags — at
  /// construction (possibly after a durable resume) and after a
  /// rollback, which reincarnates dead processors and unblocks all.
  void reset() {
    RunQ.clear();
    NextQ.clear();
    Waiter.assign(S.Chans.size(), NoWaiter);
    FinishedCount = DeadCount = 0;
    InRound = false;
    for (const VirtProc &V : S.Procs) {
      if (V.Finished)
        ++FinishedCount;
      else
        RunQ.insert(V.Id);
    }
  }

  /// A message landed on channel \p Ch: if its receiver is parked, its next
  /// attempt is no longer a provable no-op — reschedule it. A waiter
  /// with an index above the running processor re-enters the CURRENT
  /// round (ascending pops have not reached it, exactly as the
  /// sequential sweep had not); at or below, it sees the message next
  /// round, matching the sequential engine's intra-round visibility.
  void notifyPush(unsigned Ch) {
    if (Ch >= Waiter.size() || Waiter[Ch] == NoWaiter)
      return;
    unsigned W = Waiter[Ch];
    Waiter[Ch] = NoWaiter;
    if (InRound && W > Running)
      RunQ.insert(W);
    else
      NextQ.insert(W);
  }

  /// Visits \p Id's processor with the checkpoint gate already crossed,
  /// exactly as the sequential sweep does: the slice performs only
  /// frame maintenance (popping exhausted frames, advancing loop
  /// cursors) before gate-returning with zero executed statements. It
  /// cannot block or crash (the gate check precedes both), but it CAN
  /// finish — and it trims the stack, which checkpoint snapshots
  /// serialize, so skipping the visit would change CheckpointBytes and
  /// the per-phys checkpoint cost.
  void gateVisit(unsigned Id) {
    VirtProc &V = S.Procs[Id];
    V.Blocked = false;
    StepCtx Ctx{S.Ctr, S.Failures, S.CrashLog, S.RunError};
    Ctx.EventsBase = S.Events;
    Ctx.EE = this;
    S.stepProc(V, Ctx);
    S.Events += Ctx.Executed; // always zero past the gate
    if (V.Finished)
      ++FinishedCount;
  }

  /// One scheduler round: the sequential round with the skippable
  /// slices skipped. Flags are computed from the standing counts so
  /// the boundary logic in run() is shared verbatim across engines.
  RoundFlags runRound() {
    RoundFlags F;
    // A round starting with the checkpoint gate already tripped (a dead
    // processor made run() skip the boundary checkpoint): every slice
    // of the sequential sweep gate-returns after frame maintenance.
    // Replicate the visits for the runnable processors; parked ones
    // have no pending maintenance (their cursor rests on the receive
    // statement) and must keep Blocked — reportStall reads the flag if
    // the rollback budget later runs out, and a parked processor is
    // never revisited to set it back.
    if (S.NextCheckpointEvents != 0 && S.Events >= S.NextCheckpointEvents) {
      std::vector<unsigned> Runnable(RunQ.begin(), RunQ.end());
      for (unsigned Id : Runnable) {
        gateVisit(Id);
        if (S.Procs[Id].Finished)
          RunQ.erase(Id);
      }
      F.Progress = false;
      F.AllDone = FinishedCount == S.Procs.size();
      F.AnyDead = DeadCount > 0;
      return F;
    }
    InRound = true;
    bool GateCut = false;
    while (!RunQ.empty()) {
      Running = *RunQ.begin();
      RunQ.erase(RunQ.begin());
      VirtProc &V = S.Procs[Running];
      V.Blocked = false;
      StepCtx Ctx{S.Ctr, S.Failures, S.CrashLog, S.RunError};
      Ctx.EventsBase = S.Events;
      Ctx.EE = this;
      if (S.stepProc(V, Ctx))
        F.Progress = true;
      F.OverBudget = F.OverBudget || Ctx.OverBudget;
      S.Events += Ctx.Executed;
      if (V.Crashed) {
        ++DeadCount; // parked nowhere until the rollback reset
      } else if (V.Finished) {
        ++FinishedCount;
      } else if (V.Blocked) {
        // Park on the channel the receive is stuck on. A receive from
        // outside the grid has none: no send can ever wake it.
        if (V.BlockChan != VirtProc::NoChan) {
          if (V.BlockChan >= Waiter.size())
            Waiter.resize(S.Chans.size(), NoWaiter);
          Waiter[V.BlockChan] = Running;
        }
      } else {
        NextQ.insert(Running); // slice budget spent, still runnable
      }
      // Checkpoint gate: once the trigger is reached, every remaining
      // slice of the sequential round gate-returns without executing a
      // statement — but still does frame maintenance. Stop the drain
      // and fall through to the gate sweep below.
      if (S.NextCheckpointEvents != 0 &&
          S.Events >= S.NextCheckpointEvents) {
        GateCut = true;
        break;
      }
    }
    InRound = false;
    if (GateCut) {
      // The sequential sweep still visits the processors above the cut
      // point (RunQ drains in ascending index, so the remnant is
      // exactly those). Each visit trims the stack and may finish the
      // processor; survivors run for real next round. Parked
      // processors' gated visits are no-ops beyond the Blocked flag,
      // which must stay set (see the gated-start branch above).
      std::vector<unsigned> Remnant(RunQ.begin(), RunQ.end());
      RunQ.clear();
      for (unsigned Id : Remnant) {
        gateVisit(Id);
        if (!S.Procs[Id].Finished)
          NextQ.insert(Id);
      }
    }
    std::swap(RunQ, NextQ); // NextQ is empty after the drain
    F.AllDone = FinishedCount == S.Procs.size();
    F.AnyDead = DeadCount > 0;
    return F;
  }
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

namespace {

/// How many entries lowering a statement list adds to each pool.
struct PoolSizes {
  size_t Stmts = 0, Bounds = 0, Conds = 0, Forms = 0, Binds = 0, Ops = 0;
};

/// Counts what Simulator::lowerRVal adds for node \p Node of \p S.
void countRVal(const Statement &S, int Node, PoolSizes &N) {
  const RVal &R = S.RPool[Node];
  ++N.Ops;
  switch (R.K) {
  case RVal::Kind::ReadRef:
    N.Forms += S.Reads[R.ReadIdx].Indices.size();
    return;
  case RVal::Kind::ConstF:
    return;
  case RVal::Kind::AffineVal:
    ++N.Forms;
    return;
  case RVal::Kind::Select:
    ++N.Ops; // two jumps stand for the one node
    countRVal(S, R.Cond, N);
    break;
  default:
    break;
  }
  countRVal(S, R.Lhs, N);
  countRVal(S, R.Rhs, N);
}

/// Counts what Simulator::lowerList adds for \p List; \p Functional as
/// SimOptions::Functional.
void countPools(const Program &P, const std::vector<SpmdStmt> &List,
                bool Functional, PoolSizes &N) {
  for (const SpmdStmt &S : List) {
    ++N.Stmts;
    N.Bounds += S.Lower.size() + S.Upper.size();
    N.Conds += S.Conds.size();
    N.Forms += S.Peer.size() + S.Indices.size();
    if (S.K == SpmdStmt::Kind::Compute && Functional) {
      N.Binds += S.IterExprs.size();
      const Statement &St = P.statement(S.StmtId);
      N.Forms += St.Write.Indices.size();
      countRVal(St, St.RRoot, N);
    }
    countPools(P, S.Body, Functional, N);
  }
}

/// A pool index or length as a Span field. Pools hold one entry per
/// statement or expression of a compiled program held in memory, far
/// below 2^32.
unsigned spanField(size_t N) {
  assert(N <= std::numeric_limits<unsigned>::max() && "pool too large");
  return static_cast<unsigned>(N);
}

} // namespace

Simulator::~Simulator() = default;

Simulator::Simulator(const Program &P, const CompiledProgram &CP,
                     const CompileSpec &Spec, SimOptions Opts)
    : P(P), CP(CP), Spec(Spec), Opts(std::move(Opts)),
      Faults(this->Opts.Faults) {
  assert(this->Opts.PhysGrid.size() == CP.Spmd.GridDims &&
         "physical grid arity mismatch");
  for (IntT G : this->Opts.PhysGrid)
    if (G < 1)
      fatalError("Simulator: physical grid dimensions must be >= 1");
  computeVirtualGrid();

  // Row-major strides of the virtual grid: the flat Procs index of a
  // coordinate, matching the construction odometer below. Checked — a
  // pathological grid overflows here instead of wrapping.
  {
    unsigned Dims = CP.Spmd.GridDims;
    VirtStride.assign(Dims, 1);
    for (unsigned D = Dims; D-- > 1;)
      VirtStride[D - 1] =
          mulChk(VirtStride[D], addChk(subChk(VirtHi[D], VirtLo[D]), 1));
  }

  // Parameter values aligned to the SPMD space.
  ParamEnv.assign(CP.Spmd.Sp.size(), 0);
  for (unsigned I = 0, E = CP.Spmd.Sp.size(); I != E; ++I) {
    if (CP.Spmd.Sp.kind(I) != VarKind::Param)
      continue;
    auto It = this->Opts.ParamValues.find(CP.Spmd.Sp.name(I));
    if (It == this->Opts.ParamValues.end())
      fatalError("Simulator: missing parameter value");
    ParamEnv[I] = It->second;
  }
  // Parameter values aligned to the program space, and each array's
  // shape under them: resolved once, so no per-element path looks a
  // parameter up by name.
  std::vector<IntT> ProgParams(P.space().size(), 0);
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      ProgParams[I] = paramValue(this->Opts.ParamValues, P.space().name(I));
  for (unsigned A = 0, E = P.numArrays(); A != E; ++A) {
    std::vector<IntT> Dims;
    IntT Extent = 1;
    for (const AffineExpr &S : P.array(A).DimSizes) {
      Dims.push_back(S.evaluate(ProgParams));
      Extent = Dims.back() <= 0 ? 0 : mulChk(Extent, Dims.back());
    }
    ArrayDims.push_back(std::move(Dims));
    ArrayExtent.push_back(Extent);
  }
  for (const auto &[ArrayId, D] : Spec.FinalData)
    FinalSrc.emplace(ArrayId, sourceParams(D, this->Opts.ParamValues));

  // Lower the SPMD program once; every engine executes the lowered
  // tree. Done here, not at compile time, because the statement costs
  // it folds in depend on this run's cost model. The pools are sized
  // first (Terms by estimate), so they fill without reallocating.
  PoolSizes N;
  countPools(P, CP.Spmd.Top, this->Opts.Functional, N);
  Stmts.reserve(N.Stmts);
  Bounds.reserve(N.Bounds);
  Conds.reserve(N.Conds);
  Forms.reserve(N.Forms);
  Binds.reserve(N.Binds);
  Terms.reserve(2 * (N.Bounds + N.Conds + N.Forms + N.Binds)); // ~2 each
  Ops.reserve(N.Ops);
  Top = lowerList(CP.Spmd.Top);
  assert(Forms.size() == N.Forms && Binds.size() == N.Binds &&
         Ops.size() == N.Ops && "pool counts disagree with lowering");

  // Instantiate the virtual processors.
  unsigned Dims = CP.Spmd.GridDims;
  Procs.reserve(static_cast<size_t>(
      mulChk(VirtStride[0], addChk(subChk(VirtHi[0], VirtLo[0]), 1))));
  std::vector<IntT> Coord = VirtLo;
  bool Done = false;
  while (!Done) {
    VirtProc &V = Procs.emplace_back();
    V.Coord = Coord;
    V.Id = static_cast<unsigned>(Procs.size() - 1);
    V.Phys = physOf(Coord);
    V.Env = ParamEnv;
    for (unsigned D = 0; D != Dims; ++D)
      V.Env[CP.Spmd.MyProcVars[D]] = Coord[D];
    V.ProgEnv = ProgParams;
    // Performance mode stores no values.
    if (this->Opts.Functional)
      V.Store = ValueStore(P.numArrays());
    Frame F;
    F.List = Top;
    V.Stack.push_back(F);
    // Advance the coordinate odometer.
    for (unsigned D = Dims; D-- > 0;) {
      if (++Coord[D] <= VirtHi[D])
        break;
      Coord[D] = VirtLo[D];
      if (D == 0)
        Done = true;
    }
  }

  IntT PhysCount = 1;
  for (IntT G : this->Opts.PhysGrid)
    PhysCount = mulChk(PhysCount, G);
  if (PhysCount > static_cast<IntT>(std::numeric_limits<unsigned>::max()))
    fatalError("Simulator: physical processor count overflows unsigned");
  PhysClock.assign(PhysCount, 0.0);
  PhysBusy.assign(PhysCount, 0.0);
  BusyCompute.assign(PhysCount, 0.0);
  BusyProtocol.assign(PhysCount, 0.0);
  BusyCheckpoint.assign(PhysCount, 0.0);
  NetFree.assign(PhysCount, 0.0);
  NetDeferred.assign(PhysCount, 0.0);
  NetExposed.assign(PhysCount, 0.0);
  HasCrashed.assign(Procs.size(), 0);
  SlowFactor.assign(PhysCount, 1.0);
  if (this->Opts.Faults.MaxSlowdown > 1.0)
    for (unsigned Ph = 0; Ph != static_cast<unsigned>(PhysCount); ++Ph)
      SlowFactor[Ph] = Faults.slowdown(Ph);

  if (this->Opts.Functional)
    initLocalStores();
}

unsigned Simulator::physOf(const std::vector<IntT> &VirtCoord) const {
  // pi(v) = v mod P per dimension, row-major flattened. The fold and
  // the flattening run in checked IntT; the constructor verified the
  // physical processor count fits an unsigned, and the result is always
  // below that count, so the final narrowing is value-preserving.
  IntT Phys = 0;
  for (unsigned D = 0, E = VirtCoord.size(); D != E; ++D) {
    IntT F = floorMod(VirtCoord[D], Opts.PhysGrid[D]);
    Phys = addChk(mulChk(Phys, Opts.PhysGrid[D]), F);
  }
  return static_cast<unsigned>(Phys);
}

bool Simulator::procIndexOf(const std::vector<IntT> &Coord,
                            unsigned &Out) const {
  if (Coord.size() != VirtLo.size())
    return false;
  IntT Flat = 0;
  for (unsigned D = 0, E = Coord.size(); D != E; ++D) {
    if (Coord[D] < VirtLo[D] || Coord[D] > VirtHi[D])
      return false;
    Flat = addChk(Flat,
                  mulChk(VirtStride[D], subChk(Coord[D], VirtLo[D])));
  }
  Out = static_cast<unsigned>(Flat);
  return true;
}

unsigned Simulator::sliceBudget() const {
  // Short slices when crashes or checkpoints are in play: both trigger
  // at round boundaries, so the boundary spacing bounds how stale a
  // crash detection or a checkpoint line can be.
  return (Opts.Faults.CrashRate > 0 || Opts.Checkpoint.enabled())
             ? 512
             : 200000;
}

unsigned Simulator::effectiveWorkers() const {
  unsigned W = Opts.Threads;
  if (W == 0) {
    W = std::thread::hardware_concurrency();
    if (W == 0)
      W = 1;
  }
  // More workers than physical processors would idle: processor p is
  // owned by worker p % W, so surplus workers own nothing.
  unsigned PhysCount = static_cast<unsigned>(PhysClock.size());
  if (PhysCount != 0 && W > PhysCount)
    W = PhysCount;
  return W == 0 ? 1 : W;
}

void Simulator::computeVirtualGrid() {
  unsigned Dims = CP.Spmd.GridDims;
  VirtLo.assign(Dims, 0);
  VirtHi.assign(Dims, -1);
  bool Any = false;

  auto Widen = [&](const Decomposition &D, System Dom) {
    // Pin parameters, attach grid variables, take per-dim bounds.
    for (unsigned I = 0; I != Dom.space().size(); ++I) {
      if (Dom.space().kind(I) != VarKind::Param)
        continue;
      Dom.addEQ(Dom.varExpr(I).plusConst(
          -paramValue(Opts.ParamValues, Dom.space().name(I))));
    }
    std::vector<unsigned> PVs;
    for (unsigned Dd = 0; Dd != Dims; ++Dd)
      PVs.push_back(Dom.addVar(Dom.space().freshName("@grid"),
                               VarKind::Proc));
    D.addConstraintsByName(Dom, PVs);
    for (unsigned Dd = 0; Dd != Dims; ++Dd) {
      if (D.dim(Dd).Replicated)
        continue;
      // Parameters are pinned by equalities above, so eliminating them is
      // an exact substitution; the resulting bounds are constants.
      std::vector<unsigned> Others;
      for (unsigned I = 0; I != Dom.space().size(); ++I)
        if (I != PVs[Dd])
          Others.push_back(I);
      System Proj = Dom.eliminated(Others);
      std::vector<VarBound> Lo, Hi;
      Proj.normalize();
      Proj.boundsOf(PVs[Dd], Lo, Hi);
      if (Lo.empty() || Hi.empty())
        fatalError("Simulator: unbounded virtual processor grid");
      IntT L = 0, H = 0;
      bool First = true;
      std::vector<IntT> Zero(Proj.space().size(), 0);
      for (const VarBound &B : Lo) {
        IntT V = ceilDiv(B.Num.evaluate(Zero), B.Den);
        L = First ? V : std::max(L, V);
        First = false;
      }
      First = true;
      for (const VarBound &B : Hi) {
        IntT V = floorDiv(B.Num.evaluate(Zero), B.Den);
        H = First ? V : std::min(H, V);
        First = false;
      }
      if (H < L)
        return; // empty source: contributes nothing
      if (!Any || L < VirtLo[Dd])
        VirtLo[Dd] = L;
      if (!Any || H > VirtHi[Dd])
        VirtHi[Dd] = H;
    }
    Any = true;
  };

  for (const StmtPlan &SP : Spec.Stmts)
    Widen(SP.Comp, P.domainOf(SP.StmtId));

  auto ArrayDomain = [&](unsigned ArrayId) {
    Space Sp = arraySourceSpace(P, ArrayId);
    System Dom(Sp);
    unsigned K = 0;
    for (unsigned I = 0; I != Sp.size(); ++I) {
      if (Sp.kind(I) != VarKind::Data)
        continue;
      Dom.addGE(Dom.varExpr(I));
      Dom.addGE(mapExpr(P.array(ArrayId).DimSizes[K], P.space(), Sp)
                    .plusConst(-1) -
                Dom.varExpr(I));
      ++K;
    }
    return Dom;
  };
  for (const auto &[ArrayId, D] : Spec.InitialData)
    Widen(D, ArrayDomain(ArrayId));
  for (const auto &[ArrayId, D] : Spec.FinalData) {
    // A final layout equal to the initial one widens by the same bounds.
    auto Initial = Spec.InitialData.find(ArrayId);
    if (Initial == Spec.InitialData.end() || !(Initial->second == D))
      Widen(D, ArrayDomain(ArrayId));
  }

  for (unsigned Dd = 0; Dd != Dims; ++Dd)
    if (VirtHi[Dd] < VirtLo[Dd])
      fatalError("Simulator: empty virtual processor grid");
}

IntT Simulator::flatIndex(unsigned ArrayId,
                          const std::vector<IntT> &Idx) const {
  const std::vector<IntT> &Dims = ArrayDims[ArrayId];
  if (Idx.size() != Dims.size())
    return -1;
  IntT Flat = 0;
  for (unsigned K = 0, E = Idx.size(); K != E; ++K) {
    if (Idx[K] < 0 || Idx[K] >= Dims[K])
      return -1;
    Flat = Flat * Dims[K] + Idx[K]; // below the extent: cannot overflow
  }
  return Flat;
}

inline IntT Simulator::flatIndex(unsigned ArrayId, Span Indices,
                                 const std::vector<IntT> &Env) const {
  const std::vector<IntT> &Dims = ArrayDims[ArrayId];
  IntT Flat = 0;
  for (unsigned K = 0; K != Indices.Size; ++K) {
    IntT I = eval(Forms[Indices.Begin + K], Env);
    if (I < 0 || I >= Dims[K])
      return -1;
    Flat = Flat * Dims[K] + I;
  }
  return Flat;
}

void Simulator::localityViolation(unsigned ArrayId, const char *What) const {
  std::string Msg = std::string("locality violation: processor ") + What +
                    " an element of " + P.array(ArrayId).Name +
                    " that it does not hold or that lies outside the array";
  fatalError(Msg.c_str());
}

void Simulator::initLocalStores() {
  for (const auto &[ArrayId, D] : Spec.InitialData) {
    const std::vector<IntT> &Sizes = ArrayDims[ArrayId];
    // Source values for ownership tests: element indices then params in
    // the decomposition's source-space order.
    std::vector<IntT> Src = sourceParams(D, Opts.ParamValues);
    std::vector<int> DataPos;
    for (unsigned I = 0; I != D.sourceSpace().size(); ++I)
      if (D.sourceSpace().kind(I) != VarKind::Param)
        DataPos.push_back(static_cast<int>(I));
    const unsigned Dims = CP.Spmd.GridDims;
    std::vector<IntT> Lo(Dims), Hi(Dims), Coord(Dims);
    // Row-major odometer: the flat index is the visit count.
    std::vector<IntT> Idx(Sizes.size(), 0);
    for (IntT Flat = 0, E = Sizes.empty() ? 0 : ArrayExtent[ArrayId];
         Flat != E; ++Flat) {
      for (unsigned K = 0; K != Idx.size(); ++K)
        Src[DataPos[K]] = Idx[K];
      // The element's holders form a box of the grid: per dimension the
      // coordinates whose block (with its overlap) holds it, clipped to
      // the grid. Visit the box in ascending processor order.
      bool Empty = false;
      for (unsigned G = 0; G != Dims; ++G) {
        if (!D.ownerRange(Src, G, Lo[G], Hi[G])) {
          Lo[G] = VirtLo[G];
          Hi[G] = VirtHi[G];
        }
        Lo[G] = std::max(Lo[G], VirtLo[G]);
        Hi[G] = std::min(Hi[G], VirtHi[G]);
        Empty = Empty || Lo[G] > Hi[G];
      }
      if (!Empty) {
        const double Val = initialArrayValue(ArrayId, Flat);
        Coord = Lo;
        for (bool More = true; More;) {
          unsigned Id = 0;
          procIndexOf(Coord, Id);
          Procs[Id].Store.set(ArrayId, Flat, Val, ArrayExtent[ArrayId]);
          More = false;
          for (unsigned G = Dims; G-- > 0;) {
            if (++Coord[G] <= Hi[G]) {
              More = true;
              break;
            }
            Coord[G] = Lo[G];
          }
        }
      }
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
      }
    }
  }
}

Simulator::Span Simulator::lowerList(const std::vector<SpmdStmt> &List) {
  // The list's statements take one contiguous block of Stmts; each
  // statement's body is lowered into blocks appended after it. Stmts
  // grows meanwhile, so statements are addressed by index.
  const Span Block{spanField(Stmts.size()), spanField(List.size())};
  Stmts.resize(Block.Begin + Block.Size);
  // Appends Make(X) to Pool for every X in Items; returns where.
  auto appendSpan = [](auto &Pool, const auto &Items, auto Make) {
    Span Out{spanField(Pool.size()), spanField(Items.size())};
    for (const auto &X : Items)
      Pool.push_back(Make(X));
    return Out;
  };
  auto Bound = [&](const SpmdBound &B) {
    return ExecBound{LinearForm(B.Num, Terms), B.Den};
  };
  auto Cond = [&](const Constraint &C) {
    return ExecCond{LinearForm(C.Expr, Terms), C.isEquality()};
  };
  using K = SpmdStmt::Kind;
  for (unsigned I = 0; I != Block.Size; ++I) {
    const SpmdStmt &S = List[I];
    const Span Body = S.Body.empty() ? Span() : lowerList(S.Body);
    ExecStmt &E = Stmts[Block.Begin + I];
    E.K = S.K;
    E.Body = Body;
    E.Var = S.Var;
    E.Lower = appendSpan(Bounds, S.Lower, Bound);
    E.Upper = appendSpan(Bounds, S.Upper, Bound);
    if (S.K == K::SetVar)
      E.Value = LinearForm(S.Value, Terms);
    E.ValueDen = S.ValueDen;
    E.Conds = appendSpan(Conds, S.Conds, Cond);
    E.Peer = appendForms(S.Peer);
    E.CommId = S.CommId;
    E.IsMulticast = S.IsMulticast;
    E.Nonblocking = S.Nonblocking;
    E.ArrayId = S.ArrayId;
    E.Indices = appendForms(S.Indices);

    if (S.K == K::Compute) {
      const Statement &St = P.statement(S.StmtId);
      E.Flops = countFlops(St);
      E.Cost = Opts.Cost.IterOverhead + E.Flops * Opts.Cost.FlopTime;
      // Performance mode computes no values, so it needs no code.
      if (Opts.Functional) {
        assert(S.IterExprs.size() == St.Loops.size() && "one per loop");
        E.Binds = {spanField(Binds.size()), spanField(S.IterExprs.size())};
        for (unsigned L = 0; L != E.Binds.Size; ++L)
          Binds.push_back({LinearForm(S.IterExprs[L], Terms),
                           P.loop(St.Loops[L]).VarIndex});
        // The SpmdStmt names no element; the statement's write does.
        E.ArrayId = St.Write.ArrayId;
        E.Indices = appendForms(St.Write.Indices);
        E.Code.Begin = spanField(Ops.size());
        StackDepth = std::max(StackDepth, lowerRVal(St, St.RRoot));
        E.Code.Size = spanField(Ops.size() - E.Code.Begin);
      }
    } else if (S.K == K::For) {
      E.Collapsible = Body.Size != 0;
      unsigned Items = 0;
      bool OnlySetVars = true;
      for (unsigned J = 0; J != Body.Size; ++J) {
        const ExecStmt &B = Stmts[Body.Begin + J];
        if (B.K != K::Compute && B.K != K::SetVar)
          E.Collapsible = false;
        if (B.K == K::Compute) {
          E.IterCost += B.Cost;
          E.IterFlops += B.Flops;
          ++E.IterComputes;
        }
        if (B.K == K::PackElem || B.K == K::UnpackElem)
          ++Items;
        else if (B.K != K::SetVar)
          OnlySetVars = false;
      }
      E.OneItem = OnlySetVars && Items == 1;
    }
  }
  return Block;
}

Simulator::Span
Simulator::appendForms(const std::vector<AffineExpr> &Exprs) {
  const Span Out{spanField(Forms.size()), spanField(Exprs.size())};
  for (const AffineExpr &X : Exprs)
    Forms.emplace_back(X, Terms);
  return Out;
}

unsigned Simulator::lowerRVal(const Statement &S, int Node) {
  using OK = ExecOp::Kind;
  const RVal &R = S.RPool[Node];
  ExecOp Op;
  switch (R.K) {
  case RVal::Kind::ReadRef: {
    const Access &A = S.Reads[R.ReadIdx];
    Op.K = OK::Read;
    Op.Arg = A.ArrayId;
    Op.Subs = appendForms(A.Indices);
    Ops.push_back(Op);
    return 1;
  }
  case RVal::Kind::ConstF:
    Op.Const = R.Const;
    Ops.push_back(Op);
    return 1;
  case RVal::Kind::AffineVal:
    Op.K = OK::Affine;
    Op.Subs = {spanField(Forms.size()), 1};
    Forms.emplace_back(R.Aff, Terms);
    Ops.push_back(Op);
    return 1;
  case RVal::Kind::Select: {
    // cond; JumpUnlessGE else; then; Jump end; else: ...; end: — the
    // condition is popped before either branch pushes its value.
    unsigned Depth = lowerRVal(S, R.Cond);
    const size_t ToElse = Ops.size();
    Op.K = OK::JumpUnlessGE;
    Ops.push_back(Op);
    Depth = std::max(Depth, lowerRVal(S, R.Lhs));
    const size_t ToEnd = Ops.size();
    Op.K = OK::Jump;
    Ops.push_back(Op);
    Ops[ToElse].Arg = spanField(Ops.size());
    Depth = std::max(Depth, lowerRVal(S, R.Rhs));
    Ops[ToEnd].Arg = spanField(Ops.size());
    return Depth;
  }
  case RVal::Kind::Add:
    Op.K = OK::Add;
    break;
  case RVal::Kind::Sub:
    Op.K = OK::Sub;
    break;
  case RVal::Kind::Mul:
    Op.K = OK::Mul;
    break;
  case RVal::Kind::Div:
    Op.K = OK::Div;
    break;
  }
  // A binary node: the left operand's value stays on the stack while
  // the right operand is computed above it.
  unsigned Depth = lowerRVal(S, R.Lhs);
  Depth = std::max(Depth, 1 + lowerRVal(S, R.Rhs));
  Ops.push_back(Op);
  return Depth;
}

IntT Simulator::eval(const LinearForm &F,
                     const std::vector<IntT> &Env) const {
  return F.evaluate(Terms, Env);
}

IntT Simulator::evalBounds(Span Bs, const std::vector<IntT> &Env,
                           bool IsLower) const {
  IntT R = 0;
  for (unsigned I = 0; I != Bs.Size; ++I) {
    const ExecBound &B = Bounds[Bs.Begin + I];
    IntT V = IsLower ? ceilDiv(eval(B.Num, Env), B.Den)
                     : floorDiv(eval(B.Num, Env), B.Den);
    if (I == 0)
      R = V;
    else
      R = IsLower ? std::max(R, V) : std::min(R, V);
  }
  return R;
}

bool Simulator::condsHold(Span Cs, const std::vector<IntT> &Env) const {
  for (unsigned I = 0; I != Cs.Size; ++I) {
    const ExecCond &C = Conds[Cs.Begin + I];
    IntT V = eval(C.Expr, Env);
    if (C.IsEq ? V != 0 : V < 0)
      return false;
  }
  return true;
}

IntT Simulator::setVarValue(const ExecStmt &St,
                            const std::vector<IntT> &Env) const {
  IntT V = eval(St.Value, Env);
  return St.ValueDen == 1 ? V : floorDiv(V, St.ValueDen);
}

unsigned Simulator::channelOf(unsigned Comm, unsigned Src, unsigned Dst) {
  constexpr unsigned Empty = ~0u;
  // The slot holding K's id, or the empty slot where it belongs.
  auto Probe = [&](const ChanKey &K) {
    const size_t Mask = ChanSlots.size() - 1;
    uint64_t H = (uint64_t(K.Comm) << 32 | K.Src) * 0x9e3779b97f4a7c15ull;
    H = (H ^ (H >> 29) ^ K.Dst) * 0xbf58476d1ce4e5b9ull;
    size_t I = static_cast<size_t>(H >> 32) & Mask;
    while (ChanSlots[I] != Empty && Chans[ChanSlots[I]].Key != K)
      I = (I + 1) & Mask;
    return I;
  };
  const ChanKey Key{Comm, Src, Dst};
  if (!ChanSlots.empty()) {
    size_t I = Probe(Key);
    if (ChanSlots[I] != Empty)
      return ChanSlots[I];
  }
  const unsigned Id = static_cast<unsigned>(Chans.size());
  Chans.emplace_back().Key = Key;
  if (2 * Chans.size() > ChanSlots.size()) {
    // Grow to keep the table at most half full, re-placing every id.
    ChanSlots.assign(std::max<size_t>(64, 2 * ChanSlots.size()), Empty);
    for (unsigned J = 0, E = Chans.size(); J != E; ++J)
      ChanSlots[Probe(Chans[J].Key)] = J;
  } else {
    ChanSlots[Probe(Key)] = Id;
  }
  return Id;
}

void Simulator::push(unsigned Ch, Message M, StepCtx &Ctx) {
  Channel &C = Chans[Ch];
  C.Queue.push_back(std::move(M));
  C.HasQueue = true;
  if (Ctx.EE)
    Ctx.EE->notifyPush(Ch);
}

bool Simulator::peerIndex(const ExecStmt &St, const std::vector<IntT> &Env,
                          unsigned &Out) const {
  if (St.Peer.Size != VirtLo.size())
    return false;
  IntT Flat = 0;
  for (unsigned D = 0; D != St.Peer.Size; ++D) {
    IntT C = eval(Forms[St.Peer.Begin + D], Env);
    if (C < VirtLo[D] || C > VirtHi[D])
      return false;
    Flat = addChk(Flat, mulChk(VirtStride[D], subChk(C, VirtLo[D])));
  }
  Out = static_cast<unsigned>(Flat);
  return true;
}

std::vector<IntT> Simulator::peerCoord(const VirtProc &V,
                                       const ExecStmt &St) const {
  std::vector<IntT> Peer;
  for (unsigned D = 0; D != St.Peer.Size; ++D)
    Peer.push_back(eval(Forms[St.Peer.Begin + D], V.Env));
  return Peer;
}

void Simulator::sendOutsideGrid(const VirtProc &V, const ExecStmt &St,
                                StepCtx &Ctx) const {
  // Slices run in ascending processor order within a round in every
  // engine (the threaded one merges per-processor errors that way), so
  // keeping the first error reports the same one everywhere.
  if (!Ctx.Error.empty())
    return;
  Ctx.Error = "send on comm " + std::to_string(St.CommId) + " from vp" +
              coordStr(V.Coord) + " to vp" + coordStr(peerCoord(V, St)) +
              ": peer outside the virtual processor grid vp" +
              coordStr(VirtLo) + "..vp" + coordStr(VirtHi);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Simulator::execComputeIter(VirtProc &V, const ExecStmt &St) const {
  if (!Opts.Functional)
    return;
  for (unsigned L = 0; L != St.Binds.Size; ++L) {
    const ExecBind &B = Binds[St.Binds.Begin + L];
    V.ProgEnv[B.Var] = eval(B.Value, V.Env);
  }

  // Run the postfix code on a local value stack: the threaded engine's
  // workers run computes concurrently, so nothing here is shared. The
  // code pushes every slot before it reads it, so the stack is left
  // uninitialized: zeroing it cost 15% of functional LU's run time.
  std::array<double, 16> Inline;
  std::vector<double> Spill;
  double *Base = Inline.data();
  if (StackDepth > Inline.size()) {
    Spill.resize(StackDepth);
    Base = Spill.data();
  }
  double *Top = Base; // one past the top value
  using OK = ExecOp::Kind;
  for (unsigned Pc = St.Code.Begin, End = Pc + St.Code.Size; Pc != End;) {
    const ExecOp &Op = Ops[Pc++];
    switch (Op.K) {
    case OK::Read: {
      IntT Flat = flatIndex(Op.Arg, Op.Subs, V.ProgEnv);
      const double *Val = Flat < 0 ? nullptr : V.Store.find(Op.Arg, Flat);
      if (!Val)
        localityViolation(Op.Arg, "reads");
      *Top++ = *Val;
      break;
    }
    case OK::Const:
      *Top++ = Op.Const;
      break;
    case OK::Affine:
      *Top++ = static_cast<double>(eval(Forms[Op.Subs.Begin], V.ProgEnv));
      break;
    case OK::Add:
      --Top;
      Top[-1] = Top[-1] + Top[0];
      break;
    case OK::Sub:
      --Top;
      Top[-1] = Top[-1] - Top[0];
      break;
    case OK::Mul:
      --Top;
      Top[-1] = Top[-1] * Top[0];
      break;
    case OK::Div:
      --Top;
      Top[-1] = Top[-1] / Top[0];
      break;
    case OK::JumpUnlessGE:
      if (!(*--Top >= 0))
        Pc = Op.Arg;
      break;
    case OK::Jump:
      Pc = Op.Arg;
      break;
    }
  }
  assert(Top == Base + 1 && "compute code must leave exactly one value");

  IntT Flat = flatIndex(St.ArrayId, St.Indices, V.ProgEnv);
  if (Flat < 0)
    localityViolation(St.ArrayId, "writes");
  V.Store.set(St.ArrayId, Flat, *Base, ArrayExtent[St.ArrayId]);
}

void Simulator::runItems(VirtProc &V, Span List,
                         std::vector<double> *PackOut,
                         const std::vector<double> *UnpackIn,
                         uint64_t &Cursor, uint64_t &Count) {
  for (unsigned I = 0; I != List.Size; ++I) {
    const ExecStmt &S = Stmts[List.Begin + I];
    switch (S.K) {
    case SpmdStmt::Kind::Seq:
      runItems(V, S.Body, PackOut, UnpackIn, Cursor, Count);
      break;
    case SpmdStmt::Kind::SetVar:
      V.Env[S.Var] = setVarValue(S, V.Env);
      break;
    case SpmdStmt::Kind::If:
      if (condsHold(S.Conds, V.Env))
        runItems(V, S.Body, PackOut, UnpackIn, Cursor, Count);
      break;
    case SpmdStmt::Kind::For: {
      IntT Lo = evalBounds(S.Lower, V.Env, true);
      IntT Hi = evalBounds(S.Upper, V.Env, false);
      if (!Opts.Functional && Opts.CollapseLoops && Hi >= Lo && S.OneItem) {
        // Each iteration contributes exactly one item unconditionally.
        uint64_t Trip = static_cast<uint64_t>(addChk(subChk(Hi, Lo), 1));
        Count += Trip;
        Cursor += Trip;
        break;
      }
      for (IntT It = Lo; It <= Hi; ++It) {
        V.Env[S.Var] = It;
        runItems(V, S.Body, PackOut, UnpackIn, Cursor, Count);
      }
      break;
    }
    case SpmdStmt::Kind::PackElem: {
      ++Count;
      if (PackOut && Opts.Functional) {
        IntT Flat = flatIndex(S.ArrayId, S.Indices, V.Env);
        const double *Val =
            Flat < 0 ? nullptr : V.Store.find(S.ArrayId, Flat);
        if (!Val)
          localityViolation(S.ArrayId, "sends");
        PackOut->push_back(*Val);
      }
      break;
    }
    case SpmdStmt::Kind::UnpackElem: {
      ++Count;
      if (UnpackIn && Opts.Functional) {
        if (Cursor >= UnpackIn->size())
          fatalError("message shorter than the receiver expects");
        IntT Flat = flatIndex(S.ArrayId, S.Indices, V.Env);
        if (Flat < 0)
          localityViolation(S.ArrayId, "receives into");
        V.Store.set(S.ArrayId, Flat, (*UnpackIn)[Cursor],
                    ArrayExtent[S.ArrayId]);
      }
      ++Cursor;
      break;
    }
    default:
      fatalError("communication inside a message body");
    }
  }
}

bool Simulator::stepProc(VirtProc &V, StepCtx &Ctx) {
  bool Ran = false;
  const bool CrashActive = Opts.Faults.CrashRate > 0;
  unsigned Slice = sliceBudget();
  ThreadEngine *TE = Ctx.TE;
  // Channel-table lock (Chans/ChanSlots): a real lock only under
  // the threaded engine; the sequential engine constructs an unlocked
  // guard and pays nothing.
  auto ChanGuard = [TE]() {
    return TE ? std::unique_lock<std::mutex>(TE->ChanMu)
              : std::unique_lock<std::mutex>();
  };
  double &Clock = PhysClock[V.Phys];
  double &Busy = PhysBusy[V.Phys];
  // Injected per-processor slowdown; exactly 1.0 (cost-neutral) unless
  // fault injection is configured.
  const double SF = SlowFactor[V.Phys];

  while (!V.Stack.empty() && Slice-- > 0) {
    Frame &F = V.Stack.back();
    if (F.Pos >= F.List.Size) {
      if (F.LoopStmt && ++F.LoopCur <= F.LoopHi) {
        V.Env[F.LoopStmt->Var] = F.LoopCur;
        F.Pos = 0;
        continue;
      }
      V.Stack.pop_back();
      continue;
    }
    const ExecStmt &St = Stmts[F.List.Begin + F.Pos];
    if (Ctx.GateCheckpoints && NextCheckpointEvents != 0 &&
        addSat(Ctx.EventsBase, Ctx.Executed) >= NextCheckpointEvents)
      // A checkpoint is due: pause at this statement boundary so the
      // scheduler can draw the line once every processor has yielded.
      return Ran;
    if (CrashActive && !HasCrashed[V.Id] && Faults.crashAt(V.Id, V.Steps)) {
      // Crash-stop failure: the processor dies immediately before this
      // statement and executes nothing further. HasCrashed survives the
      // rollback, so the restarted incarnation replays through this
      // point unharmed — one crash per processor, which bounds the
      // number of rollbacks by the processor count.
      HasCrashed[V.Id] = 1;
      V.Crashed = true;
      Ctx.Crashes.push_back(CrashEvent{V.Coord, V.Phys, V.Steps, Clock});
      ++Ctx.C.Crashes;
      return Ran;
    }
    if (addSat(Ctx.EventsBase, Ctx.Executed) >= Opts.MaxEvents) {
      Ctx.OverBudget = true;
      return Ran;
    }
    ++Ctx.Executed;
    ++V.Steps;
    switch (St.K) {
    case SpmdStmt::Kind::Seq: {
      ++F.Pos;
      Frame NF;
      NF.List = St.Body;
      V.Stack.push_back(NF);
      break;
    }
    case SpmdStmt::Kind::For: {
      ++F.Pos;
      IntT Lo = evalBounds(St.Lower, V.Env, true);
      IntT Hi = evalBounds(St.Upper, V.Env, false);
      if (Lo > Hi)
        break;
      if (!Opts.Functional && Opts.CollapseLoops && St.Collapsible) {
        uint64_t Trip = static_cast<uint64_t>(addChk(subChk(Hi, Lo), 1));
        const double C = St.IterCost;
        Ctx.C.Flops += Trip * St.IterFlops;
        Ctx.C.ComputeIterations += Trip * St.IterComputes;
        Clock += Trip * C * SF;
        Busy += Trip * C * SF;
        BusyCompute[V.Phys] += Trip * C * SF;
        // Each collapsed compute ends a multicast burst, as it does when
        // executed one by one.
        if (St.IterComputes != 0)
          V.LastMulticastComm = -1;
        break;
      }
      V.Env[St.Var] = Lo;
      Frame NF;
      NF.List = St.Body;
      NF.LoopStmt = &St;
      NF.LoopCur = Lo;
      NF.LoopHi = Hi;
      V.Stack.push_back(NF);
      break;
    }
    case SpmdStmt::Kind::If: {
      ++F.Pos;
      if (condsHold(St.Conds, V.Env)) {
        Frame NF;
        NF.List = St.Body;
        V.Stack.push_back(NF);
      }
      break;
    }
    case SpmdStmt::Kind::SetVar:
      V.Env[St.Var] = setVarValue(St, V.Env);
      ++F.Pos;
      break;
    case SpmdStmt::Kind::Compute: {
      execComputeIter(V, St);
      double C = St.Cost * SF;
      Clock += C;
      Busy += C;
      BusyCompute[V.Phys] += C;
      Ctx.C.Flops += St.Flops;
      ++Ctx.C.ComputeIterations;
      V.LastMulticastComm = -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::Send: {
      unsigned DstId = 0;
      if (!peerIndex(St, V.Env, DstId)) {
        // There is no channel to queue on: a run error, reported at the
        // round boundary.
        sendOutsideGrid(V, St, Ctx);
        --Ctx.Executed;
        --V.Steps;
        return Ran;
      }
      const ProcIdentity &Dst = Procs[DstId];
      Message M;
      if (St.IsMulticast &&
          V.CachedPackComm == static_cast<int>(St.CommId) &&
          V.LastMulticastComm == static_cast<int>(St.CommId)) {
        // Multicast content is receiver-independent (Section 6.2.1):
        // reuse the packing from the burst's first destination.
        M.Data = V.CachedData;
        M.WordCount = V.CachedCount;
      } else {
        uint64_t Cursor = 0, Count = 0;
        std::vector<double> Data;
        runItems(V, St.Body, &Data, nullptr, Cursor, Count);
        M.Data = makePayload(std::move(Data));
        M.WordCount = Count;
        if (St.IsMulticast) {
          V.CachedPackComm = static_cast<int>(St.CommId);
          V.CachedData = M.Data;
          V.CachedCount = M.WordCount;
        } else {
          V.CachedPackComm = -1;
        }
      }
      const unsigned DstPhys = Dst.Phys;
      bool Intra = DstPhys == V.Phys;
      // Straggler-link latency multiplier for this directed physical
      // link: exactly 1.0 (cost-neutral) unless slow-link injection is
      // configured. Pure in (seed, src phys, dst phys), so the factor is
      // identical across engines and scheduler interleavings.
      const double LinkF =
          Opts.Faults.slowLinks() ? Faults.linkFactor(V.Phys, DstPhys)
                                  : 1.0;
      bool InBurst = St.IsMulticast &&
                     V.LastMulticastComm == static_cast<int>(St.CommId);
      if (!InBurst)
        V.BurstPhys.clear();
      // Nonblocking (early) send: the CPU pays only the issue/pack
      // cost, the per-physical NIC carries the fixed latency (and any
      // retransmission work) while the processor keeps computing
      // (DESIGN.md §11). Message contents, sequence numbers and queue
      // order are untouched — only clocks move.
      const bool Early = Opts.EarlySends && St.Nonblocking;
      M.FromMulticast = St.IsMulticast;
      // Tag for the threaded engine's visibility rule; the sequential
      // engine never reads these.
      M.SenderId = V.Id;
      M.PushRound = Ctx.Round;
      if (Intra && Opts.FreeIntraPhysical) {
        // A local memory move: never exposed to network faults, but
        // still sequenced when the transport is engaged — the receive
        // path matches sequence numbers on every channel, and the
        // rollback line is defined by a uniform per-channel cursor.
        ++Ctx.C.IntraMessages;
        M.ReadyTime = Clock;
        auto CG = ChanGuard();
        const unsigned Ch = channelOf(St.CommId, V.Id, DstId);
        if (Faults.active()) {
          Channel &C = Chans[Ch];
          M.Seq = C.SendSeq++;
          C.HasSendSeq = C.HasRecvSeq = true;
          if (M.Seq < C.RecvSeq) {
            // Replay of a send the receiver consumed before the
            // rollback line: suppressed on arrival.
            ++Ctx.C.DuplicatesSuppressed;
          } else {
            push(Ch, std::move(M), Ctx);
          }
        } else {
          push(Ch, std::move(M), Ctx);
        }
      } else if (Faults.active()) {
        // Reliable transport: stop-and-wait per packet with acks and
        // bounded exponential-backoff retransmission. Every receiver is
        // its own acknowledged channel, so the multicast burst
        // wire-sharing shortcut does not apply here.
        // Chan keys the fault schedule; Ch indexes the channel table.
        uint64_t Chan = FaultModel::channelId(St.CommId, V.Coord, Dst.Coord);
        auto CG = ChanGuard();
        const unsigned Ch = channelOf(St.CommId, V.Id, DstId);
        uint64_t Seq = Chans[Ch].SendSeq++;
        Chans[Ch].HasSendSeq = Chans[Ch].HasRecvSeq = true;
        M.Seq = Seq;
        // During post-rollback replay the receiver may already be past
        // this sequence number (it consumed the original before the
        // checkpoint line): deliveries are then acknowledged but
        // suppressed on arrival, never enqueued. Impossible outside
        // replay — a fresh sequence number is never below the window.
        const bool BelowWindow = Seq < Chans[Ch].RecvSeq;
        double SendCost =
            (Opts.Cost.MsgLatency + M.WordCount * Opts.Cost.SendPerWord) *
            SF;
        double IssueCost =
            (Opts.Cost.SendIssueOverhead +
             M.WordCount * Opts.Cost.SendPerWord) *
            SF;
        double Start;
        if (Early) {
          // Issue: the CPU hands the packet to the NIC and moves on;
          // the stop-and-wait attempts below run on the NIC, which
          // serializes this physical processor's in-flight sends.
          Clock += IssueCost;
          Busy += IssueCost;
          BusyProtocol[V.Phys] += IssueCost;
          Start = std::max(Clock, NetFree[V.Phys]);
        } else {
          Start = Clock;
        }
        double DeliverLat =
            (Opts.Cost.MsgLatency +
             static_cast<double>(M.WordCount) *
                 Opts.Cost.WireTimePerWord) *
            LinkF;
        // Widened: MaxRetries == UINT_MAX must mean "retry forever",
        // not wrap MaxAttempts to 0 (which skipped the attempt loop,
        // silently dropped the packet, and underflowed Made - 1 below).
        const uint64_t MaxAttempts =
            static_cast<uint64_t>(Opts.Faults.MaxRetries) + 1;
        unsigned Made = 0;
        bool Delivered = false, Acked = false;
        double Offset = 0; // accumulated backoff before each attempt
        for (uint64_t A = 0; A != MaxAttempts && !Acked; ++A) {
          Offset += Faults.backoffDelay(A);
          ++Made;
          if (Faults.partitioned(Chan, Seq, A)) {
            // Transient partition: the link blackholes this attempt
            // (and would its ack); the sender's exponential backoff
            // eventually spans the seeded outage.
            ++Ctx.C.PartitionDrops;
            continue;
          }
          if (Faults.dropData(Chan, Seq, A)) {
            ++Ctx.C.DroppedPackets;
            continue;
          }
          if (Faults.corruptData(Chan, Seq, A)) {
            // Checksum failure at the receiver: the corrupted copy is
            // discarded and a NACK triggers the next retransmission.
            ++Ctx.C.CorruptedPackets;
            ++Ctx.C.NacksSent;
            continue;
          }
          Delivered = true;
          if (BelowWindow) {
            ++Ctx.C.DuplicatesSuppressed;
          } else {
            Message Copy = M;
            Copy.ReadyTime = Start + Offset + SendCost + DeliverLat +
                             Faults.deliveryDelay(Chan, Seq, A, 0);
            push(Ch, std::move(Copy), Ctx);
          }
          ++Ctx.C.AcksSent; // the receiver acknowledges this copy
          if (Faults.duplicate(Chan, Seq, A)) {
            if (BelowWindow) {
              ++Ctx.C.DuplicatesSuppressed;
            } else {
              Message Dup = M;
              Dup.ReadyTime = Start + Offset + SendCost + DeliverLat +
                              Faults.deliveryDelay(Chan, Seq, A, 1);
              push(Ch, std::move(Dup), Ctx);
            }
            ++Ctx.C.AcksSent;
          }
          if (!Faults.dropAck(Chan, Seq, A))
            Acked = true;
        }
        Ctx.C.Retransmissions += Made - 1;
        // Messages/Words stay logical (one per app-level send) so the
        // counters remain comparable across fault schedules; the wire
        // overhead shows up in Retransmissions and the clocks.
        ++Ctx.C.Messages;
        Ctx.C.Words += M.WordCount;
        if (LinkF > 1.0)
          ++Ctx.C.SlowLinkMessages;
        if (Early) {
          // The NIC is busy through every attempt's backoff plus the
          // final transmission; the CPU already paid IssueCost and
          // keeps computing. Only the not-also-on-CPU share counts as
          // deferred.
          NetFree[V.Phys] = Start + Offset + SendCost;
          NetDeferred[V.Phys] += SendCost - IssueCost;
          ++Ctx.C.EarlySends;
        } else {
          Clock += SendCost;
          Busy += SendCost * Made;
          BusyProtocol[V.Phys] += SendCost * Made;
        }
        if (!Delivered)
          Ctx.Failures.push_back(
              TransportFailure{St.CommId, V.Coord, Dst.Coord, Seq, Made});
      } else if (InBurst && V.BurstPhys.count(DstPhys)) {
        // Same physical processor already got this content in the burst:
        // one wire message serves every folded virtual processor.
        ++Ctx.C.IntraMessages;
        M.ReadyTime = V.BurstReady;
        auto CG = ChanGuard();
        push(channelOf(St.CommId, V.Id, DstId), std::move(M), Ctx);
      } else {
        const bool ExtraDest = InBurst && !V.BurstPhys.empty();
        double C;
        if (ExtraDest)
          C = Opts.Cost.MulticastExtraDest;
        else
          C = Opts.Cost.MsgLatency + M.WordCount * Opts.Cost.SendPerWord;
        ++Ctx.C.Messages;
        Ctx.C.Words += M.WordCount;
        if (LinkF > 1.0)
          ++Ctx.C.SlowLinkMessages;
        if (Early) {
          // The CPU pays only the pack + issue overhead; the fixed
          // per-message latency runs on the NIC, which serializes this
          // physical processor's outstanding sends. The NIC cuts
          // through — protocol processing pipelines into the flight —
          // so the consumer-visible path carries one MsgLatency where
          // the blocking rendezvous pays it twice (sender software,
          // then wire).
          double CpuC =
              Opts.Cost.SendIssueOverhead +
              (ExtraDest ? 0.0 : M.WordCount * Opts.Cost.SendPerWord);
          double NicC = ExtraDest ? Opts.Cost.MulticastExtraDest
                                  : Opts.Cost.MsgLatency;
          Clock += CpuC;
          Busy += CpuC;
          BusyProtocol[V.Phys] += CpuC;
          double Done = std::max(Clock, NetFree[V.Phys]) + NicC;
          NetFree[V.Phys] = Done;
          NetDeferred[V.Phys] += C - CpuC;
          ++Ctx.C.EarlySends;
          M.ReadyTime = Done + static_cast<double>(M.WordCount) *
                                   Opts.Cost.WireTimePerWord * LinkF;
        } else {
          Clock += C;
          Busy += C;
          BusyProtocol[V.Phys] += C;
          M.ReadyTime = Clock + (Opts.Cost.MsgLatency +
                                 static_cast<double>(M.WordCount) *
                                     Opts.Cost.WireTimePerWord) *
                                    LinkF;
        }
        V.BurstPhys.insert(DstPhys);
        V.BurstReady = M.ReadyTime;
        auto CG = ChanGuard();
        push(channelOf(St.CommId, V.Id, DstId), std::move(M), Ctx);
      }
      V.LastMulticastComm = St.IsMulticast ? static_cast<int>(St.CommId)
                                           : -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::Recv: {
      unsigned SrcId = 0;
      if (!peerIndex(St, V.Env, SrcId)) {
        // No processor can ever send from outside the grid: the receive
        // blocks for good, parked on no channel, and the stall report
        // names the peer.
        V.Blocked = true;
        V.LastBlock = PendingRecv{V.Coord, V.Phys, St.CommId,
                                  peerCoord(V, St)};
        V.LastBlock.PeerOutsideGrid = true;
        V.BlockChan = VirtProc::NoChan;
        --Ctx.Executed;
        --V.Steps;
        return Ran;
      }
      bool Transport = Faults.active();
      // Threaded wavefront rule: within a round the sequential scheduler
      // runs lower-index processors' slices first, so their pushes this
      // round ARE visible to this receive — the worker must wait for such
      // a sender to finish its slice before it can conclude anything
      // about the channel. With the transport engaged the wait is strict
      // (before the first poll): rollback replay can interleave surviving
      // in-flight copies with replayed same-sequence pushes, so even a
      // deliverable-looking queue is not decisive until the sender's
      // slice is complete.
      const bool SenderBelow = TE && SrcId < V.Id;
      if (SenderBelow && Transport)
        TE->waitProcDone(SrcId, Ctx.Round);
      Message M;
      uint64_t Expect = 0;
      for (;;) {
        auto CG = ChanGuard();
        const unsigned Ch = channelOf(St.CommId, SrcId, V.Id);
        Channel &C = Chans[Ch];
        std::vector<Message> &Q = C.Queue;
        if (Transport) {
          Expect = C.RecvSeq;
          C.HasRecvSeq = true;
        }
        // A message is visible if the sequential engine would have
        // enqueued it by the time this receive runs: pushed in an
        // earlier round, or this round by a sender whose slice the
        // sequential scheduler runs no later than ours. One channel has
        // one sender, so visibility is a queue prefix.
        auto VisibleAt = [&](const Message &Cand) {
          return !TE || Cand.PushRound < Ctx.Round ||
                 Cand.SenderId <= V.Id;
        };
        // Which queued message can this receive consume? Without the
        // transport: the front (FIFO). With it: the earliest-arriving
        // copy carrying exactly the expected sequence number; later
        // sequence numbers may already be buffered (reordered delivery)
        // but must wait their turn.
        int Pick = -1;
        uint64_t Visible = 0;
        if (!Transport) {
          for (const Message &Cand : Q)
            if (VisibleAt(Cand))
              ++Visible;
          if (Visible != 0)
            Pick = 0;
        } else {
          for (unsigned I = 0; I != Q.size(); ++I) {
            const Message &Cand = Q[I];
            if (!VisibleAt(Cand))
              continue;
            ++Visible;
            if (Cand.Seq != Expect)
              continue;
            if (Pick < 0 ||
                Cand.ReadyTime < Q[static_cast<unsigned>(Pick)].ReadyTime)
              Pick = static_cast<int>(I);
          }
        }
        if (Pick < 0) {
          // Nothing deliverable. If a lower-index sender has not yet
          // finished its slice this round, its (visible) push may still
          // be coming: wait and re-poll rather than block.
          if (SenderBelow && !TE->procDone(SrcId, Ctx.Round)) {
            CG.unlock();
            TE->waitProcDone(SrcId, Ctx.Round);
            continue;
          }
          // A blocked receive attempt is NOT progress: if every
          // processor ends up here, the scheduler must report deadlock
          // rather than spin retrying. Record what we were waiting for
          // so the detector can name it. The visible count equals the
          // sequential queue size at every stall fixed-point (a
          // no-progress round pushes nothing).
          V.Blocked = true;
          V.LastBlock.Coord = V.Coord;
          V.LastBlock.Phys = V.Phys;
          V.LastBlock.CommId = St.CommId;
          V.LastBlock.Peer = Procs[SrcId].Coord;
          V.LastBlock.PeerOutsideGrid = false;
          V.BlockChan = Ch;
          V.LastBlock.ExpectedSeq = Expect;
          V.LastBlock.BufferedAhead = Visible;
          --Ctx.Executed;
          --V.Steps;
          return Ran;
        }
        M = std::move(Q[static_cast<unsigned>(Pick)]);
        Q.erase(Q.begin() + Pick);
        if (Transport) {
          // Suppress every other copy of this packet (wire duplicates
          // and retransmissions whose ack was lost). Invisible copies
          // with this sequence number are suppressed too: the
          // sequential engine would have suppressed them at send time
          // (the receiver's cursor is already past them when the sender
          // runs later in the round), so totals and final queue state
          // agree either way.
          for (unsigned I = 0; I != Q.size();) {
            if (Q[I].Seq == Expect) {
              Q.erase(Q.begin() + I);
              ++Ctx.C.DuplicatesSuppressed;
            } else {
              ++I;
            }
          }
          C.RecvSeq = Expect + 1;
        }
        // A drained queue gives its buffer back, so the table's memory
        // follows the messages in flight rather than every channel used.
        if (Q.empty())
          std::vector<Message>().swap(Q);
        break;
      }
      Ran = true;
      if (M.ReadyTime > Clock)
        Clock = M.ReadyTime; // waiting, not busy
      uint64_t Cursor = 0, Count = 0;
      runItems(V, St.Body, nullptr, M.Data.get(), Cursor, Count);
      if (Count != M.WordCount)
        fatalError("message length mismatch between sender and receiver");
      double C = M.FromMulticast
                     ? 0.0
                     : static_cast<double>(Count) * Opts.Cost.RecvPerWord;
      if (Transport)
        C += Opts.Cost.MsgLatency; // acknowledgement transmission
      C *= SF;
      Clock += C;
      Busy += C;
      BusyProtocol[V.Phys] += C;
      V.LastMulticastComm = -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::PackElem:
    case SpmdStmt::Kind::UnpackElem:
      fatalError("pack/unpack outside a message body");
    }
    Ran = true;
  }
  if (V.Stack.empty())
    V.Finished = true;
  return Ran;
}

Simulator::RoundFlags Simulator::runRoundSequential() {
  RoundFlags F;
  for (VirtProc &V : Procs) {
    if (V.Crashed) {
      // Dead until a rollback reincarnates it.
      F.AllDone = false;
      F.AnyDead = true;
      continue;
    }
    if (V.Finished)
      continue;
    V.Blocked = false;
    StepCtx Ctx{Ctr, Failures, CrashLog, RunError};
    Ctx.EventsBase = Events;
    if (stepProc(V, Ctx))
      F.Progress = true;
    F.OverBudget = F.OverBudget || Ctx.OverBudget;
    Events += Ctx.Executed;
    if (V.Crashed)
      F.AnyDead = true;
    if (!V.Finished)
      F.AllDone = false;
  }
  return F;
}

SimResult Simulator::run() {
  SimResult R;
  execute(R);
  // Telemetry sums run in fixed physical order, so they are
  // bit-identical across worker counts.
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
    R.Recovery.ComputeSeconds += BusyCompute[Ph];
    R.Recovery.ProtocolSeconds += BusyProtocol[Ph];
    R.Recovery.CheckpointSeconds += BusyCheckpoint[Ph];
    R.Overlap.DeferredSeconds += NetDeferred[Ph];
    R.Overlap.ExposedSeconds += NetExposed[Ph];
  }
  R.Recovery.RecoverySeconds = RecoveryExtraSeconds;
  static_cast<SimCounters &>(R) = Ctr;
  return R;
}

void Simulator::execute(SimResult &R) {
  const bool Recovery = Opts.Checkpoint.enabled();
  if (Opts.Engine == SimEngine::Event && Opts.Threads != 1) {
    R.Error = "Simulator: the event engine is single-threaded; "
              "SimEngine::Event requires Threads == 1";
    return;
  }
  const unsigned Workers = effectiveWorkers();
  std::unique_ptr<ThreadEngine> TE;
  if (Workers > 1)
    TE = std::make_unique<ThreadEngine>(*this, Workers);
  if (Recovery) {
    // Free initial checkpoint: the staged input state itself is the
    // rollback line until the first interval elapses. In durable-resume
    // mode the newest intact on-disk image replaces it — the restored
    // line already exists on disk, so no fresh initial snapshot is
    // taken and replay continues bit-identically to the uninterrupted
    // run. With no usable image the run starts (and persists) fresh.
    NextCheckpointEvents = Opts.Checkpoint.IntervalSteps;
    if (!(Opts.Checkpoint.Resume && Opts.Checkpoint.durable() &&
          resumeFromDurable(R)))
      takeCheckpoint(R, /*Initial=*/true);
  }
  // Built after the prologue: a durable resume changes which processors
  // are already finished, and reset() reads those flags.
  std::unique_ptr<EventEngine> EE;
  if (Opts.Engine == SimEngine::Event)
    EE = std::make_unique<EventEngine>(*this);
  while (true) {
    RoundFlags F = TE   ? TE->runRound()
                   : EE ? EE->runRound()
                        : runRoundSequential();
    if (F.OverBudget) {
      R.Ok = false;
      R.Diag.EventBudgetExhausted = true;
      R.Error = "simulation event budget exhausted (" +
                std::to_string(Opts.MaxEvents) + " events)";
      return;
    }
    if (!RunError.empty()) {
      R.Ok = false;
      R.Error = RunError;
      return;
    }
    if (F.AllDone) {
      R.Ok = true;
      break;
    }
    // Coordinated checkpoint at the round boundary — a consistent cut
    // by construction (every processor paused at a statement boundary
    // once the interval elapsed). Never snapshot while a processor is
    // dead: its volatile state is gone, and the pre-crash line must
    // stay available for rollback.
    if (Recovery && !F.AnyDead && Events >= NextCheckpointEvents) {
      takeCheckpoint(R, /*Initial=*/false);
      continue;
    }
    if (!F.Progress) {
      // Machine stalled. With dead processors and a rollback line this
      // is the (abstracted) failure detection point: roll back and
      // replay. Anything else is terminal.
      if (F.AnyDead && Recovery &&
          R.Recovery.Rollbacks < Opts.Checkpoint.MaxRollbacks) {
        restoreCheckpoint(R);
        if (EE)
          EE->reset(); // everyone reincarnated and unblocked
        continue;
      }
      reportStall(R);
      return;
    }
  }
  // Undelivered messages indicate a send/receive mismatch.
  uint64_t Leftover = 0;
  for (const Channel &C : Chans)
    Leftover += C.Queue.size();
  if (Leftover != 0) {
    R.Ok = false;
    R.Diag.InFlightMessages = Leftover;
    R.Diag.RetryExhausted = Failures;
    R.Diag.TotalProcs = Procs.size();
    R.Diag.FinishedProcs = Procs.size();
    R.Error = "unconsumed messages remain in the network (" +
              std::to_string(Leftover) + " copies)";
    return;
  }
  if (!Failures.empty()) {
    // Every processor finished yet some packet exhausted its retries:
    // the program never waited for it, which is a compilation bug.
    R.Ok = false;
    R.Diag.RetryExhausted = Failures;
    R.Diag.TotalProcs = Procs.size();
    R.Diag.FinishedProcs = Procs.size();
    R.Error = "transport gave up on " +
              std::to_string(Failures.size()) +
              " packet(s) nobody was waiting for";
    return;
  }
  R.TotalEvents = Events;
  // Drain the NICs: a processor whose network interface is still
  // pushing out an early send is finished computing but not done — the
  // remaining occupancy is exposed (un-overlapped) latency and counts
  // toward the makespan, though not toward busy time.
  for (unsigned Ph = 0, E2 = static_cast<unsigned>(PhysClock.size());
       Ph != E2; ++Ph)
    if (NetFree[Ph] > PhysClock[Ph]) {
      NetExposed[Ph] += NetFree[Ph] - PhysClock[Ph];
      PhysClock[Ph] = NetFree[Ph];
    }
  R.MakespanSeconds = 0;
  for (double C : PhysClock)
    R.MakespanSeconds = std::max(R.MakespanSeconds, C);
  R.PhysBusy = PhysBusy;
}

//===----------------------------------------------------------------------===//
// Checkpoint / restart
//===----------------------------------------------------------------------===//

void Simulator::takeCheckpoint(SimResult &R, bool Initial) {
  // The new line is copied into the old one's storage: every field is
  // overwritten, and the copies reuse its allocations.
  std::unique_ptr<Checkpoint> CK =
      Stable ? std::move(Stable) : std::make_unique<Checkpoint>();
  CK->Procs.assign(Procs.begin(), Procs.end());
  CK->WordsPerPhys.assign(PhysClock.size(), 0);
  for (const VirtProc &V : Procs)
    CK->WordsPerPhys[V.Phys] += V.words();
  for (unsigned Ch = 0, E = Chans.size(); Ch != E; ++Ch) {
    // Receive buffers are part of the channel state; they are
    // checkpointed where they live, on the receiver.
    unsigned Ph = Procs[Chans[Ch].Key.Dst].Phys;
    for (const Message &M : Chans[Ch].Queue)
      CK->WordsPerPhys[Ph] += M.WordCount + 2; // payload + header
  }
  CK->Chans = Chans;
  CK->Failures = Failures;
  CK->Counters = Ctr;
  CK->EventsAtTaken = Events;

  uint64_t TotalWords = 0;
  for (uint64_t W : CK->WordsPerPhys)
    TotalWords = addSat(TotalWords, W);
  ++R.Recovery.CheckpointsTaken;
  R.Recovery.CheckpointBytes =
      addSat(R.Recovery.CheckpointBytes, mulSat(TotalWords, 8));

  if (!Initial) {
    // Coordinated: every processor synchronizes at the line, then
    // writes its state to the stable store.
    double Line = 0;
    for (double C : PhysClock)
      Line = std::max(Line, C);
    for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
      double C = Opts.Checkpoint.LatencySeconds +
                 static_cast<double>(CK->WordsPerPhys[Ph]) *
                     Opts.Checkpoint.PerWordSeconds;
      PhysClock[Ph] = Line + C;
      PhysBusy[Ph] += C;
      BusyCheckpoint[Ph] += C;
    }
  }
  // Bucket snapshot taken after charging: the checkpoint's own cost is
  // inside its line and is never treated as undone work.
  CK->BusyCompute = BusyCompute;
  CK->BusyProtocol = BusyProtocol;
  CK->BusyCheckpoint = BusyCheckpoint;

  Stable = std::move(CK);
  // Saturating: an interval near 2^64 must disable further triggers,
  // not wrap the trigger behind Events (a permanently-armed gate turns
  // every subsequent round into a checkpoint livelock).
  NextCheckpointEvents = addSat(Events, Opts.Checkpoint.IntervalSteps);
  ReplayBaseEvents = Events;

  // Durable mode (DESIGN.md §13): the line just drawn also goes to the
  // host filesystem, so a SIGKILL of this process loses at most the
  // work since this checkpoint.
  if (Opts.Checkpoint.durable())
    persistDurable(R);
}

void Simulator::loadLine(const Checkpoint &CK) {
  for (unsigned I = 0, E = Procs.size(); I != E; ++I) {
    static_cast<ProcState &>(Procs[I]) = CK.Procs[I];
    Procs[I].Crashed = false;
    Procs[I].Blocked = false;
  }
  // Channel state: the line's receive buffers, plus whatever was still
  // in flight from sends made after the line (sequence number at or past
  // the line's sender cursor — a pre-line sender state will NOT replay
  // those sends, so their copies must survive). Replayed sends that the
  // receiver already consumed are suppressed on arrival by the
  // sequence-number window. A resume has nothing in flight yet.
  const Channel Untouched; // a channel first used after the line
  for (unsigned Ch = 0, E = Chans.size(); Ch != E; ++Ch) {
    const Channel &Line = Ch < CK.Chans.size() ? CK.Chans[Ch] : Untouched;
    Channel &C = Chans[Ch];
    std::vector<Message> Merged = Line.Queue;
    for (Message &M : C.Queue)
      if (M.Seq >= Line.SendSeq)
        Merged.push_back(std::move(M));
    C.HasQueue = Line.HasQueue || Merged.size() != Line.Queue.size();
    C.Queue = std::move(Merged);
    C.SendSeq = Line.SendSeq;
    C.RecvSeq = Line.RecvSeq;
    C.HasSendSeq = Line.HasSendSeq;
    C.HasRecvSeq = Line.HasRecvSeq;
  }
  Failures = CK.Failures;
  BusyCompute = CK.BusyCompute;
  BusyProtocol = CK.BusyProtocol;
  BusyCheckpoint = CK.BusyCheckpoint;
  // A recovered run reports the same logical traffic and arithmetic as
  // a fault-free one; the wire-level counters stay monotonic.
  Ctr.rewindTo(CK.Counters);
  ReplayBaseEvents = Events;
  NextCheckpointEvents = addSat(Events, Opts.Checkpoint.IntervalSteps);
}

void Simulator::restoreCheckpoint(SimResult &R) {
  const Checkpoint &CK = *Stable;
  ++R.Recovery.Rollbacks;
  R.Recovery.ReplayedSteps += Events - ReplayBaseEvents;
  R.Recovery.ReplayedMessages += Ctr.sent() - CK.Counters.sent();

  // Work done past the line is undone: move it into the recovery bucket
  // so Compute/Protocol/Checkpoint keep charging each useful unit once.
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph)
    RecoveryExtraSeconds += (BusyCompute[Ph] - CK.BusyCompute[Ph]) +
                            (BusyProtocol[Ph] - CK.BusyProtocol[Ph]) +
                            (BusyCheckpoint[Ph] - CK.BusyCheckpoint[Ph]);

  // Reincarnate every processor from the line. HasCrashed is NOT
  // restored: a processor's one scheduled crash stays spent, so replay
  // passes through the crash point unharmed.
  loadLine(CK);

  // Clocks never rewind: survivors sit through the failure-detection
  // window, then every processor reads the checkpoint back from the
  // stable store.
  double Line = 0;
  for (double C : PhysClock)
    Line = std::max(Line, C);
  Line += Opts.Checkpoint.DetectSeconds;
  RecoveryExtraSeconds += Opts.Checkpoint.DetectSeconds;
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
    double C = Opts.Checkpoint.RestoreLatencySeconds +
               static_cast<double>(CK.WordsPerPhys[Ph]) *
                   Opts.Checkpoint.RestorePerWordSeconds;
    PhysClock[Ph] = Line + C;
    PhysBusy[Ph] += C;
    RecoveryExtraSeconds += C;
  }
}

//===----------------------------------------------------------------------===//
// Durable stable store (DESIGN.md §13)
//===----------------------------------------------------------------------===//
//
// A durable image is one stable-store frame (type "CKPT") whose payload
// is a versioned, self-validating serialization of the FULL machine
// state at a checkpoint line: the Checkpoint itself plus what never
// rewinds — clocks, the NIC, crash history and the partial SimResult
// accumulators — because a resumed process must report telemetry
// bit-identical to the uninterrupted run. Doubles travel as IEEE-754 bit
// patterns; call-stack frames are encoded as (is-loop, position, loop
// cursor/bound) paths and re-anchored onto the resumed process's
// deterministically recompiled SPMD tree.
//
// One io() per state type (Simulator::Image) drives both ImageWriter and
// ImageReader, so the two directions share one field list. The reader
// validates in its primitives: counts bounded by the bytes left, indices
// and lengths checked against the machine.
//
// What is deliberately NOT serialized:
//  - Message::SenderId/PushRound: at a checkpoint line every queued
//    message was pushed in a strictly earlier round, so both decode as
//    0, which the threaded engine's wavefront rule treats as
//    always-visible — exactly the visibility those messages had.
//  - SlowFactor and the fault schedule: recomputed from the seed.
//  - NextCheckpointEvents/ReplayBaseEvents: recomputed from Events.

namespace {

/// Frame type tag of a checkpoint image ("CKPT").
constexpr uint32_t CkptFrameType = 0x434B5054u;
/// Bumped whenever the image payload layout changes; a mismatch makes
/// the resume scan skip the file as incompatible.
constexpr uint32_t CkptImageVersion = 1;
/// ImageReader::vec's default: any length is acceptable.
constexpr uint64_t AnyLength = ~uint64_t(0);

/// Encodes an image through Simulator::Image::io.
class ImageWriter {
public:
  static constexpr bool Reading = false;

  template <class T> void u8(const T &X) { W.u8(static_cast<uint8_t>(X)); }
  template <class T> void u32(const T &X) {
    W.u32(static_cast<uint32_t>(X));
  }
  template <class T> void u64(const T &X) {
    W.u64(static_cast<uint64_t>(X));
  }
  template <class T> void i64(const T &X) { W.i64(static_cast<int64_t>(X)); }
  void f64(const double &X) { W.f64(X); }
  void index(const unsigned &X, uint64_t /*Limit*/) { W.u32(X); }
  void count(const uint64_t &N, size_t /*MinBytes*/) { W.u64(N); }
  template <class T>
  void vec(const std::vector<T> &V, uint64_t /*Exact*/ = AnyLength) {
    W.u64(V.size());
    for (const T &X : V)
      elem(X);
  }
  template <class C, class Fn>
  void each(C &Items, size_t /*MinBytes*/, Fn F) {
    W.u64(Items.size());
    for (auto &X : Items)
      F(X);
  }
  void require(bool) {}
  bool ok() const { return true; }
  std::vector<uint8_t> take() { return W.take(); }

private:
  void elem(const IntT &X) { W.i64(X); }
  void elem(const uint64_t &X) { W.u64(X); }
  void elem(const double &X) { W.f64(X); }

  stable::ByteWriter W;
};

/// Decodes an image through Simulator::Image::io. Every primitive
/// validates what it reads, and the first failure is sticky: later
/// counts read as zero, so a damaged image can neither index out of
/// range nor size an allocation past the bytes it holds.
class ImageReader {
public:
  static constexpr bool Reading = true;

  explicit ImageReader(const std::vector<uint8_t> &Bytes) : R(Bytes) {}

  template <class T> void u8(T &X) { X = static_cast<T>(R.u8()); }
  template <class T> void u32(T &X) { X = static_cast<T>(R.u32()); }
  template <class T> void u64(T &X) { X = static_cast<T>(R.u64()); }
  template <class T> void i64(T &X) { X = static_cast<T>(R.i64()); }
  void f64(double &X) { X = R.f64(); }
  /// An index that must lie below \p Limit.
  void index(unsigned &X, uint64_t Limit) {
    X = R.u32();
    require(X < Limit);
  }
  /// A count of items that follow, each at least \p MinBytes long, so
  /// it can never exceed what the remaining bytes could hold.
  void count(uint64_t &N, size_t MinBytes) {
    N = R.u64();
    require(N <= R.remaining() / MinBytes);
    if (!ok())
      N = 0;
  }
  /// A count-prefixed vector of 8-byte elements, of length \p Exact
  /// unless that is AnyLength.
  template <class T>
  void vec(std::vector<T> &V, uint64_t Exact = AnyLength) {
    uint64_t N;
    count(N, 8);
    require(Exact == AnyLength || N == Exact);
    V.resize(ok() ? N : 0);
    for (T &X : V)
      elem(X);
  }
  /// A counted sequence: \p F decodes each item, which is then inserted
  /// at the end of \p Items (duplicate set keys are dropped).
  template <class C, class Fn> void each(C &Items, size_t MinBytes, Fn F) {
    uint64_t N;
    count(N, MinBytes);
    for (uint64_t K = 0; K != N && ok(); ++K) {
      typename C::value_type X{};
      F(X);
      Items.insert(Items.end(), std::move(X));
    }
  }
  void require(bool Cond) { Bad = Bad || !Cond; }
  bool ok() const { return !Bad && R.ok(); }
  /// Every check passed and the whole payload was consumed.
  bool done() const { return !Bad && R.atEnd(); }

private:
  void elem(IntT &X) { X = R.i64(); }
  void elem(uint64_t &X) { X = R.u64(); }
  void elem(double &X) { X = R.f64(); }

  stable::ByteReader R;
  bool Bad = false;
};

/// The on-disk filename of the image at global step \p Events,
/// zero-padded so lexicographic directory order is numeric order.
std::string ckptFileName(uint64_t Events) {
  char Name[48];
  std::snprintf(Name, sizeof(Name), "ckpt-%020llu.dmc",
                static_cast<unsigned long long>(Events));
  return Name;
}

} // namespace

struct Simulator::Image {
  /// What an image holds beyond the rollback line: state that never
  /// rewinds, and the run-so-far telemetry a fresh SimResult in the
  /// resumed process has to inherit.
  struct Monotonic {
    std::vector<double> PhysClock, PhysBusy, NetFree, NetDeferred,
        NetExposed;
    std::vector<char> HasCrashed;
    std::vector<CrashEvent> CrashLog;
    double RecoveryExtraSeconds = 0;
    RecoveryStats Recovery;
  };

  /// The channel table in image order: present channels only, in
  /// ascending key order. The writer builds it from a checkpoint's
  /// table; the reader fills it, and the resume interns its keys.
  using ChannelMap = std::map<ChanKey, Channel>;

  const Simulator &S;

  /// The whole image, in its version-1 byte order.
  template <class Ar>
  void io(Ar &A, Checkpoint &CK, Monotonic &M, ChannelMap &Chans) const {
    // Identity: a resumed process must be running the same deterministic
    // compilation with the same grid and parameters, or the encoded
    // call-stack paths and environments are meaningless.
    const unsigned Dims = S.CP.Spmd.GridDims;
    const uint64_t NPhys = S.PhysClock.size();
    uint32_t Version = CkptImageVersion, ImgDims = Dims;
    uint64_t ImgProcs = S.Procs.size(), ImgPhys = NPhys;
    std::vector<IntT> ImgParams = S.ParamEnv;
    A.u32(Version);
    A.u64(ImgProcs);
    A.u64(ImgPhys);
    A.u32(ImgDims);
    A.vec(ImgParams);
    A.require(Version == CkptImageVersion && ImgProcs == S.Procs.size() &&
              ImgPhys == NPhys && ImgDims == Dims &&
              ImgParams == S.ParamEnv);
    if (!A.ok())
      return;

    A.u64(CK.EventsAtTaken);
    io(A, CK.Counters);
    io(A, M.Recovery);
    A.f64(M.RecoveryExtraSeconds);
    for (std::vector<double> *V :
         {&M.PhysClock, &M.PhysBusy, &CK.BusyCompute, &CK.BusyProtocol,
          &CK.BusyCheckpoint, &M.NetFree, &M.NetDeferred, &M.NetExposed})
      A.vec(*V, NPhys);
    // Per-processor sections carry no count: the machine fixes it.
    M.HasCrashed.resize(S.Procs.size());
    for (char &C : M.HasCrashed)
      A.u8(C);
    A.each(M.CrashLog, 28, [&](CrashEvent &C) { io(A, C); });
    A.each(CK.Failures, 32, [&](TransportFailure &F) { io(A, F); });
    A.vec(CK.WordsPerPhys, NPhys);
    CK.Procs.resize(S.Procs.size());
    for (ProcState &PS : CK.Procs)
      io(A, PS);

    // Channel state: the receive queues, then the send cursors, then
    // the receive cursors, each section listing the channels present in
    // it in ascending key order.
    section(A, Chans, &Channel::HasQueue, [&](Channel &C) {
      A.each(C.Queue, 33, [&](Message &Msg) { io(A, Msg); });
    });
    section(A, Chans, &Channel::HasSendSeq,
            [&](Channel &C) { A.u64(C.SendSeq); });
    section(A, Chans, &Channel::HasRecvSeq,
            [&](Channel &C) { A.u64(C.RecvSeq); });
  }

  /// One channel section: a count, then per channel its key and what
  /// \p Body encodes. The reader requires strictly ascending keys, so a
  /// channel appears at most once per section.
  template <class Ar, class Fn>
  void section(Ar &A, ChannelMap &Chans, bool Channel::*Has,
               Fn Body) const {
    uint64_t N = 0;
    if constexpr (!Ar::Reading)
      for (const auto &KV : Chans)
        N += KV.second.*Has;
    A.count(N, 16);
    if constexpr (Ar::Reading) {
      std::optional<ChanKey> Prev;
      for (uint64_t K = 0; K != N && A.ok(); ++K) {
        ChanKey Key;
        io(A, Key);
        A.require(!Prev || *Prev < Key);
        if (!A.ok())
          return;
        Prev = Key;
        Channel &C = Chans[Key];
        C.*Has = true;
        Body(C);
      }
    } else {
      for (auto &[Key, C] : Chans)
        if (C.*Has) {
          ChanKey K = Key;
          io(A, K);
          Body(C);
        }
    }
  }

  /// A channel key travels as (comm id, sender coordinate, receiver
  /// coordinate); the reader requires both coordinates in the grid.
  template <class Ar> void io(Ar &A, ChanKey &K) const {
    const unsigned Dims = S.CP.Spmd.GridDims;
    std::vector<IntT> Raw;
    if constexpr (!Ar::Reading) {
      Raw.push_back(K.Comm);
      for (unsigned Id : {K.Src, K.Dst})
        Raw.insert(Raw.end(), S.Procs[Id].Coord.begin(),
                   S.Procs[Id].Coord.end());
    }
    A.vec(Raw, 1 + 2 * uint64_t(Dims));
    if constexpr (Ar::Reading) {
      if (!A.ok())
        return;
      std::vector<IntT> Src(Raw.begin() + 1, Raw.begin() + 1 + Dims),
          Dst(Raw.begin() + 1 + Dims, Raw.end());
      A.require(Raw[0] >= 0 &&
                Raw[0] <= std::numeric_limits<unsigned>::max() &&
                S.procIndexOf(Src, K.Src) && S.procIndexOf(Dst, K.Dst));
      K.Comm = static_cast<unsigned>(Raw[0]);
    }
  }

  template <class Ar> void io(Ar &A, SimCounters &C) const {
    for (const SimCounters::Field &F : SimCounters::Fields)
      A.u64(C.*F.Member);
  }

  /// The run-so-far totals; the time split is derived from the machine
  /// when the run ends.
  template <class Ar> void io(Ar &A, RecoveryStats &R) const {
    A.u64(R.CheckpointsTaken);
    A.u64(R.CheckpointBytes);
    A.u64(R.Rollbacks);
    A.u64(R.ReplayedSteps);
    A.u64(R.ReplayedMessages);
  }

  template <class Ar> void io(Ar &A, CrashEvent &C) const {
    A.vec(C.Coord, S.CP.Spmd.GridDims);
    A.index(C.Phys, S.PhysClock.size());
    A.u64(C.AtStep);
    A.f64(C.AtTime);
  }

  template <class Ar> void io(Ar &A, TransportFailure &F) const {
    A.u32(F.CommId);
    A.vec(F.Src, S.CP.Spmd.GridDims);
    A.vec(F.Dst, S.CP.Spmd.GridDims);
    A.u64(F.Seq);
    A.u32(F.Attempts);
  }

  template <class Ar> void io(Ar &A, ProcState &PS) const {
    A.vec(PS.Env, S.ParamEnv.size());
    A.vec(PS.ProgEnv, S.P.space().size());
    io(A, PS.Stack);
    A.u8(PS.Finished);
    A.u64(PS.Steps);
    io(A, PS.Store);
    A.i64(PS.LastMulticastComm);
    A.each(PS.BurstPhys, 4,
           [&](auto &Ph) { A.index(Ph, S.PhysClock.size()); });
    A.f64(PS.BurstReady);
    A.i64(PS.CachedPackComm);
    io(A, PS.CachedData);
    A.u64(PS.CachedCount);
  }

  template <class Ar> void io(Ar &A, std::vector<Frame> &Stack) const {
    // Frames index the lowered tree, which mirrors CP.Spmd's shape, so
    // the encoded paths are those of the compiled program.
    A.each(Stack, 25, [&](Frame &F) {
      uint8_t IsLoop = F.LoopStmt != nullptr;
      uint64_t Pos = F.Pos;
      A.u8(IsLoop);
      A.u64(Pos);
      A.i64(F.LoopCur);
      A.i64(F.LoopHi);
      if constexpr (Ar::Reading)
        A.require(anchor(Stack, F, IsLoop, Pos));
    });
  }

  /// Reader hook: re-anchors decoded frame \p F onto this process's SPMD
  /// tree below the frames already decoded. Each frame's list is the
  /// body of the statement its parent frame stands at (children are
  /// pushed after the parent's cursor advanced, so parent.Pos - 1 names
  /// that statement); the root frame is the Top sequence.
  bool anchor(const std::vector<Frame> &Stack, Frame &F, bool IsLoop,
              uint64_t Pos) const {
    if (Stack.empty()) {
      if (IsLoop)
        return false;
      F.List = S.Top;
    } else {
      const Frame &Par = Stack.back();
      if (Par.Pos < 1 || Par.Pos > Par.List.Size)
        return false;
      const ExecStmt &St = S.Stmts[Par.List.Begin + Par.Pos - 1];
      if (IsLoop && St.K != SpmdStmt::Kind::For)
        return false;
      F.List = St.Body;
      F.LoopStmt = IsLoop ? &St : nullptr;
    }
    if (Pos > F.List.Size)
      return false;
    F.Pos = static_cast<unsigned>(Pos);
    return true;
  }

  /// Held elements as (array, flat index, value) in ascending (array,
  /// flat index) order.
  template <class Ar> void io(Ar &A, ValueStore &Store) const {
    uint64_t N = Store.size();
    A.count(N, 20);
    auto Entry = [&](unsigned &ArrayId, IntT &Flat, double &Val) {
      A.index(ArrayId, S.P.numArrays());
      A.i64(Flat);
      A.f64(Val);
    };
    if constexpr (Ar::Reading) {
      // Reader hook: each key must name an element of a real array, in
      // strictly ascending order (so no duplicates), before it may size
      // a store window.
      Store = ValueStore(S.P.numArrays());
      unsigned PrevArray = 0;
      IntT PrevFlat = -1;
      for (uint64_t K = 0; K != N && A.ok(); ++K) {
        unsigned ArrayId = 0;
        IntT Flat = 0;
        double Val = 0;
        Entry(ArrayId, Flat, Val);
        // A.ok() first: a failed index leaves ArrayId out of range.
        A.require(A.ok() && Flat >= 0 && Flat < S.ArrayExtent[ArrayId] &&
                  (ArrayId > PrevArray ||
                   (ArrayId == PrevArray && Flat > PrevFlat)));
        if (!A.ok())
          return;
        Store.set(ArrayId, Flat, Val, S.ArrayExtent[ArrayId]);
        PrevArray = ArrayId;
        PrevFlat = Flat;
      }
    } else {
      Store.forEach([&](unsigned ArrayId, IntT Flat, double Val) {
        Entry(ArrayId, Flat, Val);
      });
    }
  }

  template <class Ar> void io(Ar &A, Message &M) const {
    io(A, M.Data);
    A.u64(M.WordCount);
    A.f64(M.ReadyTime);
    A.u8(M.FromMulticast);
    A.u64(M.Seq);
  }

  /// A payload travels as a vector of doubles; decoding shares it.
  template <class Ar> void io(Ar &A, Payload &D) const {
    if constexpr (Ar::Reading) {
      std::vector<double> V;
      A.vec(V);
      D = makePayload(std::move(V));
    } else {
      static const std::vector<double> None;
      A.vec(D ? *D : None);
    }
  }
};

void Simulator::persistDurable(const SimResult &R) {
  Image::Monotonic M{PhysClock,   PhysBusy,   NetFree,
                     NetDeferred, NetExposed, HasCrashed,
                     CrashLog,    RecoveryExtraSeconds, R.Recovery};
  Image::ChannelMap Present;
  for (const Channel &C : Stable->Chans)
    if (C.HasQueue || C.HasSendSeq || C.HasRecvSeq)
      Present.emplace(C.Key, C);
  ImageWriter W;
  Image{*this}.io(W, *Stable, M, Present);
  std::vector<uint8_t> Bytes = stable::encodeFrame(CkptFrameType, W.take());
  const std::string &Dir = Opts.Checkpoint.DurableDir;
  std::string Err;
  if (!stable::ensureDir(Dir, Err) ||
      !stable::atomicWriteFile(Dir + "/" + ckptFileName(Events), Bytes,
                               Err)) {
    std::string Msg = "durable checkpoint write failed: " + Err;
    fatalError(Msg.c_str());
  }
}

bool Simulator::resumeFromDurable(SimResult &R) {
  ResumeInfo.Attempted = true;
  const std::string &Dir = Opts.Checkpoint.DurableDir;
  std::vector<std::string> Files = stable::listFiles(Dir, "ckpt-", ".dmc");
  ResumeInfo.FilesSeen = static_cast<unsigned>(Files.size());

  // Newest first; skip (and count) anything torn, bit-damaged,
  // incompatible or failing validation. First intact image wins, and
  // the machine is touched only once every field has decoded.
  for (auto It = Files.rbegin(); It != Files.rend(); ++It) {
    std::string Path = Dir + "/" + *It;
    stable::ReadFramesResult RF = stable::readFrames(Path);
    auto Line = std::make_unique<Checkpoint>();
    Image::Monotonic M;
    Image::ChannelMap Decoded;
    bool Ok = RF.Error.empty() && !RF.TornTail && RF.Frames.size() == 1 &&
              RF.Frames[0].Type == CkptFrameType;
    if (Ok) {
      ImageReader A(RF.Frames[0].Payload);
      Image{*this}.io(A, *Line, M, Decoded);
      Ok = A.done();
    }
    if (!Ok) {
      ++ResumeInfo.CorruptSkipped;
      continue;
    }
    // Give the decoded channels ids in this process's table.
    for (auto &[Key, C] : Decoded) {
      unsigned Ch = channelOf(Key.Comm, Key.Src, Key.Dst);
      Line->Chans.resize(Chans.size());
      C.Key = Key;
      Line->Chans[Ch] = std::move(C);
    }
    // Checkpoints are never taken with dead processors, so every
    // processor comes back alive. Unlike a rollback, a resume also
    // restores the monotonic counters, clocks, NIC and crash history.
    Events = Line->EventsAtTaken;
    Ctr = Line->Counters;
    loadLine(*Line);
    PhysClock = std::move(M.PhysClock);
    PhysBusy = std::move(M.PhysBusy);
    NetFree = std::move(M.NetFree);
    NetDeferred = std::move(M.NetDeferred);
    NetExposed = std::move(M.NetExposed);
    HasCrashed = std::move(M.HasCrashed);
    CrashLog = std::move(M.CrashLog);
    RecoveryExtraSeconds = M.RecoveryExtraSeconds;
    R.Recovery = M.Recovery;
    // The decoded line is the in-memory stable store, so the next
    // in-simulation rollback has it, exactly as the uninterrupted run.
    Stable = std::move(Line);
    ResumeInfo.Resumed = true;
    ResumeInfo.ResumedAtEvents = Events;
    ResumeInfo.File = Path;
    return true;
  }
  return false;
}

std::string SimDiagnostics::str() const {
  constexpr unsigned MaxListed = 16;
  std::string S;
  if (!DeadProcs.empty()) {
    S += "crash-stop failure: " + std::to_string(DeadProcs.size()) +
         " of " + std::to_string(TotalProcs) +
         " virtual processors dead\n";
    for (unsigned I = 0; I != DeadProcs.size() && I != MaxListed; ++I) {
      const CrashEvent &C = DeadProcs[I];
      S += "  dead: vp" + coordStr(C.Coord) + " on phys " +
           std::to_string(C.Phys) + ", killed before its logical step " +
           std::to_string(C.AtStep) + "\n";
    }
    if (DeadProcs.size() > MaxListed)
      S += "  ... and " + std::to_string(DeadProcs.size() - MaxListed) +
           " more dead processors\n";
    if (!RecoveryEnabled)
      S += "  rollback line: none (checkpointing disabled — set "
           "SimOptions::Checkpoint / --checkpoint-interval to recover)\n";
    else if (!HasRollbackLine)
      S += "  rollback line: none (no checkpoint taken yet)\n";
    else
      S += "  rollback line: global step " +
           std::to_string(RollbackLineStep) + ", " +
           std::to_string(RollbacksDone) +
           " rollback(s) performed (rollback budget exhausted)\n";
  }
  S += "deadlock: " + std::to_string(StuckProcs.size()) + " of " +
       std::to_string(TotalProcs) +
       " virtual processors blocked on a receive with no "
       "deliverable message (" +
       std::to_string(FinishedProcs) + " finished)\n";
  for (unsigned I = 0; I != StuckProcs.size() && I != MaxListed; ++I) {
    const PendingRecv &Pr = StuckProcs[I];
    S += "  stuck: vp" + coordStr(Pr.Coord) + " on phys " +
         std::to_string(Pr.Phys) + ", waiting for comm " +
         std::to_string(Pr.CommId) + " from vp" + coordStr(Pr.Peer) +
         ", expecting seq " + std::to_string(Pr.ExpectedSeq);
    if (Pr.PeerDead)
      S += " (peer crashed)";
    if (Pr.PeerOutsideGrid)
      S += " (peer outside the virtual processor grid)";
    if (Pr.BufferedAhead)
      S += ", " + std::to_string(Pr.BufferedAhead) +
           " buffered out of order";
    S += "\n";
  }
  if (StuckProcs.size() > MaxListed)
    S += "  ... and " + std::to_string(StuckProcs.size() - MaxListed) +
         " more stuck processors\n";
  S += "  in-flight message copies: " + std::to_string(InFlightMessages) +
       "\n";
  for (unsigned I = 0; I != RetryExhausted.size() && I != MaxListed;
       ++I) {
    const TransportFailure &F = RetryExhausted[I];
    S += "  retry exhausted: comm " + std::to_string(F.CommId) + " vp" +
         coordStr(F.Src) + " -> vp" + coordStr(F.Dst) + " seq " +
         std::to_string(F.Seq) + " lost after " +
         std::to_string(F.Attempts) + " attempts\n";
  }
  if (RetryExhausted.size() > MaxListed)
    S += "  ... and " +
         std::to_string(RetryExhausted.size() - MaxListed) +
         " more retry-exhausted packets\n";
  return S;
}

void Simulator::reportStall(SimResult &R) const {
  R.Ok = false;
  SimDiagnostics &D = R.Diag;
  D.TotalProcs = Procs.size();
  D.RecoveryEnabled = Opts.Checkpoint.enabled();
  D.HasRollbackLine = Stable != nullptr;
  if (Stable)
    D.RollbackLineStep = Stable->EventsAtTaken;
  D.RollbacksDone = static_cast<unsigned>(R.Recovery.Rollbacks);
  std::set<std::vector<IntT>> Dead;
  for (const VirtProc &V : Procs) {
    if (!V.Crashed)
      continue;
    Dead.insert(V.Coord);
    // The newest crash of this processor (there is at most one per
    // incarnation, and earlier ones were rolled back).
    for (auto It = CrashLog.rbegin(); It != CrashLog.rend(); ++It)
      if (It->Coord == V.Coord) {
        D.DeadProcs.push_back(*It);
        break;
      }
  }
  for (const VirtProc &V : Procs) {
    if (V.Crashed)
      continue;
    if (V.Finished) {
      ++D.FinishedProcs;
      continue;
    }
    if (V.Blocked) {
      PendingRecv Pr = V.LastBlock;
      Pr.PeerDead = Dead.count(Pr.Peer) != 0;
      D.StuckProcs.push_back(Pr);
    }
  }
  D.RetryExhausted = Failures;
  for (const Channel &C : Chans)
    D.InFlightMessages += C.Queue.size();
  R.Error = D.str();
}

std::optional<double> Simulator::finalValue(
    unsigned ArrayId, const std::vector<IntT> &Idx) const {
  auto It = Spec.FinalData.find(ArrayId);
  if (It == Spec.FinalData.end() || !It->second.isUnique())
    return std::nullopt;
  IntT Flat = flatIndex(ArrayId, Idx);
  if (Flat < 0)
    return std::nullopt;
  const Decomposition &D = It->second;
  std::vector<IntT> Src = FinalSrc.at(ArrayId);
  unsigned K = 0;
  for (unsigned I = 0; I != D.sourceSpace().size(); ++I)
    if (D.sourceSpace().kind(I) != VarKind::Param)
      Src[I] = Idx[K++];
  unsigned Owner = 0;
  if (!procIndexOf(D.gridCoordinate(Src), Owner))
    return std::nullopt;
  if (const double *Val = Procs[Owner].Store.find(ArrayId, Flat))
    return *Val;
  return std::nullopt;
}
