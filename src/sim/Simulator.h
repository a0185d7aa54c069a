//===- sim/Simulator.h - Distributed-memory machine simulator --*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled SPMD program on a simulated message-passing
/// machine, standing in for the paper's Intel iPSC/860. Every *virtual*
/// processor of the compilation grid runs the SPMD program with its own
/// environment and private local memory; virtual processors are folded
/// onto physical processors round-robin (pi(v) = v mod P, Section 4.1)
/// and multiplexed cooperatively on a shared per-physical clock.
///
/// Locality is enforced by construction: a processor can only read array
/// elements it owns initially, wrote itself, or received — any other read
/// is reported as a compilation bug. Functional mode computes real
/// floating-point values (verified against the sequential interpreter);
/// performance mode skips the arithmetic, collapses communication-free
/// innermost loops into closed-form costs, and reproduces Figure 14 at
/// full problem sizes.
///
/// An optional fault layer (SimOptions::Faults, see FaultModel.h) makes
/// the network lossy — dropped, duplicated, delayed and corrupted
/// packets (checksummed delivery with NACK-triggered retransmission),
/// transient partitions that heal after a seeded interval, straggler
/// links with per-link latency multipliers, slow processors — and runs
/// every channel over an acked stop-and-wait transport with bounded
/// retransmission. Results remain bit-exact under
/// any fault schedule; unrecoverable stalls end in a structured
/// SimDiagnostics instead of a hang. With the default options the layer
/// is bypassed and costs match the lossless machine exactly.
///
/// On top of the lossy network the fault layer supports permanent
/// crash-stop processor failures (FaultOptions::CrashRate) tolerated by
/// a coordinated checkpoint/restart protocol (SimOptions::Checkpoint):
/// at a configurable logical-step interval every virtual processor
/// snapshots its partitions, cursors, receive buffers and transport
/// sequence state to an in-simulator stable store; when a crash stalls
/// the machine, all processors roll back to the last checkpoint and
/// replay, the transport's duplicate suppression absorbing messages
/// resent from before the rollback line (DESIGN.md §8). Results remain
/// bit-exact under every recoverable crash schedule.
///
/// SimOptions::Threads > 1 executes the physical processors on real OS
/// threads (DESIGN.md §10): rounds become barrier-synchronized epochs,
/// channels become mutex-guarded queues, and a wavefront rule
/// reproduces the sequential engine's intra-round message visibility,
/// so every result — values, costs, diagnostics, recovery telemetry —
/// is bit-identical to the sequential engine for every seed.
///
/// SimOptions::Engine == SimEngine::Event replaces the per-round sweep
/// over every virtual processor with a discrete-event scheduler
/// (DESIGN.md §14): only runnable processors are visited, a blocked
/// receiver parks on its channel's slot of a wait array and is woken in
/// O(1) by the send that can satisfy it, and checkpoint barriers are
/// amortized by cutting the round at the first gated slice instead of
/// sweeping the remaining processors through no-op slices. Because a
/// blocked receive attempt is side-effect-free, skipping it preserves
/// the exact sequential statement order — the event engine is
/// bit-identical to the round engines for every program, fault, crash
/// and checkpoint schedule, at a fraction of the scheduling cost when
/// most processors are waiting (the regime at P >= 1024).
///
/// Every engine executes the same lowered program (DESIGN.md §17): the
/// constructor translates the compiled SPMD tree once into a tree of
/// the same shape whose affine expressions are sparse LinearForms, and
/// channels are interned into one table indexed by small integer ids.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_SIMULATOR_H
#define DMCC_SIM_SIMULATOR_H

#include "core/Compiler.h"
#include "ir/Program.h"
#include "sim/FaultModel.h"

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// Message-passing cost parameters, defaulting to iPSC/860-class
/// constants (hypercube with ~8 single-precision MFLOPS/node achieved,
/// ~75 us message latency, ~2.8 MB/s per link).
struct CostModel {
  double FlopTime = 1.0 / 8.0e6;  ///< seconds per floating-point op
  double IterOverhead = 0.02e-6;  ///< per executed loop iteration
  double MsgLatency = 75e-6;      ///< fixed per-message cost (alpha)
  double SendPerWord = 0.35e-6;   ///< per 4-byte word at the sender
  double RecvPerWord = 0.35e-6;   ///< per word copy at the receiver
  double WireTimePerWord = 1.4e-6;///< link occupancy per word
  double MulticastExtraDest = 10e-6; ///< extra per additional destination
  /// CPU-side cost to post a nonblocking (early) send: the descriptor
  /// write that hands the message to the NIC. The per-word pack copy is
  /// still charged to the CPU; the fixed MsgLatency (and, under the
  /// reliable transport, the retransmission work) moves to the NIC and
  /// overlaps the sender's remaining computation. On the fault-free
  /// path the NIC cuts through: protocol processing pipelines into the
  /// flight, so consumers see a single MsgLatency instead of the
  /// blocking rendezvous' two (DESIGN.md §11).
  double SendIssueOverhead = 5e-6;
};

/// Coordinated checkpoint/restart configuration (DESIGN.md §8). With
/// IntervalSteps == 0 the layer is disabled entirely: no snapshots are
/// taken and a crash-stop failure is unrecoverable.
struct CheckpointOptions {
  /// Global logical-step (executed SPMD statement) interval between
  /// coordinated checkpoints; 0 disables checkpointing and recovery.
  /// An initial cost-free checkpoint of the starting state is always
  /// taken when enabled, so a rollback line exists from step 0.
  uint64_t IntervalSteps = 0;
  /// Stable-store write cost per checkpoint per processor: fixed
  /// latency plus a per-word charge for the snapshotted state.
  double LatencySeconds = 1e-3;
  double PerWordSeconds = 1e-6;
  /// Stable-store read cost on rollback, same shape.
  double RestoreLatencySeconds = 1e-3;
  double RestorePerWordSeconds = 1e-6;
  /// Stall-to-detection window charged once per rollback: the time the
  /// survivors take to agree a peer is dead rather than slow.
  double DetectSeconds = 5e-3;
  /// Rollback budget: recovery attempts beyond this end the run with a
  /// structured diagnostic instead of thrashing. Crash schedules honor
  /// at most one crash per processor, so this is a secondary guard.
  unsigned MaxRollbacks = 64;
  /// Durable stable store (DESIGN.md §13). When non-empty, every
  /// coordinated checkpoint (including the free initial one) is also
  /// serialized to `DurableDir/ckpt-<events>.dmc` as a versioned,
  /// CRC32-framed image written with temp+fsync+rename — so a SIGKILL
  /// of the host process at any instant leaves the newest intact image
  /// on disk. Requires IntervalSteps > 0.
  std::string DurableDir;
  /// Before executing anything, scan DurableDir for the newest intact
  /// checkpoint image (torn or bit-damaged files are detected by the
  /// frame CRCs and skipped), restore the full machine state from it
  /// and replay from there — bit-identical to the uninterrupted run.
  /// With no usable image the run starts fresh, so a kill/restart loop
  /// can pass Resume unconditionally. See Simulator::resumeInfo().
  bool Resume = false;

  bool enabled() const { return IntervalSteps > 0; }
  bool durable() const { return enabled() && !DurableDir.empty(); }
};

/// Which scheduler drives the virtual processors (SimOptions::Engine).
enum class SimEngine {
  /// Global rounds: the sequential sweep (Threads == 1) or the
  /// barrier-synchronized thread pool (Threads > 1).
  Rounds,
  /// Discrete-event virtual-clock queue (DESIGN.md §14): processors are
  /// scheduled only when runnable, blocked receivers wake in O(1) via
  /// per-channel hash buckets. Single-threaded; Threads must be 1.
  Event,
};

/// Simulation configuration.
struct SimOptions {
  /// Physical processors along each grid dimension.
  std::vector<IntT> PhysGrid;
  std::map<std::string, IntT> ParamValues;
  /// Compute actual values (slow, exact) vs cost accounting only.
  bool Functional = true;
  /// Collapse communication-free innermost loops into closed-form costs
  /// (performance mode only).
  bool CollapseLoops = false;
  /// Do not charge network costs for messages between virtual processors
  /// folded onto the same physical processor (Section 6.1.3).
  bool FreeIntraPhysical = true;
  /// Honor nonblocking marks on Send statements (paper Section 6 "early
  /// sends", DESIGN.md §11): the sender pays only the issue/pack cost,
  /// a per-physical NIC serializes the message out while the processor
  /// keeps computing, and only non-overlapped latency reaches the
  /// makespan (a processor is not finished until its NIC drains). Off
  /// forces every send back to blocking semantics regardless of
  /// compiler marks. Array results are bit-identical either way — only
  /// clocks move.
  bool EarlySends = true;
  CostModel Cost;
  /// Fault injection and reliable transport; defaults to a perfect
  /// network with the transport bypassed (zero overhead).
  FaultOptions Faults;
  /// Coordinated checkpoint/restart; defaults to disabled (zero
  /// overhead, no recovery from crash-stop failures).
  CheckpointOptions Checkpoint;
  /// Runaway guard: a run that would execute more statements ends with
  /// Ok == false and SimDiagnostics::EventBudgetExhausted set.
  uint64_t MaxEvents = 6000000000ull;
  /// Worker threads executing the physical processors (DESIGN.md §10).
  /// 1 (the default) is the sequential engine, byte-for-byte today's
  /// behavior; N > 1 runs physical processors on real OS threads
  /// (clamped to the physical processor count) with results bit-identical
  /// to the sequential engine for every program, cost model, fault and
  /// crash schedule; 0 picks min(hardware concurrency, physical procs).
  unsigned Threads = 1;
  /// Scheduler choice (DESIGN.md §14). SimEngine::Event is
  /// single-threaded by design; combining it with Threads != 1 is a
  /// configuration error (run() returns Ok == false with the reason in
  /// Error, dmcc-cli rejects it as a usage error). Results are
  /// bit-identical across engines.
  SimEngine Engine = SimEngine::Rounds;
};

/// Logical counters accumulated during execution. The sequential engine
/// bumps the run-wide instance directly; the threaded engine gives each
/// worker a private instance and merges at the round barrier — integer
/// sums commute, so the totals are bit-identical either way. The first
/// group rewinds with a rollback (checkpoint state); the second group
/// plus Crashes is monotonic wire-level/telemetry truth. SimResult
/// derives from this struct, so every counter is declared once.
struct SimCounters {
  /// Messages/Words are logical (one per app-level send), so they stay
  /// comparable across fault schedules: a rollback rewinds them with the
  /// program state, and a recovered run reports the same logical traffic
  /// as a fault-free one.
  uint64_t Messages = 0;      ///< network messages (inter-physical)
  uint64_t IntraMessages = 0; ///< folded-away intra-physical messages
  uint64_t Words = 0;         ///< words crossing the network
  uint64_t Flops = 0, ComputeIterations = 0;
  /// Reliable-transport counters, all zero while the transport is
  /// bypassed: extra transmissions by senders, data copies lost in
  /// flight, redundant copies discarded, acknowledgements generated.
  uint64_t Retransmissions = 0, DroppedPackets = 0,
           DuplicatesSuppressed = 0, AcksSent = 0;
  /// Hostile-network telemetry, monotonic like the transport counters:
  /// checksum failures NACKed back to the sender, NACK transmissions,
  /// attempts swallowed by a transient partition, and logical messages
  /// that crossed a straggler (latency-multiplied) link.
  uint64_t CorruptedPackets = 0, NacksSent = 0, PartitionDrops = 0,
           SlowLinkMessages = 0;
  uint64_t Crashes = 0; ///< crash-stop kills (survive rollback)
  /// Nonblocking sends issued. Monotonic wire-level telemetry like
  /// Retransmissions: replayed issues after a rollback count again.
  uint64_t EarlySends = 0;

  /// One counter: its report name and its member.
  struct Field {
    const char *Name;
    uint64_t SimCounters::*Member;
  };
  /// Every counter in declaration order, which is also the durable
  /// image's order; the first NumLogical are the rollback group.
  static const std::array<Field, 15> Fields;
  static constexpr unsigned NumLogical = 5;

  void add(const SimCounters &O) {
    for (const Field &F : Fields)
      this->*F.Member += O.*F.Member;
  }
  /// Rewinds the logical counters to their values at a rollback line;
  /// the monotonic ones keep counting.
  void rewindTo(const SimCounters &Line) {
    for (unsigned I = 0; I != NumLogical; ++I)
      this->*Fields[I].Member = Line.*Fields[I].Member;
  }
  /// Logical messages sent, over the network or folded away.
  uint64_t sent() const { return Messages + IntraMessages; }

  bool operator==(const SimCounters &) const = default;
};

inline const std::array<SimCounters::Field, 15> SimCounters::Fields = {{
    {"messages", &SimCounters::Messages},
    {"intra_messages", &SimCounters::IntraMessages},
    {"words", &SimCounters::Words},
    {"flops", &SimCounters::Flops},
    {"compute_iterations", &SimCounters::ComputeIterations},
    {"retransmissions", &SimCounters::Retransmissions},
    {"dropped_packets", &SimCounters::DroppedPackets},
    {"duplicates_suppressed", &SimCounters::DuplicatesSuppressed},
    {"acks_sent", &SimCounters::AcksSent},
    {"corrupted_packets", &SimCounters::CorruptedPackets},
    {"nacks_sent", &SimCounters::NacksSent},
    {"partition_drops", &SimCounters::PartitionDrops},
    {"slow_link_messages", &SimCounters::SlowLinkMessages},
    {"crashes", &SimCounters::Crashes},
    {"early_sends", &SimCounters::EarlySends}}};

// A counter declared outside Fields would silently skip the rollback
// rewind, checkpoints and the durable image codec.
static_assert(sizeof(SimCounters) ==
                  SimCounters::Fields.size() * sizeof(uint64_t),
              "every SimCounters counter must be listed in Fields");

/// One virtual processor stuck on a receive when the deadlock detector
/// gave up: where it is, and exactly what it is waiting for.
struct PendingRecv {
  std::vector<IntT> Coord; ///< receiver virtual-grid coordinate
  unsigned Phys = 0;       ///< physical processor it is folded onto
  unsigned CommId = 0;     ///< communication-set tag of the receive
  std::vector<IntT> Peer;  ///< expected sender virtual coordinate
  uint64_t ExpectedSeq = 0; ///< next sequence number awaited
  /// Copies queued on the channel with a different (later) sequence
  /// number — arrived out of order, unusable until ExpectedSeq shows up.
  uint64_t BufferedAhead = 0;
  /// The awaited sender was killed by the crash-stop schedule: this
  /// message can never arrive without a rollback.
  bool PeerDead = false;
  /// The awaited sender lies outside the virtual processor grid: no
  /// processor exists to send this message.
  bool PeerOutsideGrid = false;

  bool operator==(const PendingRecv &) const = default;
};

/// A virtual processor killed by the crash-stop schedule.
struct CrashEvent {
  std::vector<IntT> Coord; ///< virtual-grid coordinate of the victim
  unsigned Phys = 0;       ///< physical processor it was folded onto
  uint64_t AtStep = 0;     ///< its logical step (executed stmts) at death
  double AtTime = 0;       ///< its physical clock at death

  bool operator==(const CrashEvent &) const = default;
};

/// A packet the reliable transport gave up on: every attempt (initial
/// send plus MaxRetries retransmissions) was lost in flight.
struct TransportFailure {
  unsigned CommId = 0;
  std::vector<IntT> Src, Dst; ///< sender / receiver virtual coordinates
  uint64_t Seq = 0;
  unsigned Attempts = 0; ///< transmissions made before giving up

  bool operator==(const TransportFailure &) const = default;
};

/// Structured failure report built when a run cannot complete, instead
/// of a bare error string: which processors are stuck, what they wait
/// for, what the transport already gave up on.
struct SimDiagnostics {
  std::vector<PendingRecv> StuckProcs;
  std::vector<TransportFailure> RetryExhausted;
  /// Processors dead (crashed and not recovered) when the run ended.
  std::vector<CrashEvent> DeadProcs;
  /// Whether checkpoint/restart was configured, and where the last
  /// rollback line was (global logical step of the newest checkpoint;
  /// meaningful only when HasRollbackLine).
  bool RecoveryEnabled = false;
  bool HasRollbackLine = false;
  uint64_t RollbackLineStep = 0;
  unsigned RollbacksDone = 0; ///< recoveries performed before giving up
  uint64_t InFlightMessages = 0; ///< undelivered copies across channels
  uint64_t FinishedProcs = 0, TotalProcs = 0;
  /// The run stopped at SimOptions::MaxEvents rather than stalling.
  bool EventBudgetExhausted = false;

  /// Human-readable rendering ("deadlock: ... vp(1,2) waiting ...").
  std::string str() const;

  bool operator==(const SimDiagnostics &) const = default;
};

/// Crash/checkpoint/recovery telemetry (DESIGN.md §8). All fields stay
/// zero while crash-stop failures and checkpointing are disabled.
struct RecoveryStats {
  uint64_t CheckpointsTaken = 0; ///< coordinated snapshots, incl. initial
  uint64_t CheckpointBytes = 0;  ///< bytes written to the stable store
  uint64_t Rollbacks = 0;        ///< coordinated restarts performed
  uint64_t ReplayedSteps = 0;    ///< statements rolled back for re-execution
  uint64_t ReplayedMessages = 0; ///< logical messages rolled back / resent
  /// Wall-model busy-time split across all physical processors.
  /// Compute/Protocol/Checkpoint charge each useful unit of work once:
  /// work undone by a rollback is moved into RecoverySeconds, which also
  /// carries failure-detection windows and stable-store restore costs.
  double ComputeSeconds = 0;
  double ProtocolSeconds = 0;
  double CheckpointSeconds = 0;
  double RecoverySeconds = 0;

  bool operator==(const RecoveryStats &) const = default;
};

/// Communication/computation overlap telemetry for nonblocking (early)
/// sends, aggregated over the run's messages (DESIGN.md §11). All zero
/// when the program carries no nonblocking marks or
/// SimOptions::EarlySends is off. Per-message accounting: each issue
/// adds its share to DeferredSeconds; what the end-of-run NIC drains
/// add back to the clocks lands in ExposedSeconds. Monotonic across
/// rollbacks, like the wire-level transport counters. The number of
/// nonblocking sends issued is SimCounters::EarlySends.
struct OverlapStats {
  /// Latency taken off the issuing CPU's clock: the blocking charge
  /// minus the nonblocking issue charge, summed per message.
  double DeferredSeconds = 0;
  /// Deferred latency that resurfaced: NIC backlog a processor had to
  /// drain before the run could finish (non-overlapped remainder).
  double ExposedSeconds = 0;
  /// Latency actually hidden behind the sender's computation.
  double hiddenSeconds() const { return DeferredSeconds - ExposedSeconds; }

  bool operator==(const OverlapStats &) const = default;
};

/// Outcome of the durable-resume scan (CheckpointOptions::Resume),
/// reported out of band: it is host-process bookkeeping, not simulated
/// telemetry, so it must not perturb SimResult's bit-identity contract.
struct DurableResumeInfo {
  bool Attempted = false;     ///< a resume scan ran before execution
  bool Resumed = false;       ///< an intact image was restored
  uint64_t ResumedAtEvents = 0; ///< global step of the restored line
  unsigned FilesSeen = 0;     ///< checkpoint images found in the dir
  unsigned CorruptSkipped = 0;///< torn/bit-damaged/incompatible skipped
  std::string File;           ///< path of the image restored
};

/// Aggregate outcome of a simulation: the counters (SimCounters) plus
/// clocks, diagnostics and telemetry. operator== is the bit-identity
/// contract between engines, thread counts and durable resumes.
struct SimResult : SimCounters {
  bool Ok = false;
  std::string Error; ///< rendered diagnostics when !Ok
  SimDiagnostics Diag; ///< structured failure report when !Ok
  double MakespanSeconds = 0;
  uint64_t TotalEvents = 0;   ///< executed SPMD statements
  std::vector<double> PhysBusy; ///< busy seconds per physical processor

  /// Crash/checkpoint/restart telemetry.
  RecoveryStats Recovery;

  /// Early-send overlap telemetry.
  OverlapStats Overlap;

  bool operator==(const SimResult &) const = default;
};

/// The machine simulator.
class Simulator {
public:
  Simulator(const Program &P, const CompiledProgram &CP,
            const CompileSpec &Spec, SimOptions Opts);
  ~Simulator();

  /// Runs to completion (or deadlock). Idempotent state: construct a new
  /// Simulator per run.
  SimResult run();

  /// After a functional run: the value of an array element under the
  /// final data layout (or, absent a final layout, the value held by any
  /// virtual processor that wrote or received it last — for verification
  /// the final layout should be supplied). nullopt if nobody holds it.
  std::optional<double> finalValue(unsigned ArrayId,
                                   const std::vector<IntT> &Idx) const;

  /// Number of virtual processors along each grid dimension.
  const std::vector<IntT> &virtGridLo() const { return VirtLo; }
  const std::vector<IntT> &virtGridHi() const { return VirtHi; }

  /// What the durable-resume scan did (meaningful after run() when
  /// CheckpointOptions::Resume was set).
  const DurableResumeInfo &resumeInfo() const { return ResumeInfo; }

private:
  struct Frame;
  /// What a rollback restores of one virtual processor.
  struct ProcState;
  struct VirtProc;
  struct Message;
  /// A rollback line: every ProcState plus the channel state and the
  /// counters at the line.
  struct Checkpoint;
  /// The durable image codec: one io() per state type, shared by the
  /// image writer and reader (DESIGN.md §13).
  struct Image;
  /// Per-slice execution context: counter sink, exact-events base for
  /// the checkpoint gate, and the threaded engine's wavefront hooks.
  struct StepCtx;
  /// Worker pool, round barrier and wavefront synchronization for the
  /// threaded engine (DESIGN.md §10).
  struct ThreadEngine;
  /// Discrete-event scheduler: run queues, per-channel wait slots and
  /// the O(1) wake rule (DESIGN.md §14).
  struct EventEngine;
  /// A run of a lowered-program pool: Pool[Begin, Begin + Size).
  struct Span {
    unsigned Begin = 0, Size = 0;
  };
  /// One SPMD statement lowered for execution (DESIGN.md §17), and the
  /// pooled loop bounds, guards, loop-variable bindings and compute code
  /// it refers to.
  struct ExecStmt;
  struct ExecBound;
  struct ExecCond;
  struct ExecBind;
  struct ExecOp;
  /// One directed channel's receive queue and transport cursors.
  struct Channel;
  /// A directed channel's identity: communication set, then sender and
  /// receiver as flat Procs indices. Ascending order is ascending
  /// (comm id, sender coordinate, receiver coordinate) order.
  struct ChanKey {
    unsigned Comm = 0, Src = 0, Dst = 0;
    auto operator<=>(const ChanKey &) const = default;
  };
  /// Merged outcome of one scheduler round.
  struct RoundFlags {
    bool Progress = false, AllDone = true, AnyDead = false,
         OverBudget = false;
  };

  /// Row-major flat offset of an element from its index tuple (or from
  /// index forms evaluated in \p Env), or -1 when an index lies outside
  /// its dimension. Uses the dimension sizes resolved at construction;
  /// no parameter lookup.
  IntT flatIndex(unsigned ArrayId, const std::vector<IntT> &Idx) const;
  IntT flatIndex(unsigned ArrayId, Span Indices,
                 const std::vector<IntT> &Env) const;
  /// Aborts the run with the locality-violation diagnostic: a processor
  /// touched an element it does not hold, or one outside its array.
  [[noreturn]] void localityViolation(unsigned ArrayId,
                                      const char *What) const;
  void computeVirtualGrid();
  void initLocalStores();
  /// Lowers \p List, bodies included, into the pools; returns its span
  /// of Stmts (DESIGN.md §17).
  Span lowerList(const std::vector<SpmdStmt> &List);
  /// Appends a LinearForm per expression to Forms; returns where.
  Span appendForms(const std::vector<AffineExpr> &Exprs);
  /// Appends node \p Node of \p S's right-hand side to Ops as postfix
  /// code; returns the value-stack depth the code needs.
  unsigned lowerRVal(const Statement &S, int Node);
  /// Evaluators over the lowered program's pools: a form, the max
  /// (lower) or min (upper) of a bound list, a guard list, and a
  /// SetVar's value.
  IntT eval(const LinearForm &F, const std::vector<IntT> &Env) const;
  IntT evalBounds(Span Bs, const std::vector<IntT> &Env, bool IsLower) const;
  bool condsHold(Span Cs, const std::vector<IntT> &Env) const;
  IntT setVarValue(const ExecStmt &St, const std::vector<IntT> &Env) const;
  bool stepProc(VirtProc &V, StepCtx &Ctx);
  /// Flat Procs index of the peer a Send/Recv names in \p Env; false
  /// when the peer lies outside the virtual grid.
  bool peerIndex(const ExecStmt &St, const std::vector<IntT> &Env,
                 unsigned &Out) const;
  /// The peer coordinate a Send/Recv names in \p V's environment.
  std::vector<IntT> peerCoord(const VirtProc &V, const ExecStmt &St) const;
  /// Records the run error for a Send whose peer lies outside the
  /// virtual grid; the run ends at the round boundary.
  void sendOutsideGrid(const VirtProc &V, const ExecStmt &St,
                       StepCtx &Ctx) const;
  /// The id of channel (\p Comm, \p Src, \p Dst), interning it on
  /// first use. Under the threaded engine the caller holds ChanMu.
  unsigned channelOf(unsigned Comm, unsigned Src, unsigned Dst);
  /// Appends \p M to channel \p Ch's queue and wakes a parked receiver.
  void push(unsigned Ch, Message M, StepCtx &Ctx);
  /// Executes a pack/unpack message body inline (it never blocks):
  /// appends packed values to \p PackOut on a send, stores values from
  /// \p UnpackIn on a receive, and counts the elements either way.
  void runItems(VirtProc &V, Span List,
                std::vector<double> *PackOut,
                const std::vector<double> *UnpackIn, uint64_t &Cursor,
                uint64_t &Count);
  /// One cooperative round of the sequential engine: every live
  /// processor runs one slice, in ascending processor order.
  RoundFlags runRoundSequential();
  /// One iteration of a Compute: binds the statement's loop variables
  /// in \p V's ProgEnv, runs its lowered code against \p V's local
  /// store and stores the value (functional mode only).
  void execComputeIter(VirtProc &V, const ExecStmt &St) const;
  unsigned physOf(const std::vector<IntT> &VirtCoord) const;
  /// Flat Procs index of a virtual-grid coordinate; false when the
  /// coordinate lies outside the instantiated grid.
  bool procIndexOf(const std::vector<IntT> &Coord, unsigned &Out) const;
  /// Statements per processor per round (short when crashes or
  /// checkpoints bound how stale a round boundary may be).
  unsigned sliceBudget() const;
  /// Worker threads the run will actually use (Opts.Threads clamped to
  /// the physical processor count; 0 = hardware concurrency).
  unsigned effectiveWorkers() const;
  /// run() without its finishing step: executes until completion, a
  /// terminal stall or an error, recording the outcome in \p R.
  void execute(SimResult &R);
  void reportStall(SimResult &R) const;
  /// Coordinated checkpoint: snapshot all processor, queue, counter and
  /// transport state into the stable store, charging the cost model
  /// (the initial step-0 checkpoint is free — the input staging).
  void takeCheckpoint(SimResult &R, bool Initial);
  /// Coordinated rollback: restore the last checkpoint, reincarnate
  /// dead processors, rewind logical counters, move undone work into
  /// the recovery bucket, and advance the clocks past detection and
  /// stable-store restore costs.
  void restoreCheckpoint(SimResult &R);
  /// Loads a rollback line into the machine (shared by a rollback and a
  /// durable resume): every processor's state, alive and unblocked; the
  /// line's receive queues plus copies still in flight from sends made
  /// after it; transport cursors and failures; busy buckets; logical
  /// counters; and the next checkpoint trigger, counted from Events.
  void loadLine(const Checkpoint &CK);
  /// Durable stable store (DESIGN.md §13): serialize the machine state
  /// at the checkpoint line just drawn into DurableDir (CRC32-framed,
  /// temp+fsync+rename). Fatal on host I/O failure — a run that cannot
  /// honor its durability contract must not continue silently.
  void persistDurable(const SimResult &R);
  /// Restore the newest intact durable image from DurableDir, skipping
  /// torn/corrupt/incompatible files; returns false (leaving the
  /// freshly-staged state untouched) when none is usable.
  bool resumeFromDurable(SimResult &R);

  const Program &P;
  const CompiledProgram &CP;
  const CompileSpec &Spec;
  SimOptions Opts;
  FaultModel Faults;

  std::vector<IntT> VirtLo, VirtHi; ///< virtual grid extent per dim
  /// Row-major strides of the virtual grid, for coordinate -> flat
  /// Procs-index mapping (the construction odometer's order).
  std::vector<IntT> VirtStride;
  std::vector<VirtProc> Procs;
  /// The lowered program (DESIGN.md §17), built once at construction:
  /// every statement, with each list's statements contiguous, and the
  /// pools their spans index. Top spans CP.Spmd.Top's statements.
  std::vector<ExecStmt> Stmts;
  std::vector<ExecBound> Bounds;
  std::vector<ExecCond> Conds;
  std::vector<LinearForm> Forms;
  std::vector<LinearTerm> Terms;
  std::vector<ExecBind> Binds;
  std::vector<ExecOp> Ops;
  Span Top;
  /// The deepest value stack any compute's code needs.
  unsigned StackDepth = 0;
  /// The channel table (DESIGN.md §17): key and state per channel id.
  /// Ids are handed out on first use and never freed; their order
  /// differs between engines, so nothing observable may depend on it.
  std::vector<Channel> Chans;
  /// Open-addressed index from key to id: a power-of-two array of ids,
  /// ~0u where empty, probed linearly, at most half full.
  std::vector<unsigned> ChanSlots;
  /// The first program error a slice hit (a peer outside the grid);
  /// non-empty ends the run at the round boundary.
  std::string RunError;
  /// Packets whose retry budget was exhausted (never delivered).
  std::vector<TransportFailure> Failures;
  std::vector<double> PhysClock;
  std::vector<double> PhysBusy;
  std::vector<double> SlowFactor; ///< per-phys compute slowdown (>= 1)
  /// Per-physical busy-time buckets for the recovery telemetry split.
  /// Compute/Protocol/Checkpoint rewind with a rollback (their lost
  /// share moves into the recovery total); RecoveryExtraSeconds is the
  /// global monotonic remainder (detection windows, restore costs,
  /// undone work).
  std::vector<double> BusyCompute, BusyProtocol, BusyCheckpoint;
  double RecoveryExtraSeconds = 0;
  /// Early-send NIC model (DESIGN.md §11), one slot per physical
  /// processor and single-writer under the threaded engine. NetFree is
  /// the time the NIC is next free — clock-like: it never rewinds on a
  /// rollback and is not checkpointed (replayed issues reserve fresh
  /// NIC time, exactly as replayed computes re-charge the clock).
  /// NetDeferred/NetExposed are monotonic overlap telemetry: latency
  /// moved off the CPU at issue, and backlog drained back into the
  /// clock at the end of the run.
  std::vector<double> NetFree, NetDeferred, NetExposed;
  /// Crash-stop bookkeeping that survives rollbacks: which processors
  /// have used their one crash (replay immunity), and every crash seen.
  std::vector<char> HasCrashed;
  std::vector<CrashEvent> CrashLog;
  /// The stable store: the newest coordinated checkpoint, if any.
  std::unique_ptr<Checkpoint> Stable;
  uint64_t NextCheckpointEvents = 0; ///< global-step checkpoint trigger
  /// Global step count at the last checkpoint or rollback, for the
  /// replayed-steps telemetry.
  uint64_t ReplayBaseEvents = 0;
  /// Outcome of the durable-resume scan (resumeInfo()).
  DurableResumeInfo ResumeInfo;
  std::vector<IntT> ParamEnv; ///< parameter values aligned to Spmd space
  /// Per array: dimension sizes and total element count, evaluated once
  /// from the parameter values.
  std::vector<std::vector<IntT>> ArrayDims;
  std::vector<IntT> ArrayExtent;
  /// Per final-layout array: its decomposition's source-space values
  /// with the parameters filled in (finalValue adds the indices).
  std::map<unsigned, std::vector<IntT>> FinalSrc;
  uint64_t Events = 0;        ///< executed SPMD statements (budget guard)
  /// Canonical logical counters; run() copies them into its result.
  SimCounters Ctr;
};

} // namespace dmcc

#endif // DMCC_SIM_SIMULATOR_H
