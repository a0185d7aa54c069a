//===- tests/sim/SimulatorTest.cpp ----------------------------*- C++ -*-===//
//
// Machine-simulator behaviours beyond the end-to-end runs: deadlock
// detection, cost-model knobs, intra-physical folding, virtual-grid
// sizing, and failure injection.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>
#include <optional>
#include <set>
#include <string>

using namespace dmcc;

namespace {

Program shift() {
  return parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 3 to N {
    X[i] = X[i - 3];
  }
}
)");
}

CompileSpec shiftSpec(const Program &P, IntT Block) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, Block)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, Block));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, Block));
  return Spec;
}

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional = false) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  return SO;
}

} // namespace

TEST(SimulatorTest, VirtualGridMatchesDecomposition) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  Simulator Sim(P, CP, Spec, opts(2, {{"T", 2}, {"N", 63}}));
  // Elements 0..63 in blocks of 8: virtual processors 0..7.
  EXPECT_EQ(Sim.virtGridLo()[0], 0);
  EXPECT_EQ(Sim.virtGridHi()[0], 7);
}

TEST(SimulatorTest, DeadlockIsDetectedNotHung) {
  // Sabotage a compiled program: make one receive wait for a message
  // that is never sent by pointing its peer at a non-existent sender.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  bool Broke = false;
  std::function<void(std::vector<SpmdStmt> &)> Break =
      [&](std::vector<SpmdStmt> &Stmts) {
        for (SpmdStmt &S : Stmts) {
          if (S.K == SpmdStmt::Kind::Recv) {
            for (AffineExpr &E : S.Peer)
              E = E.plusConst(1000); // nobody sends from there
            Broke = true;
          }
          Break(S.Body);
        }
      };
  Break(CP.Spmd.Top);
  ASSERT_TRUE(Broke);
  Simulator Sim(P, CP, Spec, opts(2, {{"T", 2}, {"N", 63}}));
  SimResult R = Sim.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos) << R.Error;
}

TEST(SimulatorTest, UnconsumedMessagesAreReported) {
  // Dual sabotage: drop a receive entirely; its message stays queued.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  bool Broke = false;
  std::function<void(std::vector<SpmdStmt> &)> Break =
      [&](std::vector<SpmdStmt> &Stmts) {
        for (unsigned I = 0; I < Stmts.size();) {
          if (Stmts[I].K == SpmdStmt::Kind::Recv) {
            Stmts.erase(Stmts.begin() + I);
            Broke = true;
            continue;
          }
          Break(Stmts[I].Body);
          ++I;
        }
      };
  Break(CP.Spmd.Top);
  ASSERT_TRUE(Broke);
  Simulator Sim(P, CP, Spec, opts(2, {{"T", 2}, {"N", 63}}));
  SimResult R = Sim.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unconsumed"), std::string::npos) << R.Error;
}

TEST(SimulatorTest, SingleProcessorHasNoNetworkTraffic) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  Simulator Sim(P, CP, Spec, opts(1, {{"T", 2}, {"N", 63}}));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Messages, 0u);
  EXPECT_EQ(R.Words, 0u);
  EXPECT_GT(R.IntraMessages, 0u); // folded messages still delivered
}

TEST(SimulatorTest, IntraPhysicalChargingToggle) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  SimOptions Free = opts(1, {{"T", 2}, {"N", 63}});
  SimOptions Charged = Free;
  Charged.FreeIntraPhysical = false;
  SimResult RF = Simulator(P, CP, Spec, Free).run();
  SimResult RC = Simulator(P, CP, Spec, Charged).run();
  ASSERT_TRUE(RF.Ok && RC.Ok);
  EXPECT_EQ(RF.Messages, 0u);
  EXPECT_GT(RC.Messages, 0u); // same transfers, now billed
  EXPECT_GT(RC.MakespanSeconds, RF.MakespanSeconds);
}

TEST(SimulatorTest, CostModelScalesMakespan) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  SimOptions Slow = opts(4, {{"T", 8}, {"N", 255}});
  SimOptions Fast = Slow;
  Fast.Cost.FlopTime = Slow.Cost.FlopTime / 10;
  Fast.Cost.MsgLatency = Slow.Cost.MsgLatency / 10;
  Fast.Cost.SendPerWord = Slow.Cost.SendPerWord / 10;
  Fast.Cost.RecvPerWord = Slow.Cost.RecvPerWord / 10;
  Fast.Cost.WireTimePerWord = Slow.Cost.WireTimePerWord / 10;
  Fast.Cost.IterOverhead = Slow.Cost.IterOverhead / 10;
  SimResult RS = Simulator(P, CP, Spec, Slow).run();
  SimResult RF = Simulator(P, CP, Spec, Fast).run();
  ASSERT_TRUE(RS.Ok && RF.Ok);
  EXPECT_NEAR(RS.MakespanSeconds / RF.MakespanSeconds, 10.0, 0.5);
  // Counters are cost-model independent.
  EXPECT_EQ(RS.Messages, RF.Messages);
  EXPECT_EQ(RS.Words, RF.Words);
  EXPECT_EQ(RS.Flops, RF.Flops);
}

TEST(SimulatorTest, PerfAndFunctionalCountersAgreeOnLargerRun) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 16);
  CompiledProgram CP = compile(P, Spec);
  SimResult RF =
      Simulator(P, CP, Spec, opts(4, {{"T", 5}, {"N", 127}}, true)).run();
  SimResult RP =
      Simulator(P, CP, Spec, opts(4, {{"T", 5}, {"N", 127}}, false)).run();
  ASSERT_TRUE(RF.Ok && RP.Ok);
  EXPECT_EQ(RF.Messages, RP.Messages);
  EXPECT_EQ(RF.Words, RP.Words);
  EXPECT_EQ(RF.ComputeIterations, RP.ComputeIterations);
}

TEST(SimulatorTest, FoldingBoundarySingleProcessorMatchesGold) {
  // P = 1 folding boundary: pi(v) = v mod 1 puts every virtual proc on
  // phys 0, so the whole schedule flows through the intra-physical
  // queues. The folded functional run must still match the sequential
  // interpreter exactly.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 2}, {"N", 63}};
  Simulator Sim(P, CP, Spec, opts(1, Pv, true));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  for (IntT I = 0; I <= 63; ++I) {
    std::optional<double> V = Sim.finalValue(0, {I});
    ASSERT_TRUE(V.has_value()) << "X[" << I << "] unowned";
    EXPECT_EQ(*V, Gold.arrayValue(0, {I})) << "X[" << I << "]";
  }
}

TEST(SimulatorTest, FoldingBoundaryMoreProcessorsThanVirtual) {
  // P > numVirtual boundary: 37 physical processors for 8 virtual ones.
  // pi(v) = v mod 37 is injective here, so the run must behave exactly
  // like the saturated P = 8 machine plus 29 idle processors — same
  // traffic, same correct answers, zero busy time on the idle ranks.
  // (This is the regime where the virtual->physical index arithmetic
  // used to be most at risk: phys indices beyond the virtual extent.)
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 2}, {"N", 63}};

  Simulator Wide(P, CP, Spec, opts(37, Pv, true));
  SimResult RW = Wide.run();
  ASSERT_TRUE(RW.Ok) << RW.Error;
  SimResult R8 = Simulator(P, CP, Spec, opts(8, Pv, true)).run();
  ASSERT_TRUE(R8.Ok) << R8.Error;

  EXPECT_EQ(RW.Messages, R8.Messages);
  EXPECT_EQ(RW.Words, R8.Words);
  EXPECT_EQ(RW.ComputeIterations, R8.ComputeIterations);
  EXPECT_EQ(RW.IntraMessages, 0u) << "injective folding leaves nothing "
                                     "intra-physical";
  ASSERT_EQ(RW.PhysBusy.size(), 37u);
  for (unsigned I = 8; I < 37; ++I)
    EXPECT_EQ(RW.PhysBusy[I], 0.0) << "idle phys " << I;

  SeqInterpreter Gold(P, Pv);
  Gold.run();
  for (IntT I = 0; I <= 63; ++I) {
    std::optional<double> V = Wide.finalValue(0, {I});
    ASSERT_TRUE(V.has_value()) << "X[" << I << "] unowned";
    EXPECT_EQ(*V, Gold.arrayValue(0, {I})) << "X[" << I << "]";
  }

  // Perf-mode cost accumulation survives the same boundary.
  SimResult RP = Simulator(P, CP, Spec, opts(37, Pv, false)).run();
  ASSERT_TRUE(RP.Ok) << RP.Error;
  EXPECT_EQ(RP.Messages, RW.Messages);
  EXPECT_EQ(RP.Words, RW.Words);
}

TEST(SimulatorTest, DeepRightHandSideMatchesGold) {
  // X[i] = 1 - (2 - (... - (20 - X[i - 3]))): every left operand waits
  // on the value stack, so the lowered code needs 21 slots, more than
  // the evaluator keeps inline.
  std::string Rhs = "X[i - 3]";
  for (int K = 20; K >= 1; --K)
    Rhs = std::to_string(K) + " - (" + Rhs + ")";
  Program P = parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
for t = 0 to T {
  for i = 3 to N {
    X[i] = )" + Rhs + R"(;
  }
}
)");
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"T", 2}, {"N", 63}};
  Simulator Sim(P, CP, Spec, opts(4, Pv, true));
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  for (IntT I = 0; I <= 63; ++I) {
    std::optional<double> V = Sim.finalValue(0, {I});
    ASSERT_TRUE(V.has_value()) << "X[" << I << "] unowned";
    EXPECT_EQ(*V, Gold.arrayValue(0, {I})) << "X[" << I << "]";
  }
}

TEST(SimulatorTest, BusyTimeNeverExceedsMakespan) {
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  SimResult R =
      Simulator(P, CP, Spec, opts(4, {{"T", 6}, {"N", 255}})).run();
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.PhysBusy.size(), 4u);
  for (double B : R.PhysBusy) {
    EXPECT_GE(B, 0.0);
    EXPECT_LE(B, R.MakespanSeconds * (1 + 1e-9));
  }
}

TEST(SimulatorTest, EventBudgetEndsTheRunWithAStructuredError) {
  // A run that needs more statements than SimOptions::MaxEvents allows
  // must come back Ok == false with the budget flag, on every engine,
  // instead of exiting the process.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Params = {{"T", 2}, {"N", 63}};
  SimResult Full = Simulator(P, CP, Spec, opts(2, Params)).run();
  ASSERT_TRUE(Full.Ok) << Full.Error;
  ASSERT_GT(Full.TotalEvents, 1u);
  struct Engine {
    SimEngine E;
    unsigned Threads;
  };
  for (Engine En : {Engine{SimEngine::Rounds, 1},
                    Engine{SimEngine::Rounds, 2},
                    Engine{SimEngine::Event, 1}}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(En.E)) +
                 ", threads " + std::to_string(En.Threads));
    SimOptions SO = opts(2, Params);
    SO.Engine = En.E;
    SO.Threads = En.Threads;
    SO.MaxEvents = Full.TotalEvents - 1;
    SimResult R = Simulator(P, CP, Spec, SO).run();
    EXPECT_FALSE(R.Ok);
    EXPECT_TRUE(R.Diag.EventBudgetExhausted);
    EXPECT_NE(R.Error.find("event budget exhausted"), std::string::npos)
        << R.Error;
    // Exactly the run's own event count still fits.
    SO.MaxEvents = Full.TotalEvents;
    SimResult Fits = Simulator(P, CP, Spec, SO).run();
    EXPECT_TRUE(Fits.Ok) << Fits.Error;
    EXPECT_FALSE(Fits.Diag.EventBudgetExhausted);
    EXPECT_EQ(Fits.MakespanSeconds, Full.MakespanSeconds);
  }
}

TEST(SimulatorTest, ThreadedEventEngineIsAStructuredError) {
  // The event engine is single-threaded. Asking for it with more than
  // one thread is a configuration error that run() reports, rather
  // than ending the process.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  CompiledProgram CP = compile(P, Spec);
  SimOptions SO = opts(2, {{"T", 2}, {"N", 63}});
  SO.Engine = SimEngine::Event;
  SO.Threads = 2;
  SimResult R = Simulator(P, CP, Spec, SO).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "Simulator: the event engine is single-threaded; "
                     "SimEngine::Event requires Threads == 1");
  EXPECT_EQ(R.TotalEvents, 0u);
}

TEST(SimulatorTest, PeerOutsideTheGridEndsTheRun) {
  // Sabotage the peers of every send (then of every receive) so they
  // name processors outside the virtual grid (0..7). A send to one has
  // no channel to queue on and ends the run with an error naming the
  // comm id and the coordinate; a receive from one can never be
  // satisfied and ends in the stall report, which names both too.
  // Every engine reports the same thing.
  Program P = shift();
  CompileSpec Spec = shiftSpec(P, 8);
  std::map<std::string, IntT> Params = {{"T", 2}, {"N", 63}};
  for (SpmdStmt::Kind Kind : {SpmdStmt::Kind::Send, SpmdStmt::Kind::Recv}) {
    const bool IsSend = Kind == SpmdStmt::Kind::Send;
    SCOPED_TRACE(IsSend ? "send" : "receive");
    CompiledProgram CP = compile(P, Spec);
    std::set<unsigned> Comms;
    std::function<void(std::vector<SpmdStmt> &)> Break =
        [&](std::vector<SpmdStmt> &Stmts) {
          for (SpmdStmt &S : Stmts) {
            if (S.K == Kind) {
              S.Peer[0] = S.Peer[0].plusConst(1000);
              Comms.insert(S.CommId);
            }
            Break(S.Body);
          }
        };
    Break(CP.Spmd.Top);
    ASSERT_EQ(Comms.size(), 1u) << "the shift program has one comm set";
    const unsigned Comm = *Comms.begin();
    const std::string CommStr = "comm " + std::to_string(Comm);

    struct Engine {
      SimEngine E;
      unsigned Threads;
    };
    std::optional<std::string> First;
    for (Engine En : {Engine{SimEngine::Rounds, 1},
                      Engine{SimEngine::Rounds, 2},
                      Engine{SimEngine::Event, 1}}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(En.E)) +
                   ", threads " + std::to_string(En.Threads));
      SimOptions SO = opts(2, Params);
      SO.Engine = En.E;
      SO.Threads = En.Threads;
      SimResult R = Simulator(P, CP, Spec, SO).run();
      ASSERT_FALSE(R.Ok);
      EXPECT_FALSE(R.Diag.EventBudgetExhausted);
      if (IsSend) {
        EXPECT_NE(R.Error.find("send on " + CommStr), std::string::npos)
            << R.Error;
        EXPECT_NE(R.Error.find("to vp(10"), std::string::npos) << R.Error;
        EXPECT_NE(R.Error.find("peer outside the virtual processor grid "
                               "vp(0)..vp(7)"),
                  std::string::npos)
            << R.Error;
        EXPECT_EQ(R.Error.find("unconsumed"), std::string::npos) << R.Error;
      } else {
        bool Found = false;
        for (const PendingRecv &Pr : R.Diag.StuckProcs)
          if (Pr.PeerOutsideGrid) {
            Found = true;
            EXPECT_EQ(Pr.CommId, Comm);
            ASSERT_EQ(Pr.Peer.size(), 1u);
            EXPECT_GE(Pr.Peer[0], 1000);
          }
        EXPECT_TRUE(Found);
        EXPECT_NE(R.Error.find("waiting for " + CommStr + " from vp(10"),
                  std::string::npos)
            << R.Error;
        EXPECT_NE(R.Error.find("(peer outside the virtual processor grid)"),
                  std::string::npos)
            << R.Error;
      }
      if (!First)
        First = R.Error;
      EXPECT_EQ(R.Error, *First);
    }
  }
}
