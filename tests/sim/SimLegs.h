//===- tests/sim/SimLegs.h - Shared simulation legs -------------*- C++ -*-===//
//
// The bit-identity contract the differential suites share (DESIGN.md
// §10, §13, §14): two runs agree when their SimResults compare equal
// under operator== and every element of every final-layout array is
// the same. Also a gtest printer, so a failed comparison names the
// counters that differ.
//
//===----------------------------------------------------------------------===//

#ifndef DMCC_TESTS_SIM_SIMLEGS_H
#define DMCC_TESTS_SIM_SIMLEGS_H

#include "sim/Simulator.h"

#include <gtest/gtest.h>
#include <iomanip>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace dmcc {

/// gtest printer for SimResult: the outcome, the clocks, and every
/// counter under its SimCounters::Fields name.
inline void PrintTo(const SimResult &R, std::ostream *OS) {
  *OS << std::setprecision(17) << "{ok=" << R.Ok << " error=\"" << R.Error
      << "\" makespan=" << R.MakespanSeconds
      << " total_events=" << R.TotalEvents;
  for (const SimCounters::Field &F : SimCounters::Fields)
    *OS << ' ' << F.Name << '=' << R.*F.Member;
  const RecoveryStats &Rc = R.Recovery;
  *OS << " checkpoints=" << Rc.CheckpointsTaken << '/' << Rc.CheckpointBytes
      << "B rollbacks=" << Rc.Rollbacks << " replayed=" << Rc.ReplayedSteps
      << '/' << Rc.ReplayedMessages << " busy_split=" << Rc.ComputeSeconds
      << '/' << Rc.ProtocolSeconds << '/' << Rc.CheckpointSeconds << '/'
      << Rc.RecoverySeconds << " overlap=" << R.Overlap.DeferredSeconds
      << '/' << R.Overlap.ExposedSeconds << " phys_busy=[";
  for (double B : R.PhysBusy)
    *OS << ' ' << B;
  *OS << " ]}";
}

/// Values of \p P's parameters in \p Params, indexed like P.space().
inline std::vector<IntT>
paramEnv(const Program &P, const std::map<std::string, IntT> &Params) {
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  return Env;
}

/// Every element of every final-layout array after a run of \p Sim, in
/// FinalData (ArrayId) order, row-major; nullopt where nobody holds it.
inline std::vector<std::optional<double>>
finalElems(const Program &P, const CompileSpec &Spec, const Simulator &Sim,
           const std::map<std::string, IntT> &Params) {
  std::vector<std::optional<double>> Out;
  std::vector<IntT> Env = paramEnv(P, Params);
  for (const auto &KV : Spec.FinalData) {
    unsigned AId = KV.first;
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : P.array(AId).DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = Sizes.empty();
    while (!Done) {
      Out.push_back(Sim.finalValue(AId, Idx));
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
  return Out;
}

/// One simulation leg: the full result plus finalElems.
struct RunOut {
  SimResult R;
  std::vector<std::optional<double>> Elems;
};

inline RunOut runLeg(const Program &P, const CompiledProgram &CP,
                     const CompileSpec &Spec, SimOptions SO,
                     const std::map<std::string, IntT> &Params) {
  Simulator Sim(P, CP, Spec, std::move(SO));
  RunOut O;
  O.R = Sim.run();
  O.Elems = finalElems(P, Spec, Sim, Params);
  return O;
}

/// The bit-identity check: exact equality of every SimResult field,
/// doubles included, and of every final array element.
inline void expectIdentical(const RunOut &A, const RunOut &B,
                            const std::string &Tag) {
  EXPECT_EQ(A.R, B.R) << Tag;
  ASSERT_EQ(A.Elems.size(), B.Elems.size()) << Tag;
  unsigned Bad = 0;
  for (unsigned I = 0; I != A.Elems.size(); ++I)
    if (A.Elems[I] != B.Elems[I])
      ++Bad;
  EXPECT_EQ(Bad, 0u) << Tag << ": array contents diverge";
}

} // namespace dmcc

#endif // DMCC_TESTS_SIM_SIMLEGS_H
