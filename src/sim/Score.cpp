//===- sim/Score.cpp ------------------------------------------*- C++ -*-===//

#include "sim/Score.h"

#include "support/WorkPool.h"

#include <exception>

using namespace dmcc;

namespace {

/// Compiles and simulates one candidate.
SpecScore scoreOne(const Program &P, const CompileSpec &Spec,
                   const ScoreOptions &SO) {
  SpecScore S;
  CompiledProgram CP = compile(P, Spec, SO.Compile);
  S.CompileSeconds = CP.Stats.CompileSeconds;
  S.CommSets = CP.Stats.NumCommSetsAfterSelfReuse;
  if (!CP.Ok) {
    S.Error = CP.ErrorMessage;
    return S;
  }
  SimOptions Sim;
  Sim.PhysGrid = {SO.Procs};
  Sim.ParamValues = SO.Params;
  // Performance mode: symbolic values, collapsed compute loops. The
  // ranking only needs the schedule, and the collapsed run is what
  // makes scoring dozens of candidates affordable.
  Sim.Functional = false;
  Sim.CollapseLoops = true;
  Sim.MaxEvents = SO.MaxEvents;
  Simulator Sm(P, CP, Spec, Sim);
  SimResult R = Sm.run();
  S.Ok = R.Ok;
  S.Error = R.Error;
  S.MakespanSeconds = R.MakespanSeconds;
  S.Messages = R.Messages;
  S.Words = R.Words;
  return S;
}

} // namespace

std::vector<SpecScore>
dmcc::scoreSpecs(const Program &P, const std::vector<CompileSpec> &Specs,
                 const ScoreOptions &SO) {
  std::vector<SpecScore> Out(Specs.size());
  // The simulator needs every parameter bound; without one no candidate
  // can run, so each is reported infeasible up front.
  for (unsigned I = 0; I != P.space().size(); ++I) {
    const std::string &Name = P.space().name(I);
    if (P.space().kind(I) != VarKind::Param || SO.Params.count(Name))
      continue;
    for (SpecScore &S : Out)
      S.Error = "parameter '" + Name + "' has no value";
    return Out;
  }

  forEachIndex(Specs.size(), SO.Jobs, [&](size_t I) {
    try {
      Out[I] = scoreOne(P, Specs[I], SO);
    } catch (const std::exception &E) {
      // dmcc raises none itself; the standard library can (e.g.
      // bad_alloc for a candidate too large to build). The candidate
      // is infeasible, and the exception must not escape the thread.
      Out[I] = SpecScore();
      Out[I].Error = std::string("exception: ") + E.what();
    }
    return true;
  });
  return Out;
}
