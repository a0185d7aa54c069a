//===- tests/comm/CountDistinct.h - Enumerating comm-set counts -*- C++ -*-===//
//
// Ground-truth counting for the comm-set tests: enumerates a CommSet under
// concrete parameter values and counts its distinct tuples.
//
//===----------------------------------------------------------------------===//

#ifndef DMCC_TESTS_COMM_COUNTDISTINCT_H
#define DMCC_TESTS_COMM_COUNTDISTINCT_H

#include "comm/CommSet.h"

#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dmcc {

/// Counts, under concrete parameter values, the number of distinct tuples
/// of the given variable groups (e.g. {PsVars, ElVars} to count distinct
/// words leaving each sender). Enumerates the full set. A parameter
/// without a value is a test failure and counts 0.
inline uint64_t countDistinct(const CommSet &CS,
                              const std::vector<std::vector<unsigned>> &Groups,
                              const std::map<std::string, IntT> &ParamValues,
                              unsigned Budget = 4000000) {
  System S = CS.Sys;
  for (unsigned I = 0, E = S.space().size(); I != E; ++I) {
    if (S.space().kind(I) != VarKind::Param)
      continue;
    auto It = ParamValues.find(S.space().name(I));
    if (It == ParamValues.end()) {
      ADD_FAILURE() << "countDistinct: no value for parameter "
                    << S.space().name(I);
      return 0;
    }
    S.addEQ(S.varExpr(I).plusConst(-It->second));
  }
  std::set<std::vector<IntT>> Tuples;
  S.enumeratePoints(
      [&](const std::vector<IntT> &Pt) {
        std::vector<IntT> Key;
        for (const std::vector<unsigned> &G : Groups)
          for (unsigned V : G)
            Key.push_back(Pt[V]);
        Tuples.insert(std::move(Key));
      },
      Budget);
  return Tuples.size();
}

} // namespace dmcc

#endif // DMCC_TESTS_COMM_COUNTDISTINCT_H
