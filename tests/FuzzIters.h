//===- tests/FuzzIters.h - Case counts of the fuzz binaries ---*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The number of seeded cases a `fuzz`-labeled test runs. Every fuzz
/// binary reads the same DMCC_FUZZ_ITERS variable, so one setting scales
/// the whole slice; each test's coverage floors scale with the count.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_TESTS_FUZZITERS_H
#define DMCC_TESTS_FUZZITERS_H

#include <cstdlib>

namespace dmcc {

/// DMCC_FUZZ_ITERS when it holds a positive count, \p Default otherwise.
inline unsigned fuzzIters(unsigned Default) {
  if (const char *E = std::getenv("DMCC_FUZZ_ITERS")) {
    long N = std::atol(E);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return Default;
}

} // namespace dmcc

#endif // DMCC_TESTS_FUZZITERS_H
