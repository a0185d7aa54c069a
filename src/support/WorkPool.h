//===- support/WorkPool.h - Claim-next-index thread pool -------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process worker pool behind batch scoring (sim/Score.h) and the
/// scenario fleet (sim/Fleet.h). Each thread claims the next unclaimed
/// index from an atomic counter; a body that writes only slot I of its
/// output therefore gives a result that does not depend on the pool size
/// or the interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SUPPORT_WORKPOOL_H
#define DMCC_SUPPORT_WORKPOOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace dmcc {

/// Calls \p Body(I) once for each I in [0, Count) on min(Jobs, Count)
/// threads (Jobs 0 counts as 1) and returns when all have joined. A Body
/// that returns false stops the pool: no thread claims another index,
/// and the indices already claimed run to completion. Body must not
/// throw.
template <typename Fn>
void forEachIndex(size_t Count, unsigned Jobs, const Fn &Body) {
  std::atomic<size_t> Next{0};
  std::atomic<bool> Stop{false};
  auto Work = [&] {
    for (size_t I; !Stop && (I = Next.fetch_add(1)) < Count;)
      if (!Body(I))
        Stop = true;
  };
  size_t Threads = std::min<size_t>(std::max(Jobs, 1u), Count);
  std::vector<std::jthread> Pool; // joins every worker on scope exit
  for (size_t J = 0; J != Threads; ++J)
    Pool.emplace_back(Work);
}

} // namespace dmcc

#endif // DMCC_SUPPORT_WORKPOOL_H
