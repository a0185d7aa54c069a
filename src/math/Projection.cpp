//===- math/Projection.cpp ------------------------------------*- C++ -*-===//

#include "math/Projection.h"

#include <chrono>
#include <unordered_map>

using namespace dmcc;

namespace {

// All mutable state of the polyhedral core is thread_local: each thread
// owns private options, counters, caches and an active-phase chain, so
// threaded callers (e.g. the threaded simulator driving compilations
// from workers) cannot corrupt each other's entries or counters, with
// no locks on the compiler's hottest paths. Single-threaded behavior is
// unchanged — the main thread sees exactly the old globals.
thread_local ProjectionOptions GlobalOptions;
thread_local ProjectionStats GlobalStats;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulated phase table, in first-use order.
thread_local std::vector<PhaseProfile> Phases;

/// Innermost live PhaseTimer on this thread: the parent chain that lets
/// a closing child report its inclusive totals for exclusion.
thread_local PhaseTimer *ActiveTimer = nullptr;

PhaseProfile &phaseSlot(const char *Name) {
  for (PhaseProfile &P : Phases)
    if (P.Name == Name)
      return P;
  Phases.push_back(PhaseProfile{Name, 0, 0, ProjectionStats()});
  return Phases.back();
}

struct FeasEntry {
  Feasibility Result = Feasibility::Unknown;
  unsigned Budget = 0; ///< budget the result was computed under
};

/// The feasibility memo. It is bounded: on overflow the whole map is
/// dropped (cheap, keeps the hot working set warm again within a few
/// queries).
thread_local std::unordered_map<detail::CacheKey, FeasEntry,
                                detail::CacheKeyHash>
    FeasCache;

} // namespace

ProjectionOptions &dmcc::projectionOptions() { return GlobalOptions; }

ProjectionStats &dmcc::projectionStats() { return GlobalStats; }

void dmcc::resetProjectionStats() { GlobalStats = ProjectionStats(); }

void dmcc::clearProjectionCaches() { FeasCache.clear(); }

std::size_t dmcc::projectionCacheEntries() {
  return FeasCache.size();
}

ProjectionStats ProjectionStats::operator-(const ProjectionStats &O) const {
  ProjectionStats R;
  R.FeasQueries = FeasQueries - O.FeasQueries;
  R.FeasCacheHits = FeasCacheHits - O.FeasCacheHits;
  R.FeasCacheMisses = FeasCacheMisses - O.FeasCacheMisses;
  R.FeasUnknown = FeasUnknown - O.FeasUnknown;
  R.NodesExpanded = NodesExpanded - O.NodesExpanded;
  R.FmEliminations = FmEliminations - O.FmEliminations;
  R.RedundancyCalls = RedundancyCalls - O.RedundancyCalls;
  R.RedundancyTests = RedundancyTests - O.RedundancyTests;
  R.RedundancyQuickKills = RedundancyQuickKills - O.RedundancyQuickKills;
  R.CacheEvictions = CacheEvictions - O.CacheEvictions;
  R.LexMaxCalls = LexMaxCalls - O.LexMaxCalls;
  R.ScanCalls = ScanCalls - O.ScanCalls;
  return R;
}

ProjectionStats &ProjectionStats::operator+=(const ProjectionStats &O) {
  FeasQueries += O.FeasQueries;
  FeasCacheHits += O.FeasCacheHits;
  FeasCacheMisses += O.FeasCacheMisses;
  FeasUnknown += O.FeasUnknown;
  NodesExpanded += O.NodesExpanded;
  FmEliminations += O.FmEliminations;
  RedundancyCalls += O.RedundancyCalls;
  RedundancyTests += O.RedundancyTests;
  RedundancyQuickKills += O.RedundancyQuickKills;
  CacheEvictions += O.CacheEvictions;
  LexMaxCalls += O.LexMaxCalls;
  ScanCalls += O.ScanCalls;
  return *this;
}

PhaseTimer::PhaseTimer(const char *Name)
    : Name(Name), Snap(GlobalStats), T0(nowSeconds()),
      Parent(ActiveTimer) {
  ActiveTimer = this;
}

PhaseTimer::~PhaseTimer() {
  // Exclusive attribution: this phase keeps its own elapsed time and
  // counter delta minus what completed child phases already claimed;
  // the full inclusive totals are handed up to the parent for the same
  // exclusion there. The phase table is therefore a partition — summing
  // the rows gives the true total, with nothing double-counted.
  double Elapsed = nowSeconds() - T0;
  ProjectionStats D = GlobalStats - Snap;
  PhaseProfile &P = phaseSlot(Name);
  P.Seconds += Elapsed - ChildSeconds;
  ++P.Invocations;
  P.Delta += D - ChildDelta;
  if (Parent) {
    Parent->ChildSeconds += Elapsed;
    Parent->ChildDelta += D;
  }
  ActiveTimer = Parent;
}

std::vector<PhaseProfile> dmcc::phaseProfiles() { return Phases; }

void dmcc::resetPhaseProfiles() { Phases.clear(); }

std::size_t detail::CacheKeyHash::operator()(const CacheKey &K) const {
  // FNV-1a over the 64-bit words.
  uint64_t H = 1469598103934665603ull;
  for (IntT V : K) {
    H ^= static_cast<uint64_t>(V);
    H *= 1099511628211ull;
  }
  return static_cast<std::size_t>(H);
}

bool detail::feasCacheLookup(const CacheKey &K, unsigned Budget,
                             Feasibility &R) {
  auto It = FeasCache.find(K);
  if (It == FeasCache.end())
    return false;
  const FeasEntry &E = It->second;
  if (E.Result == Feasibility::Unknown && Budget > E.Budget)
    return false; // a deeper search might still resolve it
  R = E.Result;
  return true;
}

void detail::feasCacheStore(const CacheKey &K, unsigned Budget,
                            Feasibility R) {
  auto It = FeasCache.find(K);
  if (It != FeasCache.end()) {
    // Keep the strongest fact: definite answers win; among Unknowns the
    // larger failed budget subsumes the smaller.
    if (It->second.Result != Feasibility::Unknown)
      return;
    if (R == Feasibility::Unknown && Budget <= It->second.Budget)
      return;
  }
  if (FeasCache.size() >= GlobalOptions.CacheCapacity) {
    FeasCache.clear();
    ++GlobalStats.CacheEvictions;
  }
  FeasCache[K] = FeasEntry{R, Budget};
}
