//===- bench/bench_decomp_search.cpp --------------------------*- C++ -*-===//
//
// Decomposition auto-search study: for every workload spec under
// examples/ (cholesky, 2-D/3-D Jacobi, ADI, Floyd-Warshall), run the
// bounded decomposition search (decomp/Search.h) seeded with the
// hand-written directives and report the hand-written makespan, the
// winner's makespan and description, the candidate count, the
// relative improvement, and the search's wall time (per workload and in
// total, "search_seconds"). Output is one JSON object; snapshotted as
// BENCH_decomp_search.json. The search's never-worse-than-hint
// guarantee means "improvement" is always >= 0; a workload where the
// hand-written spec already wins reports the hint itself.
//
// Set DMCC_BENCH_SMALL=1 to run with a trimmed block-size axis.
//
//===----------------------------------------------------------------------===//

#include "core/SpecParser.h"
#include "decomp/Search.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dmcc;

namespace {

std::string repoPath(const std::string &Rel) {
  return std::string(DMCC_REPO_ROOT) + "/" + Rel;
}

} // namespace

int main() {
  const bool Small = std::getenv("DMCC_BENCH_SMALL") != nullptr;
  const char *Names[] = {"cholesky", "jacobi2d", "jacobi3d", "adi",
                         "floyd"};

  std::printf("{\n");
  std::printf("  \"bench\": \"decomp_search\",\n");
  std::printf("  \"mode\": \"%s\",\n", Small ? "small" : "full");
  std::printf("  \"procs\": 4,\n");
  std::printf("  \"workloads\": [\n");
  bool FirstRow = true;
  double TotalSeconds = 0;
  for (const char *Name : Names) {
    std::ifstream In(repoPath("examples/" + std::string(Name) + ".dm"));
    if (!In) {
      std::fprintf(stderr, "%s: cannot open spec\n", Name);
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    SpecParseOutput SP = parseWithSpec(Buf.str());
    if (!SP.ok()) {
      std::fprintf(stderr, "%s: %s\n", Name, SP.Error.c_str());
      return 1;
    }

    SearchOptions SO;
    SO.Procs = 4;
    SO.Params = SP.ParamDefaults;
    SO.Jobs = 4;
    SO.MaxBlockChoices = Small ? 2 : 4;
    auto T0 = std::chrono::steady_clock::now();
    SearchResult SR = searchDecompositions(*SP.Prog, &SP.Spec, SO);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
    TotalSeconds += Seconds;
    if (!SR.ok()) {
      std::fprintf(stderr, "%s: search failed: %s\n", Name,
                   SR.Error.c_str());
      return 1;
    }
    const SpecScore &Hand = SR.Candidates[0].Score;
    if (!Hand.Ok) {
      std::fprintf(stderr, "%s: hand-written spec infeasible: %s\n",
                   Name, Hand.Error.c_str());
      return 1;
    }
    const ScoredCandidate &Best = SR.best();
    unsigned Feasible = 0;
    for (const ScoredCandidate &C : SR.Candidates)
      Feasible += C.Score.Ok;
    double Improvement =
        Hand.MakespanSeconds > 0
            ? 1.0 - Best.Score.MakespanSeconds / Hand.MakespanSeconds
            : 0.0;
    std::printf("%s    {\"workload\": \"%s\",\n", FirstRow ? "" : ",\n",
                Name);
    std::printf("     \"hand_makespan_seconds\": %.9f,\n",
                Hand.MakespanSeconds);
    std::printf("     \"hand_messages\": %llu,\n",
                static_cast<unsigned long long>(Hand.Messages));
    std::printf("     \"best_desc\": \"%s\",\n", Best.Cand.Desc.c_str());
    std::printf("     \"best_makespan_seconds\": %.9f,\n",
                Best.Score.MakespanSeconds);
    std::printf("     \"best_messages\": %llu,\n",
                static_cast<unsigned long long>(Best.Score.Messages));
    std::printf("     \"candidates\": %zu,\n", SR.Candidates.size());
    std::printf("     \"candidates_feasible\": %u,\n", Feasible);
    std::printf("     \"improvement\": %.6f,\n", Improvement);
    std::printf("     \"search_seconds\": %.3f}", Seconds);
    FirstRow = false;
    std::fprintf(stderr,
                 "%-10s hand %.6f s -> best %.6f s (%s), %+.1f%%, "
                 "searched in %.3f s\n",
                 Name, Hand.MakespanSeconds, Best.Score.MakespanSeconds,
                 Best.Cand.Desc.c_str(), 100.0 * Improvement, Seconds);
  }
  std::printf("\n  ],\n");
  std::printf("  \"search_seconds\": %.3f\n}\n", TotalSeconds);
  return 0;
}
