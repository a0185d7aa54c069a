//===- bench/SourceCommit.h - Commit stamp for bench JSON ------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source commit a bench binary records in its JSON, so a snapshot
/// says which code it measured. The including target must define
/// DMCC_REPO_ROOT.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_BENCH_SOURCECOMMIT_H
#define DMCC_BENCH_SOURCECOMMIT_H

#include <cstdio>
#include <string>

namespace dmcc {

/// `git describe` of the source tree, "-dirty" when it has uncommitted
/// changes, or "unknown" outside a git work tree.
inline std::string sourceCommit() {
  std::string Cmd = "git -C '" + std::string(DMCC_REPO_ROOT) +
                    "' describe --always --dirty --abbrev=12 2>/dev/null";
  std::string Out;
  if (FILE *F = popen(Cmd.c_str(), "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), F))
      Out += Buf;
    if (pclose(F) != 0)
      Out.clear();
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out.empty() ? "unknown" : Out;
}

} // namespace dmcc

#endif // DMCC_BENCH_SOURCECOMMIT_H
