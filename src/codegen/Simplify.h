//===- codegen/Simplify.h - Context simplification of SPMD code -*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simplifies a generated SPMD tree under its polyhedral context. Each
/// scanned fragment only knows its own projection levels (Section 5.2),
/// so once fragments are merged under shared loops (Section 5.4) their
/// guards repeat what the enclosing bounds and guards already say, and
/// split loop segments can be empty outright. The simplifier walks the
/// tree carrying the context at each point:
///
///  * every enclosing loop's bound terms (den*v >= num, den*v <= num);
///  * the guards already taken;
///  * x == e for each SetVar x = e (two inequalities for a floor);
///
/// forgetting the facts about a variable (Fourier-Motzkin projection) as
/// soon as a statement may reassign it. Under that context it drops every
/// guard condition the context implies, drops max/min bound terms that
/// another term dominates, deletes every If and For that has no integer
/// point or an empty body, and moves a guard that every statement of a
/// loop body tests in front of the loop when it cannot change between
/// iterations. Adjacent Ifs that test the same conditions become one
/// when the first body assigns nothing the conditions read. Loop
/// splitting (LoopSplit.h) runs in the same walk. Afterwards one backward
/// liveness pass deletes every SetVar whose target no path reads before
/// the next assignment to it, and each If and For this empties. Each
/// processor still executes the same compute, send and receive
/// statements in the same order, with the same values of every variable
/// they read; only guard tests, loop headers and assignments whose
/// outcome never mattered disappear.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_CODEGEN_SIMPLIFY_H
#define DMCC_CODEGEN_SIMPLIFY_H

#include "codegen/LoopSplit.h"
#include "codegen/SpmdAst.h"

#include <set>

namespace dmcc {

/// The facts known at one point of an SPMD tree: a conjunction of
/// constraints over the program space's \p NumVars variables.
class SpmdContext {
public:
  explicit SpmdContext(unsigned NumVars) : NumVars(NumVars) {}

  unsigned numVars() const { return NumVars; }

  /// Adds \p C (an expression over a prefix of the space is widened).
  void add(const Constraint &C);
  /// Forgets every fact about \p Var, keeping what they imply about the
  /// other variables.
  void forget(unsigned Var);
  void forget(const std::set<unsigned> &Vars);
  /// Forgets the old value of the SetVar's target and records the new.
  void assign(const SpmdStmt &Set);
  /// Adds \p For's bound terms on its variable, except terms that read a
  /// variable in \p Skip.
  void addBounds(const SpmdStmt &For, const std::set<unsigned> &Skip);

  /// True when every integer point of the context and \p Also satisfies
  /// \p C. False when the test is inconclusive.
  bool implies(const Constraint &C,
               const std::vector<Constraint> &Also = {}) const;
  /// False only when the context and \p Conds provably have no integer
  /// point in common.
  bool admits(const std::vector<Constraint> &Conds) const;

private:
  /// Feasibility of the context's constraints that share variables
  /// (transitively) with \p Extra, together with \p Extra.
  Feasibility check(const std::vector<Constraint> &Extra) const;

  unsigned NumVars;
  std::vector<Constraint> Facts; ///< each over all NumVars variables
};

/// Drops every condition of \p Conds that \p Ctx and the other kept
/// conditions imply. Returns false (leaving \p Conds unspecified) when
/// the conditions have no integer point under \p Ctx.
bool gistConds(const SpmdContext &Ctx, std::vector<Constraint> &Conds);

/// Drops every lower (upper) bound term of a loop over \p Var that
/// another kept term dominates at every point of \p Ctx, so max(Lower)
/// and min(Upper) keep their values. \p Ctx must hold no fact about
/// \p Var. Returns false when the range is empty at every point.
bool foldBounds(const SpmdContext &Ctx, unsigned Var,
                std::vector<SpmdBound> &Lower, std::vector<SpmdBound> &Upper);

/// Counts of what one simplification pass removed.
struct SimplifyStats {
  unsigned CondsDropped = 0;  ///< guard conditions the context implies
  unsigned IfsDeleted = 0;    ///< Ifs with no point or an empty body
  unsigned LoopsDeleted = 0;  ///< Fors with an empty range or body
  unsigned BoundsFolded = 0;  ///< dominated max/min bound terms
  unsigned GuardsHoisted = 0;  ///< loop-invariant guards moved out of loops
  unsigned DeadSetsDeleted = 0; ///< SetVars whose target is dead
};

/// Every variable a statement list may assign (loop indices and SetVar
/// targets, at any depth).
void assignedVars(const std::vector<SpmdStmt> &Stmts,
                  std::set<unsigned> &Out);

/// The walk behind compile()'s simplification and splitLoops().
class SpmdSimplifier {
public:
  /// \p MaxSegments > 1 also splits loops (LoopSplit.h), at most that
  /// many segments per loop; 0 only simplifies.
  SpmdSimplifier(const SpmdProgram &Prog, unsigned MaxSegments);

  void run(std::vector<SpmdStmt> &Top);

  SimplifyStats Stats;
  LoopSplitStats Split;

private:
  /// Simplifies \p Stmts under \p Ctx, which advances past the list.
  std::vector<SpmdStmt> list(std::vector<SpmdStmt> Stmts, SpmdContext &Ctx,
                             bool SplitLoops);
  void stmt(SpmdStmt S, SpmdContext &Ctx, bool SplitLoops,
            std::vector<SpmdStmt> &Out);
  /// Simplifies one loop entered under \p Ctx; returns nothing when it is
  /// deleted, its segments when it is split.
  std::vector<SpmdStmt> loop(SpmdStmt For, const SpmdContext &Ctx,
                             bool SplitLoops);
  /// The context at the top of \p For's body, for a loop entered under
  /// \p Ctx whose body assigns at most \p Forget.
  SpmdContext bodyContext(const SpmdStmt &For, const SpmdContext &Ctx,
                          const std::set<unsigned> &Forget) const;

  // Defined in LoopSplit.cpp. Tried holds the conditions already tried
  // on a loop that a one-segment split narrowed.
  std::vector<SpmdStmt> splitLoop(SpmdStmt For, const SpmdContext &Ctx,
                                  unsigned Budget,
                                  std::vector<Constraint> Tried = {});

  unsigned NumVars;
  unsigned MaxSegments;
};

} // namespace dmcc

#endif // DMCC_CODEGEN_SIMPLIFY_H
