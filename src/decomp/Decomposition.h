//===- decomp/Decomposition.h - Data/computation decompositions *- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data and computation decompositions (Section 4.2/4.3). A decomposition
/// maps a source index space (array elements, or a statement's iterations)
/// onto a virtual processor grid; each mapped grid dimension d satisfies
///
///   Block*p_d - OverlapLo  <=  U_d(x) - Shift  <=  Block*(p_d+1) - 1 + OverlapHi
///
/// which covers the paper's block, cyclic (Block == 1 on a large virtual
/// grid, folded onto physical processors round-robin), shifted, skewed
/// (U_d with several nonzero entries) and overlapped/replicated layouts
/// (Figure 4). A dimension may also be fully replicated (no constraint):
/// every processor along it holds a copy. Computation decompositions use
/// the same shape without overlap or replication, so each iteration runs
/// on exactly one virtual processor (Definition 2).
///
/// Theorem 1 (owner-computes) is ownerComputes(): composing a data
/// decomposition with the write access function yields the computation
/// decomposition.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_DECOMP_DECOMPOSITION_H
#define DMCC_DECOMP_DECOMPOSITION_H

#include "ir/Program.h"
#include "math/System.h"

#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// One virtual-processor-grid dimension of a decomposition.
struct DecompDim {
  /// No constraint along this grid dimension: the data is replicated on
  /// every processor coordinate (data decompositions only).
  bool Replicated = false;
  /// U_d(x) - Shift, as an affine expression over the source space.
  AffineExpr Expr;
  /// Block size (>= 1). Cyclic layouts use Block == 1 over a virtual grid
  /// that is later folded onto the physical machine.
  IntT Block = 1;
  /// Extra elements owned below/above the block (border replication).
  IntT OverlapLo = 0, OverlapHi = 0;

  bool operator==(const DecompDim &O) const = default;
};

/// A mapping of a source index space onto a virtual processor grid.
class Decomposition {
public:
  Decomposition() = default;
  Decomposition(Space SourceSpace, unsigned GridDims)
      : SourceSp(std::move(SourceSpace)),
        Dims(GridDims, DecompDim{true, AffineExpr(), 1, 0, 0}) {
    for (DecompDim &D : Dims)
      D.Expr = AffineExpr(SourceSp.size());
  }

  const Space &sourceSpace() const { return SourceSp; }
  unsigned numGridDims() const { return Dims.size(); }
  DecompDim &dim(unsigned D) { return Dims[D]; }
  const DecompDim &dim(unsigned D) const { return Dims[D]; }

  /// Maps grid dimension \p D by blocks of \p Block along \p Expr.
  void setBlock(unsigned D, AffineExpr Expr, IntT Block = 1,
                IntT OverlapLo = 0, IntT OverlapHi = 0);

  /// Replicates along grid dimension \p D.
  void setReplicated(unsigned D);

  /// True if an iteration/element is mapped to exactly one processor
  /// coordinate (no replication, no overlap): required of computation
  /// decompositions.
  bool isUnique() const;

  /// Emits the ownership constraints into \p S. SourceVals[k] gives the
  /// value (over S's space) of the k-th source-space variable; parameters
  /// are matched by name. ProcVars[d] is the index in S of the grid
  /// coordinate p_d.
  void addConstraints(System &S, const std::vector<AffineExpr> &SourceVals,
                      const std::vector<unsigned> &ProcVars) const;

  /// Convenience for the common case where S directly contains the source
  /// variables under their own names.
  void addConstraintsByName(System &S,
                            const std::vector<unsigned> &ProcVars) const;

  /// Concrete evaluation: the grid coordinate owning the given source
  /// point (values for every source-space variable, params included).
  /// Requires isUnique().
  std::vector<IntT> gridCoordinate(const std::vector<IntT> &SourceVals)
      const;

  /// Concrete evaluation: the coordinates along grid dimension \p D
  /// whose processors hold a copy of the given source point, [Lo, Hi]
  /// (empty when Lo > Hi). Returns false for a replicated dimension,
  /// where every coordinate does.
  bool ownerRange(const std::vector<IntT> &SourceVals, unsigned D, IntT &Lo,
                  IntT &Hi) const;

  /// Concrete evaluation: whether processor \p Coord holds a copy of the
  /// given source point (handles replication and overlap).
  bool owns(const std::vector<IntT> &SourceVals,
            const std::vector<IntT> &Coord) const;

  std::string str() const;

  bool operator==(const Decomposition &O) const = default;

private:
  AffineExpr mapInto(const AffineExpr &E, const System &S,
                     const std::vector<AffineExpr> &SourceVals) const;

  Space SourceSp;
  std::vector<DecompDim> Dims;
};

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

/// Source space of array \p ArrayId: data dims a0..am-1 plus parameters.
Space arraySourceSpace(const Program &P, unsigned ArrayId);

/// Source space of statement \p StmtId: its loop variables plus params.
Space stmtSourceSpace(const Program &P, unsigned StmtId);

/// Distributes array dimension \p Dim in blocks of \p Block over a 1-D
/// grid; other dimensions are collapsed (owned whole).
Decomposition blockData(const Program &P, unsigned ArrayId, unsigned Dim,
                        IntT Block, IntT OverlapLo = 0, IntT OverlapHi = 0);

/// Cyclic distribution of array dimension \p Dim (virtual grid, block 1).
Decomposition cyclicData(const Program &P, unsigned ArrayId, unsigned Dim);

/// Full replication: every processor owns the whole array (1-D grid).
Decomposition replicatedData(const Program &P, unsigned ArrayId);

/// Distributes loop \p LoopPos (position in the statement's nest) of
/// statement \p StmtId in blocks of \p Block over a 1-D grid.
Decomposition blockComputation(const Program &P, unsigned StmtId,
                               unsigned LoopPos, IntT Block);

/// Cyclic distribution of loop \p LoopPos of statement \p StmtId.
Decomposition cyclicComputation(const Program &P, unsigned StmtId,
                                unsigned LoopPos);

/// Theorem 1: derives the computation decomposition of \p StmtId from the
/// data decomposition of the array it writes (owner-computes rule). The
/// data decomposition must not replicate written data (asserted).
Decomposition ownerComputes(const Program &P, unsigned StmtId,
                            const Decomposition &DataD);

/// The virtual-to-physical folding pi(p) = p mod PhysProcs (Section 4.1).
/// Emits, into \p S, constraints tying virtual coordinate \p VirtVar to
/// physical coordinate \p PhysVar via a fresh auxiliary quotient:
///   Virt == PhysProcs * q + Phys,  0 <= Phys < PhysProcs.
void addCyclicFold(System &S, unsigned VirtVar, unsigned PhysVar,
                   IntT PhysProcs);

} // namespace dmcc

#endif // DMCC_DECOMP_DECOMPOSITION_H
