//===- decomp/Decomposition.cpp -------------------------------*- C++ -*-===//

#include "decomp/Decomposition.h"

using namespace dmcc;

void Decomposition::setBlock(unsigned D, AffineExpr Expr, IntT Block,
                             IntT OverlapLo, IntT OverlapHi) {
  assert(D < Dims.size() && "grid dimension out of range");
  assert(Expr.size() == SourceSp.size() &&
         "expression over a different source space");
  assert(Block >= 1 && "block size must be positive");
  Dims[D] = DecompDim{false, std::move(Expr), Block, OverlapLo, OverlapHi};
}

void Decomposition::setReplicated(unsigned D) {
  assert(D < Dims.size() && "grid dimension out of range");
  Dims[D] = DecompDim{true, AffineExpr(SourceSp.size()), 1, 0, 0};
}

bool Decomposition::isUnique() const {
  for (const DecompDim &D : Dims)
    if (D.Replicated || D.OverlapLo != 0 || D.OverlapHi != 0)
      return false;
  return true;
}

AffineExpr Decomposition::mapInto(
    const AffineExpr &E, const System &S,
    const std::vector<AffineExpr> &SourceVals) const {
  AffineExpr R = S.constExpr(E.constant());
  for (unsigned K = 0, KE = SourceSp.size(); K != KE; ++K) {
    IntT C = E.coeff(K);
    if (C == 0)
      continue;
    if (SourceSp.kind(K) == VarKind::Param) {
      int J = S.space().indexOf(SourceSp.name(K));
      if (J < 0)
        fatalError("decomposition parameter missing in target space");
      R += AffineExpr::var(S.numVars(), static_cast<unsigned>(J), C);
    } else {
      AffineExpr V = SourceVals[K];
      V.scale(C);
      R += V;
    }
  }
  return R;
}

void Decomposition::addConstraints(
    System &S, const std::vector<AffineExpr> &SourceVals,
    const std::vector<unsigned> &ProcVars) const {
  assert(ProcVars.size() == Dims.size() && "wrong number of grid vars");
  assert(SourceVals.size() == SourceSp.size() &&
         "wrong number of source values");
  for (unsigned D = 0, E = Dims.size(); D != E; ++D) {
    const DecompDim &Dim = Dims[D];
    if (Dim.Replicated)
      continue;
    AffineExpr V = mapInto(Dim.Expr, S, SourceVals);
    AffineExpr BP = S.varExpr(ProcVars[D]);
    BP.scale(Dim.Block);
    // Block*p - OverlapLo <= V.
    S.addGE(V - BP.plusConst(-Dim.OverlapLo));
    // V <= Block*p + Block - 1 + OverlapHi.
    S.addGE(BP.plusConst(Dim.Block - 1 + Dim.OverlapHi) - V);
  }
}

void Decomposition::addConstraintsByName(
    System &S, const std::vector<unsigned> &ProcVars) const {
  std::vector<AffineExpr> Vals;
  for (unsigned K = 0, E = SourceSp.size(); K != E; ++K) {
    if (SourceSp.kind(K) == VarKind::Param) {
      Vals.push_back(AffineExpr(S.numVars())); // unused for params
      continue;
    }
    int J = S.space().indexOf(SourceSp.name(K));
    if (J < 0)
      fatalError("decomposition source variable missing in target space");
    Vals.push_back(S.varExpr(static_cast<unsigned>(J)));
  }
  addConstraints(S, Vals, ProcVars);
}

std::vector<IntT> Decomposition::gridCoordinate(
    const std::vector<IntT> &SourceVals) const {
  assert(isUnique() && "gridCoordinate requires a unique decomposition");
  std::vector<IntT> Out;
  for (const DecompDim &D : Dims)
    Out.push_back(floorDiv(D.Expr.evaluate(SourceVals), D.Block));
  return Out;
}

bool Decomposition::ownerRange(const std::vector<IntT> &SourceVals,
                               unsigned D, IntT &Lo, IntT &Hi) const {
  const DecompDim &Dim = Dims[D];
  if (Dim.Replicated)
    return false;
  // Coordinate c holds V when Block*c - OverlapLo <= V and
  // V <= Block*(c+1) - 1 + OverlapHi.
  IntT V = Dim.Expr.evaluate(SourceVals);
  Lo = floorDiv(subChk(V, Dim.OverlapHi), Dim.Block);
  Hi = floorDiv(addChk(V, Dim.OverlapLo), Dim.Block);
  return true;
}

bool Decomposition::owns(const std::vector<IntT> &SourceVals,
                         const std::vector<IntT> &Coord) const {
  assert(Coord.size() == Dims.size() && "wrong grid arity");
  for (unsigned D = 0, E = Dims.size(); D != E; ++D) {
    IntT Lo, Hi;
    if (ownerRange(SourceVals, D, Lo, Hi) && (Coord[D] < Lo || Coord[D] > Hi))
      return false;
  }
  return true;
}

std::string Decomposition::str() const {
  std::string Out = "decomposition over " + SourceSp.str() + ":\n";
  for (unsigned D = 0, E = Dims.size(); D != E; ++D) {
    Out += "  p" + std::to_string(D) + ": ";
    if (Dims[D].Replicated) {
      Out += "replicated\n";
      continue;
    }
    Out += "block " + std::to_string(Dims[D].Block) + " of " +
           Dims[D].Expr.str(SourceSp);
    if (Dims[D].OverlapLo || Dims[D].OverlapHi)
      Out += " overlap(" + std::to_string(Dims[D].OverlapLo) + ", " +
             std::to_string(Dims[D].OverlapHi) + ")";
    Out += "\n";
  }
  return Out;
}

Space dmcc::arraySourceSpace(const Program &P, unsigned ArrayId) {
  Space Sp;
  for (unsigned D = 0, E = P.array(ArrayId).DimSizes.size(); D != E; ++D)
    Sp.add("a" + std::to_string(D), VarKind::Data);
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Sp.add(P.space().name(I), VarKind::Param);
  return Sp;
}

Space dmcc::stmtSourceSpace(const Program &P, unsigned StmtId) {
  return P.domainOf(StmtId).space();
}

Decomposition dmcc::blockData(const Program &P, unsigned ArrayId,
                              unsigned Dim, IntT Block, IntT OverlapLo,
                              IntT OverlapHi) {
  Space Sp = arraySourceSpace(P, ArrayId);
  Decomposition D(Sp, 1);
  D.setBlock(0, AffineExpr::var(Sp.size(), Dim), Block, OverlapLo,
             OverlapHi);
  return D;
}

Decomposition dmcc::cyclicData(const Program &P, unsigned ArrayId,
                               unsigned Dim) {
  return blockData(P, ArrayId, Dim, /*Block=*/1);
}

Decomposition dmcc::replicatedData(const Program &P, unsigned ArrayId) {
  Space Sp = arraySourceSpace(P, ArrayId);
  Decomposition D(Sp, 1);
  D.setReplicated(0);
  return D;
}

Decomposition dmcc::blockComputation(const Program &P, unsigned StmtId,
                                     unsigned LoopPos, IntT Block) {
  Space Sp = stmtSourceSpace(P, StmtId);
  assert(LoopPos < P.statement(StmtId).depth() && "loop position invalid");
  Decomposition D(Sp, 1);
  D.setBlock(0, AffineExpr::var(Sp.size(), LoopPos), Block);
  return D;
}

Decomposition dmcc::cyclicComputation(const Program &P, unsigned StmtId,
                                      unsigned LoopPos) {
  return blockComputation(P, StmtId, LoopPos, /*Block=*/1);
}

Decomposition dmcc::ownerComputes(const Program &P, unsigned StmtId,
                                  const Decomposition &DataD) {
  const Statement &S = P.statement(StmtId);
  Space ISp = stmtSourceSpace(P, StmtId);
  Decomposition Out(ISp, DataD.numGridDims());
  // Write access indices as expressions over the iteration source space.
  std::vector<AffineExpr> FW;
  for (const AffineExpr &E : S.Write.Indices)
    FW.push_back(mapExpr(E, P.space(), ISp));
  for (unsigned D = 0, E = DataD.numGridDims(); D != E; ++D) {
    const DecompDim &DD = DataD.dim(D);
    assert(!DD.Replicated && DD.OverlapLo == 0 && DD.OverlapHi == 0 &&
           "owner-computes requires written data not be replicated "
           "(Section 2.2.1)");
    // Compose DD.Expr with the write access function.
    AffineExpr Composed = AffineExpr::constant(ISp.size(),
                                               DD.Expr.constant());
    const Space &ASp = DataD.sourceSpace();
    for (unsigned K = 0, KE = ASp.size(); K != KE; ++K) {
      IntT C = DD.Expr.coeff(K);
      if (C == 0)
        continue;
      if (ASp.kind(K) == VarKind::Param) {
        int J = ISp.indexOf(ASp.name(K));
        assert(J >= 0 && "parameter missing in iteration space");
        Composed += AffineExpr::var(ISp.size(), static_cast<unsigned>(J), C);
      } else {
        assert(K < FW.size() && "data dimension beyond access arity");
        AffineExpr V = FW[K];
        V.scale(C);
        Composed += V;
      }
    }
    Out.setBlock(D, std::move(Composed), DD.Block);
  }
  return Out;
}

void dmcc::addCyclicFold(System &S, unsigned VirtVar, unsigned PhysVar,
                         IntT PhysProcs) {
  assert(PhysProcs >= 1 && "need at least one physical processor");
  unsigned Q = S.addVar(S.space().freshName("@fold"), VarKind::Aux);
  // Virt == PhysProcs * q + Phys.
  AffineExpr E = S.varExpr(VirtVar);
  E -= AffineExpr::var(S.numVars(), Q, PhysProcs);
  E -= S.varExpr(PhysVar);
  S.addEQ(std::move(E));
  S.addGE(S.varExpr(PhysVar));
  S.addGE(S.constExpr(PhysProcs - 1) - S.varExpr(PhysVar));
  S.addGE(S.varExpr(Q));
}
