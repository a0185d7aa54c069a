//===- ir/Interp.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Interp.h"

#include <algorithm>

using namespace dmcc;

double dmcc::initialArrayValue(unsigned ArrayId, IntT Flat) {
  // A fixed pseudo-random but deterministic pattern, identical for the
  // sequential interpreter and the SPMD simulator.
  uint64_t H = (uint64_t)ArrayId * 0x9E3779B97F4A7C15ull +
               (uint64_t)Flat * 0xBF58476D1CE4E5B9ull;
  H ^= H >> 31;
  H *= 0x94D049BB133111EBull;
  H ^= H >> 29;
  return 1.0 + static_cast<double>(H % 1024) / 1024.0;
}

SeqInterpreter::SeqInterpreter(
    const Program &Prog, const std::map<std::string, IntT> &ParamValues)
    : P(Prog) {
  Env.assign(P.space().size(), 0);
  for (unsigned I = 0, E = P.space().size(); I != E; ++I) {
    if (P.space().kind(I) != VarKind::Param)
      continue;
    auto It = ParamValues.find(P.space().name(I));
    if (It == ParamValues.end())
      fatalError("SeqInterpreter: missing parameter value");
    Env[I] = It->second;
  }
  for (unsigned A = 0, E = P.numArrays(); A != E; ++A) {
    std::vector<IntT> &DV = Dims.emplace_back();
    IntT Size = 1;
    for (const AffineExpr &D : P.array(A).DimSizes) {
      DV.push_back(D.evaluate(Env));
      if (DV.back() < 0)
        fatalError("SeqInterpreter: negative array dimension");
      Size = mulChk(Size, DV.back());
    }
    DimProd.push_back(Size);
    Arrays.emplace_back();
    Writers.emplace_back();
  }
}

IntT SeqInterpreter::arraySize(unsigned Id) const { return DimProd[Id]; }

IntT SeqInterpreter::flatIndex(const Access &A, bool &InBounds) const {
  const std::vector<IntT> &D = Dims[A.ArrayId];
  IntT Flat = 0;
  InBounds = true;
  for (unsigned K = 0, E = A.Indices.size(); K != E; ++K) {
    IntT I = A.Indices[K].evaluate(Env);
    if (I < 0 || I >= D[K])
      InBounds = false;
    Flat = addChk(mulChk(Flat, D[K]), I);
  }
  return Flat;
}

IntT SeqInterpreter::flatIndex(unsigned Id,
                               const std::vector<IntT> &Idx) const {
  const std::vector<IntT> &D = Dims[Id];
  assert(Idx.size() == D.size() && "wrong arity");
  IntT Flat = 0;
  for (unsigned K = 0, E = Idx.size(); K != E; ++K) {
    assert(Idx[K] >= 0 && Idx[K] < D[K] && "index out of bounds");
    Flat = addChk(mulChk(Flat, D[K]), Idx[K]);
  }
  return Flat;
}

double SeqInterpreter::evalRVal(const Statement &S, int NodeId) {
  assert(NodeId >= 0 && "evaluating an empty expression");
  const RVal &R = S.RPool[NodeId];
  switch (R.K) {
  case RVal::Kind::ReadRef: {
    const Access &A = S.Reads[R.ReadIdx];
    bool InBounds = true;
    IntT Flat = flatIndex(A, InBounds);
    if (!InBounds)
      fatalError("SeqInterpreter: read access out of bounds");
    if (OnRead)
      OnRead(S.Id, R.ReadIdx, CurIter, writerAt(A.ArrayId, Flat));
    return valueAt(A.ArrayId, Flat);
  }
  case RVal::Kind::ConstF:
    return R.Const;
  case RVal::Kind::AffineVal:
    return static_cast<double>(R.Aff.evaluate(Env));
  case RVal::Kind::Add:
    return evalRVal(S, R.Lhs) + evalRVal(S, R.Rhs);
  case RVal::Kind::Sub:
    return evalRVal(S, R.Lhs) - evalRVal(S, R.Rhs);
  case RVal::Kind::Mul:
    return evalRVal(S, R.Lhs) * evalRVal(S, R.Rhs);
  case RVal::Kind::Div:
    return evalRVal(S, R.Lhs) / evalRVal(S, R.Rhs);
  case RVal::Kind::Select:
    return evalRVal(S, R.Cond) >= 0 ? evalRVal(S, R.Lhs)
                                    : evalRVal(S, R.Rhs);
  }
  return 0;
}

void SeqInterpreter::execStatement(const Statement &S) {
  ++ExecCount;
  CurIter.clear();
  for (unsigned L : S.Loops)
    CurIter.push_back(Env[P.loop(L).VarIndex]);
  // A read of the element being written must report its previous writer,
  // so the right-hand side is evaluated before the slot is overwritten.
  double V = evalRVal(S, S.RRoot);
  bool InBounds = true;
  IntT Flat = flatIndex(S.Write, InBounds);
  if (!InBounds)
    fatalError("SeqInterpreter: write access out of bounds");
  std::vector<double> &Store = Arrays[S.Write.ArrayId];
  std::vector<WriteInstance> &Slots = Writers[S.Write.ArrayId];
  if (Flat >= static_cast<IntT>(Store.size())) {
    IntT NewSize = std::min(DimProd[S.Write.ArrayId], Flat + 1);
    IntT Old = Store.size();
    Store.resize(NewSize);
    Slots.resize(NewSize, WriteInstance{NoWriter, {}});
    for (IntT K = Old; K < NewSize; ++K)
      Store[K] = initialArrayValue(S.Write.ArrayId, K);
  }
  WriteInstance &W = Slots[Flat];
  W.StmtId = S.Id;
  W.Iter.assign(CurIter.begin(), CurIter.end());
  Store[Flat] = V;
}

void SeqInterpreter::execLoop(const Loop &L) {
  IntT Lo = 0, Hi = -1;
  bool First = true;
  for (const AffineExpr &E : L.Lower) {
    IntT V = E.evaluate(Env);
    Lo = First ? V : std::max(Lo, V);
    First = false;
  }
  if (First)
    fatalError("SeqInterpreter: loop without a lower bound");
  First = true;
  for (const AffineExpr &E : L.Upper) {
    IntT V = E.evaluate(Env);
    Hi = First ? V : std::min(Hi, V);
    First = false;
  }
  if (First)
    fatalError("SeqInterpreter: loop without an upper bound");
  for (IntT I = Lo; I <= Hi; ++I) {
    Env[L.VarIndex] = I;
    execNodes(P.childrenOf(L.Id));
  }
}

void SeqInterpreter::execNodes(const std::vector<Node> &Nodes) {
  for (const Node &N : Nodes) {
    if (N.K == Node::Kind::Loop)
      execLoop(P.loop(N.Index));
    else
      execStatement(P.statement(N.Index));
  }
}

void SeqInterpreter::run() { execNodes(P.topLevel()); }

double SeqInterpreter::valueAt(unsigned Id, IntT Flat) const {
  if (Flat < static_cast<IntT>(Arrays[Id].size()))
    return Arrays[Id][Flat];
  return initialArrayValue(Id, Flat);
}

const WriteInstance *SeqInterpreter::writerAt(unsigned Id, IntT Flat) const {
  if (Flat >= static_cast<IntT>(Writers[Id].size()) ||
      Writers[Id][Flat].StmtId == NoWriter)
    return nullptr;
  return &Writers[Id][Flat];
}

double SeqInterpreter::arrayValue(unsigned Id,
                                  const std::vector<IntT> &Idx) const {
  return valueAt(Id, flatIndex(Id, Idx));
}

std::vector<double> SeqInterpreter::arrayContents(unsigned Id) const {
  std::vector<double> Out(DimProd[Id]);
  for (IntT K = 0; K < DimProd[Id]; ++K)
    Out[K] = valueAt(Id, K);
  return Out;
}

const WriteInstance *SeqInterpreter::lastWriter(
    unsigned Id, const std::vector<IntT> &Idx) const {
  return writerAt(Id, flatIndex(Id, Idx));
}
