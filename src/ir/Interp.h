//===- ir/Interp.h - Sequential reference interpreter ----------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Program sequentially with concrete parameter values. This is
/// the golden model: the SPMD code produced by the code generator must
/// compute bitwise-identical arrays, and the instrumentation hooks report
/// the actual last-write instance of every read so Last Write Trees can be
/// property-tested against reality.
///
/// The interpreter keeps one last-writer slot per array element, not a log
/// of every write: a write overwrites its element's slot in place, so its
/// memory is O(array elements) however many statements run.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_IR_INTERP_H
#define DMCC_IR_INTERP_H

#include "ir/Program.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// Identifies one dynamic write instance.
struct WriteInstance {
  unsigned StmtId = 0;
  std::vector<IntT> Iter; ///< values of the statement's loop indices
  bool operator==(const WriteInstance &O) const = default;
};

/// Deterministic initial value of array \p ArrayId at flat offset
/// \p Flat; used for data that the program reads but never wrote.
double initialArrayValue(unsigned ArrayId, IntT Flat);

/// Sequential executor with last-writer instrumentation.
class SeqInterpreter {
public:
  /// Called for every dynamic read: statement, read slot, the reading
  /// iteration, and the instance that last wrote the value (nullptr if the
  /// value is the initial array content). \p Writer is valid only during
  /// the call.
  using ReadCallback = std::function<void(
      unsigned StmtId, unsigned ReadIdx, const std::vector<IntT> &Iter,
      const WriteInstance *Writer)>;

  SeqInterpreter(const Program &P,
                 const std::map<std::string, IntT> &ParamValues);

  void setReadCallback(ReadCallback CB) { OnRead = std::move(CB); }

  /// Runs the whole program.
  void run();

  /// Flat row-major size of array \p Id under the bound parameters.
  IntT arraySize(unsigned Id) const;

  /// Value of array \p Id at the (bounds-checked) indices.
  double arrayValue(unsigned Id, const std::vector<IntT> &Idx) const;

  /// The full contents of array \p Id (initials filled in).
  std::vector<double> arrayContents(unsigned Id) const;

  /// Who last wrote the given element, if anyone. The pointer refers to
  /// the element's slot and is valid until the next statement executes.
  const WriteInstance *lastWriter(unsigned Id,
                                  const std::vector<IntT> &Idx) const;

  /// Total number of dynamic statement executions.
  uint64_t executedStatements() const { return ExecCount; }

private:
  void execNodes(const std::vector<Node> &Nodes);
  void execLoop(const Loop &L);
  void execStatement(const Statement &S);
  double evalRVal(const Statement &S, int NodeId);
  IntT flatIndex(const Access &A, bool &InBounds) const;
  IntT flatIndex(unsigned Id, const std::vector<IntT> &Idx) const;
  /// The element's stored value, or its initial value if never stored.
  double valueAt(unsigned Id, IntT Flat) const;
  /// The element's slot, or nullptr if it was never written.
  const WriteInstance *writerAt(unsigned Id, IntT Flat) const;

  /// StmtId of a slot whose element was never written.
  static constexpr unsigned NoWriter = ~0u;

  const Program &P;
  std::vector<IntT> Env;        ///< value per program-space variable
  /// Per array, sized lazily up to the highest element written so far;
  /// elements beyond hold their initialArrayValue.
  std::vector<std::vector<double>> Arrays;
  std::vector<std::vector<WriteInstance>> Writers; ///< parallel to Arrays
  std::vector<std::vector<IntT>> Dims; ///< per-array dimension sizes
  std::vector<IntT> DimProd;    ///< per-array flat sizes
  std::vector<IntT> CurIter;    ///< loop values of the executing statement
  ReadCallback OnRead;
  uint64_t ExecCount = 0;
};

} // namespace dmcc

#endif // DMCC_IR_INTERP_H
