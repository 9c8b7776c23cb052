//===- ir/Program.h - A whole sketch program --------------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program owns everything a sketch consists of: the node-record layout,
/// globals, per-body locals, the hole table, the candidate-space
/// accounting for Table 1, static (hole-only) constraints such as the
/// reorder "no duplicates" requirement, and the statement trees of the
/// prologue, the forked thread bodies, and the epilogue.
///
/// It doubles as the builder: all expression/statement factory methods
/// live here and allocate from the program's arena. This is the public
/// construction API used by the examples, the benchmarks, and the
/// frontend.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_IR_PROGRAM_H
#define PSKETCH_IR_PROGRAM_H

#include "ir/Expr.h"
#include "ir/Stmt.h"
#include "support/BigCount.h"

#include <cassert>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace psketch {
namespace ir {

/// A field of the program's single node-record type.
struct Field {
  std::string Name;
  Type Ty = Type::Int;
};

/// A global variable; ArraySize == 0 means scalar.
struct Global {
  std::string Name;
  Type Ty = Type::Int;
  unsigned ArraySize = 0;
  int64_t Init = 0;
};

/// A local variable of one body (prologue, a thread, or the epilogue).
struct Local {
  std::string Name;
  Type Ty = Type::Int;
  int64_t Init = 0;
};

/// A primitive synthesis hole: an unknown in [0, NumChoices).
struct Hole {
  std::string Name;
  unsigned NumChoices = 2;
  unsigned Width = 1; ///< ceil(log2(NumChoices)), at least 1
  /// True when the hole contributed its own NumChoices factor to |C|
  /// (reorder selector holes contribute a shared k! factor instead).
  /// The static analyzer uses this to account candidate-space pruning.
  bool Counted = false;
};

/// One straight context of execution: its statement tree plus locals.
struct Body {
  std::string Name;
  StmtRef Root = nullptr;
  std::vector<Local> Locals;
};

/// Identifies a body within a program: the prologue, thread i, or the
/// epilogue. Threads are 0-based.
struct BodyId {
  enum class Kind : uint8_t { Prologue, Thread, Epilogue };
  Kind BodyKind = Kind::Prologue;
  unsigned ThreadIndex = 0;

  static BodyId prologue() { return BodyId{Kind::Prologue, 0}; }
  static BodyId thread(unsigned I) { return BodyId{Kind::Thread, I}; }
  static BodyId epilogue() { return BodyId{Kind::Epilogue, 0}; }

  bool operator==(const BodyId &O) const {
    return BodyKind == O.BodyKind && ThreadIndex == O.ThreadIndex;
  }
};

/// A complete sketch program plus its builder API.
class Program {
public:
  /// \param IntWidth   wrap width of Int arithmetic, in bits
  /// \param PoolSize   capacity of the node pool (pointers are 0..PoolSize)
  explicit Program(unsigned IntWidth = 8, unsigned PoolSize = 7);

  //===--------------------------------------------------------------------===//
  // Symbol tables.
  //===--------------------------------------------------------------------===//

  unsigned addField(const std::string &Name, Type Ty);
  unsigned addGlobal(const std::string &Name, Type Ty, int64_t Init = 0);
  unsigned addGlobalArray(const std::string &Name, Type Ty, unsigned Size,
                          int64_t Init = 0);
  unsigned addLocal(BodyId Body, const std::string &Name, Type Ty,
                    int64_t Init = 0);

  /// Creates a primitive hole with \p NumChoices alternatives and records
  /// a factor of \p NumChoices in the candidate-space size. \returns its id.
  unsigned addHole(const std::string &Name, unsigned NumChoices);

  /// Creates a hole without recording a space factor (used by reorder,
  /// whose legal count is k!, recorded separately).
  unsigned addHoleNoCount(const std::string &Name, unsigned NumChoices);

  /// Registers a candidate-space factor directly (reorder blocks record
  /// k! here).
  void addSpaceFactor(const BigCount &Factor) { SpaceFactors.push_back(Factor); }

  /// Registers a hole-only constraint every legal candidate must satisfy
  /// (e.g. reorder's "no duplicate order indices").
  void addStaticConstraint(ExprRef Constraint) {
    StaticConstraints.push_back(Constraint);
  }

  const std::vector<Field> &fields() const { return FieldTable; }
  const std::vector<Global> &globals() const { return GlobalTable; }
  const std::vector<Hole> &holes() const { return HoleTable; }
  const std::vector<ExprRef> &staticConstraints() const {
    return StaticConstraints;
  }

  /// \returns |C|: the number of semantically legal candidates (Table 1).
  BigCount candidateSpaceSize() const;

  //===--------------------------------------------------------------------===//
  // Bodies.
  //===--------------------------------------------------------------------===//

  /// Appends a new (empty) thread body; \returns its index.
  unsigned addThread(const std::string &Name);

  Body &body(BodyId Id);
  const Body &body(BodyId Id) const;
  unsigned numThreads() const { return static_cast<unsigned>(Threads.size()); }

  void setRoot(BodyId Id, StmtRef Root) { body(Id).Root = Root; }

  //===--------------------------------------------------------------------===//
  // Expression factories.
  //===--------------------------------------------------------------------===//

  ExprRef constInt(int64_t Value, Type Ty = Type::Int);
  ExprRef constBool(bool Value) { return constInt(Value ? 1 : 0, Type::Bool); }
  ExprRef null() { return constInt(0, Type::Ptr); }

  ExprRef global(unsigned Id);
  ExprRef globalAt(unsigned Id, ExprRef Index);
  ExprRef local(unsigned Slot, Type Ty);
  ExprRef field(ExprRef Pointer, unsigned FieldId);
  ExprRef holeValue(unsigned HoleId);

  /// The r-value generator `{| e1 | ... | ek |}`: creates a selector hole
  /// (space factor k) and \returns the Choice expression.
  ExprRef choose(const std::string &Name, std::vector<ExprRef> Alternatives);

  /// A generator bound to an existing selector hole. Used when one
  /// sketched method is instantiated at several call sites: every site
  /// rebuilds its alternatives over its own locals but shares the hole,
  /// so the synthesizer resolves the method once. analysis::validateProgram
  /// reports an undefined hole or an alternative count that does not match.
  ExprRef choiceOf(unsigned HoleId, std::vector<ExprRef> Alternatives);

  ExprRef add(ExprRef A, ExprRef B);
  ExprRef sub(ExprRef A, ExprRef B);
  ExprRef eq(ExprRef A, ExprRef B);
  ExprRef ne(ExprRef A, ExprRef B);
  ExprRef lt(ExprRef A, ExprRef B);
  ExprRef le(ExprRef A, ExprRef B);
  ExprRef gt(ExprRef A, ExprRef B) { return lt(B, A); }
  ExprRef ge(ExprRef A, ExprRef B) { return le(B, A); }
  ExprRef land(ExprRef A, ExprRef B);
  ExprRef lor(ExprRef A, ExprRef B);
  ExprRef lnot(ExprRef A);
  ExprRef ite(ExprRef Cond, ExprRef Then, ExprRef Else);

  //===--------------------------------------------------------------------===//
  // Location factories.
  //===--------------------------------------------------------------------===//

  Loc locGlobal(unsigned Id) const;
  Loc locGlobalAt(unsigned Id, ExprRef Index) const;
  Loc locLocal(unsigned Slot) const;
  Loc locField(ExprRef Pointer, unsigned FieldId) const;

  //===--------------------------------------------------------------------===//
  // Statement factories.
  //===--------------------------------------------------------------------===//

  StmtRef nop();
  StmtRef seq(std::vector<StmtRef> Stmts);
  StmtRef assign(Loc Target, ExprRef Value);
  /// The l-value generator `{| loc1 | ... |} = value`; creates the
  /// selector hole (space factor k).
  StmtRef choiceAssign(const std::string &Name, std::vector<Loc> Targets,
                       ExprRef Value);
  /// `Tmp = AtomicSwap(loc, Value)`; with several \p Targets the location
  /// itself is an l-value generator.
  StmtRef swap(const std::string &Name, Loc Tmp, std::vector<Loc> Targets,
               ExprRef Value);
  StmtRef ifS(ExprRef Cond, StmtRef Then, StmtRef Else = nullptr);
  StmtRef whileS(ExprRef Cond, StmtRef BodyStmt, unsigned UnrollBound);
  StmtRef atomic(StmtRef BodyStmt);
  StmtRef condAtomic(ExprRef Cond, StmtRef BodyStmt);
  StmtRef assertS(ExprRef Cond, const std::string &Label);
  StmtRef alloc(Loc Target);
  /// `reorder { ... }`: creates the selector holes for \p Enc and records
  /// the k! space factor and (for the quadratic encoding) the
  /// no-duplicates static constraint.
  StmtRef reorder(const std::string &Name, std::vector<StmtRef> Stmts,
                  ReorderEncoding Enc = ReorderEncoding::Quadratic);

  /// Creates the selector holes (and space factor / static constraints)
  /// for a reorder of \p K statements without building the statement —
  /// pair with reorderOf() to share one ordering across call sites.
  std::vector<unsigned> makeReorderHoles(const std::string &Name, unsigned K,
                                         ReorderEncoding Enc);

  /// A reorder bound to existing selector holes (from makeReorderHoles).
  StmtRef reorderOf(const std::vector<unsigned> &Holes,
                    std::vector<StmtRef> Stmts, ReorderEncoding Enc);

  /// An l-value generator assignment bound to an existing hole.
  StmtRef choiceAssignOf(unsigned HoleId, std::vector<Loc> Targets,
                         ExprRef Value);

  /// An AtomicSwap whose location generator is bound to an existing hole.
  StmtRef swapOf(unsigned HoleId, Loc Tmp, std::vector<Loc> Targets,
                 ExprRef Value);

  /// Convenience sugar: lock/unlock over an integer "owner" location,
  /// exactly the paper's Figure 7 desugaring into conditional atomics.
  /// \p Owner must be an Int location; free is -1; \p Pid is the locker.
  StmtRef lock(Loc Owner, ExprRef OwnerRead, ExprRef Pid);
  StmtRef unlock(Loc Owner, ExprRef OwnerRead, ExprRef Pid,
                 const std::string &Label);

  /// \returns the r-value reading shared location \p L (locals need the
  /// enclosing body; use local() directly for those).
  ExprRef readOfShared(const Loc &L);

  /// Compare-and-swap sugar (the Section 4.1 primitive):
  /// atomic { if (*Target == Old) *Target = New; }. \p Target must be a
  /// shared location.
  StmtRef cas(Loc Target, ExprRef OldValue, ExprRef NewValue);

  /// CAS that also records success (1/0) into the local \p SuccessFlag.
  StmtRef casFlag(Loc Target, ExprRef OldValue, ExprRef NewValue,
                  Loc SuccessFlag);

  //===--------------------------------------------------------------------===//
  // Configuration.
  //===--------------------------------------------------------------------===//

  unsigned intWidth() const { return IntWidth; }
  unsigned poolSize() const { return PoolSize; }
  void setPoolSize(unsigned Size) { PoolSize = Size; }

  /// \returns the bit width of values of type \p Ty under this program's
  /// configuration.
  unsigned widthOf(Type Ty) const;

  /// Wraps \p Value to the two's-complement range of type \p Ty; the
  /// concrete interpreter funnels every arithmetic result through this so
  /// that it agrees exactly with the symbolic bitvector semantics.
  int64_t wrap(int64_t Value, Type Ty) const;

private:
  unsigned IntWidth;
  unsigned PoolSize;

  std::vector<Field> FieldTable;
  std::vector<Global> GlobalTable;
  std::vector<Hole> HoleTable;
  std::vector<BigCount> SpaceFactors;
  std::vector<ExprRef> StaticConstraints;

  Body PrologueBody;
  std::vector<Body> Threads;
  Body EpilogueBody;

  // Arena. deque gives stable addresses.
  std::deque<Expr> ExprArena;
  std::deque<Stmt> StmtArena;

  Expr *newExpr(ExprKind Kind);
  Stmt *newStmt(StmtKind Kind);
  ExprRef binop(ExprKind Kind, ExprRef A, ExprRef B, Type ResultTy);
};

} // namespace ir
} // namespace psketch

#endif // PSKETCH_IR_PROGRAM_H
