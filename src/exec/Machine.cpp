//===- exec/Machine.cpp ----------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "exec/Machine.h"

#include "ir/StaticEval.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace psketch;
using namespace psketch::exec;
using namespace psketch::ir;
using psketch::flat::FlatBody;
using psketch::flat::MicroOp;
using psketch::flat::Step;

Machine::Machine(const flat::FlatProgram &FP, const HoleAssignment &Holes)
    : FP(FP), P(*FP.Source), Holes(Holes) {
  // Flattened global layout.
  GlobalOffsets.reserve(P.globals().size());
  for (const Global &G : P.globals()) {
    GlobalOffsets.push_back(NumGlobalSlots);
    NumGlobalSlots += G.ArraySize == 0 ? 1 : G.ArraySize;
  }

  // The flat state layout: globals, heap, allocation counter, then per
  // context its pc followed by its locals. Threads come first so the
  // scheduler-relevant visited key is a contiguous prefix (SchedWords);
  // the prologue/epilogue contexts land after it.
  Layout.GlobalsOff = 0;
  Layout.HeapOff = NumGlobalSlots;
  unsigned HeapSlots =
      static_cast<unsigned>(P.poolSize() * P.fields().size());
  Layout.AllocOff = Layout.HeapOff + HeapSlots;
  unsigned Off = Layout.AllocOff + 1;
  Layout.CtxOff.resize(numContexts());
  Layout.LocalsCount.resize(numContexts());
  for (unsigned Ctx = 0; Ctx < numContexts(); ++Ctx) {
    Layout.CtxOff[Ctx] = Off;
    Layout.LocalsCount[Ctx] =
        static_cast<unsigned>(irBodyOf(Ctx).Locals.size());
    Off += 1 + Layout.LocalsCount[Ctx];
    if (Ctx + 1 == numThreads())
      Layout.SchedWords = Off;
  }
  if (numThreads() == 0)
    Layout.SchedWords = Layout.AllocOff + 1;
  Layout.Words = Off;

  // Precompute statically dead steps for this candidate.
  DeadStep.resize(numContexts());
  for (unsigned Ctx = 0; Ctx < numContexts(); ++Ctx) {
    const FlatBody &B = bodyOf(Ctx);
    DeadStep[Ctx].resize(B.Steps.size(), 0);
    for (size_t I = 0; I < B.Steps.size(); ++I) {
      ExprRef Guard = B.Steps[I].StaticGuard;
      if (!Guard)
        continue;
      auto Value = tryEvalStatic(P, Guard, this->Holes);
      if (Value && *Value == 0)
        DeadStep[Ctx][I] = 1;
    }
  }

  // Static footprints under this candidate (exec/Footprint.h): the
  // universe is one bit per flattened global slot, one per heap field
  // class, and one for the allocation counter. Like DeadStep these are
  // per-candidate — holes select Choice alternatives and pin array
  // indices. Each table carries a trailing empty entry so queries at the
  // end-of-body pc (finished context) are total.
  FpBits = NumGlobalSlots + static_cast<unsigned>(P.fields().size()) + 1;
  StepFp.resize(numContexts());
  SuffixFp.resize(numContexts());
  for (unsigned Ctx = 0; Ctx < numContexts(); ++Ctx) {
    const FlatBody &B = bodyOf(Ctx);
    StepFp[Ctx].assign(B.Steps.size() + 1, Footprint(FpBits));
    SuffixFp[Ctx].assign(B.Steps.size() + 1, Footprint(FpBits));
    for (size_t I = 0; I < B.Steps.size(); ++I)
      StepFp[Ctx][I] = computeStepFootprint(Ctx, I);
    for (size_t I = B.Steps.size(); I-- > 0;) {
      SuffixFp[Ctx][I] = SuffixFp[Ctx][I + 1];
      SuffixFp[Ctx][I].unionWith(StepFp[Ctx][I]);
    }
  }
}

Machine::Machine(const flat::FlatProgram &FP, const HoleAssignment &Holes,
                 const MachineTuning &Tuning)
    : Machine(FP, Holes) {
  if (Tuning.Locks && !Tuning.Locks->empty())
    applyLockAnnotations(*Tuning.Locks);
  if (Tuning.Bounds && !Tuning.Bounds->empty())
    buildPackedLayout(*Tuning.Bounds);
}

//===----------------------------------------------------------------------===//
// Analysis tuning: protectedBy footprints and packed visited keys.
//===----------------------------------------------------------------------===//

void Machine::applyLockAnnotations(const LockAnnotations &Locks) {
  // Shape check: one mask per (thread, pc) including the end-of-body pc.
  // A producer disagreement disables the channel rather than risking a
  // wrong independence claim.
  if (Locks.MustEntry.size() < numThreads())
    return;
  for (unsigned Ctx = 0; Ctx < numThreads(); ++Ctx)
    if (Locks.MustEntry[Ctx].size() != bodyOf(Ctx).Steps.size() + 1)
      return;

  // Stamp every live thread step: each touched bit is protected by the
  // locks the thread must hold at the step's entry. Prologue/epilogue
  // footprints stay unstamped — they never co-run with a thread.
  for (unsigned Ctx = 0; Ctx < numThreads(); ++Ctx) {
    const FlatBody &B = bodyOf(Ctx);
    for (size_t Pc = 0; Pc < B.Steps.size(); ++Pc) {
      Footprint &F = StepFp[Ctx][Pc];
      if (DeadStep[Ctx][Pc] || F.empty())
        continue;
      F.enableProt();
      uint32_t Mask = Locks.MustEntry[Ctx][Pc];
      for (unsigned Bit = 0; Bit < FpBits; ++Bit)
        if (F.reads(Bit) || F.writes(Bit))
          F.protect(Bit, Mask);
    }
    // Rebuild the suffix unions so their per-bit masks intersect the
    // stamped step masks.
    SuffixFp[Ctx].assign(B.Steps.size() + 1, Footprint(FpBits));
    for (size_t I = B.Steps.size(); I-- > 0;) {
      SuffixFp[Ctx][I] = SuffixFp[Ctx][I + 1];
      SuffixFp[Ctx][I].unionWith(StepFp[Ctx][I]);
    }
  }

  // Count the cross-thread step pairs the channel newly classifies
  // independent — a static, deterministic observability figure.
  for (unsigned A = 0; A < numThreads(); ++A)
    for (unsigned B = A + 1; B < numThreads(); ++B)
      for (const Footprint &FA : StepFp[A])
        for (const Footprint &FB : StepFp[B])
          if (FA.conflictsWith(FB) && !FA.conflictsWithUnprotected(FB))
            ++LockIndepPairs;
}

void Machine::buildPackedLayout(const ValueBounds &Bounds) {
  // Shape checks mirror applyLockAnnotations: disagreement disables.
  if (Bounds.GlobalSlots.size() != NumGlobalSlots ||
      Bounds.Locals.size() < numThreads())
    return;
  for (unsigned Ctx = 0; Ctx < numThreads(); ++Ctx)
    if (Bounds.Locals[Ctx].size() != Layout.LocalsCount[Ctx])
      return;
  size_t NumFields = P.fields().size();
  if (NumFields > 0 && Bounds.HeapFields.size() != NumFields)
    return;

  PackedLayout PL;
  PL.Slots.resize(Layout.SchedWords);
  auto SetSlot = [&](unsigned Word, int64_t Lo, int64_t Hi) -> bool {
    if (Lo > Hi)
      return false; // an empty interval is a producer bug: disable
    uint64_t Range = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
    unsigned Bits =
        Range == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(Range));
    PL.Slots[Word] = {Lo, Range, static_cast<uint8_t>(Bits)};
    PL.TotalBits += Bits;
    return true;
  };
  for (unsigned I = 0; I < NumGlobalSlots; ++I)
    if (!SetSlot(Layout.GlobalsOff + I, Bounds.GlobalSlots[I].Lo,
                 Bounds.GlobalSlots[I].Hi))
      return;
  for (unsigned W = Layout.HeapOff; W < Layout.AllocOff; ++W) {
    const ValueBounds::Range &R =
        Bounds.HeapFields[(W - Layout.HeapOff) % NumFields];
    if (!SetSlot(W, R.Lo, R.Hi))
      return;
  }
  if (!SetSlot(Layout.AllocOff, 0, static_cast<int64_t>(P.poolSize())))
    return;
  for (unsigned Ctx = 0; Ctx < numThreads(); ++Ctx) {
    // normalizePc clamps to the body size, so [0, Steps] is exact.
    if (!SetSlot(Layout.CtxOff[Ctx], 0,
                 static_cast<int64_t>(bodyOf(Ctx).Steps.size())))
      return;
    for (unsigned L = 0; L < Layout.LocalsCount[Ctx]; ++L)
      if (!SetSlot(Layout.CtxOff[Ctx] + 1 + L, Bounds.Locals[Ctx][L].Lo,
                   Bounds.Locals[Ctx][L].Hi))
        return;
  }

  PL.KeyBytes = (PL.TotalBits + 7) / 8;
  PL.KeyWords = (PL.TotalBits + 63) / 64;
  // Enable only when the packing actually tightens and the fingerprint
  // scratch buffer bound holds.
  if (PL.TotalBits >= 64 * Layout.SchedWords || PL.KeyWords > MaxPackedWords)
    return;
  PL.Enabled = true;
  Packed = std::move(PL);
}

bool Machine::packWords(const int64_t *Words, uint64_t *Out) const {
  unsigned BitPos = 0;
  for (unsigned W = 0; W < Layout.SchedWords; ++W) {
    const PackedLayout::PackedSlot &Slot = Packed.Slots[W];
    uint64_t Delta = static_cast<uint64_t>(Words[W]) -
                     static_cast<uint64_t>(Slot.Base);
    if (Delta > Slot.Range)
      return false; // out of the proven interval: raw-key fallback
    if (Slot.Bits == 0)
      continue;
    unsigned Idx = BitPos / 64, Off = BitPos % 64;
    Out[Idx] |= Delta << Off;
    if (Off != 0 && Off + Slot.Bits > 64)
      Out[Idx + 1] |= Delta >> (64 - Off);
    BitPos += Slot.Bits;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Static footprints.
//===----------------------------------------------------------------------===//

void Machine::collectExprFootprint(ExprRef E, Footprint &F) const {
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::LocalRead:
  case ExprKind::HoleRead:
    return; // constants and thread-private reads: outside the universe
  case ExprKind::GlobalRead:
    F.addRead(GlobalOffsets[E->Id]);
    return;
  case ExprKind::GlobalArrayRead: {
    collectExprFootprint(E->Ops[0], F);
    const Global &G = P.globals()[E->Id];
    auto Index = tryEvalStatic(P, E->Ops[0], Holes);
    if (Index && *Index >= 0 && *Index < static_cast<int64_t>(G.ArraySize))
      F.addRead(GlobalOffsets[E->Id] + static_cast<unsigned>(*Index));
    else // dynamic index: any element
      for (unsigned I = 0; I < G.ArraySize; ++I)
        F.addRead(GlobalOffsets[E->Id] + I);
    return;
  }
  case ExprKind::FieldRead:
    collectExprFootprint(E->Ops[0], F);
    F.addRead(NumGlobalSlots + E->Id); // any pool cell's field
    return;
  case ExprKind::Choice:
    // Resolved the way eval resolves it. Footprints are built eagerly for
    // every step, so an out-of-range selector (a Machine constructed with
    // a partial assignment for schedule replay) falls through to the
    // conservative union of every alternative instead of asserting.
    if (E->Id < Holes.size() && Holes[E->Id] < E->Ops.size()) {
      collectExprFootprint(E->Ops[Holes[E->Id]], F);
      return;
    }
    break;
  default:
    // And/Or/Ite include short-circuited operands: a sound
    // over-approximation of what eval may read.
    break;
  }
  for (ExprRef Op : E->Ops)
    collectExprFootprint(Op, F);
}

void Machine::collectLocFootprint(const Loc &L, bool IsWrite,
                                  Footprint &F) const {
  auto Add = [&](unsigned Bit) {
    if (IsWrite)
      F.addWrite(Bit);
    else
      F.addRead(Bit);
  };
  switch (L.LocKind) {
  case Loc::Kind::Global:
    Add(GlobalOffsets[L.Id]);
    return;
  case Loc::Kind::Local:
    return; // thread-private: outside the universe
  case Loc::Kind::GlobalArray: {
    collectExprFootprint(L.Index, F); // the index expression is read
    const Global &G = P.globals()[L.Id];
    auto Index = tryEvalStatic(P, L.Index, Holes);
    if (Index && *Index >= 0 && *Index < static_cast<int64_t>(G.ArraySize))
      Add(GlobalOffsets[L.Id] + static_cast<unsigned>(*Index));
    else
      for (unsigned I = 0; I < G.ArraySize; ++I)
        Add(GlobalOffsets[L.Id] + I);
    return;
  }
  case Loc::Kind::Field:
    collectExprFootprint(L.Index, F); // the pointer expression is read
    Add(NumGlobalSlots + L.Id);       // any pool cell's field
    return;
  }
}

Footprint Machine::computeStepFootprint(unsigned Ctx, size_t Pc) const {
  Footprint F(FpBits);
  if (DeadStep[Ctx][Pc])
    return F; // never executes under this candidate
  const Step &St = bodyOf(Ctx).Steps[Pc];
  if (St.DynGuard)
    collectExprFootprint(St.DynGuard, F);
  if (St.WaitCond)
    collectExprFootprint(St.WaitCond, F);
  for (const MicroOp &Op : St.Ops) {
    if (Op.Pred)
      collectExprFootprint(Op.Pred, F);
    switch (Op.OpKind) {
    case MicroOp::Kind::Write:
      collectExprFootprint(Op.Value, F);
      collectLocFootprint(Op.Target, /*IsWrite=*/true, F);
      break;
    case MicroOp::Kind::Assert:
      collectExprFootprint(Op.Value, F);
      break;
    case MicroOp::Kind::Alloc: {
      unsigned AllocBit = NumGlobalSlots + static_cast<unsigned>(
                                               P.fields().size());
      F.addRead(AllocBit);
      F.addWrite(AllocBit);
      collectLocFootprint(Op.Target, /*IsWrite=*/true, F);
      break;
    }
    }
  }
  return F;
}

const FlatBody &Machine::bodyOf(unsigned Ctx) const {
  if (Ctx < FP.Threads.size())
    return FP.Threads[Ctx];
  if (Ctx == prologueCtx())
    return FP.Prologue;
  assert(Ctx == epilogueCtx() && "bad context id");
  return FP.Epilogue;
}

const Body &Machine::irBodyOf(unsigned Ctx) const {
  if (Ctx < FP.Threads.size())
    return P.body(BodyId::thread(Ctx));
  if (Ctx == prologueCtx())
    return P.body(BodyId::prologue());
  return P.body(BodyId::epilogue());
}

State Machine::initialState() const {
  State S(Layout); // zero-filled: heap, counter, and pcs are already right
  for (size_t I = 0; I < P.globals().size(); ++I) {
    const Global &G = P.globals()[I];
    unsigned Count = G.ArraySize == 0 ? 1 : G.ArraySize;
    for (unsigned J = 0; J < Count; ++J)
      S.setGlobal(GlobalOffsets[I] + J, G.Init);
  }
  for (unsigned Ctx = 0; Ctx < numContexts(); ++Ctx) {
    const Body &B = irBodyOf(Ctx);
    for (size_t I = 0; I < B.Locals.size(); ++I)
      S.setLocal(Ctx, static_cast<unsigned>(I), B.Locals[I].Init);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Expression evaluation.
//===----------------------------------------------------------------------===//

int64_t Machine::eval(const State &S, unsigned Ctx, ExprRef E,
                      Violation &V) const {
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return E->IntValue;
  case ExprKind::GlobalRead:
    return S.global(GlobalOffsets[E->Id]);
  case ExprKind::GlobalArrayRead: {
    int64_t Index = eval(S, Ctx, E->Ops[0], V);
    if (V.isViolation())
      return 0;
    const Global &G = P.globals()[E->Id];
    if (Index < 0 || Index >= static_cast<int64_t>(G.ArraySize)) {
      V.VKind = Violation::Kind::MemUnsafe;
      V.Label = "array index out of bounds: " + G.Name;
      return 0;
    }
    return S.global(GlobalOffsets[E->Id] + static_cast<unsigned>(Index));
  }
  case ExprKind::LocalRead:
    return S.local(Ctx, E->Id);
  case ExprKind::FieldRead: {
    int64_t Ptr = eval(S, Ctx, E->Ops[0], V);
    if (V.isViolation())
      return 0;
    if (Ptr < 1 || Ptr > static_cast<int64_t>(P.poolSize())) {
      V.VKind = Violation::Kind::MemUnsafe;
      V.Label = "null or invalid pointer dereference";
      return 0;
    }
    return S.heap(static_cast<size_t>(Ptr - 1) * P.fields().size() + E->Id);
  }
  case ExprKind::HoleRead:
    assert(E->Id < Holes.size() && "unassigned hole during execution");
    return P.wrap(static_cast<int64_t>(Holes[E->Id]), Type::Int);
  case ExprKind::Choice: {
    assert(E->Id < Holes.size() && "unassigned selector hole");
    uint64_t Pick = Holes[E->Id];
    assert(Pick < E->Ops.size() && "selector out of range");
    return eval(S, Ctx, E->Ops[Pick], V);
  }
  case ExprKind::And: {
    int64_t A = eval(S, Ctx, E->Ops[0], V);
    if (V.isViolation() || A == 0)
      return 0; // short-circuit: the right side is not evaluated
    return eval(S, Ctx, E->Ops[1], V) != 0 ? 1 : 0;
  }
  case ExprKind::Or: {
    int64_t A = eval(S, Ctx, E->Ops[0], V);
    if (V.isViolation())
      return 0;
    if (A != 0)
      return 1;
    return eval(S, Ctx, E->Ops[1], V) != 0 ? 1 : 0;
  }
  case ExprKind::Not: {
    int64_t A = eval(S, Ctx, E->Ops[0], V);
    return (V.isViolation() || A != 0) ? 0 : 1;
  }
  case ExprKind::Ite: {
    int64_t C = eval(S, Ctx, E->Ops[0], V);
    if (V.isViolation())
      return 0;
    return eval(S, Ctx, E->Ops[C != 0 ? 1 : 2], V);
  }
  default:
    break;
  }
  int64_t A = eval(S, Ctx, E->Ops[0], V);
  if (V.isViolation())
    return 0;
  int64_t B = eval(S, Ctx, E->Ops[1], V);
  if (V.isViolation())
    return 0;
  switch (E->Kind) {
  case ExprKind::Add:
    return P.wrap(A + B, E->Ty);
  case ExprKind::Sub:
    return P.wrap(A - B, E->Ty);
  case ExprKind::Eq:
    return A == B ? 1 : 0;
  case ExprKind::Ne:
    return A != B ? 1 : 0;
  case ExprKind::Lt:
    return A < B ? 1 : 0;
  case ExprKind::Le:
    return A <= B ? 1 : 0;
  default:
    assert(false && "unhandled expression kind");
    return 0;
  }
}

int64_t Machine::loadLoc(const State &S, unsigned Ctx, const Loc &L,
                         Violation &V) const {
  switch (L.LocKind) {
  case Loc::Kind::Global:
    return S.global(GlobalOffsets[L.Id]);
  case Loc::Kind::Local:
    return S.local(Ctx, L.Id);
  case Loc::Kind::GlobalArray:
  case Loc::Kind::Field:
    break;
  }
  // Route through eval for the bounds checks.
  Expr Temp(L.LocKind == Loc::Kind::Field ? ExprKind::FieldRead
                                          : ExprKind::GlobalArrayRead);
  Temp.Id = L.Id;
  Temp.Ops.push_back(L.Index);
  return eval(S, Ctx, &Temp, V);
}

void Machine::storeLoc(State &S, unsigned Ctx, const Loc &L, int64_t Value,
                       Violation &V) const {
  switch (L.LocKind) {
  case Loc::Kind::Global:
    S.setGlobal(GlobalOffsets[L.Id], P.wrap(Value, P.globals()[L.Id].Ty));
    return;
  case Loc::Kind::Local: {
    Type Ty = irBodyOf(Ctx).Locals[L.Id].Ty;
    S.setLocal(Ctx, L.Id, P.wrap(Value, Ty));
    return;
  }
  case Loc::Kind::GlobalArray: {
    int64_t Index = eval(S, Ctx, L.Index, V);
    if (V.isViolation())
      return;
    const Global &G = P.globals()[L.Id];
    if (Index < 0 || Index >= static_cast<int64_t>(G.ArraySize)) {
      V.VKind = Violation::Kind::MemUnsafe;
      V.Label = "array store out of bounds: " + G.Name;
      return;
    }
    S.setGlobal(GlobalOffsets[L.Id] + static_cast<unsigned>(Index),
                P.wrap(Value, G.Ty));
    return;
  }
  case Loc::Kind::Field: {
    int64_t Ptr = eval(S, Ctx, L.Index, V);
    if (V.isViolation())
      return;
    if (Ptr < 1 || Ptr > static_cast<int64_t>(P.poolSize())) {
      V.VKind = Violation::Kind::MemUnsafe;
      V.Label = "field store through null or invalid pointer";
      return;
    }
    Type Ty = P.fields()[L.Id].Ty;
    S.setHeap(static_cast<size_t>(Ptr - 1) * P.fields().size() + L.Id,
              P.wrap(Value, Ty));
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Stepping.
//===----------------------------------------------------------------------===//

uint32_t Machine::normalizePc(State &S, unsigned Ctx) const {
  const FlatBody &B = bodyOf(Ctx);
  uint32_t Pc = S.pc(Ctx);
  while (Pc < B.Steps.size() && DeadStep[Ctx][Pc])
    ++Pc;
  S.setPc(Ctx, Pc);
  return Pc;
}

bool Machine::isFinished(State &S, unsigned Ctx) const {
  return normalizePc(S, Ctx) >= bodyOf(Ctx).Steps.size();
}

bool Machine::nextStepIsLocal(State &S, unsigned Ctx) const {
  uint32_t Pc = normalizePc(S, Ctx);
  const FlatBody &B = bodyOf(Ctx);
  if (Pc >= B.Steps.size())
    return false;
  const Step &St = B.Steps[Pc];
  if (!St.TouchesShared)
    return true;
  // A step whose dynamic guard is false executes nothing at all: it is
  // local no matter what it would have touched.
  if (St.DynGuard) {
    Violation V;
    int64_t Guard = eval(S, Ctx, St.DynGuard, V);
    if (!V.isViolation() && Guard == 0)
      return true;
  }
  return false;
}

bool Machine::execOps(State &S, unsigned Ctx, const Step &St,
                      Violation &V) const {
  for (const MicroOp &Op : St.Ops) {
    if (Op.Pred) {
      int64_t Pred = eval(S, Ctx, Op.Pred, V);
      if (V.isViolation())
        return false;
      if (Pred == 0)
        continue;
    }
    switch (Op.OpKind) {
    case MicroOp::Kind::Write: {
      int64_t Value = eval(S, Ctx, Op.Value, V);
      if (V.isViolation())
        return false;
      storeLoc(S, Ctx, Op.Target, Value, V);
      if (V.isViolation())
        return false;
      break;
    }
    case MicroOp::Kind::Assert: {
      int64_t Cond = eval(S, Ctx, Op.Value, V);
      if (V.isViolation())
        return false;
      if (Cond == 0) {
        V.VKind = Violation::Kind::AssertFail;
        V.Label = Op.Label;
        return false;
      }
      break;
    }
    case MicroOp::Kind::Alloc: {
      if (S.allocCount() >= static_cast<int64_t>(P.poolSize())) {
        V.VKind = Violation::Kind::PoolExhausted;
        V.Label = "node pool exhausted";
        return false;
      }
      int64_t NewNode = S.allocCount() + 1;
      S.setAllocCount(NewNode);
      storeLoc(S, Ctx, Op.Target, NewNode, V);
      if (V.isViolation())
        return false;
      break;
    }
    }
  }
  return true;
}

ExecOutcome Machine::execStep(State &S, unsigned Ctx, Violation &V) const {
  uint32_t Pc = normalizePc(S, Ctx);
  const FlatBody &B = bodyOf(Ctx);
  if (Pc >= B.Steps.size())
    return ExecOutcome{StepResult::Finished, Pc};
  const Step &St = B.Steps[Pc];

  if (St.DynGuard) {
    int64_t Guard = eval(S, Ctx, St.DynGuard, V);
    if (V.isViolation())
      return ExecOutcome{StepResult::Violated, Pc};
    if (Guard == 0) {
      S.setPc(Ctx, Pc + 1); // the step is a dynamic no-op
      return ExecOutcome{StepResult::Ok, Pc};
    }
  }
  if (St.WaitCond) {
    int64_t Wait = eval(S, Ctx, St.WaitCond, V);
    if (V.isViolation())
      return ExecOutcome{StepResult::Violated, Pc};
    if (Wait == 0)
      return ExecOutcome{StepResult::Blocked, Pc};
  }
  if (!execOps(S, Ctx, St, V))
    return ExecOutcome{StepResult::Violated, Pc};
  S.setPc(Ctx, Pc + 1);
  return ExecOutcome{StepResult::Ok, Pc};
}

bool Machine::runToCompletion(State &S, unsigned Ctx, Violation &V) const {
  for (;;) {
    ExecOutcome Out = execStep(S, Ctx, V);
    switch (Out.Result) {
    case StepResult::Finished:
      return true;
    case StepResult::Ok:
      continue;
    case StepResult::Blocked:
      V.VKind = Violation::Kind::Deadlock;
      V.Label = "conditional atomic blocked in a sequential phase";
      return false;
    case StepResult::Violated:
      return false;
    }
  }
}

std::string Machine::encodeState(const State &S) const {
  return encodeWords(S.words());
}

uint64_t Machine::fingerprintState(const State &S) const {
  return fingerprintWords(S.words());
}

std::string Machine::encodeWords(const int64_t *Words) const {
  if (Packed.Enabled) {
    uint64_t Buf[MaxPackedWords] = {};
    if (packWords(Words, Buf))
      return std::string(reinterpret_cast<const char *>(Buf),
                         Packed.KeyBytes);
    // Escape: raw key plus a marker byte. Packed keys are at most
    // 8 * SchedWords bytes, so the lengths can never collide and Exact
    // dedup stays injective even if the proven intervals were wrong.
    PackEscapes.fetch_add(1, std::memory_order_relaxed);
  }
  std::string Key(reinterpret_cast<const char *>(Words),
                  static_cast<size_t>(Layout.SchedWords) * sizeof(int64_t));
  if (Packed.Enabled)
    Key.push_back('\x1b');
  return Key;
}

std::string_view Machine::encodeWordsView(const int64_t *Words) const {
  size_t RawBytes = static_cast<size_t>(Layout.SchedWords) * sizeof(int64_t);
  if (Packed.Enabled) {
    static thread_local std::vector<char> Scratch;
    Scratch.resize(std::max<size_t>(Packed.KeyBytes, RawBytes + 1));
    uint64_t Buf[MaxPackedWords] = {};
    if (packWords(Words, Buf)) {
      std::memcpy(Scratch.data(), Buf, Packed.KeyBytes);
      return {Scratch.data(), Packed.KeyBytes};
    }
    PackEscapes.fetch_add(1, std::memory_order_relaxed);
    std::memcpy(Scratch.data(), Words, RawBytes);
    Scratch[RawBytes] = '\x1b'; // same escape marker as encodeWords
    return {Scratch.data(), RawBytes + 1};
  }
  return {reinterpret_cast<const char *>(Words), RawBytes};
}

uint64_t Machine::fingerprintWords(const int64_t *Words) const {
  return fingerprintWordsWith(Words, &hashWords);
}

uint64_t Machine::fingerprintWordsWith(
    const int64_t *Words, uint64_t (*Hash)(const int64_t *, size_t)) const {
  if (Packed.Enabled) {
    uint64_t Buf[MaxPackedWords] = {};
    if (packWords(Words, Buf))
      return Hash(reinterpret_cast<const int64_t *>(Buf), Packed.KeyWords);
    PackEscapes.fetch_add(1, std::memory_order_relaxed);
    // Salt escaped raw-key hashes away from the packed hash space.
    return Hash(Words, Layout.SchedWords) ^ 0x9e3779b97f4a7c15ull;
  }
  return Hash(Words, Layout.SchedWords);
}
