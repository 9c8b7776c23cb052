//===- synth/TraceEncoder.cpp ----------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "synth/TraceEncoder.h"

#include "support/StrUtil.h"

#include <cassert>

using namespace psketch;
using namespace psketch::synth;
using namespace psketch::circuit;
using namespace psketch::ir;
using psketch::flat::MicroOp;
using psketch::flat::Step;

TraceEncoder::TraceEncoder(Graph &G, const flat::FlatProgram &FP)
    : G(G), FP(FP), P(*FP.Source) {
  assert(P.widthOf(Type::Ptr) <= P.intWidth() &&
         "pointer width must not exceed the int width");
  HoleBits.reserve(P.holes().size());
  for (size_t I = 0; I < P.holes().size(); ++I)
    HoleBits.push_back(
        bvInput(G, P.holes()[I].Width, format("hole%zu", I)));
  GlobalOffsets.reserve(P.globals().size());
  for (const Global &Gl : P.globals()) {
    GlobalOffsets.push_back(NumGlobalSlots);
    NumGlobalSlots += Gl.ArraySize == 0 ? 1 : Gl.ArraySize;
  }
}

NodeRef TraceEncoder::validity() {
  std::vector<NodeRef> Terms;
  for (size_t I = 0; I < P.holes().size(); ++I) {
    unsigned Width = P.holes()[I].Width;
    unsigned NumChoices = P.holes()[I].NumChoices;
    if (NumChoices == (1u << Width))
      continue; // the hole's bit pattern range is exactly its choice range
    Terms.push_back(
        bvUlt(G, HoleBits[I], bvConst(G, Width, NumChoices)));
  }
  // Static hole-only constraints (e.g. reorder no-duplicates): evaluate
  // them with a throwaway state — they read no program state.
  SymState Empty = initialState({});
  for (ExprRef C : P.staticConstraints()) {
    Val V = evalExpr(Empty, 0, C);
    Terms.push_back(bit(V));
  }
  return G.mkAndAll(Terms);
}

NodeRef TraceEncoder::encodeHoleOnly(ExprRef E) {
  SymState Empty = initialState({});
  Val V = evalExpr(Empty, 0, E);
  return bit(V);
}

TraceEncoder::SymState TraceEncoder::initialState(
    const GlobalOverrides &Overrides) {
  SymState St;
  St.Globals.resize(NumGlobalSlots);
  for (size_t I = 0; I < P.globals().size(); ++I) {
    const Global &Gl = P.globals()[I];
    unsigned Count = Gl.ArraySize == 0 ? 1 : Gl.ArraySize;
    for (unsigned J = 0; J < Count; ++J)
      St.Globals[GlobalOffsets[I] + J] =
          bvConst(G, widthOf(Gl.Ty), static_cast<uint64_t>(Gl.Init));
  }
  for (const auto &[Id, Value] : Overrides) {
    assert(P.globals()[Id].ArraySize == 0 && "override of array global");
    St.Globals[GlobalOffsets[Id]] =
        bvConst(G, widthOf(P.globals()[Id].Ty),
                static_cast<uint64_t>(P.wrap(Value, P.globals()[Id].Ty)));
  }
  St.Heap.resize(static_cast<size_t>(P.poolSize()) * P.fields().size());
  for (unsigned N = 0; N < P.poolSize(); ++N)
    for (size_t F = 0; F < P.fields().size(); ++F)
      St.Heap[static_cast<size_t>(N) * P.fields().size() + F] =
          bvConst(G, widthOf(P.fields()[F].Ty), 0);
  St.AllocCount = bvConst(G, widthOf(Type::Ptr), 0);

  unsigned NumCtx = static_cast<unsigned>(FP.Threads.size()) + 2;
  St.Locals.resize(NumCtx);
  auto InitLocals = [&](unsigned Ctx, BodyId Id) {
    const Body &B = P.body(Id);
    St.Locals[Ctx].reserve(B.Locals.size());
    for (const Local &L : B.Locals)
      St.Locals[Ctx].push_back(
          bvConst(G, widthOf(L.Ty), static_cast<uint64_t>(L.Init)));
  };
  for (unsigned T = 0; T < FP.Threads.size(); ++T)
    InitLocals(T, BodyId::thread(T));
  InitLocals(static_cast<unsigned>(FP.Threads.size()), BodyId::prologue());
  InitLocals(static_cast<unsigned>(FP.Threads.size()) + 1,
             BodyId::epilogue());

  St.Alive = G.getTrue();
  St.Fail = G.getFalse();
  return St;
}

//===----------------------------------------------------------------------===//
// Expression evaluation.
//===----------------------------------------------------------------------===//

TraceEncoder::Val TraceEncoder::evalExpr(SymState &St, unsigned Ctx,
                                         ExprRef E) {
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return Val{bvConst(G, widthOf(E->Ty), static_cast<uint64_t>(E->IntValue)),
               G.getTrue()};
  case ExprKind::GlobalRead:
    return Val{St.Globals[GlobalOffsets[E->Id]], G.getTrue()};
  case ExprKind::GlobalArrayRead: {
    Val Index = evalExpr(St, Ctx, E->Ops[0]);
    const Global &Gl = P.globals()[E->Id];
    BitVec Value = bvConst(G, widthOf(Gl.Ty), 0);
    NodeRef InRange = G.getFalse();
    for (unsigned J = 0; J < Gl.ArraySize; ++J) {
      NodeRef Here = bvEqConst(G, Index.V, J);
      Value = bvMux(G, Here, St.Globals[GlobalOffsets[E->Id] + J], Value);
      InRange = G.mkOr(InRange, Here);
    }
    return Val{Value, G.mkAnd(Index.Safe, InRange)};
  }
  case ExprKind::LocalRead:
    return Val{St.Locals[Ctx][E->Id], G.getTrue()};
  case ExprKind::FieldRead: {
    Val Ptr = evalExpr(St, Ctx, E->Ops[0]);
    BitVec Value = bvConst(G, widthOf(P.fields()[E->Id].Ty), 0);
    NodeRef InRange = G.getFalse();
    for (unsigned N = 1; N <= P.poolSize(); ++N) {
      NodeRef Here = bvEqConst(G, Ptr.V, N);
      Value = bvMux(
          G, Here,
          St.Heap[static_cast<size_t>(N - 1) * P.fields().size() + E->Id],
          Value);
      InRange = G.mkOr(InRange, Here);
    }
    return Val{Value, G.mkAnd(Ptr.Safe, InRange)};
  }
  case ExprKind::HoleRead:
    // Hole values are small non-negative ints; widen to the Int width.
    return Val{bvResize(G, HoleBits[E->Id], widthOf(Type::Int)), G.getTrue()};
  case ExprKind::Choice: {
    const BitVec &Sel = HoleBits[E->Id];
    Val Result = evalExpr(St, Ctx, E->Ops.back());
    for (size_t J = E->Ops.size() - 1; J-- > 0;) {
      Val Alt = evalExpr(St, Ctx, E->Ops[J]);
      NodeRef Here = bvEqConst(G, Sel, J);
      Result.V = bvMux(G, Here, Alt.V, Result.V);
      Result.Safe = G.mkIte(Here, Alt.Safe, Result.Safe);
    }
    return Result;
  }
  case ExprKind::And: {
    Val A = evalExpr(St, Ctx, E->Ops[0]);
    Val B = evalExpr(St, Ctx, E->Ops[1]);
    NodeRef ABit = bit(A);
    // Short-circuit safety: the right side only evaluates when A holds.
    NodeRef Safe = G.mkAnd(A.Safe, G.mkOr(~ABit, B.Safe));
    BitVec V;
    V.Bits.push_back(G.mkAnd(ABit, bit(B)));
    return Val{V, Safe};
  }
  case ExprKind::Or: {
    Val A = evalExpr(St, Ctx, E->Ops[0]);
    Val B = evalExpr(St, Ctx, E->Ops[1]);
    NodeRef ABit = bit(A);
    NodeRef Safe = G.mkAnd(A.Safe, G.mkOr(ABit, B.Safe));
    BitVec V;
    V.Bits.push_back(G.mkOr(ABit, bit(B)));
    return Val{V, Safe};
  }
  case ExprKind::Not: {
    Val A = evalExpr(St, Ctx, E->Ops[0]);
    BitVec V;
    V.Bits.push_back(~bit(A));
    return Val{V, A.Safe};
  }
  case ExprKind::Ite: {
    Val C = evalExpr(St, Ctx, E->Ops[0]);
    Val T = evalExpr(St, Ctx, E->Ops[1]);
    Val F = evalExpr(St, Ctx, E->Ops[2]);
    NodeRef CBit = bit(C);
    NodeRef Safe = G.mkAnd(C.Safe, G.mkIte(CBit, T.Safe, F.Safe));
    return Val{bvMux(G, CBit, T.V, F.V), Safe};
  }
  default:
    break;
  }

  Val A = evalExpr(St, Ctx, E->Ops[0]);
  Val B = evalExpr(St, Ctx, E->Ops[1]);
  NodeRef Safe = G.mkAnd(A.Safe, B.Safe);
  unsigned W = std::max(A.V.width(), B.V.width());
  BitVec AV = bvResize(G, A.V, W);
  BitVec BV = bvResize(G, B.V, W);
  switch (E->Kind) {
  case ExprKind::Add:
    return Val{bvResize(G, bvAdd(G, AV, BV), widthOf(E->Ty)), Safe};
  case ExprKind::Sub:
    return Val{bvResize(G, bvSub(G, AV, BV), widthOf(E->Ty)), Safe};
  case ExprKind::Eq: {
    BitVec V;
    V.Bits.push_back(bvEq(G, AV, BV));
    return Val{V, Safe};
  }
  case ExprKind::Ne: {
    BitVec V;
    V.Bits.push_back(bvNe(G, AV, BV));
    return Val{V, Safe};
  }
  case ExprKind::Lt: {
    assert(A.V.width() == B.V.width() && "signed compare needs equal widths");
    BitVec V;
    V.Bits.push_back(bvSlt(G, AV, BV));
    return Val{V, Safe};
  }
  case ExprKind::Le: {
    assert(A.V.width() == B.V.width() && "signed compare needs equal widths");
    BitVec V;
    V.Bits.push_back(bvSle(G, AV, BV));
    return Val{V, Safe};
  }
  default:
    assert(false && "unhandled expression kind");
    return Val{bvConst(G, 1, 0), G.getTrue()};
  }
}

NodeRef TraceEncoder::store(SymState &St, unsigned Ctx, const Loc &L,
                            NodeRef Cond, const BitVec &Value) {
  switch (L.LocKind) {
  case Loc::Kind::Global: {
    BitVec V = bvResize(G, Value, widthOf(P.globals()[L.Id].Ty));
    St.Globals[GlobalOffsets[L.Id]] =
        bvMux(G, Cond, V, St.Globals[GlobalOffsets[L.Id]]);
    return G.getTrue();
  }
  case Loc::Kind::Local: {
    Type Ty;
    if (Ctx < FP.Threads.size())
      Ty = P.body(BodyId::thread(Ctx)).Locals[L.Id].Ty;
    else if (Ctx == FP.Threads.size())
      Ty = P.body(BodyId::prologue()).Locals[L.Id].Ty;
    else
      Ty = P.body(BodyId::epilogue()).Locals[L.Id].Ty;
    BitVec V = bvResize(G, Value, widthOf(Ty));
    St.Locals[Ctx][L.Id] = bvMux(G, Cond, V, St.Locals[Ctx][L.Id]);
    return G.getTrue();
  }
  case Loc::Kind::GlobalArray: {
    Val Index = evalExpr(St, Ctx, L.Index);
    const Global &Gl = P.globals()[L.Id];
    BitVec V = bvResize(G, Value, widthOf(Gl.Ty));
    NodeRef InRange = G.getFalse();
    for (unsigned J = 0; J < Gl.ArraySize; ++J) {
      NodeRef Here = G.mkAnd(Cond, bvEqConst(G, Index.V, J));
      unsigned Slot = GlobalOffsets[L.Id] + J;
      St.Globals[Slot] = bvMux(G, Here, V, St.Globals[Slot]);
      InRange = G.mkOr(InRange, bvEqConst(G, Index.V, J));
    }
    return G.mkAnd(Index.Safe, InRange);
  }
  case Loc::Kind::Field: {
    Val Ptr = evalExpr(St, Ctx, L.Index);
    BitVec V = bvResize(G, Value, widthOf(P.fields()[L.Id].Ty));
    NodeRef InRange = G.getFalse();
    for (unsigned N = 1; N <= P.poolSize(); ++N) {
      NodeRef Here = G.mkAnd(Cond, bvEqConst(G, Ptr.V, N));
      size_t Slot = static_cast<size_t>(N - 1) * P.fields().size() + L.Id;
      St.Heap[Slot] = bvMux(G, Here, V, St.Heap[Slot]);
      InRange = G.mkOr(InRange, bvEqConst(G, Ptr.V, N));
    }
    return G.mkAnd(Ptr.Safe, InRange);
  }
  }
  __builtin_unreachable();
}

//===----------------------------------------------------------------------===//
// Step encoding.
//===----------------------------------------------------------------------===//

void TraceEncoder::execOps(SymState &St, unsigned Ctx, const Step &Step,
                           NodeRef Eff) {
  for (const MicroOp &Op : Step.Ops) {
    NodeRef Cond = Eff;
    if (Op.Pred) {
      Val Pred = evalExpr(St, Ctx, Op.Pred);
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Eff, ~Pred.Safe));
      Cond = G.mkAnd(Eff, bit(Pred));
    }
    switch (Op.OpKind) {
    case MicroOp::Kind::Write: {
      Val Value = evalExpr(St, Ctx, Op.Value);
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Cond, ~Value.Safe));
      NodeRef AddrSafe = store(St, Ctx, Op.Target, Cond, Value.V);
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Cond, ~AddrSafe));
      break;
    }
    case MicroOp::Kind::Assert: {
      Val CondV = evalExpr(St, Ctx, Op.Value);
      NodeRef Bad = G.mkOr(~CondV.Safe, ~bit(CondV));
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Cond, Bad));
      break;
    }
    case MicroOp::Kind::Alloc: {
      NodeRef HasRoom =
          bvUlt(G, St.AllocCount,
                bvConst(G, St.AllocCount.width(), P.poolSize()));
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Cond, ~HasRoom));
      BitVec NewNode = bvAdd(G, St.AllocCount,
                             bvConst(G, St.AllocCount.width(), 1));
      NodeRef AddrSafe = store(St, Ctx, Op.Target, Cond, NewNode);
      St.Fail = G.mkOr(St.Fail, G.mkAnd(Cond, ~AddrSafe));
      St.AllocCount = bvMux(G, Cond, NewNode, St.AllocCount);
      break;
    }
    }
  }
}

NodeRef TraceEncoder::othersCanProgress(SymState &St, const ProjectedTrace &PT,
                                        size_t Pos) {
  unsigned Self = PT.Sequence[Pos].Thread;
  std::vector<NodeRef> Terms;
  for (unsigned T = 0; T < FP.Threads.size(); ++T) {
    if (T == Self)
      continue;
    // Find thread T's next pending projected step.
    const Step *Next = nullptr;
    for (size_t Q = Pos + 1; Q < PT.Sequence.size(); ++Q) {
      if (PT.Sequence[Q].Thread == T) {
        Next = &FP.Threads[T].Steps[PT.Sequence[Q].Pc];
        break;
      }
    }
    if (!Next) {
      // No pending step: a fully projected thread has truly finished and
      // cannot progress; a truncated thread still has (dropped) work, so
      // it conservatively counts as able to progress.
      if (PT.Truncated[T])
        Terms.push_back(G.getTrue());
      continue;
    }
    // Thread T can progress unless its next step is an enabled blocked
    // conditional atomic: stuck = guard && hasWait && !wait.
    NodeRef Guard = G.getTrue();
    if (Next->StaticGuard)
      Guard = G.mkAnd(Guard, bit(evalExpr(St, T, Next->StaticGuard)));
    if (Next->DynGuard)
      Guard = G.mkAnd(Guard, bit(evalExpr(St, T, Next->DynGuard)));
    if (!Next->WaitCond) {
      Terms.push_back(G.getTrue()); // always runnable
      continue;
    }
    NodeRef Wait = bit(evalExpr(St, T, Next->WaitCond));
    NodeRef Stuck = G.mkAnd(Guard, ~Wait);
    Terms.push_back(~Stuck);
  }
  return G.mkOrAll(Terms);
}

void TraceEncoder::encodeStep(SymState &St, unsigned Ctx, const Step &Step,
                              NodeRef OthersProgress) {
  NodeRef Guard = St.Alive;
  if (Step.StaticGuard)
    Guard = G.mkAnd(Guard, bit(evalExpr(St, Ctx, Step.StaticGuard)));
  if (Step.DynGuard)
    Guard = G.mkAnd(Guard, bit(evalExpr(St, Ctx, Step.DynGuard)));

  NodeRef Eff = Guard;
  if (Step.WaitCond) {
    Val Wait = evalExpr(St, Ctx, Step.WaitCond);
    St.Fail = G.mkOr(St.Fail, G.mkAnd(Guard, ~Wait.Safe));
    NodeRef Blocked = G.mkAnd(Guard, ~bit(Wait));
    // The paper's encoding: blocked and nobody else can move => deadlock;
    // blocked but someone can move => the trace ends with outcome OK.
    St.Fail = G.mkOr(St.Fail, G.mkAnd(Blocked, ~OthersProgress));
    St.Alive = G.mkAnd(St.Alive, ~Blocked);
    Eff = G.mkAnd(Guard, bit(Wait));
  }
  execOps(St, Ctx, Step, Eff);
}

NodeRef TraceEncoder::encodeTrace(const ProjectedTrace &PT,
                                  const GlobalOverrides &Overrides) {
  SymState St = initialState(Overrides);
  unsigned PrologueCtx = static_cast<unsigned>(FP.Threads.size());
  unsigned EpilogueCtx = PrologueCtx + 1;

  for (const Step &S : FP.Prologue.Steps)
    encodeStep(St, PrologueCtx, S, G.getFalse());

  for (size_t Pos = 0; Pos < PT.Sequence.size(); ++Pos) {
    const verify::TraceStep &TS = PT.Sequence[Pos];
    const Step &S = FP.Threads[TS.Thread].Steps[TS.Pc];
    NodeRef Progress =
        S.WaitCond ? othersCanProgress(St, PT, Pos) : G.getFalse();
    encodeStep(St, TS.Thread, S, Progress);
  }

  if (PT.IncludeEpilogue)
    for (const Step &S : FP.Epilogue.Steps)
      encodeStep(St, EpilogueCtx, S, G.getFalse());

  return St.Fail;
}
