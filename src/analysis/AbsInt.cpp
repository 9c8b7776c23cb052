//===- analysis/AbsInt.cpp - Thread-modular interval analysis -------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"

#include "analysis/Analyzer.h"
#include "analysis/Lockset.h"
#include "analysis/Util.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cmath>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;
using namespace psketch::flat;

namespace {

/// Three-valued guard truth.
enum class Tri : uint8_t { False, True, Unknown };

Tri triOf(const Interval &I) {
  if (I.definitelyFalse())
    return Tri::False;
  if (I.definitelyTrue())
    return Tri::True;
  return Tri::Unknown;
}

/// True if \p E reads any program state (globals, arrays, fields, or
/// locals) — the fragment the syntactic constant-assert lint cannot
/// evaluate, which is what makes an interval-proven constant assert a
/// *new* finding.
bool readsState(ExprRef E) {
  if (!E)
    return false;
  switch (E->Kind) {
  case ExprKind::GlobalRead:
  case ExprKind::GlobalArrayRead:
  case ExprKind::LocalRead:
  case ExprKind::FieldRead:
    return true;
  default:
    break;
  }
  for (ExprRef Op : E->Ops)
    if (readsState(Op))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// The interpreter.
//===----------------------------------------------------------------------===//

class AbsEval {
public:
  AbsEval(const Program &P, const FlatProgram &FP, const HoleAssignment *Holes,
          const AbsIntConfig &Cfg, int PinHole, uint64_t PinValue)
      : P(P), FP(FP), Holes(Holes), Cfg(Cfg), PinHole(PinHole),
        PinValue(PinValue) {
    for (const Global &G : P.globals()) {
      Offsets.push_back(static_cast<unsigned>(SlotTy.size()));
      unsigned Extent = G.ArraySize == 0 ? 1 : G.ArraySize;
      for (unsigned I = 0; I < Extent; ++I) {
        SlotTy.push_back(G.Ty);
        Globals.push_back(Interval::point(G.Init));
      }
    }
    Heap.assign(P.fields().size(), Interval::point(0));
    Alloc = Interval::point(0);
  }

  AbsIntResult run();

private:
  const Program &P;
  const FlatProgram &FP;
  const HoleAssignment *Holes;
  const AbsIntConfig &Cfg;
  int PinHole;
  uint64_t PinValue;

  std::vector<unsigned> Offsets; ///< global id -> first slot
  std::vector<Type> SlotTy;      ///< per flattened slot
  std::vector<Interval> Globals; ///< the working shared state / INV
  std::vector<Interval> Heap;    ///< per field class (all pool cells)
  Interval Alloc;

  /// Par mode: shared writes always join (interference accumulation) and
  /// set Changed. Seq mode (prologue/epilogue): certain writes to a
  /// resolved slot update strongly.
  bool ParMode = false;
  bool Changed = false;

  /// Per-thread accumulated local write values (joined across all scans)
  /// for ValueBounds.
  std::vector<std::vector<Interval>> LocalAccum;

  AbsIntResult *Report = nullptr; ///< non-null during reporting scans

  const ir::Body &irBody(unsigned Ctx) const {
    if (Ctx < FP.Threads.size())
      return P.body(BodyId::thread(Ctx));
    if (Ctx == FP.Threads.size())
      return P.body(BodyId::prologue());
    return P.body(BodyId::epilogue());
  }

  Interval typeTop(Type Ty) const {
    switch (Ty) {
    case Type::Bool:
      return Interval::of(0, 1);
    case Type::Int: {
      int64_t Max = (int64_t(1) << (P.intWidth() - 1)) - 1;
      return Interval::of(-Max - 1, Max);
    }
    case Type::Ptr: {
      unsigned W = P.widthOf(Type::Ptr);
      return Interval::of(0, (int64_t(1) << W) - 1);
    }
    }
    __builtin_unreachable();
  }

  /// Abstract counterpart of Program::wrap: wrapping is the identity on
  /// values inside the type's range, so an in-range interval passes
  /// through exactly and anything else widens to the type top.
  Interval wrapTo(const Interval &V, Type Ty) const {
    Interval T = typeTop(Ty);
    if (V.isBottom())
      return T;
    if (T.Lo <= V.Lo && V.Hi <= T.Hi)
      return V;
    return T;
  }

  Interval holeValue(unsigned Id) const {
    if (Holes) {
      int64_t V = Id < Holes->size()
                      ? static_cast<int64_t>((*Holes)[Id])
                      : 0;
      return Interval::point(P.wrap(V, Type::Int));
    }
    if (PinHole >= 0 && Id == static_cast<unsigned>(PinHole))
      return Interval::point(
          P.wrap(static_cast<int64_t>(PinValue), Type::Int));
    uint64_t Max = P.holes()[Id].NumChoices - 1;
    Interval T = typeTop(Type::Int);
    if (Max <= static_cast<uint64_t>(T.Hi))
      return Interval::of(0, static_cast<int64_t>(Max));
    return T;
  }

  /// The chosen Choice alternative, or nullptr when unresolved (join all).
  ExprRef choicePick(ExprRef E) const {
    if (Holes && E->Id < Holes->size() && (*Holes)[E->Id] < E->Ops.size())
      return E->Ops[(*Holes)[E->Id]];
    if (!Holes && PinHole >= 0 && E->Id == static_cast<unsigned>(PinHole) &&
        PinValue < E->Ops.size())
      return E->Ops[PinValue];
    return nullptr;
  }

  Interval eval(ExprRef E, const std::vector<Interval> &Locals) const {
    switch (E->Kind) {
    case ExprKind::ConstInt:
      return Interval::point(E->IntValue);
    case ExprKind::GlobalRead:
      return Globals[Offsets[E->Id]];
    case ExprKind::GlobalArrayRead: {
      const Global &G = P.globals()[E->Id];
      Interval Idx = eval(E->Ops[0], Locals);
      int64_t Lo = std::max<int64_t>(Idx.Lo, 0);
      int64_t Hi = std::min<int64_t>(Idx.Hi,
                                     static_cast<int64_t>(G.ArraySize) - 1);
      if (Lo > Hi)
        return typeTop(E->Ty); // definitely out of bounds: no value to read
      Interval V = Interval::bottom();
      for (int64_t I = Lo; I <= Hi; ++I)
        V = V.join(Globals[Offsets[E->Id] + static_cast<unsigned>(I)]);
      return V;
    }
    case ExprKind::LocalRead:
      return E->Id < Locals.size() ? Locals[E->Id] : typeTop(E->Ty);
    case ExprKind::FieldRead:
      return Heap[E->Id];
    case ExprKind::HoleRead:
      return holeValue(E->Id);
    case ExprKind::Choice: {
      if (ExprRef Pick = choicePick(E))
        return eval(Pick, Locals);
      Interval V = Interval::bottom();
      for (ExprRef Alt : E->Ops)
        V = V.join(eval(Alt, Locals));
      return V;
    }
    case ExprKind::Add:
    case ExprKind::Sub: {
      Interval A = eval(E->Ops[0], Locals), B = eval(E->Ops[1], Locals);
      if (A.isBottom() || B.isBottom())
        return typeTop(E->Ty);
      __int128 Lo, Hi;
      if (E->Kind == ExprKind::Add) {
        Lo = static_cast<__int128>(A.Lo) + B.Lo;
        Hi = static_cast<__int128>(A.Hi) + B.Hi;
      } else {
        Lo = static_cast<__int128>(A.Lo) - B.Hi;
        Hi = static_cast<__int128>(A.Hi) - B.Lo;
      }
      Interval T = typeTop(E->Ty);
      if (Lo >= T.Lo && Hi <= T.Hi)
        return Interval::of(static_cast<int64_t>(Lo),
                            static_cast<int64_t>(Hi));
      return T; // may wrap: the wrapped result ranges over the whole type
    }
    case ExprKind::Eq:
    case ExprKind::Ne: {
      Interval A = eval(E->Ops[0], Locals), B = eval(E->Ops[1], Locals);
      bool Flip = E->Kind == ExprKind::Ne;
      if (A.isBottom() || B.isBottom())
        return Interval::of(0, 1);
      if (A.isPoint() && B.isPoint())
        return Interval::point((A.Lo == B.Lo) != Flip ? 1 : 0);
      if (A.Hi < B.Lo || B.Hi < A.Lo) // disjoint: definitely unequal
        return Interval::point(Flip ? 1 : 0);
      return Interval::of(0, 1);
    }
    case ExprKind::Lt:
    case ExprKind::Le: {
      Interval A = eval(E->Ops[0], Locals), B = eval(E->Ops[1], Locals);
      bool Strict = E->Kind == ExprKind::Lt;
      if (A.isBottom() || B.isBottom())
        return Interval::of(0, 1);
      if (Strict ? A.Hi < B.Lo : A.Hi <= B.Lo)
        return Interval::point(1);
      if (Strict ? A.Lo >= B.Hi : A.Lo > B.Hi)
        return Interval::point(0);
      return Interval::of(0, 1);
    }
    case ExprKind::And: {
      Tri A = triOf(eval(E->Ops[0], Locals));
      if (A == Tri::False)
        return Interval::point(0); // short-circuit, like the interpreter
      Tri B = triOf(eval(E->Ops[1], Locals));
      if (B == Tri::False)
        return Interval::point(0);
      if (A == Tri::True && B == Tri::True)
        return Interval::point(1);
      return Interval::of(0, 1);
    }
    case ExprKind::Or: {
      Tri A = triOf(eval(E->Ops[0], Locals));
      if (A == Tri::True)
        return Interval::point(1);
      Tri B = triOf(eval(E->Ops[1], Locals));
      if (B == Tri::True)
        return Interval::point(1);
      if (A == Tri::False && B == Tri::False)
        return Interval::point(0);
      return Interval::of(0, 1);
    }
    case ExprKind::Not:
      switch (triOf(eval(E->Ops[0], Locals))) {
      case Tri::False:
        return Interval::point(1);
      case Tri::True:
        return Interval::point(0);
      case Tri::Unknown:
        return Interval::of(0, 1);
      }
      __builtin_unreachable();
    case ExprKind::Ite:
      switch (triOf(eval(E->Ops[0], Locals))) {
      case Tri::True:
        return eval(E->Ops[1], Locals);
      case Tri::False:
        return eval(E->Ops[2], Locals);
      case Tri::Unknown:
        return eval(E->Ops[1], Locals).join(eval(E->Ops[2], Locals));
      }
      __builtin_unreachable();
    }
    return typeTop(E->Ty);
  }

  //===--------------------------------------------------------------------===//
  // State updates.
  //===--------------------------------------------------------------------===//

  void joinGlobal(unsigned Slot, const Interval &V) {
    Interval N = Globals[Slot].join(V);
    if (N != Globals[Slot]) {
      Globals[Slot] = N;
      Changed = true;
    }
  }

  void writeGlobalSlot(unsigned Slot, const Interval &V, bool Certain) {
    if (!ParMode && Certain)
      Globals[Slot] = V; // strong: single-context, certain path
    else
      joinGlobal(Slot, V);
  }

  void writeTarget(unsigned Ctx, const Loc &L, const Interval &Raw,
                   bool Certain, std::vector<Interval> &Locals) {
    switch (L.LocKind) {
    case Loc::Kind::Local: {
      const ir::Body &B = irBody(Ctx);
      if (L.Id >= B.Locals.size())
        return;
      Interval V = wrapTo(Raw, B.Locals[L.Id].Ty);
      Locals[L.Id] = Certain ? V : Locals[L.Id].join(V);
      if (Ctx < LocalAccum.size())
        LocalAccum[Ctx][L.Id] = LocalAccum[Ctx][L.Id].join(V);
      return;
    }
    case Loc::Kind::Global: {
      Interval V = wrapTo(Raw, P.globals()[L.Id].Ty);
      writeGlobalSlot(Offsets[L.Id], V, Certain);
      return;
    }
    case Loc::Kind::GlobalArray: {
      const Global &G = P.globals()[L.Id];
      Interval V = wrapTo(Raw, G.Ty);
      Interval Idx = eval(L.Index, Locals);
      if (Idx.isPoint() && Idx.Lo >= 0 &&
          Idx.Lo < static_cast<int64_t>(G.ArraySize)) {
        writeGlobalSlot(Offsets[L.Id] + static_cast<unsigned>(Idx.Lo), V,
                        Certain);
        return;
      }
      int64_t Lo = std::max<int64_t>(Idx.Lo, 0);
      int64_t Hi = std::min<int64_t>(Idx.Hi,
                                     static_cast<int64_t>(G.ArraySize) - 1);
      for (int64_t I = Lo; I <= Hi; ++I) // unresolved index: weak into range
        writeGlobalSlot(Offsets[L.Id] + static_cast<unsigned>(I), V, false);
      return;
    }
    case Loc::Kind::Field: {
      Interval V = wrapTo(Raw, P.fields()[L.Id].Ty);
      // Always weak: one class row covers many nodes.
      Interval N = Heap[L.Id].join(V);
      if (N != Heap[L.Id]) {
        Heap[L.Id] = N;
        Changed = true;
      }
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Body scans.
  //===--------------------------------------------------------------------===//

  void refute(unsigned Ctx, unsigned Pc, const std::string &Why) {
    if (!Report || Report->Refuted)
      return;
    Report->Refuted = true;
    Report->RefutedWhere = stepWhere(FP, Ctx, Pc);
    Report->RefutedWhy = Why;
  }

  void scanBody(unsigned Ctx) {
    const ir::Body &IrB = irBody(Ctx);
    const FlatBody &B = bodyOf(FP, Ctx);
    std::vector<Interval> Locals;
    Locals.reserve(IrB.Locals.size());
    for (const Local &L : IrB.Locals)
      Locals.push_back(Interval::point(L.Init));

    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      const Step &S = B.Steps[Pc];
      Tri StaticTri =
          S.StaticGuard ? triOf(eval(S.StaticGuard, Locals)) : Tri::True;
      if (StaticTri == Tri::False)
        continue;
      Tri DynTri = S.DynGuard ? triOf(eval(S.DynGuard, Locals)) : Tri::True;
      if (DynTri == Tri::False)
        continue;
      bool CertainStep = StaticTri == Tri::True && DynTri == Tri::True;

      if (S.WaitCond && CertainStep &&
          eval(S.WaitCond, Locals).definitelyFalse())
        // An always-reached wait that can never fire under the invariant:
        // no run completes this context, so no run completes at all.
        refute(Ctx, Pc, "wait condition can never fire");

      for (const MicroOp &Op : S.Ops) {
        Tri PredTri = Op.Pred ? triOf(eval(Op.Pred, Locals)) : Tri::True;
        if (PredTri == Tri::False)
          continue;
        bool CertainOp = CertainStep && PredTri == Tri::True;
        switch (Op.OpKind) {
        case MicroOp::Kind::Assert: {
          Interval C = eval(Op.Value, Locals);
          if (CertainOp && C.definitelyFalse())
            refute(Ctx, Pc, "assert '" + Op.Label + "' provably fails");
          else if (Report && C.definitelyTrue() && readsState(Op.Value))
            Report->DeadAsserts.push_back(
                {Ctx, Pc, Op.Label, stepWhere(FP, Ctx, Pc)});
          break;
        }
        case MicroOp::Kind::Write:
          writeTarget(Ctx, Op.Target, eval(Op.Value, Locals), CertainOp,
                      Locals);
          break;
        case MicroOp::Kind::Alloc: {
          // Fresh node id = counter + 1; a completing run never exhausts
          // the pool, so both the counter and the id stay <= PoolSize.
          int64_t Pool = static_cast<int64_t>(P.poolSize());
          Interval Bumped =
              Interval::of(std::min(Alloc.Lo + 1, Pool),
                           std::min(Alloc.Hi + 1, Pool));
          Interval NewAlloc = CertainOp ? Bumped : Alloc.join(Bumped);
          if (!ParMode && CertainOp) {
            Alloc = NewAlloc;
          } else {
            Interval N = Alloc.join(NewAlloc);
            if (N != Alloc) {
              Alloc = N;
              Changed = true;
            }
          }
          Interval Fresh = Interval::of(std::max<int64_t>(Bumped.Lo, 1),
                                        std::max<int64_t>(Bumped.Hi, 1));
          writeTarget(Ctx, Op.Target, Fresh, CertainOp, Locals);
          break;
        }
        }
      }
    }
  }
};

AbsIntResult AbsEval::run() {
  AbsIntResult Res;
  unsigned NumThreads = static_cast<unsigned>(FP.Threads.size());
  LocalAccum.resize(NumThreads);
  for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx)
    LocalAccum[Ctx].assign(irBody(Ctx).Locals.size(), Interval::bottom());

  // Prologue: runs alone, flow-sensitively, directly on the shared state
  // (its result seeds the interference invariant). Reporting is live —
  // prologue refutations are final after this single pass.
  ParMode = false;
  Report = &Res;
  scanBody(NumThreads); // prologue ctx
  Report = nullptr;

  // Parallel phase: iterate per-thread scans against the accumulating
  // invariant until it stabilizes; widen changed slots to their type tops
  // once the polite rounds are spent.
  ParMode = true;
  for (unsigned Round = 1; Round <= Cfg.MaxClosureRounds; ++Round) {
    Changed = false;
    std::vector<Interval> PrevG = Globals, PrevH = Heap;
    Interval PrevA = Alloc;
    for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx)
      scanBody(Ctx);
    Res.ClosureRounds = Round;
    if (!Changed)
      break;
    bool LastRound = Round == Cfg.MaxClosureRounds;
    if (Round >= Cfg.WidenAfterRounds || LastRound) {
      Res.Widened = true;
      for (size_t I = 0; I < Globals.size(); ++I)
        if (LastRound || Globals[I] != PrevG[I])
          Globals[I] = Globals[I].join(typeTop(SlotTy[I]));
      for (size_t F = 0; F < Heap.size(); ++F)
        if (LastRound || Heap[F] != PrevH[F])
          Heap[F] = Heap[F].join(typeTop(P.fields()[F].Ty));
      if (LastRound || Alloc != PrevA)
        Alloc = Alloc.join(
            Interval::of(0, static_cast<int64_t>(P.poolSize())));
    }
  }

  // Reporting pass over the stable invariant: thread-side refutations,
  // dead asserts, and the final local accumulators.
  Report = &Res;
  for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx)
    scanBody(Ctx);

  // Epilogue: runs alone after every thread completes, on a scratch copy
  // so its writes stay out of the parallel-phase bounds.
  std::vector<Interval> SavedG = Globals, SavedH = Heap;
  Interval SavedA = Alloc;
  ParMode = false;
  scanBody(NumThreads + 1);
  Globals = std::move(SavedG);
  Heap = std::move(SavedH);
  Alloc = SavedA;
  Report = nullptr;

  // Bounds: the final invariant covers every scheduler-visible value
  // (the search keys states of the parallel phase only).
  exec::ValueBounds &B = Res.Bounds;
  B.GlobalSlots.reserve(Globals.size());
  for (const Interval &I : Globals)
    B.GlobalSlots.push_back({I.Lo, I.Hi});
  for (const Interval &I : Heap)
    B.HeapFields.push_back({I.Lo, I.Hi});
  B.Locals.resize(NumThreads);
  for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx) {
    const ir::Body &IrB = irBody(Ctx);
    for (size_t L = 0; L < IrB.Locals.size(); ++L) {
      Interval V =
          Interval::point(IrB.Locals[L].Init).join(LocalAccum[Ctx][L]);
      B.Locals[Ctx].push_back({V.Lo, V.Hi});
    }
  }
  return Res;
}

} // namespace

AbsIntResult analysis::runAbsInt(const Program &P, const FlatProgram &FP,
                                 const HoleAssignment *Holes,
                                 const AbsIntConfig &Cfg, int PinHole,
                                 uint64_t PinValue) {
  return AbsEval(P, FP, Holes, Cfg, PinHole, PinValue).run();
}

CandidateFacts analysis::analyzeCandidate(const Program &P,
                                          const FlatProgram &FP,
                                          const HoleAssignment &Holes,
                                          const AbsIntConfig &Cfg, bool) {
  CandidateFacts Facts;
  AbsIntResult R = runAbsInt(P, FP, &Holes, Cfg);
  Facts.Refuted = R.Refuted;
  Facts.RefutedWhere = R.RefutedWhere;
  Facts.RefutedWhy = R.RefutedWhy;
  Facts.Bounds = std::move(R.Bounds);
  Facts.Locks = runLockset(P, FP, &Holes).Locks;
  return Facts;
}

//===----------------------------------------------------------------------===//
// The analyzer-facing screen.
//===----------------------------------------------------------------------===//

void analysis::runAbsIntScreen(Program &P, const FlatProgram &FP,
                               const AnalysisConfig &Cfg,
                               DiagnosticSink &Sink, AnalysisResult &Out) {
  constexpr const char *PassName = "absint";
  AbsIntConfig AC;

  // Whole-space run: holes at top. A refutation here holds for every
  // candidate, so CEGIS may answer NO without a verifier call.
  AbsIntResult Whole = runAbsInt(P, FP, nullptr, AC);
  if (Whole.Refuted && !Out.ProvedUnresolvable) {
    Out.ProvedUnresolvable = true;
    Out.UnresolvableWhy =
        "interval analysis: " + Whole.RefutedWhy + " at " + Whole.RefutedWhere;
    Sink.note(PassName, Out.UnresolvableWhy, "whole space");
  }

  // Interval-dead asserts: abstractly constant-true conditions that read
  // program state, invisible to the syntactic constant-assert lint.
  for (const AbsIntResult::DeadAssert &D : Whole.DeadAsserts)
    Sink.warning(PassName,
                 format("assert '%s' is provably always true (interval "
                        "analysis); it constrains nothing",
                        D.Label.c_str()),
                 D.Where);

  // Eraser-style inconsistent-locking lint.
  LocksetResult LS = runLockset(P, FP, nullptr);
  for (const RaceFinding &R : LS.Races) {
    Sink.warning(PassName,
                 format("'%s' is written by multiple threads with an "
                        "inconsistent lockset (some sites hold a lock, no "
                        "lock is common to all)",
                        R.SlotName.c_str()),
                 R.Where);
    ++Out.RaceWarnings;
  }

  // Pinned-hole probes: refuting the whole space with hole H pinned to
  // value V is a sound unit ban on (H, V). Skip when the whole space is
  // already refuted; never ban every value of a hole (that case is the
  // whole-space refutation's job, and keeping one value preserves the
  // Resolvable verdict contract).
  if (Whole.Refuted)
    return;
  unsigned Budget = Cfg.MaxAbsIntProbes;
  std::vector<unsigned> BansPerHole(P.holes().size(), 0);
  for (unsigned H = 0; H < P.holes().size() && Budget > 0; ++H) {
    const Hole &Def = P.holes()[H];
    if (Def.NumChoices > Cfg.MaxHoleChoices || Def.NumChoices > Budget)
      continue;
    std::vector<uint64_t> Refutable;
    for (uint64_t V = 0; V < Def.NumChoices; ++V) {
      --Budget;
      if (runAbsInt(P, FP, nullptr, AC, static_cast<int>(H), V).Refuted)
        Refutable.push_back(V);
    }
    if (Refutable.empty() || Refutable.size() == Def.NumChoices)
      continue;
    for (uint64_t V : Refutable)
      Out.Bans.push_back({H, V});
    BansPerHole[H] = static_cast<unsigned>(Refutable.size());
    Sink.note(PassName,
              format("hole '%s': %zu of %u values provably fail; banned",
                     Def.Name.c_str(), Refutable.size(), Def.NumChoices),
              "whole space");
  }
  for (unsigned H = 0; H < P.holes().size(); ++H) {
    if (!BansPerHole[H] || !P.holes()[H].Counted)
      continue;
    unsigned N = P.holes()[H].NumChoices;
    Out.SpaceLog10Delta += std::log10(static_cast<double>(N - BansPerHole[H])) -
                           std::log10(static_cast<double>(N));
  }
}
