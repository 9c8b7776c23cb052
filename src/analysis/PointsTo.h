//===- analysis/PointsTo.h - Allocation-site points-to analysis -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flow-insensitive, Andersen-style points-to analysis over the flat
/// program (docs/ANALYSIS.md Pass 5). The heap abstraction is the
/// *allocation site*: one abstract node per Alloc micro-op, identified by
/// (context, pc, op index) — which gives the per-thread-context split for
/// free, since each forked copy of a thread body is its own context.
///
/// Two structural facts make the abstraction unusually strong here:
///
///  * flat bodies are loop-free, so every Alloc micro-op executes at most
///    once per run — an allocation site abstracts at most ONE concrete
///    node per execution;
///  * the machine's allocator hands out strictly increasing fresh ids, so
///    two distinct sites never produce the same concrete node.
///
/// Together: accesses whose points-to sets resolve to disjoint site sets
/// touch disjoint concrete heap cells in every run. That is the
/// must-not-alias fact the symmetry heap-discipline check
/// (analysis/SymmetryInfer.cpp) and the shape lint (analysis/Shape.h)
/// consume.
///
/// The analysis runs in two modes, like the abstract interpreter:
/// *candidate* mode (a HoleAssignment resolves every Choice to its
/// selected alternative — the symmetry check of that candidate) and
/// *whole-space* mode (Choice joins all alternatives — the facts hold
/// for every candidate and feed the lint).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_POINTSTO_H
#define PSKETCH_ANALYSIS_POINTSTO_H

#include "desugar/Flat.h"
#include "ir/HoleAssignment.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace psketch {
namespace analysis {

/// One allocation site: an Alloc micro-op at (context, pc, op index).
/// Contexts use the machine numbering: threads 0..N-1, prologue N,
/// epilogue N+1.
struct AllocSite {
  unsigned Ctx = 0;
  unsigned Pc = 0;
  unsigned OpIndex = 0;
  std::string Label; ///< the owning step's label, for diagnostics
};

/// A points-to set: a bitmask over at most 64 allocation sites, plus a
/// null flag and a Top flag ("any node, including ones we lost track
/// of"). Top subsumes everything; a Top-free set is *resolved* and
/// licenses refinement.
struct PtSet {
  uint64_t Sites = 0;
  bool Null = false;
  bool Top = false;

  bool resolved() const { return !Top; }
  bool definitelyNull() const { return !Top && Sites == 0; }
  bool empty() const { return !Top && !Null && Sites == 0; }

  /// \returns true when the set changed.
  bool join(const PtSet &O) {
    uint64_t S = Sites | O.Sites;
    bool N = Null || O.Null, T = Top || O.Top;
    bool Changed = S != Sites || N != Null || T != Top;
    Sites = S;
    Null = N;
    Top = T;
    return Changed;
  }

  static PtSet top() { return PtSet{0, false, true}; }
  static PtSet null() { return PtSet{0, true, false}; }
  static PtSet site(unsigned S) { return PtSet{1ull << S, false, false}; }

  bool disjointSites(const PtSet &O) const {
    return resolved() && O.resolved() && (Sites & O.Sites) == 0;
  }
};

/// The fixpoint solution.
struct PointsToResult {
  /// False when the analysis refused (more than MaxSites allocation
  /// sites): every downstream consumer must then fall back to the
  /// per-field-class behavior.
  bool Ran = false;
  unsigned NumThreads = 0;
  unsigned NumFields = 0;

  std::vector<AllocSite> Sites;
  /// Per-(site, field) abstract heap cells (Ptr-typed fields only carry
  /// meaningful sets; others stay empty).
  std::vector<std::vector<PtSet>> Cells;
  /// Per-global points-to (arrays are summarized: one set per array).
  std::vector<PtSet> Globals;
  /// Per-context, per-local-slot points-to.
  std::vector<std::vector<PtSet>> Locals;
  /// Per-context deref resolution: the final points-to set of every
  /// pointer expression used as a FieldRead base or a Field-write
  /// target, keyed by the arena-stable ExprRef.
  std::vector<std::unordered_map<ir::ExprRef, PtSet>> Derefs;

  /// Sites reachable from some global (transitively through heap cells):
  /// shared between contexts once published.
  uint64_t Escaping = 0;
  /// Sites allocated by a thread body that never escape and are never
  /// reachable from any other context's locals.
  uint64_t ThreadPrivate = 0;

  unsigned prologueCtx() const { return NumThreads; }
  unsigned epilogueCtx() const { return NumThreads + 1; }
  unsigned numCtx() const { return NumThreads + 2; }

  /// The final points-to set of pointer expression \p E evaluated in
  /// context \p Ctx, when it was recorded as a deref base (Top
  /// otherwise).
  PtSet derefSet(unsigned Ctx, ir::ExprRef E) const {
    if (Ctx < Derefs.size()) {
      auto It = Derefs[Ctx].find(E);
      if (It != Derefs[Ctx].end())
        return It->second;
    }
    return PtSet::top();
  }

  static constexpr unsigned MaxSites = 64;
};

/// Runs the analysis over \p FP. \p Holes selects candidate mode (Choice
/// resolved; pass the proposed assignment) vs whole-space mode (null:
/// Choice joins all alternatives, so the solution covers every
/// candidate).
PointsToResult runPointsTo(const flat::FlatProgram &FP,
                           const ir::HoleAssignment *Holes);

/// True when thread contexts \p CtxA and \p CtxB own site lists that
/// correspond index-for-index (equal pc and op index — forked copies of
/// one body) and the whole points-to solution is invariant under the
/// permutation that swaps corresponding sites: swapped cells, globals,
/// locals, and the escaping/thread-private masks all map onto each
/// other. This is the heap leg of the symmetry-inference discipline
/// (analysis/SymmetryInfer.cpp): if the solution cannot tell the two
/// contexts' heaps apart, neither can any consumer of the facts.
bool siteGraphsIsomorphic(const PointsToResult &R, unsigned CtxA,
                          unsigned CtxB);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_POINTSTO_H
