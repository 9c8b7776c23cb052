//===- analysis/Shape.h - Heap shape classification & lint ------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape layer on top of the allocation-site points-to analysis
/// (PointsTo.h): classifies every site's points-to graph, and derives the
/// lint findings of docs/ANALYSIS.md Pass 5:
///
///  * definite-null dereference — a FieldRead base / Field-write target
///    whose whole-space points-to set is exactly {null}: the access
///    faults (MemUnsafe) on every execution that reaches it;
///  * leaked sites — allocations that never become reachable from any
///    global, i.e. unreachable at quiescence (the pool never reclaims,
///    so an unpublished node is lost capacity);
///  * heap-field races — a (shared site, field) pair accessed by two or
///    more thread contexts with at least one write and an inconsistent
///    lock discipline (Eraser convention: quiet unless at least one
///    access site holds a qualified lock), extending the global-slot
///    RaceFinding of Lockset.h to the heap.
///
/// Everything here is whole-space: the facts hold for every hole
/// assignment, so the findings are candidate-independent lint.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_SHAPE_H
#define PSKETCH_ANALYSIS_SHAPE_H

#include "analysis/PointsTo.h"
#include "ir/Program.h"

#include <string>
#include <vector>

namespace psketch {
namespace analysis {

/// The classification of one allocation site's reachable points-to
/// subgraph. Escaping dominates (the site is reachable from a global, so
/// other contexts can mutate the graph under our feet); the remaining
/// three describe confined structures.
enum class ShapeKind {
  AcyclicList,   ///< acyclic, every reachable site has <= 1 successor
  Tree,          ///< acyclic, every reachable site has <= 1 predecessor
  PossiblyCyclic,///< a cycle or an unresolved (Top) cell in the subgraph
  Escaping,      ///< reachable from a global: shared once published
};

const char *shapeKindName(ShapeKind K);

/// One heap-field race: an escaping site's field with >= 2 accessing
/// thread contexts, >= 1 write, >= 1 access under a qualified lock, and
/// an empty must-lockset intersection over all access sites.
struct HeapRaceFinding {
  unsigned Site = 0;
  unsigned Field = 0;
  std::string SiteLabel; ///< the allocating step's label
  std::string FieldName;
  std::string Where; ///< first unprotected access site ("thread 1 'label'")
};

/// One guaranteed-fault dereference: the base points-to set is exactly
/// {null} under every hole assignment.
struct NullDerefFinding {
  unsigned Ctx = 0;
  std::string Where; ///< accessing step ("thread 0 'label'")
};

/// Everything the shape layer concluded.
struct ShapeResult {
  /// False when the underlying points-to refused (site overflow): no
  /// findings, no counters.
  bool Ran = false;

  /// The whole-space points-to solution the classification was read off.
  PointsToResult Pts;

  /// Per-site classification (parallel to Pts.Sites).
  std::vector<ShapeKind> SiteShapes;

  /// Sites never reachable from any global: lost capacity at quiescence.
  uint64_t LeakedSites = 0;

  std::vector<NullDerefFinding> NullDerefs;
  std::vector<HeapRaceFinding> HeapRaces;
};

/// Runs the whole-space points-to and classifies shapes + findings.
ShapeResult runShape(const ir::Program &P, const flat::FlatProgram &FP);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_SHAPE_H
