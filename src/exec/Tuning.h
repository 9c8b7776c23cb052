//===- exec/Tuning.h - Analysis-derived machine tuning data -----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain-data facts the static analyzer (src/analysis) proves about one
/// candidate and the Machine consumes at construction time. Keeping these
/// as dumb structs in exec/ preserves the library layering: exec never
/// links analysis; the producer (analysis/AbsInt.h, analysis/Lockset.h)
/// fills them and the caller that owns both layers (cegis, bench, tests)
/// passes them down.
///
/// Soundness contracts the producer must honor (and the Machine assumes):
///
///  * LockAnnotations: MustEntry[Ctx][Pc] is a bitmask over LockSlots such
///    that in EVERY reachable concrete state where context Ctx is at pc
///    Pc, Ctx's thread holds each listed lock (the cell's value was
///    written != FreeValue by Ctx's acquire and only Ctx can release it).
///    Two steps whose conflicting accesses share a common must-held lock
///    can never be co-enabled, which is what licenses the protectedBy
///    independence channel (exec/Footprint.h, docs/ANALYSIS.md).
///
///  * ValueBounds: every value a reachable state can hold in the given
///    slot lies inside the interval. The Machine uses the bounds to pack
///    visited-set keys into fewer bits; an out-of-range value (an analysis
///    bug) is caught at encode time and falls back to the raw encoding,
///    so a wrong interval costs memory, never soundness.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_EXEC_TUNING_H
#define PSKETCH_EXEC_TUNING_H

#include <cstdint>
#include <vector>

namespace psketch {
namespace exec {

/// Per-candidate must-hold lockset annotations (analysis/Lockset.h).
struct LockAnnotations {
  /// Mask width of MustEntry: at most 32 lock cells carry annotations.
  static constexpr unsigned MaxLocks = 32;

  /// Flattened global slot of each proven lock cell (at most MaxLocks).
  std::vector<unsigned> LockSlots;
  /// The cell value that means "free" for each lock.
  std::vector<int64_t> FreeValues;
  /// MustEntry[Ctx][Pc]: bitmask over LockSlots indices that context Ctx
  /// provably holds whenever it is at pc Pc. Indexed per context with one
  /// entry per step plus a trailing end-of-body entry.
  std::vector<std::vector<uint32_t>> MustEntry;

  bool empty() const { return LockSlots.empty(); }
};

/// Per-candidate sound value intervals (analysis/AbsInt.h). Empty vectors
/// mean "no facts": the Machine keeps the raw 64-bit layout.
struct ValueBounds {
  struct Range {
    int64_t Lo = 0;
    int64_t Hi = 0;
  };
  std::vector<Range> GlobalSlots; ///< per flattened global slot
  std::vector<Range> HeapFields;  ///< per field class (all pool cells)
  std::vector<std::vector<Range>> Locals; ///< [ctx][local slot]

  bool empty() const { return GlobalSlots.empty(); }
};

/// Kept only so verdictbench/ compiles: it carries no facts and the
/// Machine never reads it.
struct HeapPartition {
  bool empty() const { return true; }
};

/// Optional analysis facts handed to the Machine constructor. Null
/// pointers (or empty structs) disable the corresponding tuning; the
/// pointees must outlive the constructor call only (the Machine copies
/// what it keeps).
struct MachineTuning {
  const LockAnnotations *Locks = nullptr;
  const ValueBounds *Bounds = nullptr;
  /// Kept only so verdictbench/ compiles; the Machine never reads it.
  const HeapPartition *Heap = nullptr;
};

} // namespace exec
} // namespace psketch

#endif // PSKETCH_EXEC_TUNING_H
