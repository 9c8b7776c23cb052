//===- exec/Machine.h - Concrete execution of flat programs -----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete small-step machine over a flat program and one candidate
/// (hole assignment). The model checker drives it across interleavings;
/// the random-schedule falsifier and the test oracles drive it along fixed
/// schedules. Its semantics — wrapped W-bit arithmetic, bounded node pool,
/// implicit memory-safety checks, conditional atomics as the only blocking
/// primitive — are the exact semantics the symbolic trace encoder models,
/// so the verifier and the inductive synthesizer can never disagree about
/// what a trace does.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_EXEC_MACHINE_H
#define PSKETCH_EXEC_MACHINE_H

#include "desugar/Flat.h"
#include "exec/Footprint.h"
#include "exec/StateVec.h"
#include "exec/Tuning.h"
#include "ir/HoleAssignment.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psketch {
namespace exec {

/// Why an execution failed.
struct Violation {
  enum class Kind : uint8_t {
    None,
    AssertFail,   ///< a programmer/spec assert evaluated false
    MemUnsafe,    ///< null/invalid pointer deref or array index
    PoolExhausted,///< allocation beyond the node pool
    Deadlock,     ///< all live threads blocked on conditional atomics
    LoopBound,    ///< (reported as AssertFail by the interpreter; reserved)
  };
  Kind VKind = Kind::None;
  std::string Label;

  bool isViolation() const { return VKind != Kind::None; }
};

/// Result of attempting one step of one context.
enum class StepResult : uint8_t {
  Ok,       ///< a step executed (possibly a dynamic no-op)
  Blocked,  ///< next step is a conditional atomic whose condition is false
  Finished, ///< the context has no steps left
  Violated, ///< the step (or its wait-condition evaluation) failed
};

/// The outcome of Machine::execStep.
struct ExecOutcome {
  StepResult Result = StepResult::Ok;
  uint32_t ExecutedPc = 0; ///< the step index that ran (when Result==Ok
                           ///< or the blocking/violating step otherwise)
};

/// Executes a flat program under a fixed candidate.
class Machine {
public:
  /// Context numbering: 0..N-1 are threads, N is the prologue, N+1 the
  /// epilogue.
  Machine(const flat::FlatProgram &FP, const ir::HoleAssignment &Holes);

  /// As above, additionally consuming analysis-proven facts about this
  /// candidate (exec/Tuning.h): must-hold locksets sharpen the footprint
  /// independence relation (the protectedBy channel) and value
  /// intervals pack the visited-set key into fewer bits. Both default to
  /// off; an empty/null tuning reproduces the plain constructor exactly.
  Machine(const flat::FlatProgram &FP, const ir::HoleAssignment &Holes,
          const MachineTuning &Tuning);

  unsigned numThreads() const {
    return static_cast<unsigned>(FP.Threads.size());
  }
  unsigned prologueCtx() const { return numThreads(); }
  unsigned epilogueCtx() const { return numThreads() + 1; }
  unsigned numContexts() const { return numThreads() + 2; }

  const flat::FlatBody &bodyOf(unsigned Ctx) const;
  const ir::HoleAssignment &holes() const { return Holes; }
  const flat::FlatProgram &program() const { return FP; }

  /// \returns the initial state: globals/locals at their declared inits,
  /// heap zeroed, nothing allocated, all PCs at zero.
  State initialState() const;

  /// Advances Ctx's PC past statically dead steps (dead under this
  /// candidate). \returns the PC of the next live step, or the body size.
  uint32_t normalizePc(State &S, unsigned Ctx) const;

  /// True when the context has no live steps left.
  bool isFinished(State &S, unsigned Ctx) const;

  /// True when the context's next live step only touches thread-local
  /// state (it commutes with every other context: the checker may run it
  /// without a scheduling choice).
  bool nextStepIsLocal(State &S, unsigned Ctx) const;

  /// Attempts one step of \p Ctx. On StepResult::Ok the state advanced; on
  /// Blocked/Finished it is unchanged; on Violated \p V describes the
  /// failure (the PC is left at the violating step).
  ExecOutcome execStep(State &S, unsigned Ctx, Violation &V) const;

  /// Runs a single-threaded context to completion. \returns false and
  /// fills \p V on violation (a conditional atomic blocking in a
  /// single-threaded phase is reported as a deadlock).
  bool runToCompletion(State &S, unsigned Ctx, Violation &V) const;

  /// Evaluates \p E in context \p Ctx. On safety violation returns 0 and
  /// fills \p V.
  int64_t eval(const State &S, unsigned Ctx, ir::ExprRef E, Violation &V) const;

  /// Encodes the scheduler-relevant part of a state into a byte string
  /// (the model checker's Exact-mode visited-set key): the full 64-bit
  /// native-endian words of the layout's scheduler prefix, as one memcpy.
  /// Prologue and epilogue pc/locals are excluded: they cannot differ
  /// during the parallel phase.
  std::string encodeState(const State &S) const;

  /// 64-bit fingerprint of the same scheduler-relevant prefix
  /// encodeState keys (support/Hash.h): the Fingerprint-mode visited key.
  uint64_t fingerprintState(const State &S) const;

  /// encodeState / fingerprintState over an externally supplied word
  /// buffer of schedWords() words — the symmetry canonicalizer hands the
  /// visited tables a canonical image rather than the live state
  /// (verify/Canon.h), and these route its keys through the same paths.
  /// With a packed layout active (ValueBounds tuning) the key is the
  /// bit-packed rendering; a word outside its proven interval falls back
  /// to the raw key plus a marker byte (a length no packed key can have),
  /// so Exact-mode dedup stays injective even against a buggy analysis.
  std::string encodeWords(const int64_t *Words) const;
  uint64_t fingerprintWords(const int64_t *Words) const;

  /// encodeWords without materializing a std::string: the returned view
  /// holds the identical key bytes (packed rendering, escape marker and
  /// all) and stays valid until the next call on the same thread —
  /// unpacked keys view \p Words directly, packed ones a thread-local
  /// scratch. The visited tables probe by view, so revisits allocate
  /// nothing.
  std::string_view encodeWordsView(const int64_t *Words) const;

  /// fingerprintWords with an injected word-hash (the visited tables'
  /// pluggable hash; verify/Visited.h). Packs first when a packed layout
  /// is active, so Fingerprint mode hashes KeyWords <= schedWords() words.
  uint64_t fingerprintWordsWith(const int64_t *Words,
                                uint64_t (*Hash)(const int64_t *,
                                                 size_t)) const;

  /// The packed key layout (Enabled == false without ValueBounds tuning).
  const PackedLayout &packedLayout() const { return Packed; }

  /// Stack-buffer bound for packed keys/fingerprints; layouts needing
  /// more words than this stay unpacked.
  static constexpr unsigned MaxPackedWords = 64;

  /// Bits the packed layout sheds from the 64 * schedWords() raw key
  /// (0 when packing is off): the --stats TightenedBits counter.
  unsigned tightenedBits() const {
    return Packed.Enabled ? 64 * Layout.SchedWords - Packed.TotalBits : 0;
  }

  /// Encodings that found a word outside its proven interval and fell
  /// back to the raw key. Nonzero only under an unsound ValueBounds — the
  /// soundness tests assert this stays 0.
  uint64_t packEscapes() const {
    return PackEscapes.load(std::memory_order_relaxed);
  }

  /// Cross-thread step pairs that conflict on raw footprints but are
  /// independent under the protectedBy channel (0 without lock
  /// annotations): the --stats LockIndepPairs counter.
  uint64_t lockIndepPairs() const { return LockIndepPairs; }

  /// \returns the flat-state layout this machine's states share.
  const StateLayout &layout() const { return Layout; }

  /// Words in the scheduler-relevant prefix (the Exact key is 8x this).
  unsigned schedWords() const { return Layout.SchedWords; }

  /// \returns the slot offset of global \p Id (State::global index).
  unsigned globalOffset(unsigned Id) const { return GlobalOffsets[Id]; }

  /// \returns total flattened global slots.
  unsigned globalSlots() const { return NumGlobalSlots; }

  //===--------------------------------------------------------------------===//
  // Static footprints (exec/Footprint.h; the basis of the ample-set POR).
  //===--------------------------------------------------------------------===//

  /// Bits in the footprint universe: one per flattened global slot, one
  /// per heap field class (all pool cells of a field conflated), plus one
  /// for the allocation counter. Thread-private pc/locals are excluded.
  unsigned footprintBits() const { return FpBits; }

  /// The static read/write footprint of step \p Pc of context \p Ctx, a
  /// sound over-approximation under this candidate (recomputed per
  /// candidate, like DeadStep: holes select Choice alternatives and pin
  /// array indices). Dead steps and \p Pc past the body are empty.
  const Footprint &stepFootprint(unsigned Ctx, uint32_t Pc) const {
    uint32_t N = static_cast<uint32_t>(StepFp[Ctx].size() - 1);
    return StepFp[Ctx][Pc < N ? Pc : N];
  }

  /// Union of the step footprints of \p Ctx from \p Pc to the end of its
  /// body: everything the context may still touch.
  const Footprint &suffixFootprint(unsigned Ctx, uint32_t Pc) const {
    uint32_t N = static_cast<uint32_t>(SuffixFp[Ctx].size() - 1);
    return SuffixFp[Ctx][Pc < N ? Pc : N];
  }

  /// True when the two steps commute: neither's write set intersects the
  /// other's read or write set, so executing them in either order from
  /// any state yields the same state. Under lock annotations, conflicts
  /// protected by a common must-held lock are discounted: the two pcs can
  /// never be co-pending in a reachable state, so declaring them
  /// commuting is vacuous there and the sleep-set/ample arguments go
  /// through unchanged (docs/ANALYSIS.md).
  bool commutes(unsigned CtxA, uint32_t PcA, unsigned CtxB,
                uint32_t PcB) const {
    return !stepFootprint(CtxA, PcA)
                .conflictsWithUnprotected(stepFootprint(CtxB, PcB));
  }

  /// True when {Ctx's next step} is a valid singleton ample set at \p S
  /// so far as independence is concerned (C1): the step conflicts with no
  /// other thread's *remaining* steps, so no interleaving can enable a
  /// dependent action before it. Lock-protected conflicts are discounted:
  /// Ctx holds the common lock for as long as it stays at this pc, so the
  /// other thread cannot reach its conflicting (must-locked) access until
  /// the ample step fires. The caller layers the cycle proviso (C2) on
  /// top. PCs of \p S must be normalized (classifyAll has run).
  bool singletonIndependent(State &S, unsigned Ctx) const {
    const Footprint &Fp = stepFootprint(Ctx, normalizePc(S, Ctx));
    for (unsigned U = 0; U < numThreads(); ++U) {
      if (U == Ctx)
        continue;
      if (Fp.conflictsWithUnprotected(suffixFootprint(U, S.pc(U))))
        return false;
    }
    return true;
  }

private:
  const flat::FlatProgram &FP;
  const ir::Program &P;
  ir::HoleAssignment Holes;

  std::vector<unsigned> GlobalOffsets;
  unsigned NumGlobalSlots = 0;
  StateLayout Layout;
  std::vector<std::vector<char>> DeadStep; ///< per context, per pc

  /// Footprint universe size and the per-context tables. StepFp[Ctx] has
  /// one entry per step plus a trailing empty one (finished contexts);
  /// SuffixFp[Ctx][Pc] is the union of StepFp[Ctx][Pc..end].
  unsigned FpBits = 0;
  std::vector<std::vector<Footprint>> StepFp;
  std::vector<std::vector<Footprint>> SuffixFp;

  /// Packed-key layout (Enabled only under ValueBounds tuning) and the
  /// tuning observability counters. PackEscapes is mutated from const
  /// encode paths that run concurrently in the parallel checker.
  PackedLayout Packed;
  uint64_t LockIndepPairs = 0;
  mutable std::atomic<uint64_t> PackEscapes{0};

  void collectExprFootprint(ir::ExprRef E, Footprint &F) const;
  void collectLocFootprint(const ir::Loc &L, bool IsWrite,
                           Footprint &F) const;
  Footprint computeStepFootprint(unsigned Ctx, size_t Pc) const;
  void applyLockAnnotations(const LockAnnotations &Locks);
  void buildPackedLayout(const ValueBounds &Bounds);
  /// Packs the scheduler prefix into \p Out (KeyWords words, zeroed by
  /// the caller). \returns false when some word escapes its interval.
  bool packWords(const int64_t *Words, uint64_t *Out) const;

  const ir::Body &irBodyOf(unsigned Ctx) const;
  int64_t loadLoc(const State &S, unsigned Ctx, const ir::Loc &L,
                  Violation &V) const;
  void storeLoc(State &S, unsigned Ctx, const ir::Loc &L, int64_t Value,
                Violation &V) const;
  bool execOps(State &S, unsigned Ctx, const flat::Step &St,
               Violation &V) const;
};

} // namespace exec
} // namespace psketch

#endif // PSKETCH_EXEC_MACHINE_H
