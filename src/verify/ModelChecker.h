//===- verify/ModelChecker.h - Explicit-state model checking ----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification procedure of the CEGIS loop: an explicit-state model
/// checker over all thread interleavings of one candidate, standing in for
/// the paper's use of SPIN [13]. It checks the same properties PSKETCH
/// delegates to its verifier: programmer assertions, implicit memory
/// safety, bounded termination (loop-bound asserts injected by the
/// flattener), and deadlock freedom; and it produces exactly what the
/// synthesizer needs — a bounded counterexample trace.
///
/// Two standard engineering devices (both ablatable, see DESIGN.md):
///  * a random-schedule falsifier runs first, because most bad candidates
///    die on one of a handful of cheap random schedules;
///  * a partial-order reduction (CheckerConfig::Por, docs/POR.md) prunes
///    interleavings that only reorder commuting steps: PorMode::Local
///    runs thread-local steps without a scheduling choice, PorMode::Ample
///    (the default) additionally expands a single thread alone wherever
///    its next step's static footprint (exec/Footprint.h) is independent
///    of everything the other threads may still do, with sleep sets
///    layered on in the sequential DFS.
///
/// verify/Oracle.h holds the deliberately naive reference search that the
/// agreement tests hold this checker to.
///
/// The checker is optionally multi-threaded (CheckerConfig::NumThreads):
/// per-worker DFS over disjoint frontier subtrees with work-stealing, a
/// sharded concurrent seen-state table, and cooperative cancellation on
/// the first violation (docs/PARALLEL.md describes the design).
///
/// Reproducibility contract
/// ------------------------
///  * NumThreads == 1 is deterministic single-threaded search with ONE
///    falsifier stream seeded directly from CheckerConfig::Seed. Verdict,
///    counterexample, and state counts depend only on the candidate and
///    the config. Por == Local reproduces the pre-ample engine bit for
///    bit; under Por == Ample an exhaustive-phase violation is (with
///    DeterministicCex, the default) re-derived by a Local-mode search,
///    so the reported counterexample is the same canonical trace Local
///    mode reports — only the state counts differ.
///  * NumThreads >= 2 (or 0 = hardware concurrency): verdict and
///    counterexample depend only on (Seed, RandomRuns, Por,
///    DeterministicCex) — NOT on the worker count or on OS scheduling.
///    Falsifier run r always draws from an independent SplitMix64 stream
///    derived from (Seed, r), so which worker executes which run is
///    irrelevant; the reported counterexample is the one with the
///    smallest failing run index. A violation found by the exhaustive
///    phase is (under DeterministicCex, the default) re-derived by a
///    deterministic sequential search — in Local mode when Por is Ample,
///    since ample-mode traces are artifacts of the reduced graph —
///    yielding the canonical minimal trace: the same trace for 1, 2, and
///    64 workers.
///    Exception: runs that hit MaxStates (Result.Exhausted) explored a
///    timing-dependent subset of the space, so their "Ok up to the
///    budget" verdict carries the same caveat the budget itself does.
///    StatesExplored / StatesDeduped / Steals / PerWorkerStates are
///    scheduling-dependent statistics, never part of the verdict; under
///    Por == Ample with NumThreads >= 2 even StatesExplored at a fixed
///    worker count can vary across runs (the cycle-proviso probe races
///    against insertion), which is why the POR agreement gates compare
///    verdicts, never state counts.
///  * SymmetryMode::Orbit (the default) keeps every clause: search states
///    stay raw (only visited-table probe keys are canonicalized), so
///    every reported trace is a real execution, and a violation found
///    under an active symmetry is (with DeterministicCex) re-derived
///    with Symmetry == Off — symmetry pruning, like ample reduction, can
///    change which violation a search reaches first, and the
///    re-derivation restores the canonical trace. Verdicts agree with
///    Off by the automorphism argument in docs/SYMMETRY.md; state counts
///    shrink by up to the orbit size.
///  * VisitedMode::Fingerprint keeps both clauses, with one asterisk: if
///    two distinct states genuinely collide in 64 bits (probability
///    ~n^2/2^65, measurable via AuditFingerprints), which of the two the
///    parallel table admits first is timing-dependent, so the contract
///    holds "absent fingerprint collisions". Collisions can only hide
///    states — never fabricate a counterexample (docs/PARALLEL.md §5).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_MODELCHECKER_H
#define PSKETCH_VERIFY_MODELCHECKER_H

#include "exec/Machine.h"
#include "verify/Trace.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace psketch {
namespace verify {

/// What the visited table stores per state (docs/PARALLEL.md §5).
///  * Exact: the full scheduler-relevant state key (Machine::encodeState)
///    — today's semantics, byte-for-byte dedup.
///  * Fingerprint: an 8-byte SplitMix-mixed hash of the same key (SPIN-
///    lineage hash compaction). Orders of magnitude less memory per
///    state; the trade is a ~n^2/2^65 chance that two distinct states
///    collide, in which case one subtree is wrongly deduped — a missed
///    state is possible, a spurious counterexample is not (every reported
///    trace is a real execution). CheckerConfig::AuditFingerprints
///    measures exactly this risk at runtime.
enum class VisitedMode : uint8_t { Exact, Fingerprint };

/// Partial-order reduction mode (docs/POR.md). Verdicts agree across all
/// three modes by construction; state counts and (without
/// DeterministicCex) traces differ.
///  * Off: every ready context branches at every state — the unreduced
///    interleaving graph.
///  * Local: steps that touch only thread-local state (or whose dynamic
///    guard is false) run without a scheduling choice
///    (Machine::nextStepIsLocal). This is the pre-ample behaviour.
///  * Ample (default): Local, plus SPIN-class ample sets — a state whose
///    some ready context's next step is statically independent of every
///    other thread's remaining steps (Machine::singletonIndependent)
///    expands that context alone, guarded by a per-engine cycle proviso;
///    the sequential DFS additionally prunes commuting re-expansions via
///    sleep sets.
/// Migration note: this enum replaces the old `bool UsePOR` — `false`
/// maps to Off, `true` to Local.
enum class PorMode : uint8_t { Off, Local, Ample };

/// Symmetry reduction (docs/SYMMETRY.md). Orthogonal to and composable
/// with PorMode: POR prunes interleavings, symmetry prunes states.
///  * Off: every state is its own visited-table key.
///  * Orbit (default): the checker runs the static symmetry inference
///    (analysis/SymmetryInfer.h) on the candidate; when it proves a
///    non-trivial thread orbit, every visited-table probe keys on the
///    lexicographically minimal image of the state under the accepted
///    automorphisms (verify/Canon.h), so states differing only by a
///    symmetric-thread permutation collapse to one representative. When
///    the inference refuses (asymmetric candidate, heap-owning bodies,
///    > 8 threads), Orbit behaves exactly like Off.
enum class SymmetryMode : uint8_t { Off, Orbit };

/// Where the visited set lives (docs/SPILL.md).
///  * Memory (default): today's purely in-RAM tables. When
///    CheckerConfig::VisitedBudgetBytes is nonzero it acts as an abort
///    watermark: crossing it ends the search with Exhausted (and
///    CheckResult::BudgetAborted), exactly like MaxStates.
///  * Spill: a two-tier store. The in-RAM tables are bounded by
///    VisitedBudgetBytes as an EVICTION watermark: crossing it migrates
///    fully-explored fingerprints (stored sleep mask 0 — a disk hit is
///    always a sound Prune) to sharded, log-structured, mmap'd runs of
///    sorted 8-byte fingerprints under SpillDir, each shard fronted by
///    an in-memory tag filter with no false negatives. Probes go filter
///    → in-RAM tier → binary search over the runs. Spilled entries are
///    fingerprint-grade even when the in-RAM tier is Exact (key bytes are
///    dropped on eviction — the VisitedMode::Fingerprint one-sided-error
///    trade applied to the cold set only; collisions can hide states,
///    never fabricate a trace).
///    I/O failure is never fatal: the store stops evicting and the
///    search continues in RAM (CheckResult::SpillFallback).
enum class VisitedStore : uint8_t { Memory, Spill };

/// Tuning knobs for the checker.
struct CheckerConfig {
  bool UseRandomFalsifier = true; ///< try random schedules before DFS
  unsigned RandomRuns = 64;       ///< how many random schedules
  PorMode Por = PorMode::Ample;   ///< partial-order reduction (see enum)
  /// Symmetry reduction (see the SymmetryMode doc). Defaults to Orbit:
  /// canonicalization engages automatically whenever the inference
  /// proves a non-trivial orbit for the candidate, and is a no-op
  /// otherwise.
  SymmetryMode Symmetry = SymmetryMode::Orbit;
  uint64_t MaxStates = 4000000;   ///< exploration safety net
  uint64_t Seed = 1;              ///< random falsifier seed
  /// Checker workers: 1 = exact legacy single-threaded behaviour,
  /// 0 = hardware concurrency, N = that many workers.
  unsigned NumThreads = 1;
  /// When true (default) a violation found by the exhaustive phase is
  /// re-derived by a deterministic sequential search so the reported
  /// counterexample is the canonical minimal trace regardless of worker
  /// timing — and, under Por == Ample, regardless of the reduction: the
  /// re-derivation runs in Local mode, so Ample reports the same trace
  /// Local would (see the reproducibility contract above and docs/POR.md).
  /// When false the first trace the search found is reported — faster on
  /// failing candidates, but parallel traces may vary across runs and
  /// ample traces are artifacts of the reduced graph. With NumThreads ==
  /// 1 this only matters for Por == Ample (Off/Local sequential searches
  /// are already canonical).
  bool DeterministicCex = true;
  /// Visited-table representation: Exact (default, full keys) or
  /// Fingerprint (8-byte hashes; see the VisitedMode doc).
  VisitedMode Visited = VisitedMode::Exact;
  /// Fingerprint mode only: on a fingerprint hit, compare the exact key
  /// against a bounded side-table of the keys behind that fingerprint.
  /// A mismatch is a genuine collision — it is counted in
  /// CheckResult::FingerprintCollisions and the state is explored anyway
  /// (the Exact fallback), so an audited run with zero collisions
  /// provably explored the same states Exact mode would have.
  bool AuditFingerprints = false;
  /// Cap on audit side-table entries (full keys kept for auditing);
  /// beyond it, new fingerprints go unaudited to bound memory.
  uint64_t AuditBudget = 1u << 20;
  /// Successor batch width: always 1 (one successor generated, hashed
  /// and probed at a time). Not a setting; it stays readable because
  /// reports print it in their configuration line.
  static constexpr unsigned BatchWidth = 1;
  /// Visited-store tier (see the VisitedStore doc): Memory (default)
  /// keeps every visited key in RAM; Spill evicts fully-explored
  /// fingerprints to sorted on-disk runs when VisitedBudgetBytes is
  /// crossed.
  VisitedStore Store = VisitedStore::Memory;
  /// Spill mode only: directory to create the run files under (a unique
  /// per-search subdirectory is created inside it and removed when the
  /// search ends). Empty = the system temp directory.
  std::string SpillDir;
  /// Byte budget for the in-RAM visited tier, measured by
  /// CheckResult::VisitedBytes accounting. 0 = unlimited. With Store ==
  /// Memory a nonzero budget is an abort watermark (Exhausted +
  /// BudgetAborted once crossed); with Store == Spill it is the eviction
  /// watermark that triggers spilling.
  uint64_t VisitedBudgetBytes = 0;
};

/// \returns the worker count \p Cfg resolves to: NumThreads, with 0
/// mapped to std::thread::hardware_concurrency() (at least 1).
unsigned resolvedNumThreads(const CheckerConfig &Cfg);

/// The checker's verdict.
struct CheckResult {
  bool Ok = false;        ///< no violation found
  bool Exhausted = false; ///< hit MaxStates: Ok means "up to the budget"
  std::optional<Counterexample> Cex;
  uint64_t StatesExplored = 0;
  uint64_t StatesDeduped = 0;
  uint64_t RandomRunsUsed = 0;
  unsigned WorkersUsed = 1; ///< resolved worker count of this run
  uint64_t Steals = 0;      ///< work-stealing operations (0 sequentially)
  /// Parallel runs: states explored per worker (the seeding pass counts
  /// toward worker 0). Empty for sequential runs.
  std::vector<uint64_t> PerWorkerStates;
  /// Fingerprint collisions detected by the audit (0 unless
  /// AuditFingerprints; always 0 in Exact mode).
  uint64_t FingerprintCollisions = 0;
  /// Bytes of visited-set memory owned by the in-RAM tier at the end of
  /// the run — key-arena chunk capacity, slot arrays' key bytes (8 per
  /// fingerprint), and the audit side-table — summed across search
  /// phases: the bench's RAM bytes/state numerator (add SpillBytes for
  /// the end-to-end figure). Excludes hash-table bucket overhead, which
  /// is proportional for both modes. Eviction (VisitedStore::Spill)
  /// shrinks it.
  uint64_t VisitedBytes = 0;
  /// Spill-tier observability (VisitedStore::Spill; all zero otherwise,
  /// see docs/SPILL.md). Fingerprints evicted to disk; live bytes in the
  /// on-disk runs; shard run-merge operations; probes the per-shard
  /// filter passed that the runs refuted (the filter's false-positive
  /// cost — one wasted binary search each, never a wrong answer).
  uint64_t SpilledStates = 0;
  uint64_t SpillBytes = 0;
  uint64_t RunMerges = 0;
  uint64_t FilterFalseHits = 0;
  /// Store == Memory with a nonzero VisitedBudgetBytes only: the search
  /// stopped because the in-RAM tier crossed the budget (Exhausted is
  /// also set — the verdict means "Ok up to the budget").
  bool BudgetAborted = false;
  /// Store == Spill only: the spill directory could not be created or a
  /// run write failed mid-stream, so some or all of the search ran
  /// purely in RAM (sound — nothing was lost; the budget stops evicting
  /// and is no longer enforced).
  bool SpillFallback = false;
  /// POR observability (PorMode::Ample; all zero otherwise). States with
  /// two or more ready contexts expanded through a singleton ample set /
  /// expanded in full (no independent candidate, or the cycle proviso
  /// fired) / transitions skipped by the sequential engine's sleep sets.
  uint64_t AmpleStates = 0;
  uint64_t FullExpansions = 0;
  uint64_t SleepSkips = 0;
  /// Symmetry observability (SymmetryMode::Orbit; all zero otherwise).
  /// Thread orbits the inference proved for this candidate (0 = the
  /// inference did not run; numThreads = it ran but refused everything);
  /// visited-table probes whose canonical key came from a non-identity
  /// automorphism; and the per-candidate setup cost in seconds
  /// (inference plus permutation-table compilation — probes themselves
  /// are not timed).
  unsigned SymmetryOrbits = 0;
  uint64_t CanonHits = 0;
  double CanonTime = 0;
  /// Analysis-tuning observability, stamped from the Machine (zero when
  /// the Machine carries no analysis facts). Bits the packed visited-key
  /// layout sheds per state; cross-thread step pairs the protectedBy
  /// channel newly classifies independent; states whose value escaped its
  /// proven interval at encode time (an analysis bug indicator — the
  /// state fell back to the raw key, costing memory, never soundness).
  unsigned TightenedBits = 0;
  uint64_t LockIndepPairs = 0;
  uint64_t PackEscapes = 0;
};

/// Model-checks one candidate (a Machine is a program plus a hole
/// assignment).
CheckResult checkCandidate(const exec::Machine &M,
                           const CheckerConfig &Cfg = CheckerConfig());

} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_MODELCHECKER_H
