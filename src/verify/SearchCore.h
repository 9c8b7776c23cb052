//===- verify/SearchCore.h - Shared search step semantics -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the step-level semantics shared by the sequential
/// checker (ModelChecker.cpp), the parallel work-stealing engine
/// (ParallelChecker.cpp) and the reference oracle (Oracle.cpp) — thread
/// readiness, the POR local-step chain, frontier classification,
/// epilogue checking, and one random-schedule falsifier run. Keeping
/// these in one place is what guarantees the engines can never disagree
/// about what a schedule does.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_SEARCHCORE_H
#define PSKETCH_VERIFY_SEARCHCORE_H

#include "support/Rng.h"
#include "verify/ModelChecker.h"

#include <cassert>
#include <vector>

namespace psketch {
namespace verify {
namespace detail {

/// Thread readiness at a state.
enum class Readiness : uint8_t { Finished, Ready, Blocked, WaitViolation };

inline Readiness readiness(const exec::Machine &M, exec::State &S,
                           unsigned Ctx, exec::Violation &V) {
  uint32_t Pc = M.normalizePc(S, Ctx);
  const flat::FlatBody &B = M.bodyOf(Ctx);
  if (Pc >= B.Steps.size())
    return Readiness::Finished;
  const flat::Step &St = B.Steps[Pc];
  if (St.DynGuard) {
    int64_t Guard = M.eval(S, Ctx, St.DynGuard, V);
    if (V.isViolation())
      return Readiness::WaitViolation;
    if (Guard == 0)
      return Readiness::Ready; // dynamic no-op: always runnable
  }
  if (St.WaitCond) {
    int64_t Wait = M.eval(S, Ctx, St.WaitCond, V);
    if (V.isViolation())
      return Readiness::WaitViolation;
    if (Wait == 0)
      return Readiness::Blocked;
  }
  return Readiness::Ready;
}

/// Runs every pending thread-local step (the Local layer of the POR;
/// no-op under PorMode::Off). \returns false and fills \p Cex on a
/// violation inside a local step.
inline bool advanceLocal(const exec::Machine &M, PorMode Por, exec::State &S,
                         std::vector<TraceStep> &Path, Counterexample &Cex) {
  if (Por == PorMode::Off)
    return true;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
      while (M.nextStepIsLocal(S, Ctx)) {
        exec::Violation V;
        exec::ExecOutcome Out = M.execStep(S, Ctx, V);
        if (Out.Result == exec::StepResult::Violated) {
          Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
          Cex.Steps = Path;
          Cex.V = V;
          Cex.Where = Counterexample::Phase::Parallel;
          return false;
        }
        assert(Out.Result == exec::StepResult::Ok && "local step must run");
        Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
        Progress = true;
      }
    }
  }
  return true;
}

/// Classifies all threads. Fills \p ReadyOut, \p BlockedOut. \returns
/// false and fills \p Cex if evaluating some wait condition violates
/// memory safety.
inline bool classifyAll(const exec::Machine &M, exec::State &S,
                        std::vector<unsigned> &ReadyOut,
                        std::vector<TraceStep> &BlockedOut,
                        const std::vector<TraceStep> &Path,
                        Counterexample &Cex) {
  ReadyOut.clear();
  BlockedOut.clear();
  for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
    exec::Violation V;
    switch (readiness(M, S, Ctx, V)) {
    case Readiness::Finished:
      break;
    case Readiness::Ready:
      ReadyOut.push_back(Ctx);
      break;
    case Readiness::Blocked:
      BlockedOut.push_back(TraceStep{Ctx, S.pc(Ctx)});
      break;
    case Readiness::WaitViolation:
      Cex.Steps = Path;
      Cex.Steps.push_back(TraceStep{Ctx, S.pc(Ctx)});
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
  }
  return true;
}

/// Checks the epilogue from a fully-finished parallel state. \returns
/// true if the run is clean.
inline bool checkEpilogue(const exec::Machine &M, const exec::State &S,
                          const std::vector<TraceStep> &Path,
                          Counterexample &Cex) {
  exec::State Copy = S;
  exec::Violation V;
  if (M.runToCompletion(Copy, M.epilogueCtx(), V))
    return true;
  Cex.Steps = Path;
  Cex.V = V;
  Cex.Where = Counterexample::Phase::Epilogue;
  return false;
}

/// One random schedule from \p Start. \returns true if it completed
/// cleanly; otherwise fills \p Cex. The ample reduction never applies
/// here (a single schedule explores no alternatives), so Local and Ample
/// falsifier runs are identical.
inline bool randomRun(const exec::Machine &M, PorMode Por,
                      const exec::State &Start, Rng &R, Counterexample &Cex) {
  exec::State S = Start;
  std::vector<TraceStep> Path;
  std::vector<unsigned> Ready;
  std::vector<TraceStep> Blocked;
  for (;;) {
    if (!advanceLocal(M, Por, S, Path, Cex))
      return false;
    if (!classifyAll(M, S, Ready, Blocked, Path, Cex))
      return false;
    if (Ready.empty()) {
      if (Blocked.empty())
        return checkEpilogue(M, S, Path, Cex);
      // All live threads blocked: deadlock.
      Cex.Steps = Path;
      Cex.V.VKind = exec::Violation::Kind::Deadlock;
      Cex.V.Label = "deadlock: all live threads blocked";
      Cex.Where = Counterexample::Phase::Parallel;
      Cex.DeadlockSet = Blocked;
      return false;
    }
    unsigned Ctx = Ready[R.below(Ready.size())];
    exec::Violation V;
    exec::ExecOutcome Out = M.execStep(S, Ctx, V);
    if (Out.Result == exec::StepResult::Violated) {
      Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      Cex.Steps = Path;
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Out.Result == exec::StepResult::Ok && "ready thread must step");
    Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
  }
}

//===----------------------------------------------------------------------===//
// Ample-set selection and sleep sets (PorMode::Ample; docs/POR.md).
// Shared by both engines so the sequential DFS and the parallel checker
// make the same reduction decisions at the same states.
//===----------------------------------------------------------------------===//

/// Picks a singleton ample set at a state with \p Ready contexts (pcs
/// normalized): the first ready context whose next step is independent
/// of every other thread's remaining steps. Such a singleton satisfies
/// C0 (nonempty subset of the enabled set) and C1 (no dependent action
/// can fire before it — the persistent-set argument, docs/POR.md); the
/// caller enforces the C2 cycle proviso. A pure function of the state,
/// so every engine reduces identically. \returns the index into \p
/// Ready, or -1 when no singleton qualifies or fewer than two contexts
/// are ready (full expansion — reducing a single-choice state would
/// change nothing and only complicate the proviso bookkeeping).
inline int selectAmple(const exec::Machine &M, exec::State &S,
                       const std::vector<unsigned> &Ready) {
  if (Ready.size() < 2)
    return -1;
  for (size_t I = 0; I < Ready.size(); ++I)
    if (M.singletonIndependent(S, Ready[I]))
      return static_cast<int>(I);
  return -1;
}

/// Sleep sets are per-thread bit masks; the sequential engine disables
/// them beyond 64 threads (far past anything the suite models).
constexpr unsigned MaxSleepThreads = 64;

/// Builds the sleep mask a child inherits after executing \p Ctx's step
/// at \p Pc: of the contexts slept or already branched at the parent
/// (\p Prior), those whose pending step commutes with the executed one
/// stay asleep — their step still leads into an already-covered
/// subtree; a dependent step is woken. \p S is the parent state (pcs
/// normalized; \p Ctx's own pc having advanced is harmless — it is
/// excluded anyway, its pending transition changed).
inline uint64_t sleepAfter(const exec::Machine &M, const exec::State &S,
                           unsigned Ctx, uint32_t Pc, uint64_t Prior) {
  uint64_t Out = 0;
  for (unsigned U = 0; U < M.numThreads() && U < MaxSleepThreads; ++U) {
    if (U == Ctx || !(Prior & (1ull << U)))
      continue;
    if (M.commutes(Ctx, Pc, U, S.pc(U)))
      Out |= 1ull << U;
  }
  return Out;
}

/// Derives an independent SplitMix64 stream seed for falsifier run (or
/// worker) \p StreamIndex of a checker seeded with \p Seed. One extra
/// mixing round decorrelates adjacent indices.
inline uint64_t deriveStreamSeed(uint64_t Seed, uint64_t StreamIndex) {
  uint64_t Z = Seed + (StreamIndex + 1) * 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// The canonical "smaller counterexample" order used when several are
/// found before cancellation: shorter trace first, then lexicographic on
/// the (thread, pc) step sequence — a total order independent of which
/// worker found which trace.
inline bool cexLess(const Counterexample &A, const Counterexample &B) {
  if (A.Steps.size() != B.Steps.size())
    return A.Steps.size() < B.Steps.size();
  for (size_t I = 0; I < A.Steps.size(); ++I) {
    if (A.Steps[I].Thread != B.Steps[I].Thread)
      return A.Steps[I].Thread < B.Steps[I].Thread;
    if (A.Steps[I].Pc != B.Steps[I].Pc)
      return A.Steps[I].Pc < B.Steps[I].Pc;
  }
  return false;
}

/// The parallel work-stealing engine (ParallelChecker.cpp). \p Workers
/// must be >= 2; the sequential engine handles 1.
CheckResult checkCandidateParallel(const exec::Machine &M,
                                   const CheckerConfig &Cfg,
                                   unsigned Workers);

/// The sequential engine (ModelChecker.cpp), exposed so the parallel
/// engine can re-derive a deterministic canonical counterexample after
/// its verdict phase. \p UseFalsifier overrides Cfg.UseRandomFalsifier.
CheckResult checkCandidateSequential(const exec::Machine &M,
                                     const CheckerConfig &Cfg,
                                     bool UseFalsifier);

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_SEARCHCORE_H
