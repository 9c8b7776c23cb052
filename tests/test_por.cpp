//===- tests/test_por.cpp - ample-set POR and footprint tests --------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The reduction guarantees under test (docs/POR.md):
//  * static step footprints are sound over-approximations: every state
//    word a step actually writes (observed through the undo log) falls
//    inside its declared footprint, across randomized programs,
//    candidates, and schedules;
//  * commutes() reflects read/write conflicts, including hole-resolved
//    choices and statically-pinned array indices;
//  * PorMode::Ample agrees with Off and Local on every verdict and (for
//    the deterministic configurations) on the counterexample, across
//    worker counts, and preserves deadlocks;
//  * Ample actually reduces: fewer states than Local on a reducible
//    workload, with AmpleStates > 0, and the sequential engine's sleep
//    sets skip at least one transition on a conflict-then-commute
//    pattern (the reference oracle agreeing on the verdict);
//  * on tuned Machines (lock annotations) the POR relations
//    commutes / singletonIndependent equal their bitwise
//    footprint definitions for every cross-thread pc pair, clamped
//    beyond-range pcs included;
//  * a CEGIS run under Ample is trajectory-identical to Local (same
//    iterations, same final hole assignment) and verdict-identical to
//    Off.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "benchmarks/Suite.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;

namespace {

/// The lightest entry of one suite family.
std::optional<bench::SuiteEntry> lightestRow(const std::string &Family) {
  auto Entries = bench::paperSuite(Family);
  if (Entries.empty())
    return std::nullopt;
  size_t Best = 0;
  for (size_t I = 1; I < Entries.size(); ++I)
    if (Entries[I].CostClass < Entries[Best].CostClass)
      Best = I;
  return Entries[Best];
}

ir::HoleAssignment randomAssignment(const ir::Program &P, Rng &R) {
  ir::HoleAssignment A(P.holes().size(), 0);
  for (size_t H = 0; H < A.size(); ++H)
    A[H] = R.below(P.holes()[H].NumChoices);
  return A;
}

void expectSameCex(const CheckResult &A, const CheckResult &B,
                   const std::string &Tag) {
  ASSERT_EQ(A.Cex.has_value(), B.Cex.has_value()) << Tag;
  if (!A.Cex)
    return;
  ASSERT_EQ(A.Cex->Steps.size(), B.Cex->Steps.size()) << Tag;
  for (size_t I = 0; I < A.Cex->Steps.size(); ++I)
    EXPECT_TRUE(A.Cex->Steps[I] == B.Cex->Steps[I]) << Tag << " step " << I;
  EXPECT_EQ(A.Cex->V.Label, B.Cex->V.Label) << Tag;
}

/// Two threads, one statement each, assigning \p RhsOf(T) into \p LocOf(T).
template <typename LocFn, typename RhsFn>
void buildTwoThreads(Program &P, LocFn LocOf, RhsFn RhsOf) {
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    P.setRoot(BodyId::thread(Id), P.assign(LocOf(P, T), RhsOf(P, T)));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
}

} // namespace

//===----------------------------------------------------------------------===//
// Footprint unit tests: conflict detection on the step level.
//===----------------------------------------------------------------------===//

TEST(Footprint, DisjointGlobalWritesCommute) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  buildTwoThreads(
      P,
      [&](Program &P, int T) { return P.locGlobal(T == 0 ? A : B); },
      [&](Program &P, int) { return P.constInt(1); });
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  EXPECT_TRUE(M.commutes(0, 0, 1, 0));
  EXPECT_FALSE(M.stepFootprint(0, 0).empty());
}

TEST(Footprint, WriteWriteAndReadWriteConflict) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  // t0: a = 1 (writes a); t1: b = a (reads a, writes b).
  buildTwoThreads(
      P,
      [&](Program &P, int T) { return P.locGlobal(T == 0 ? A : B); },
      [&](Program &P, int T) {
        return T == 0 ? P.constInt(1) : P.global(A);
      });
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  EXPECT_FALSE(M.commutes(0, 0, 1, 0)); // write-a vs read-a
}

TEST(Footprint, ReadReadIsNotAConflict) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  // Both threads read a; they write distinct globals.
  buildTwoThreads(
      P,
      [&](Program &P, int T) { return P.locGlobal(T == 0 ? X : Y); },
      [&](Program &P, int) { return P.global(A); });
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  EXPECT_TRUE(M.commutes(0, 0, 1, 0));
}

TEST(Footprint, HoleResolvedArrayIndicesPin) {
  Program P;
  unsigned G = P.addGlobalArray("g", Type::Int, 2);
  unsigned H0 = 0, H1 = 0;
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    ExprRef Index = P.choose("slot", {P.constInt(0), P.constInt(1)});
    (T == 0 ? H0 : H1) = static_cast<unsigned>(P.holes().size() - 1);
    P.setRoot(BodyId::thread(Id),
              P.assign(P.locGlobalAt(G, Index), P.constInt(1)));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);

  ir::HoleAssignment Disjoint(P.holes().size(), 0);
  Disjoint[H0] = 0;
  Disjoint[H1] = 1;
  exec::Machine MDisjoint(FP, Disjoint);
  EXPECT_TRUE(MDisjoint.commutes(0, 0, 1, 0));

  ir::HoleAssignment Same(P.holes().size(), 0);
  Same[H0] = 0;
  Same[H1] = 0;
  exec::Machine MSame(FP, Same);
  EXPECT_FALSE(MSame.commutes(0, 0, 1, 0));

  // No assignment at all: the choice must be approximated by the union
  // of the alternatives, so the steps may overlap and must conflict.
  exec::Machine MUnassigned(FP, {});
  EXPECT_FALSE(MUnassigned.commutes(0, 0, 1, 0));
}

//===----------------------------------------------------------------------===//
// Footprint soundness: every word a step writes is declared. This is the
// bridge between the undo log (exec/StateVec.h) and the static
// footprints — the property the whole reduction's correctness leans on.
//===----------------------------------------------------------------------===//

TEST(Footprint, SoundOverRandomProgramsCandidatesAndSchedules) {
  const char *Families[] = {"queueE2", "barrier1", "fineset1", "lazyset",
                            "dinphilo"};
  Rng R(0xF007ull);
  for (const char *Family : Families) {
    auto E = lightestRow(Family);
    ASSERT_TRUE(E.has_value()) << Family;
    auto P = E->Build();
    flat::FlatProgram FP = flat::flatten(*P);
    const size_t NumFields = FP.Source->fields().size();

    std::vector<ir::HoleAssignment> Candidates;
    if (E->Reference)
      Candidates.push_back(E->Reference(*P));
    Candidates.push_back(randomAssignment(*P, R));
    Candidates.push_back(randomAssignment(*P, R));

    for (const ir::HoleAssignment &A : Candidates) {
      exec::Machine M(FP, A);
      const exec::StateLayout &L = M.layout();

      // Maps a written state word to "is it declared in footprint F of a
      // step executed by Ctx?" — thread-private words (pc + locals) are
      // deliberately outside the footprint universe but must then belong
      // to the stepping context itself.
      auto Declared = [&](const exec::Footprint &F, uint32_t W,
                          unsigned Ctx) {
        if (W >= L.GlobalsOff && W < L.HeapOff)
          return F.writes(W - L.GlobalsOff);
        if (W >= L.HeapOff && W < L.AllocOff)
          return NumFields > 0 &&
                 F.writes(M.globalSlots() +
                          static_cast<unsigned>((W - L.HeapOff) % NumFields));
        if (W == L.AllocOff)
          return F.writes(M.globalSlots() +
                          static_cast<unsigned>(NumFields));
        return W >= L.CtxOff[Ctx] &&
               W < L.CtxOff[Ctx] + 1 + L.LocalsCount[Ctx];
      };

      for (int Schedule = 0; Schedule < 6; ++Schedule) {
        exec::State S = M.initialState();
        exec::Violation V;
        if (!M.runToCompletion(S, M.prologueCtx(), V))
          break; // prologue violation: nothing parallel to observe
        exec::UndoLog Log;
        S.attachLog(&Log);
        for (int Step = 0; Step < 200; ++Step) {
          unsigned Ctx = static_cast<unsigned>(R.below(M.numThreads()));
          if (M.isFinished(S, Ctx))
            continue;
          exec::UndoLog::Mark Before = Log.mark();
          exec::ExecOutcome Out = M.execStep(S, Ctx, V);
          if (Out.Result != exec::StepResult::Ok)
            break;
          const exec::Footprint &F = M.stepFootprint(Ctx, Out.ExecutedPc);
          for (size_t I = Before; I < Log.entries().size(); ++I) {
            uint32_t W = Log.entries()[I].Word;
            EXPECT_TRUE(Declared(F, W, Ctx))
                << Family << " ctx " << Ctx << " pc " << Out.ExecutedPc
                << " wrote undeclared word " << W;
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// POR relations on analysis-tuned Machines.
//===----------------------------------------------------------------------===//

namespace {

/// A footprint spelled out bit by bit, for the reference relations below.
struct BitFootprint {
  std::vector<bool> Reads, Writes;
  std::vector<uint32_t> Prot; ///< per bit; all-ones when untouched
  bool HasProt = false;

  explicit BitFootprint(unsigned Bits)
      : Reads(Bits), Writes(Bits), Prot(Bits, ~0u) {}

  /// Folds in one step: reads and writes union, and a touched bit's
  /// protection narrows to the locks every access to it holds.
  void add(const exec::Footprint &F) {
    HasProt = HasProt || F.hasProtection();
    for (unsigned B = 0; B < Reads.size(); ++B) {
      if (!F.reads(B) && !F.writes(B))
        continue;
      Reads[B] = Reads[B] || F.reads(B);
      Writes[B] = Writes[B] || F.writes(B);
      Prot[B] &= F.protection(B);
    }
  }
};

/// docs/POR.md section 1: a write meeting a read or write conflicts,
/// unless both sides must-hold a common lock on that bit.
bool refConflict(const BitFootprint &A, const BitFootprint &B) {
  for (unsigned Bit = 0; Bit < A.Reads.size(); ++Bit) {
    bool Clash = (A.Writes[Bit] && (B.Reads[Bit] || B.Writes[Bit])) ||
                 (A.Reads[Bit] && B.Writes[Bit]);
    bool Protected =
        A.HasProt && B.HasProt && (A.Prot[Bit] & B.Prot[Bit]) != 0;
    if (Clash && !Protected)
      return true;
  }
  return false;
}

} // namespace

TEST(BatchRelations, TunedQueriesMatchFootprintDefinitions) {
  unsigned Locked = 0;
  for (const char *Family :
       {"queueE1", "queueE2", "queueDE1", "queueDE2", "barrier1", "barrier2",
        "fineset1", "fineset2", "lazyset", "dinphilo"}) {
    auto Row = lightestRow(Family);
    ASSERT_TRUE(Row.has_value()) << Family;
    auto P = Row->Build();
    ir::HoleAssignment Cand;
    if (Row->Reference) {
      Cand = Row->Reference(*P);
    } else {
      auto Q = Row->Build();
      cegis::ConcurrentCegis C(*Q);
      cegis::CegisResult R = C.run();
      ASSERT_TRUE(R.Stats.Resolvable) << Family;
      Cand = R.Candidate;
    }
    flat::FlatProgram FP = flat::flatten(*P);
    analysis::CandidateFacts Facts =
        analysis::analyzeCandidate(*P, FP, Cand);
    ASSERT_FALSE(Facts.Refuted) << Family;
    exec::MachineTuning Tuning;
    Tuning.Locks = &Facts.Locks;
    exec::Machine M(FP, Cand, Tuning);
    Locked += !Facts.Locks.empty();

    // Reference step and suffix footprints per thread, for every pc up to
    // two past the body: the extra pcs probe the clamp to the empty
    // end-of-body entry.
    const unsigned NT = M.numThreads(), Bits = M.footprintBits();
    std::vector<std::vector<BitFootprint>> Step(NT), Suffix(NT);
    std::vector<uint32_t> Probe(NT);
    for (unsigned T = 0; T < NT; ++T) {
      uint32_t Len = static_cast<uint32_t>(M.bodyOf(T).Steps.size());
      Probe[T] = Len + 2;
      Suffix[T].assign(Probe[T] + 1, BitFootprint(Bits));
      for (uint32_t Pc = 0; Pc < Probe[T]; ++Pc) {
        Step[T].emplace_back(Bits);
        Step[T].back().add(M.stepFootprint(T, Pc));
      }
      for (uint32_t Pc = Probe[T]; Pc-- > 0;) {
        Suffix[T][Pc] = Suffix[T][Pc + 1];
        if (Pc < Len)
          Suffix[T][Pc].add(M.stepFootprint(T, Pc));
      }
    }

    const uint32_t MaxProbe = *std::max_element(Probe.begin(), Probe.end());
    exec::State Init = M.initialState();
    for (unsigned A = 0; A < NT; ++A) {
      for (uint32_t Pa = 0; Pa < Probe[A]; ++Pa) {
        exec::State S = Init;
        for (unsigned U = 0; U < NT; ++U)
          S.setPc(U, Probe[U]); // everyone else finished
        S.setPc(A, Pa);
        uint32_t Na = M.normalizePc(S, A);
        for (unsigned B = 0; B < NT; ++B) {
          if (B == A)
            continue;
          for (uint32_t Pb = 0; Pb < Probe[B]; ++Pb) {
            ASSERT_EQ(M.commutes(A, Pa, B, Pb),
                      !refConflict(Step[A][Pa], Step[B][Pb]))
                << Family << " " << A << "@" << Pa << " vs " << B << "@"
                << Pb;
            S.setPc(B, Pb);
            ASSERT_EQ(M.singletonIndependent(S, A),
                      !refConflict(Step[A][Na], Suffix[B][Pb]))
                << Family << " " << A << "@" << Pa << " vs suffix " << B
                << "@" << Pb;
          }
          S.setPc(B, Probe[B]);
        }
        // Every other thread live at once: the fold over their suffixes.
        for (uint32_t K = 0; K < MaxProbe; ++K) {
          bool Want = true;
          for (unsigned U = 0; U < NT; ++U) {
            if (U == A)
              continue;
            uint32_t Pu = std::min(K, Probe[U]);
            S.setPc(U, Pu);
            Want = Want && !refConflict(Step[A][Na], Suffix[U][Pu]);
          }
          ASSERT_EQ(M.singletonIndependent(S, A), Want)
              << Family << " " << A << "@" << Pa << ", others at " << K;
        }
      }
    }
  }
  EXPECT_GT(Locked, 0u) << "no row exercised the lock-protection channel";
}

//===----------------------------------------------------------------------===//
// Ample-mode agreement, reduction, and the sleep-set layer.
//===----------------------------------------------------------------------===//

TEST(Por, SuiteVerdictsAgreeAcrossModesAndWorkers) {
  const char *Families[] = {"queueE1", "queueDE1", "barrier1", "fineset1",
                            "lazyset", "dinphilo"};
  Rng R(0xA3B1Eull);
  for (const char *Family : Families) {
    auto E = lightestRow(Family);
    ASSERT_TRUE(E.has_value()) << Family;
    auto P = E->Build();
    flat::FlatProgram FP = flat::flatten(*P);

    std::vector<ir::HoleAssignment> Candidates;
    if (E->Reference)
      Candidates.push_back(E->Reference(*P));
    Candidates.push_back(randomAssignment(*P, R));

    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      exec::Machine M(FP, Candidates[CI]);
      for (unsigned W : {1u, 2u, 4u}) {
        CheckerConfig Off;
        Off.MaxStates = 300000; // bound the test's runtime
        Off.NumThreads = W;
        Off.Por = PorMode::Off;
        CheckerConfig Local = Off;
        Local.Por = PorMode::Local;
        CheckerConfig Ample = Off;
        Ample.Por = PorMode::Ample;
        CheckResult RO = checkCandidate(M, Off);
        CheckResult RL = checkCandidate(M, Local);
        CheckResult RA = checkCandidate(M, Ample);
        if (RO.Exhausted || RL.Exhausted || RA.Exhausted)
          continue; // budget-capped verdicts carry no agreement promise
        std::string Tag = std::string(Family) + " candidate " +
                          std::to_string(CI) + " W=" + std::to_string(W);
        EXPECT_EQ(RA.Ok, RO.Ok) << Tag;
        EXPECT_EQ(RA.Ok, RL.Ok) << Tag;
        // Ample re-derives exhaustive-phase traces in Local mode and the
        // falsifier phase is identical under Local and Ample, so the two
        // modes report the same canonical counterexample at any worker
        // count. (Off-mode traces legitimately differ: its falsifier
        // draws differently because nothing is auto-advanced.)
        expectSameCex(RA, RL, Tag);
      }
    }
  }
}

TEST(Por, AmpleReducesStatesOnReducibleWorkload) {
  auto E = lightestRow("barrier1");
  ASSERT_TRUE(E.has_value());
  auto P = E->Build();
  ASSERT_TRUE(static_cast<bool>(E->Reference));
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, E->Reference(*P));

  CheckerConfig Local;
  Local.UseRandomFalsifier = false;
  Local.Por = PorMode::Local;
  CheckerConfig Ample = Local;
  Ample.Por = PorMode::Ample;
  CheckResult RL = checkCandidate(M, Local);
  CheckResult RA = checkCandidate(M, Ample);
  ASSERT_TRUE(RL.Ok);
  ASSERT_TRUE(RA.Ok);
  EXPECT_GT(RA.AmpleStates, 0u);
  EXPECT_LT(RA.StatesExplored, RL.StatesExplored);
  EXPECT_EQ(RL.AmpleStates, 0u); // the counters are Ample-only
}

TEST(Por, SleepSetsSkipTransitions) {
  // t0: a = 1; x = b.   t1: b = 1; y = a.
  // At the root each thread's first step conflicts with the other's
  // suffix (a and b are both written and later read), so no singleton
  // ample set exists and both threads branch; but the two first steps
  // commute with EACH OTHER, so after branching t0 the second branch
  // (t1 first) sleeps t0 — its interleaving is already covered.
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  {
    unsigned T0 = P.addThread("t0");
    P.setRoot(BodyId::thread(T0),
              P.seq({P.assign(P.locGlobal(A), P.constInt(1)),
                     P.assign(P.locGlobal(X), P.global(B))}));
    unsigned T1 = P.addThread("t1");
    P.setRoot(BodyId::thread(T1),
              P.seq({P.assign(P.locGlobal(B), P.constInt(1)),
                     P.assign(P.locGlobal(Y), P.global(A))}));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});

  CheckerConfig Ample;
  Ample.UseRandomFalsifier = false;
  Ample.Por = PorMode::Ample;
  CheckResult R = checkCandidate(M, Ample);
  EXPECT_TRUE(R.Ok);
  EXPECT_GT(R.SleepSkips, 0u);
  EXPECT_TRUE(checkOracle(M).Ok) << "the reference oracle must agree";
}

TEST(Por, DeadlockPreservedUnderAmple) {
  // Classic two-lock cyclic acquisition; the reduction must not hide the
  // deadlock (persistent sets preserve all deadlock states).
  Program P;
  unsigned L0 = P.addGlobal("lock0", Type::Int, -1);
  unsigned L1 = P.addGlobal("lock1", Type::Int, -1);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("phil");
    unsigned First = T == 0 ? L0 : L1;
    unsigned Second = T == 0 ? L1 : L0;
    ExprRef Pid = P.constInt(T);
    P.setRoot(
        BodyId::thread(Id),
        P.seq({P.lock(P.locGlobal(First), P.global(First), Pid),
               P.lock(P.locGlobal(Second), P.global(Second), Pid),
               P.unlock(P.locGlobal(Second), P.global(Second), Pid, "s"),
               P.unlock(P.locGlobal(First), P.global(First), Pid, "f")}));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  for (unsigned W : {1u, 2u}) {
    CheckerConfig Cfg;
    Cfg.UseRandomFalsifier = false;
    Cfg.Por = PorMode::Ample;
    Cfg.NumThreads = W;
    CheckResult R = checkCandidate(M, Cfg);
    ASSERT_FALSE(R.Ok) << "W=" << W;
    EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock) << "W=" << W;
  }
}

//===----------------------------------------------------------------------===//
// End to end: CEGIS trajectories.
//===----------------------------------------------------------------------===//

TEST(Por, CegisTrajectoryIdenticalToLocalAndVerdictToOff) {
  for (const char *Family : {"queueE1", "barrier1"}) {
    auto E = lightestRow(Family);
    ASSERT_TRUE(E.has_value()) << Family;

    auto RunWith = [&](PorMode Por) {
      auto P = E->Build();
      cegis::CegisConfig Cfg;
      Cfg.MaxIterations = 400;
      Cfg.Checker.Por = Por;
      cegis::ConcurrentCegis C(*P, Cfg);
      return C.run();
    };
    cegis::CegisResult RO = RunWith(PorMode::Off);
    cegis::CegisResult RL = RunWith(PorMode::Local);
    cegis::CegisResult RA = RunWith(PorMode::Ample);

    EXPECT_EQ(RA.Stats.Resolvable, RO.Stats.Resolvable) << Family;
    EXPECT_EQ(RA.Stats.Resolvable, RL.Stats.Resolvable) << Family;
    // Ample observations are constructed to equal Local's (identical
    // falsifier streams; exhaustive traces re-derived in Local mode), so
    // the whole synthesis trajectory — iteration count and final
    // assignment — must match exactly.
    EXPECT_EQ(RA.Stats.Iterations, RL.Stats.Iterations) << Family;
    ASSERT_EQ(RA.Candidate.size(), RL.Candidate.size()) << Family;
    for (size_t H = 0; H < RA.Candidate.size(); ++H)
      EXPECT_EQ(RA.Candidate[H], RL.Candidate[H]) << Family << " hole " << H;
    EXPECT_GT(RA.Stats.AmpleStates + RA.Stats.FullExpansions, 0u) << Family;
  }
}
