//===- tests/test_state_engine.cpp - fingerprinted state engine tests ------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The engine-equivalence guarantees under test:
//  * the undo-log DFS agrees with the reference oracle (verify/Oracle.h):
//    verdict always, and counterexample plus state counts exactly when
//    partial-order reduction is off;
//  * randomized step/undo sequences restore states bit-for-bit;
//  * Exact and Fingerprint visited modes agree on verdict and canonical
//    counterexample across worker counts (absent hash collisions);
//  * a forced fingerprint collision is detected by the audit, counted,
//    and neutralized by the Exact fallback.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "desugar/Flatten.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/Oracle.h"
#include "verify/Visited.h"

#include <gtest/gtest.h>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;

namespace {

/// Two threads increment a shared counter Count times each; Atomic selects
/// protected or racy increments. Epilogue asserts the exact total.
void buildCounter(Program &P, bool Atomic, int Count, int Expected) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    for (int I = 0; I < Count; ++I) {
      StmtRef Read = P.assign(P.locLocal(Tmp), P.global(X));
      StmtRef Write = P.assign(
          P.locGlobal(X), P.add(P.local(Tmp, Type::Int), P.constInt(1)));
      if (Atomic)
        Stmts.push_back(P.atomic(P.seq({Read, Write})));
      else {
        Stmts.push_back(Read);
        Stmts.push_back(Write);
      }
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(Expected)), "total"));
}

/// The lightest entry of one suite family (the suite orders light first).
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

} // namespace

//===----------------------------------------------------------------------===//
// Undo log: randomized round trips and copy semantics.
//===----------------------------------------------------------------------===//

TEST(StateEngine, RandomizedStepUndoRoundTrip) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  Rng R(0x57A7Eull);
  for (int Trial = 0; Trial < 25; ++Trial) {
    exec::State S = M.initialState();
    exec::UndoLog Log;
    S.attachLog(&Log);
    std::vector<exec::State> Snaps;
    std::vector<exec::UndoLog::Mark> Marks;
    for (int Step = 0; Step < 14; ++Step) {
      Snaps.push_back(S); // a copy; deliberately detached from the log
      Marks.push_back(Log.mark());
      unsigned Ctx = static_cast<unsigned>(R.below(M.numContexts()));
      exec::Violation V;
      M.execStep(S, Ctx, V); // any outcome: every mutation is logged
    }
    // Unwind: after reverting to mark I the state must equal snapshot I
    // bit for bit (and hence key for key).
    for (size_t I = Snaps.size(); I-- > 0;) {
      S.revertTo(Marks[I]);
      EXPECT_TRUE(S == Snaps[I]) << "trial " << Trial << " mark " << I;
      EXPECT_EQ(M.encodeState(S), M.encodeState(Snaps[I]));
      EXPECT_EQ(M.fingerprintState(S), M.fingerprintState(Snaps[I]));
    }
  }
}

TEST(StateEngine, CopiesDetachFromUndoLog) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S = M.initialState();
  exec::UndoLog Log;
  S.attachLog(&Log);
  exec::State Copy = S;
  exec::Violation V;
  M.execStep(Copy, 0, V); // the snapshot's mutations must not be logged
  EXPECT_EQ(Log.size(), 0u);
  M.execStep(S, 0, V);
  EXPECT_GT(Log.size(), 0u);
  size_t After = Log.size();
  exec::State Assigned;
  Assigned = S; // copy-assignment must also drop the log
  M.execStep(Assigned, 1, V);
  EXPECT_EQ(Log.size(), After);
}

//===----------------------------------------------------------------------===//
// Undo-log DFS vs the reference oracle.
//===----------------------------------------------------------------------===//

TEST(StateEngine, DfsMatchesOracle) {
  struct Scenario {
    bool Atomic;
    int Count;
    int Expected;
    PorMode Por;
  } Scenarios[] = {
      {true, 2, 4, PorMode::Off},     // clean run, POR off
      {false, 2, 4, PorMode::Off},    // racy failure, POR off
      {true, 2, 5, PorMode::Off},     // epilogue assertion failure, POR off
      {true, 2, 4, PorMode::Local},   // clean run, local POR
      {false, 2, 4, PorMode::Local},  // racy failure, local POR
      {true, 2, 5, PorMode::Local},   // epilogue assertion failure
      {true, 2, 4, PorMode::Ample},   // clean run, ample + sleep sets
      {false, 2, 4, PorMode::Ample},  // racy failure, ample + sleep sets
      {true, 2, 5, PorMode::Ample},   // epilogue failure, ample
  };
  for (const Scenario &Sc : Scenarios) {
    Program P;
    buildCounter(P, Sc.Atomic, Sc.Count, Sc.Expected);
    CheckerConfig Cfg;
    Cfg.UseRandomFalsifier = false; // isolate the exhaustive phase
    Cfg.Por = Sc.Por;
    Cfg.Symmetry = SymmetryMode::Off;
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {});
    CheckResult RD = checkCandidate(M, Cfg);
    CheckResult RO = checkOracle(M);
    std::string Tag = std::string("atomic=") + (Sc.Atomic ? "1" : "0") +
                      " expected=" + std::to_string(Sc.Expected) +
                      " por=" + std::to_string(static_cast<int>(Sc.Por));
    EXPECT_EQ(RD.Ok, RO.Ok) << Tag;
    EXPECT_FALSE(RD.Exhausted) << Tag;
    EXPECT_FALSE(RO.Exhausted) << Tag;
    if (Sc.Por != PorMode::Off)
      continue; // reduced searches visit fewer states and other traces
    EXPECT_EQ(RD.StatesExplored, RO.StatesExplored) << Tag;
    EXPECT_EQ(RD.StatesDeduped, RO.StatesDeduped) << Tag;
    expectSameCex(RD, RO, Tag);
  }
}

//===----------------------------------------------------------------------===//
// Exact vs Fingerprint agreement across the suite and worker counts.
//===----------------------------------------------------------------------===//

TEST(StateEngine, SuiteVerdictsAgreeAcrossVisitedModes) {
  const char *Families[] = {"queueE1", "queueDE1", "queueE2",  "queueDE2",
                            "barrier1", "barrier2", "fineset1", "fineset2",
                            "lazyset",  "dinphilo"};
  Rng R(0xF1D0ull);
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
        CheckerConfig Exact;
        Exact.MaxStates = 300000; // bound the test's runtime
        Exact.NumThreads = W;
        CheckerConfig Fp = Exact;
        Fp.Visited = VisitedMode::Fingerprint;
        Fp.AuditFingerprints = true;
        CheckResult RE = checkCandidate(M, Exact);
        CheckResult RF = checkCandidate(M, Fp);
        if (RE.Exhausted || RF.Exhausted)
          continue; // budget-capped verdicts carry no agreement promise
        std::string Tag = std::string(Family) + " candidate " +
                          std::to_string(CI) + " W=" + std::to_string(W);
        EXPECT_EQ(RF.Ok, RE.Ok) << Tag;
        // 64-bit fingerprints over <= 300k states: a genuine collision
        // here is ~1e-8 — the audit doubles as the proof it didn't fire.
        EXPECT_EQ(RF.FingerprintCollisions, 0u) << Tag;
        // Same seed and worker count: the falsifier stream is identical,
        // an exhaustive-phase trace is canonical in both modes.
        expectSameCex(RF, RE, Tag);
      }
    }
  }
}

TEST(StateEngine, FingerprintShrinksVisitedBytes) {
  Program PE, PF;
  buildCounter(PE, /*Atomic=*/false, 3, 6); // racy: big state space
  buildCounter(PF, /*Atomic=*/false, 3, 6);
  CheckerConfig Exact;
  Exact.UseRandomFalsifier = false;
  CheckerConfig Fp = Exact;
  Fp.Visited = VisitedMode::Fingerprint;
  flat::FlatProgram FE = flat::flatten(PE);
  flat::FlatProgram FF = flat::flatten(PF);
  exec::Machine ME(FE, {});
  exec::Machine MF(FF, {});
  CheckResult RE = checkCandidate(ME, Exact);
  CheckResult RF = checkCandidate(MF, Fp);
  EXPECT_EQ(RE.Ok, RF.Ok);
  EXPECT_EQ(RE.StatesExplored, RF.StatesExplored);
  ASSERT_GT(RE.StatesExplored, 0u);
  // Fingerprints own exactly 8 bytes per resident state. Exact owns at
  // least schedWords * 8 key bytes per state, plus the slot array, the
  // mask array and the arena's chunk pointers, which a small constant
  // factor bounds. Unwritten chunk tails are not charged.
  EXPECT_EQ(RF.VisitedBytes, 8 * RF.StatesExplored);
  uint64_t ExactKeyBytes = uint64_t{ME.schedWords()} * 8 * RE.StatesExplored;
  EXPECT_GE(RE.VisitedBytes, ExactKeyBytes);
  EXPECT_LE(RE.VisitedBytes, 8 * ExactKeyBytes + (1u << 20));
  EXPECT_LE(2 * RF.VisitedBytes, RE.VisitedBytes);
}

//===----------------------------------------------------------------------===//
// Forced collisions: the audit counter and the Exact fallback.
//===----------------------------------------------------------------------===//

namespace {

/// A degenerate fingerprint: every state collides with every other.
uint64_t collideEverything(const int64_t *, size_t) { return 0x1234; }

} // namespace

TEST(StateEngine, ForcedCollisionAuditCountsAndFallsBack) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S0 = M.initialState();
  exec::State S1 = S0;
  exec::Violation V;
  ASSERT_EQ(M.execStep(S1, 0, V).Result, exec::StepResult::Ok);
  ASSERT_NE(M.encodeState(S0), M.encodeState(S1));

  CheckerConfig Cfg;
  Cfg.Visited = VisitedMode::Fingerprint;
  Cfg.AuditFingerprints = true;
  detail::VisitedTable T(Cfg, &collideEverything);
  EXPECT_TRUE(T.insert(M, S0));
  EXPECT_EQ(T.collisions(), 0u);
  // Different bytes behind the same fingerprint: the audit detects the
  // collision, counts it, and reports "new" — the state gets explored.
  EXPECT_TRUE(T.insert(M, S1));
  EXPECT_EQ(T.collisions(), 1u);
  // Genuine revisits of either state still dedup.
  EXPECT_FALSE(T.insert(M, S0));
  EXPECT_FALSE(T.insert(M, S1));
  EXPECT_EQ(T.collisions(), 1u);
}

TEST(StateEngine, UnauditedCollisionMergesStates) {
  // The documented under-approximation: without the audit, a collision
  // silently merges two distinct states (one subtree goes unexplored).
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S0 = M.initialState();
  exec::State S1 = S0;
  exec::Violation V;
  ASSERT_EQ(M.execStep(S1, 0, V).Result, exec::StepResult::Ok);

  CheckerConfig Cfg;
  Cfg.Visited = VisitedMode::Fingerprint;
  detail::VisitedTable T(Cfg, &collideEverything);
  EXPECT_TRUE(T.insert(M, S0));
  EXPECT_FALSE(T.insert(M, S1)); // distinct state reported as seen
  EXPECT_EQ(T.collisions(), 0u); // and nobody noticed
}

TEST(StateEngine, ShardedTableAuditMatchesSequentialTable) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S0 = M.initialState();
  exec::State S1 = S0;
  exec::Violation V;
  ASSERT_EQ(M.execStep(S1, 0, V).Result, exec::StepResult::Ok);

  CheckerConfig Cfg;
  Cfg.Visited = VisitedMode::Fingerprint;
  Cfg.AuditFingerprints = true;
  detail::ShardedVisited T(Cfg, &collideEverything);
  EXPECT_TRUE(T.insert(M, S0));
  EXPECT_TRUE(T.insert(M, S1));
  EXPECT_EQ(T.collisions(), 1u);
  EXPECT_FALSE(T.insert(M, S0));
  EXPECT_FALSE(T.insert(M, S1));
  EXPECT_EQ(T.collisions(), 1u);
}
