//===- tests/test_oracle.cpp - engine vs reference oracle ------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The guarantees under test, all against the naive reference oracle
// (verify/Oracle.h):
//  * with every reduction off (Por Off, Symmetry Off, Exact, falsifier
//    off, one worker) checkCandidate IS the oracle's search: same
//    verdict, byte-identical counterexample, same StatesExplored — on the
//    lightest row of every Figure-9 family, for its reference candidate
//    and for a broken one — and both report Exhausted at MaxStates;
//  * a randomized differential: seeded random candidates of every family,
//    checked under Por {Off, Local, Ample} x Symmetry {Off, Orbit} x
//    Visited {Exact, Fingerprint} x workers {1, 2} x falsifier {on, off},
//    always reach the oracle's verdict, and every counterexample replays
//    on the Machine to the violation it reports. The falsifier-off half is
//    what holds the reductions to account: with it on, nearly every
//    broken candidate dies on a random schedule before any reduction
//    runs, and a reduction that wrongly prunes can only hide bugs.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>

using namespace psketch;
using namespace psketch::verify;

namespace {

const char *const Families[] = {"queueE1",  "queueDE1", "queueE2",
                                "queueDE2", "barrier1", "barrier2",
                                "fineset1", "fineset2", "lazyset",
                                "dinphilo"};

/// The lightest entry of one suite family (by cost class).
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

/// Byte-identical counterexamples: steps, deadlock set, violation kind,
/// label and phase.
void expectSameCex(const CheckResult &A, const CheckResult &B,
                   const std::string &Tag) {
  ASSERT_EQ(A.Cex.has_value(), B.Cex.has_value()) << Tag;
  if (!A.Cex)
    return;
  const Counterexample &X = *A.Cex, &Y = *B.Cex;
  ASSERT_EQ(X.Steps.size(), Y.Steps.size()) << Tag;
  for (size_t I = 0; I < X.Steps.size(); ++I)
    EXPECT_TRUE(X.Steps[I] == Y.Steps[I]) << Tag << " step " << I;
  ASSERT_EQ(X.DeadlockSet.size(), Y.DeadlockSet.size()) << Tag;
  for (size_t I = 0; I < X.DeadlockSet.size(); ++I)
    EXPECT_TRUE(X.DeadlockSet[I] == Y.DeadlockSet[I]) << Tag << " blocked "
                                                      << I;
  EXPECT_EQ(X.V.VKind, Y.V.VKind) << Tag;
  EXPECT_EQ(X.V.Label, Y.V.Label) << Tag;
  EXPECT_EQ(X.Where, Y.Where) << Tag;
}

/// Replays \p Cex on \p M and checks that it ends in the violation it
/// reports: a failing prologue, a violating last step, a deadlock of
/// exactly the reported set, or a failing epilogue after every thread
/// finished.
void expectReplays(const exec::Machine &M, const Counterexample &Cex,
                   const std::string &Tag) {
  exec::State S = M.initialState();
  exec::Violation V;
  bool PrologueOk = M.runToCompletion(S, M.prologueCtx(), V);
  if (Cex.Where == Counterexample::Phase::Prologue) {
    EXPECT_FALSE(PrologueOk) << Tag;
    EXPECT_EQ(V.Label, Cex.V.Label) << Tag;
    return;
  }
  ASSERT_TRUE(PrologueOk) << Tag;
  const bool StepFails = Cex.Where == Counterexample::Phase::Parallel &&
                         Cex.DeadlockSet.empty();
  for (size_t I = 0; I < Cex.Steps.size(); ++I) {
    exec::Violation SV;
    exec::ExecOutcome Out = M.execStep(S, Cex.Steps[I].Thread, SV);
    ASSERT_EQ(Out.ExecutedPc, Cex.Steps[I].Pc) << Tag << " step " << I;
    if (StepFails && I + 1 == Cex.Steps.size()) {
      EXPECT_EQ(Out.Result, exec::StepResult::Violated) << Tag;
      EXPECT_EQ(SV.Label, Cex.V.Label) << Tag;
      return;
    }
    ASSERT_EQ(Out.Result, exec::StepResult::Ok) << Tag << " step " << I;
  }
  ASSERT_FALSE(StepFails) << Tag << ": empty parallel-phase trace";
  // No thread may step on from here; the deadlock set names exactly the
  // blocked ones, and with none blocked the epilogue must fail.
  std::vector<TraceStep> Blocked;
  for (unsigned T = 0; T < M.numThreads(); ++T) {
    exec::State Probe = S;
    exec::Violation PV;
    exec::ExecOutcome Out = M.execStep(Probe, T, PV);
    ASSERT_TRUE(Out.Result == exec::StepResult::Finished ||
                Out.Result == exec::StepResult::Blocked)
        << Tag << ": thread " << T << " can still step";
    if (Out.Result == exec::StepResult::Blocked)
      Blocked.push_back(TraceStep{T, Out.ExecutedPc});
  }
  if (Cex.Where == Counterexample::Phase::Parallel) {
    EXPECT_EQ(Cex.V.VKind, exec::Violation::Kind::Deadlock) << Tag;
    EXPECT_TRUE(Blocked == Cex.DeadlockSet) << Tag;
    return;
  }
  EXPECT_TRUE(Blocked.empty()) << Tag;
  exec::Violation EV;
  EXPECT_FALSE(M.runToCompletion(S, M.epilogueCtx(), EV)) << Tag;
  EXPECT_EQ(EV.Label, Cex.V.Label) << Tag;
}

/// checkCandidate with every reduction off: the oracle's own search.
CheckerConfig plainConfig(uint64_t MaxStates) {
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  Cfg.Por = PorMode::Off;
  Cfg.Symmetry = SymmetryMode::Off;
  Cfg.Visited = VisitedMode::Exact;
  Cfg.NumThreads = 1;
  Cfg.MaxStates = MaxStates;
  return Cfg;
}

void expectIdentical(const exec::Machine &M, uint64_t MaxStates,
                     const std::string &Tag) {
  CheckResult RE = checkCandidate(M, plainConfig(MaxStates));
  CheckResult RO = checkOracle(M, MaxStates);
  EXPECT_EQ(RE.Ok, RO.Ok) << Tag;
  EXPECT_EQ(RE.Exhausted, RO.Exhausted) << Tag;
  EXPECT_EQ(RE.StatesExplored, RO.StatesExplored) << Tag;
  EXPECT_EQ(RE.StatesDeduped, RO.StatesDeduped) << Tag;
  expectSameCex(RE, RO, Tag);
}

/// The state budget of both the gate and the differential: large enough
/// for every lightest row's reference candidate, small enough to bound
/// the test's memory.
constexpr uint64_t Budget = 300000;

} // namespace

TEST(Oracle, PlainDfsIsTheOracleSearch) {
  for (const char *Family : Families) {
    auto Row = lightestRow(Family);
    ASSERT_TRUE(Row.has_value()) << Family;
    auto P = Row->Build();
    ir::HoleAssignment Ref;
    if (Row->Reference) {
      Ref = Row->Reference(*P);
    } else {
      auto Q = Row->Build();
      cegis::CegisResult R = cegis::ConcurrentCegis(*Q).run();
      ASSERT_TRUE(R.Stats.Resolvable) << Family;
      Ref = R.Candidate;
    }
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine MRef(FP, Ref);
    CheckResult Clean = checkOracle(MRef, Budget);
    ASSERT_FALSE(Clean.Exhausted) << Family << ": raise the budget";
    EXPECT_TRUE(Clean.Ok) << Family << ": reference candidate must verify";
    expectIdentical(MRef, Budget, std::string(Family) + "/ref");

    // A broken candidate: the first seeded one the oracle refutes after
    // the prologue (a prologue failure explores no state at all).
    Rng R(0x0AC1Eull);
    std::optional<ir::HoleAssignment> Broken;
    for (int Try = 0; Try < 200 && !Broken; ++Try) {
      ir::HoleAssignment A = randomAssignment(*P, R);
      exec::Machine M(FP, A);
      CheckResult RO = checkOracle(M, Budget);
      if (!RO.Ok && RO.StatesExplored > 0)
        Broken = A;
    }
    ASSERT_TRUE(Broken.has_value()) << Family << ": no broken candidate";
    exec::Machine MBad(FP, *Broken);
    expectIdentical(MBad, Budget, std::string(Family) + "/broken");

    // Cut off at a fraction of the clean search: both sides stop at the
    // same state and say so.
    uint64_t Small = Clean.StatesExplored / 2 + 1;
    CheckResult Cut = checkOracle(MRef, Small);
    EXPECT_TRUE(Cut.Exhausted) << Family;
    EXPECT_TRUE(Cut.Ok) << Family;
    EXPECT_EQ(Cut.StatesExplored, Small) << Family;
    expectIdentical(MRef, Small, std::string(Family) + "/cut");
  }
}

TEST(Oracle, EngineAgreesAcrossReductionsOnRandomCandidates) {
  const unsigned CandidatesPerFamily = 20;
  unsigned Compared = 0, Skipped = 0;
  for (size_t FI = 0; FI < std::size(Families); ++FI) {
    const char *Family = Families[FI];
    auto Row = lightestRow(Family);
    ASSERT_TRUE(Row.has_value()) << Family;
    auto P = Row->Build();
    flat::FlatProgram FP = flat::flatten(*P);
    // Random candidates are almost all broken; the row's reference
    // candidate, where it has one, adds a clean run to the matrix.
    std::vector<ir::HoleAssignment> Candidates;
    if (Row->Reference)
      Candidates.push_back(Row->Reference(*P));
    Rng R(0xD1FFull + FI);
    for (unsigned CI = 0; CI < CandidatesPerFamily; ++CI)
      Candidates.push_back(randomAssignment(*P, R));
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      exec::Machine M(FP, Candidates[CI]);
      CheckResult RO = checkOracle(M, Budget);
      if (RO.Ok)
        EXPECT_FALSE(RO.Cex.has_value());
      else
        expectReplays(M, *RO.Cex, std::string(Family) + " oracle");
      for (PorMode Por : {PorMode::Off, PorMode::Local, PorMode::Ample}) {
        for (SymmetryMode Sym : {SymmetryMode::Off, SymmetryMode::Orbit}) {
          for (VisitedMode Vis :
               {VisitedMode::Exact, VisitedMode::Fingerprint}) {
            for (unsigned W : {1u, 2u}) {
              for (bool Falsifier : {true, false}) {
                if (RO.Exhausted) {
                  ++Skipped;
                  continue;
                }
                CheckerConfig Cfg;
                Cfg.Por = Por;
                Cfg.Symmetry = Sym;
                Cfg.Visited = Vis;
                Cfg.NumThreads = W;
                Cfg.UseRandomFalsifier = Falsifier;
                Cfg.MaxStates = Budget;
                CheckResult RE = checkCandidate(M, Cfg);
                if (RE.Exhausted) {
                  ++Skipped;
                  continue;
                }
                ++Compared;
                std::string Tag =
                    std::string(Family) + " candidate " +
                    std::to_string(CI) +
                    " por=" + std::to_string(static_cast<int>(Por)) +
                    " sym=" + std::to_string(static_cast<int>(Sym)) +
                    " visited=" + std::to_string(static_cast<int>(Vis)) +
                    " W=" + std::to_string(W) +
                    " falsifier=" + std::to_string(Falsifier);
                EXPECT_EQ(RE.Ok, RO.Ok) << Tag;
                EXPECT_EQ(RE.Cex.has_value(), !RE.Ok) << Tag;
                if (RE.Cex)
                  expectReplays(M, *RE.Cex, Tag);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GE(Compared, 150u) << Skipped << " cells skipped at the budget";
}
