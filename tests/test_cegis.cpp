//===- tests/test_cegis.cpp - end-to-end CEGIS tests ------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "cegis/Cegis.h"
#include "cegis/Enumerate.h"
#include "exec/Machine.h"
#include "synth/InductiveSynth.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <set>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::cegis;

namespace {

/// Two racing increment threads with a synthesized lock decision.
void buildLockChoice(Program &P, unsigned &HoleOut, int ExpectedTotal) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned LK = P.addGlobal("lk", Type::Int, -1);
  HoleOut = P.addHole("useLock", 2);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    ExprRef Pid = P.constInt(T);
    ExprRef UseLock = P.eq(P.holeValue(HoleOut), P.constInt(1));
    P.setRoot(
        B, P.seq({P.ifS(UseLock, P.lock(P.locGlobal(LK), P.global(LK), Pid)),
                  P.assign(P.locLocal(Tmp), P.global(X)),
                  P.assign(P.locGlobal(X),
                           P.add(P.local(Tmp, Type::Int), P.constInt(1))),
                  P.ifS(UseLock, P.unlock(P.locGlobal(LK), P.global(LK),
                                          Pid, "owner"))}));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(ExpectedTotal)),
                      "expected total"));
}

/// One Figure-9 row by family and test label.
bench::SuiteEntry suiteRow(const std::string &Family, const std::string &Test) {
  for (const bench::SuiteEntry &E : bench::paperSuite(Family))
    if (E.Test == Test)
      return E;
  ADD_FAILURE() << "no suite row " << Family << " " << Test;
  return bench::paperSuite(Family).front();
}

/// The library-default configuration with one checker worker, and the
/// environment-overridable default (PSKETCH_WARM_START) pinned to its
/// shipped value so every CI job runs one trajectory.
CegisConfig shippedDefaults() {
  CegisConfig Cfg;
  Cfg.SolverWarmStart = true;
  Cfg.Checker.NumThreads = 1;
  return Cfg;
}

} // namespace

TEST(Cegis, ResolvesConstantHole) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("h", 16);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(H)));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(11)), "x==11"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 11u);
  EXPECT_GE(R.Stats.Iterations, 1u);
}

TEST(Cegis, DiscoversTheLock) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 1u) << "only the locked variant is correct";
}

TEST(Cegis, ProvesUnresolvable) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 3); // two increments can never make 3
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
  EXPECT_FALSE(R.Stats.Aborted);
  EXPECT_LE(R.Stats.Iterations, 4u) << "tiny space, few observations";
}

TEST(Cegis, ReorderQuadratic) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(B), P.global(A)),
                       P.assign(P.locGlobal(A), P.constInt(1))},
                      ReorderEncoding::Quadratic));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(B), P.constInt(1)), "b==1"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  // The resolved order must run a=1 before b=a.
  std::string Out = C.printResolved(R);
  EXPECT_LT(Out.find("a = 1"), Out.find("b = a"));
}

TEST(Cegis, ReorderExponential) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  unsigned Cg = P.addGlobal("c", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(B), P.global(A)),
                       P.assign(P.locGlobal(A), P.constInt(1)),
                       P.assign(P.locGlobal(Cg),
                                P.add(P.global(B), P.constInt(1)))},
                      ReorderEncoding::Exponential));
  P.setRoot(BodyId::epilogue(),
            P.seq({P.assertS(P.eq(P.global(B), P.constInt(1)), "b==1"),
                   P.assertS(P.eq(P.global(Cg), P.constInt(2)), "c==2")}));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Resolvable);
}

TEST(Cegis, StatsArePopulated) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_GT(R.Stats.TotalSeconds, 0.0);
  EXPECT_GT(R.Stats.PeakMemoryMiB, 0.0);
  EXPECT_GE(R.Stats.Iterations, 1u);
}

TEST(Cegis, IterationBudgetAborts) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  CegisConfig Cfg;
  Cfg.MaxIterations = 0;
  ConcurrentCegis C(P, Cfg);
  CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Aborted);
  EXPECT_FALSE(R.Stats.Resolvable);
}

TEST(Cegis, LogCallbackFires) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  unsigned Calls = 0;
  CegisConfig Cfg;
  Cfg.Log = [&Calls](const std::string &) { ++Calls; };
  ConcurrentCegis C(P, Cfg);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(Calls, R.Stats.Iterations - 1) << "one log per failed candidate";
}

TEST(SequentialCegis, ResolvesLinearFunction) {
  // out = in + ?? must implement out = in + 3 over test inputs.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  unsigned H = P.addHole("h", 8);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out), P.add(P.global(In), P.holeValue(H))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = 0; X < 10; ++X)
    Tests.push_back({{In, X}, {Expected, X + 3}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 3u);
}

TEST(SequentialCegis, ProvesNoConstantWorks) {
  // out = in + ?? cannot implement out = 2 * in.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  P.addHole("h", 8);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out),
                     P.add(P.global(In), P.holeValue(0))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = 1; X < 6; ++X)
    Tests.push_back({{In, X}, {Expected, 2 * X}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
}

TEST(SequentialCegis, FewObservationsSuffice) {
  // The AES observation of Section 5: CEGIS needs only a handful of the
  // input space. Here: 8-bit identity-plus-constant over 256 inputs.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  unsigned H = P.addHole("h", 128);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out), P.add(P.global(In), P.holeValue(H))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = -60; X < 60; X += 3)
    Tests.push_back({{In, X}, {Expected, P.wrap(X + 77, Type::Int)}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 77u);
  EXPECT_LE(R.Stats.Iterations, 5u);
}

TEST(InductiveSynth, ExcludeCandidateEnumeratesSolutions) {
  // h < 4 has four solutions under no observations; excluding them one by
  // one must enumerate all and then go unsat.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("h", 4);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(H)));
  flat::FlatProgram FP = flat::flatten(P);
  synth::InductiveSynth S(FP);
  std::set<uint64_t> Seen;
  HoleAssignment Cand;
  while (S.solve(Cand)) {
    EXPECT_TRUE(Seen.insert(Cand[H]).second) << "duplicate candidate";
    S.excludeCandidate(Cand);
  }
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Cegis, ProposedCandidatesRespectStaticConstraints) {
  // Every candidate the synthesizer proposes for a quadratic reorder must
  // be a legal permutation (the no-duplicates constraints hold).
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  StmtRef R = P.reorder("r",
                        {P.assign(P.locGlobal(X), P.constInt(1)),
                         P.assign(P.locGlobal(X), P.constInt(2)),
                         P.assign(P.locGlobal(X), P.constInt(3))},
                        ReorderEncoding::Quadratic);
  P.setRoot(BodyId::thread(T), R);
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "2 last"));
  flat::FlatProgram FP = flat::flatten(P);
  synth::InductiveSynth Synth(FP);
  HoleAssignment Cand;
  std::set<std::vector<uint64_t>> Orders;
  while (Synth.solve(Cand)) {
    std::vector<uint64_t> Order = {Cand[R->ReorderHoles[0]],
                                   Cand[R->ReorderHoles[1]],
                                   Cand[R->ReorderHoles[2]]};
    std::set<uint64_t> Unique(Order.begin(), Order.end());
    EXPECT_EQ(Unique.size(), 3u) << "duplicate order index proposed";
    EXPECT_TRUE(Orders.insert(Order).second);
    Synth.excludeCandidate(Cand);
  }
  EXPECT_EQ(Orders.size(), 6u) << "exactly the 3! legal orders";
}

TEST(Cegis, ResolvedReorderSatisfiesSpecConcretely) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(X), P.constInt(1)),
                       P.assign(P.locGlobal(X), P.constInt(2)),
                       P.assign(P.locGlobal(X), P.constInt(3))},
                      ReorderEncoding::Quadratic));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "2 last"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  exec::Machine M(C.flatProgram(), R.Candidate);
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, M.prologueCtx(), V));
  ASSERT_TRUE(M.runToCompletion(S, 0, V));
  ASSERT_TRUE(M.runToCompletion(S, M.epilogueCtx(), V));
}

// A check cut off at MaxStates only covers the budget. dinphilo N=4,T=3
// needs more than 2,000 states to verify its resolution, so the run must
// end Aborted rather than claim the candidate.
TEST(Cegis, StateBudgetCutoffAborts) {
  bench::SuiteEntry E = suiteRow("dinphilo", "N=4,T=3");
  auto P = E.Build();
  CegisConfig Cfg = shippedDefaults();
  Cfg.Checker.MaxStates = 2000;
  ConcurrentCegis C(*P, Cfg);
  CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Aborted);
  EXPECT_FALSE(R.Stats.Resolvable);
}

TEST(Enumerate, StateBudgetCutoffClaimsNothing) {
  bench::SuiteEntry E = suiteRow("dinphilo", "N=4,T=3");
  for (unsigned Workers : {1u, 2u}) {
    auto P = E.Build();
    CegisConfig Cfg = shippedDefaults();
    Cfg.Checker.MaxStates = 2000;
    Cfg.Checker.NumThreads = Workers;
    EnumerateResult R = enumerateSolutions(*P, 8, Cfg);
    EXPECT_TRUE(R.Solutions.empty()) << Workers << " workers";
    EXPECT_FALSE(R.Exhausted) << Workers << " workers";
    EXPECT_TRUE(R.Stats.Aborted) << Workers << " workers";
  }
}

// Each counterexample trace rules out a subspace, so the shipped loop
// needs about one SAT solve per verifier call. A per-candidate screen that
// refutes candidates one point at a time shows up here as a solve count
// far above the verifier calls (queueDE2 once took 2310 solves for 6
// calls). The resolved candidate must also pass the unreduced reference
// oracle.
TEST(Cegis, SolvesStayWithinOnePerVerifierCall) {
  const std::pair<const char *, const char *> Rows[] = {
      {"queueDE2", "ed(ed|ed)"},
      {"queueE2", "ed(ed|ed)"},
      {"queueE2", "(e|e|e)ddd"},
  };
  for (const auto &[Family, Test] : Rows) {
    std::string Row = std::string(Family) + " " + Test;
    auto P = suiteRow(Family, Test).Build();
    ConcurrentCegis C(*P, shippedDefaults());
    CegisResult R = C.run();
    ASSERT_TRUE(R.Stats.Resolvable) << Row;
    EXPECT_LE(R.Stats.SolveLog.size(), R.Stats.Iterations + 1u) << Row;
    exec::Machine M(C.flatProgram(), R.Candidate);
    verify::CheckResult Oracle = verify::checkOracle(M);
    EXPECT_TRUE(Oracle.Ok && !Oracle.Exhausted) << Row;
  }
}

// The exact CEGIS trajectory of four light Figure-9 rows under the shipped
// defaults: iterations, total checker states, the resolved candidate, the
// encoding the synthesizer built (gate DAG nodes and SAT clauses) and the
// SAT search behind it (propagations, conflicts and decisions summed over
// the candidate solves).
// Changes below the search (Machine construction, footprint queries,
// visited keys, gate hashing, SAT clause storage) must leave every search
// decision, and so these, as they are.
TEST(Cegis, PinnedTrajectories) {
  struct Pin {
    const char *Family, *Test;
    unsigned Iterations;
    uint64_t States;
    HoleAssignment Candidate;
    size_t Gates, Clauses;
    uint64_t Propagations, Conflicts, Decisions; ///< summed over SolveLog
  };
  const Pin Pins[] = {
      {"barrier1", "N=3,B=2", 11, 420, {4, 1, 6, 1, 1, 2, 3, 0, 0, 1},
       43899, 119853, 1274728, 231, 473},
      {"fineset1", "ar(ar|ar)", 6, 383, {0, 1, 2, 3, 2, 2, 2, 0},
       35646, 95403, 810461, 120, 366},
      {"queueE2", "ed(ed|ed)", 2, 631, {0, 1, 2, 1, 2, 0, 4, 0, 2, 2, 4},
       10616, 31587, 183240, 171, 505},
      {"dinphilo", "N=4,T=3", 2, 12144, {2, 2, 0, 1, 2, 6, 0, 0},
       333, 792, 278, 0, 24},
  };
  for (const Pin &Want : Pins) {
    bench::SuiteEntry E = suiteRow(Want.Family, Want.Test);
    auto P = E.Build();
    ConcurrentCegis C(*P, shippedDefaults());
    CegisResult R = C.run();
    std::string Row = std::string(Want.Family) + " " + Want.Test;
    ASSERT_TRUE(R.Stats.Resolvable) << Row;
    EXPECT_EQ(R.Stats.Iterations, Want.Iterations) << Row;
    EXPECT_EQ(R.Stats.StatesExplored, Want.States) << Row;
    EXPECT_EQ(R.Candidate, Want.Candidate) << Row;
    EXPECT_EQ(R.Stats.GateCount, Want.Gates) << Row;
    EXPECT_EQ(R.Stats.ClauseCount, Want.Clauses) << Row;
    uint64_t Props = 0, Conflicts = 0, Decisions = 0;
    for (const synth::SolveRecord &S : R.Stats.SolveLog) {
      Props += S.Propagations;
      Conflicts += S.Conflicts;
      Decisions += S.Decisions;
    }
    EXPECT_EQ(Props, Want.Propagations) << Row;
    EXPECT_EQ(Conflicts, Want.Conflicts) << Row;
    EXPECT_EQ(Decisions, Want.Decisions) << Row;
  }
}
