//===- tests/test_sat.cpp - CDCL solver tests ------------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace psketch;
using namespace psketch::sat;

namespace {

Lit pos(Var V) { return Lit(V, false); }
Lit neg(Var V) { return Lit(V, true); }

/// Brute-force satisfiability oracle for small formulas.
bool bruteSat(const Cnf &F) {
  for (uint64_t Mask = 0; Mask < (1ull << F.NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &Clause : F.Clauses) {
      bool ClauseSat = false;
      for (Lit L : Clause) {
        bool Value = (Mask >> L.var()) & 1;
        if (Value != L.sign()) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

/// \returns true when the last model of \p S satisfies every clause of
/// \p Clauses.
bool modelSatisfies(const Solver &S,
                    const std::vector<std::vector<Lit>> &Clauses) {
  return std::all_of(Clauses.begin(), Clauses.end(), [&](const auto &C) {
    return std::any_of(C.begin(), C.end(), [&](Lit L) {
      return S.modelValue(L) == LBool::True;
    });
  });
}

Cnf randomCnf(Rng &R, int MaxVars, int MaxClauses) {
  Cnf F;
  F.NumVars = 2 + static_cast<int>(R.below(MaxVars - 1));
  int NumClauses = 1 + static_cast<int>(R.below(MaxClauses));
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Clause;
    int Len = 1 + static_cast<int>(R.below(4));
    for (int I = 0; I < Len; ++I)
      Clause.push_back(
          Lit(static_cast<Var>(R.below(F.NumVars)), R.below(2) != 0));
    F.Clauses.push_back(Clause);
  }
  return F;
}

} // namespace

TEST(Solver, EmptyInstanceIsSat) {
  Solver S;
  EXPECT_TRUE(S.solve());
}

TEST(Solver, UnitPropagation) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A));
  S.addClause(neg(A), pos(B));
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(A), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
}

TEST(Solver, TrivialUnsat) {
  Solver S;
  Var A = S.newVar();
  S.addClause(pos(A));
  EXPECT_FALSE(S.addClause(neg(A)));
  EXPECT_FALSE(S.okay());
  EXPECT_FALSE(S.solve());
}

TEST(Solver, TautologyIgnored) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(std::vector<Lit>{pos(A), neg(A)}));
  EXPECT_EQ(S.numClauses(), 0u);
  EXPECT_TRUE(S.solve());
}

TEST(Solver, DuplicateLiteralsMerged) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(std::vector<Lit>{pos(A), pos(A), pos(B)});
  ASSERT_TRUE(S.solve());
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes.
  Solver S;
  Var P[3][2];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause(pos(P[I][0]), pos(P[I][1]));
  for (int J = 0; J < 2; ++J)
    for (int I = 0; I < 3; ++I)
      for (int K = I + 1; K < 3; ++K)
        S.addClause(neg(P[I][J]), neg(P[K][J]));
  EXPECT_FALSE(S.solve());
}

TEST(Solver, XorChainForcesLearning) {
  // A chain of xors with a parity contradiction at the end.
  Solver S;
  const int N = 12;
  std::vector<Var> X;
  for (int I = 0; I < N; ++I)
    X.push_back(S.newVar());
  auto AddXorEq = [&](Var A, Var B, Var C) {
    // C = A xor B
    S.addClause(neg(C), pos(A), pos(B));
    S.addClause(neg(C), neg(A), neg(B));
    S.addClause(pos(C), pos(A), neg(B));
    S.addClause(pos(C), neg(A), pos(B));
  };
  for (int I = 2; I < N; ++I)
    AddXorEq(X[I - 2], X[I - 1], X[I]);
  S.addClause(pos(X[0]));
  S.addClause(pos(X[1]));
  ASSERT_TRUE(S.solve());
  // x2 = 1^1 = 0, x3 = 1^0 = 1, ...
  EXPECT_EQ(S.modelValue(X[2]), LBool::False);
  EXPECT_EQ(S.modelValue(X[3]), LBool::True);
}

TEST(Solver, Assumptions) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(neg(A), pos(B));
  EXPECT_TRUE(S.solve({pos(A)}));
  EXPECT_EQ(S.modelValue(B), LBool::True);
  S.addClause(neg(B));
  EXPECT_FALSE(S.solve({pos(A)})); // A -> B contradicts !B
  EXPECT_TRUE(S.okay());           // but only under the assumption
  EXPECT_TRUE(S.solve({neg(A)}));
}

TEST(Solver, IncrementalAddAfterSolve) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A), pos(B));
  ASSERT_TRUE(S.solve());
  S.addClause(neg(A));
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(B), LBool::True);
  S.addClause(neg(B));
  EXPECT_FALSE(S.solve());
}

TEST(Solver, ConflictBudget) {
  // A hard instance with a tiny budget must report exhaustion.
  Solver S;
  Var P[5][4];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 5; ++I)
    S.addClause(std::vector<Lit>{pos(P[I][0]), pos(P[I][1]), pos(P[I][2]),
                                 pos(P[I][3])});
  for (int J = 0; J < 4; ++J)
    for (int I = 0; I < 5; ++I)
      for (int K = I + 1; K < 5; ++K)
        S.addClause(neg(P[I][J]), neg(P[K][J]));
  S.setConflictBudget(1);
  bool Result = S.solve();
  if (!Result)
    SUCCEED(); // either budget-exhausted or genuinely proven
  EXPECT_TRUE(S.budgetExhausted() || !S.okay() || Result);
}

TEST(Solver, ModelSatisfiesAllClauses) {
  Rng R(2024);
  for (int Iter = 0; Iter < 200; ++Iter) {
    Cnf F = randomCnf(R, 14, 60);
    Solver S;
    if (!loadCnf(F, S))
      continue;
    if (!S.solve())
      continue;
    for (const auto &Clause : F.Clauses) {
      bool Sat = false;
      for (Lit L : Clause)
        if (S.modelValue(L) == LBool::True)
          Sat = true;
      EXPECT_TRUE(Sat) << "model violates a clause";
    }
  }
}

// Property: solver verdict == brute force on random small instances.
class SolverRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverRandomTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int Iter = 0; Iter < 150; ++Iter) {
    Cnf F = randomCnf(R, 10, 40);
    Solver S;
    bool Loaded = loadCnf(F, S);
    bool Got = Loaded && S.solve();
    EXPECT_EQ(Got, bruteSat(F)) << writeDimacs(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomTest, ::testing::Range(0, 8));

TEST(Luby, FirstTerms) {
  const uint64_t Expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I < std::size(Expected); ++I)
    EXPECT_EQ(lubySequence(I), Expected[I]) << "index " << I;
}

TEST(Dimacs, RoundTrip) {
  Cnf F;
  F.NumVars = 3;
  F.Clauses = {{pos(0), neg(1)}, {pos(2)}, {neg(0), neg(2)}};
  std::string Text = writeDimacs(F);
  Cnf Parsed;
  std::string Error;
  ASSERT_TRUE(parseDimacs(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.NumVars, 3);
  ASSERT_EQ(Parsed.Clauses.size(), 3u);
  EXPECT_EQ(Parsed.Clauses[0], F.Clauses[0]);
  EXPECT_EQ(Parsed.Clauses[2], F.Clauses[2]);
}

TEST(Dimacs, ParsesCommentsAndHeader) {
  Cnf F;
  std::string Error;
  ASSERT_TRUE(parseDimacs("c a comment\np cnf 2 1\n1 -2 0\n", F, Error));
  EXPECT_EQ(F.NumVars, 2);
  ASSERT_EQ(F.Clauses.size(), 1u);
  EXPECT_EQ(F.Clauses[0][1], neg(1));
}

TEST(Dimacs, RejectsTrailingClause) {
  Cnf F;
  std::string Error;
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 -2\n", F, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Dimacs, RejectsGarbage) {
  Cnf F;
  std::string Error;
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 x 0\n", F, Error));
}

TEST(Solver, HardRandomInstanceExercisesRestartsAndLearning) {
  // 3-SAT near the phase transition: forces learning, restarts, and
  // usually clause-database maintenance.
  Rng R(77);
  Solver S;
  const int Vars = 120;
  for (int V = 0; V < Vars; ++V)
    S.newVar();
  for (int C = 0; C < static_cast<int>(Vars * 4.2); ++C) {
    std::vector<Lit> Clause;
    for (int L = 0; L < 3; ++L)
      Clause.push_back(
          Lit(static_cast<Var>(R.below(Vars)), R.below(2) != 0));
    S.addClause(std::move(Clause));
  }
  (void)S.solve();
  EXPECT_GT(S.stats().Conflicts, 0u);
  EXPECT_GT(S.stats().Decisions, 0u);
  EXPECT_GT(S.stats().Propagations, 0u);
}

TEST(Solver, ManyIncrementalRoundsStayConsistent) {
  // Mimics the inductive synthesizer: add clauses round by round until
  // UNSAT; once UNSAT, it must stay UNSAT.
  Solver S;
  const int N = 8;
  std::vector<Var> X;
  for (int I = 0; I < N; ++I)
    X.push_back(S.newVar());
  bool WasUnsat = false;
  Rng R(5);
  for (int Round = 0; Round < 64; ++Round) {
    std::vector<Lit> Clause;
    for (int L = 0; L < 2; ++L)
      Clause.push_back(Lit(X[R.below(N)], R.below(2) != 0));
    S.addClause(std::move(Clause));
    bool Sat = S.solve();
    if (WasUnsat) {
      EXPECT_FALSE(Sat) << "UNSAT must be monotone under clause addition";
    }
    WasUnsat = WasUnsat || !Sat;
  }
}

TEST(Solver, AssumptionsDoNotPollute) {
  // Solving under incompatible assumptions must not make the instance
  // permanently unsatisfiable.
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A), pos(B));
  EXPECT_FALSE(S.solve({neg(A), neg(B)}));
  EXPECT_TRUE(S.okay());
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.solve({neg(A)}));
  EXPECT_EQ(S.modelValue(B), LBool::True);
}

// One seeded warm-start incremental sequence run until it turns UNSAT: a
// 3-SAT base near the threshold with one binary in sixteen, three clauses
// added before every solve, every third solve under four assumptions, and
// an inprocessing pass every second solve. Its counters pin the whole
// search: every decision, propagation, conflict, learnt clause, reduceDB
// deletion and inprocessing rewrite. A change to how clauses are stored
// must leave every one of them as it is. Every model must also satisfy
// every clause added and its assumptions.
TEST(Solver, PinnedSearchCounters) {
  const int Vars = 250;
  Rng R(7);
  auto RandomLit = [&]() {
    Var V = static_cast<Var>(R.below(Vars));
    return Lit(V, R.below(2) != 0);
  };
  std::vector<std::vector<Lit>> Added;
  auto AddRandomClause = [&](Solver &S, size_t Len) {
    std::vector<Lit> Clause;
    for (size_t I = 0; I < Len; ++I)
      Clause.push_back(RandomLit());
    S.addClause(Clause);
    Added.push_back(Clause);
  };
  Solver S;
  S.setWarmStart(true);
  S.setInprocessCadence(2);
  for (int V = 0; V < Vars; ++V)
    S.newVar();
  for (int C = 0; C < 960; ++C)
    AddRandomClause(S, C % 16 == 15 ? 2 : 3);
  unsigned Solves = 0, SatAnswers = 0;
  while (S.okay() && Solves < 60) {
    for (int C = 0; C < 3; ++C)
      AddRandomClause(S, 3);
    std::vector<Lit> Assumptions;
    if (Solves % 3 == 2)
      for (int A = 0; A < 4; ++A)
        Assumptions.push_back(RandomLit());
    bool Sat = S.solve(Assumptions);
    ++Solves;
    if (!Sat)
      continue;
    ++SatAnswers;
    // reduceDB compacts the arena mid-search; the models must not notice.
    std::vector<std::vector<Lit>> InForce = Added;
    for (Lit L : Assumptions)
      InForce.push_back({L});
    EXPECT_TRUE(modelSatisfies(S, InForce)) << "solve " << Solves;
  }
  const SolverStats &St = S.stats();
  const InprocessStats &In = S.inprocessStats();
  EXPECT_EQ(Solves, 11u);
  EXPECT_EQ(SatAnswers, 7u);
  EXPECT_EQ(S.numLearnts(), 1884u);
  EXPECT_EQ(St.Decisions, 12279u);
  EXPECT_EQ(St.Propagations, 734990u);
  EXPECT_EQ(St.Conflicts, 10051u);
  EXPECT_EQ(St.Restarts, 38u);
  EXPECT_EQ(St.LearntLiterals, 102641u);
  EXPECT_EQ(St.DeletedClauses, 8156u);
  EXPECT_EQ(St.Compactions, 6u); // five of them mid-search, from reduceDB
  EXPECT_EQ(In.Passes, 3u);
  EXPECT_EQ(In.RemovedSatisfied, 1093u);
  EXPECT_EQ(In.StrengthenedLits, 600u);
  EXPECT_EQ(In.SubsumedClauses, 183u);
  EXPECT_EQ(In.VivifiedLits, 2697u);
}

// Randomized stress of clause-arena compaction against brute force on 12
// problem variables. Each round opens a scope as synthesis does (a fresh
// activation literal guarding a batch of random clauses, binaries
// included), solves under it, and closes it with the unit ~act, which
// turns the whole batch and every learnt clause over it into garbage.
// Warm trials run an inprocessing pass (sweep, strengthen, vivify) before
// every solve that starts from the root; cold trials drop satisfied
// learnts before every solve.
// Every verdict must match exhaustive enumeration and every model must
// satisfy every clause in force, and the arena must have compacted (so
// remapped every ref) several times.
TEST(Solver, CompactionStressAgreesWithBruteForce) {
  const int Vars = 12;
  Rng R(20260);
  auto RandomLit = [&]() {
    Var V = static_cast<Var>(R.below(Vars));
    return Lit(V, R.below(2) != 0);
  };
  auto RandomClause = [&](size_t Len) {
    std::vector<Lit> Clause;
    for (size_t I = 0; I < Len; ++I)
      Clause.push_back(RandomLit());
    return Clause;
  };
  uint64_t Compactions = 0, Solves = 0;
  for (int Trial = 0; Trial < 6; ++Trial) {
    Solver S;
    S.setWarmStart(Trial % 2 == 0);
    S.setInprocessCadence(1);
    for (int V = 0; V < Vars; ++V)
      S.newVar();
    Cnf Permanent;
    Permanent.NumVars = Vars;
    for (int C = 0; C < 20; ++C) {
      Permanent.Clauses.push_back(RandomClause(3));
      S.addClause(Permanent.Clauses.back());
    }
    for (int Round = 0; Round < 150 && S.okay(); ++Round) {
      if (R.chance(1, 20)) {
        Permanent.Clauses.push_back(RandomClause(2 + R.below(2)));
        S.addClause(Permanent.Clauses.back());
      }
      // A scope: (~act v C) for each clause C of the batch.
      Var Act = S.newVar();
      Cnf InForce = Permanent;
      size_t Batch = 15 + R.below(20);
      for (size_t K = 0; K < Batch; ++K) {
        std::vector<Lit> Clause = RandomClause(1 + R.below(3));
        InForce.Clauses.push_back(Clause);
        Clause.push_back(Lit(Act, true));
        S.addClause(Clause);
      }
      std::vector<Lit> Assumptions = {Lit(Act, false)};
      if (R.chance(1, 3)) {
        Assumptions.push_back(RandomLit());
        InForce.Clauses.push_back({Assumptions.back()});
      }

      bool Got = S.solve(Assumptions);
      ++Solves;
      ASSERT_EQ(Got, bruteSat(InForce)) << "trial " << Trial << " round "
                                        << Round;
      if (Got) {
        ASSERT_TRUE(modelSatisfies(S, InForce.Clauses))
            << "trial " << Trial << " round " << Round;
      }
      S.addClause(Lit(Act, true)); // close the scope

      if (R.chance(1, 4)) {
        bool GotPlain = S.solve();
        ++Solves;
        ASSERT_EQ(GotPlain, bruteSat(Permanent)) << "trial " << Trial;
        if (GotPlain) {
          ASSERT_TRUE(modelSatisfies(S, Permanent.Clauses))
              << "trial " << Trial;
        }
      }
    }
    Compactions += S.stats().Compactions;
  }
  EXPECT_GT(Solves, 600u);
  EXPECT_GE(Compactions, 3u);
}
