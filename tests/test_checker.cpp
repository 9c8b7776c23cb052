//===- tests/test_checker.cpp - model checker tests ------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"
#include "verify/Oracle.h"

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

CheckResult check(Program &P, CheckerConfig Cfg = CheckerConfig()) {
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  return checkCandidate(M, Cfg);
}

} // namespace

TEST(Checker, AtomicCounterVerifies) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 2, 4);
  CheckResult R = check(P);
  EXPECT_TRUE(R.Ok);
  EXPECT_FALSE(R.Cex.has_value());
  EXPECT_GT(R.StatesExplored, 0u);
}

TEST(Checker, RacyCounterFails) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::AssertFail);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Epilogue);
  EXPECT_FALSE(R.Cex->Steps.empty());
}

TEST(Checker, RacyCounterFailsWithoutRandomFalsifier) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  CheckResult R = check(P, Cfg);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.RandomRunsUsed, 0u);
}

TEST(Checker, RacyCounterFailsWithoutPOR) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckerConfig Cfg;
  Cfg.Por = PorMode::Off;
  CheckResult R = check(P, Cfg);
  EXPECT_FALSE(R.Ok);
}

TEST(Checker, PORReducesStateCount) {
  Program PA, PB;
  buildCounter(PA, /*Atomic=*/true, 3, 6);
  buildCounter(PB, /*Atomic=*/true, 3, 6);
  CheckerConfig NoPor;
  NoPor.Por = PorMode::Off;
  NoPor.UseRandomFalsifier = false;
  CheckerConfig Por;
  Por.UseRandomFalsifier = false;
  CheckResult RA = check(PA, Por);
  CheckResult RB = check(PB, NoPor);
  EXPECT_TRUE(RA.Ok);
  EXPECT_TRUE(RB.Ok);
  EXPECT_LE(RA.StatesExplored, RB.StatesExplored);
}

TEST(Checker, DeadlockDetectedWithSet) {
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
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
  EXPECT_EQ(R.Cex->DeadlockSet.size(), 2u);
}

TEST(Checker, OrderedLocksVerify) {
  Program P;
  unsigned L0 = P.addGlobal("lock0", Type::Int, -1);
  unsigned L1 = P.addGlobal("lock1", Type::Int, -1);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("phil");
    ExprRef Pid = P.constInt(T);
    P.setRoot(
        BodyId::thread(Id),
        P.seq({P.lock(P.locGlobal(L0), P.global(L0), Pid),
               P.lock(P.locGlobal(L1), P.global(L1), Pid),
               P.unlock(P.locGlobal(L1), P.global(L1), Pid, "l1"),
               P.unlock(P.locGlobal(L0), P.global(L0), Pid, "l0")}));
  }
  CheckResult R = check(P);
  EXPECT_TRUE(R.Ok);
}

TEST(Checker, PrologueViolationReported) {
  Program P;
  P.setRoot(BodyId::prologue(),
            P.assertS(P.constBool(false), "prologue fail"));
  P.addThread("t");
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Prologue);
  EXPECT_TRUE(R.Cex->Steps.empty());
}

TEST(Checker, MemorySafetyViolationInThread) {
  Program P(8, 3);
  unsigned F = P.addField("next", Type::Ptr);
  unsigned X = P.addGlobal("p", Type::Ptr, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X), P.field(P.global(X), F)));
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::MemUnsafe);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Parallel);
}

TEST(Checker, WaitConditionMemViolationCaught) {
  // The wait condition itself dereferences null.
  Program P(8, 3);
  unsigned F = P.addField("v", Type::Int);
  unsigned X = P.addGlobal("p", Type::Ptr, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.condAtomic(P.eq(P.field(P.global(X), F), P.constInt(1)),
                         P.nop()));
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::MemUnsafe);
}

TEST(Checker, TraceStepsReplayToViolation) {
  // Replaying the counterexample schedule step-for-step must reproduce
  // the violation on the same candidate.
  Program P;
  buildCounter(P, /*Atomic=*/false, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  CheckResult R = checkCandidate(M);
  ASSERT_FALSE(R.Ok);
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, M.prologueCtx(), V));
  for (const TraceStep &TS : R.Cex->Steps) {
    exec::ExecOutcome Out = M.execStep(S, TS.Thread, V);
    ASSERT_EQ(Out.Result, exec::StepResult::Ok);
    ASSERT_EQ(Out.ExecutedPc, TS.Pc);
  }
  if (R.Cex->Where == Counterexample::Phase::Epilogue) {
    EXPECT_FALSE(M.runToCompletion(S, M.epilogueCtx(), V));
  }
  EXPECT_TRUE(V.isViolation() ||
              R.Cex->Where != Counterexample::Phase::Epilogue);
}

TEST(Checker, ThreeThreadInterleavingsCovered) {
  // x starts 0; threads set x to 1, 2, 3; epilogue asserts x != 0. Any
  // interleaving passes; with an assert x == 3 some fail.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < 3; ++T) {
    unsigned Id = P.addThread("w");
    P.setRoot(BodyId::thread(Id),
              P.assign(P.locGlobal(X), P.constInt(T + 1)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(3)), "last write wins"));
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  CheckResult R = check(P, Cfg);
  EXPECT_FALSE(R.Ok); // some interleaving ends with x != 3
}

//===----------------------------------------------------------------------===//
// Oracle property: the checker (with POR, dedup, and the falsifier) gives
// the same verdict as brute-force enumeration of every interleaving.
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

namespace {

/// Builds a random 2-thread straight-line program over two globals with a
/// random epilogue assertion.
void buildRandomProgram(Program &P, psketch::Rng &R) {
  unsigned G[2] = {P.addGlobal("g0", Type::Int, 0),
                   P.addGlobal("g1", Type::Int, 0)};
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned L = P.addLocal(B, "l", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    int Steps = 2 + static_cast<int>(R.below(3));
    for (int I = 0; I < Steps; ++I) {
      unsigned Target = static_cast<unsigned>(R.below(2));
      switch (R.below(4)) {
      case 0: // constant store
        Stmts.push_back(P.assign(P.locGlobal(G[Target]),
                                 P.constInt(static_cast<int64_t>(R.below(4)))));
        break;
      case 1: // read into the local
        Stmts.push_back(P.assign(P.locLocal(L), P.global(G[Target])));
        break;
      case 2: // increment via the local (racy)
        Stmts.push_back(P.assign(P.locGlobal(G[Target]),
                                 P.add(P.local(L, Type::Int), P.constInt(1))));
        break;
      default: // atomic increment
        Stmts.push_back(P.atomic(P.assign(
            P.locGlobal(G[Target]),
            P.add(P.global(G[Target]), P.constInt(1)))));
        break;
      }
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  unsigned Which = static_cast<unsigned>(R.below(2));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.ne(P.global(G[Which]),
                           P.constInt(static_cast<int64_t>(R.below(5)))),
                      "random property"));
}

/// Brute force: recursively explores every interleaving, no dedup/POR.
bool bruteForceExplore(const exec::Machine &M, exec::State S) {
  bool AnyRan = false;
  for (unsigned T = 0; T < M.numThreads(); ++T) {
    exec::State Next = S;
    exec::Violation V;
    exec::ExecOutcome Out = M.execStep(Next, T, V);
    if (Out.Result == exec::StepResult::Finished)
      continue;
    AnyRan = true;
    if (Out.Result == exec::StepResult::Violated)
      return false;
    if (Out.Result == exec::StepResult::Blocked)
      continue;
    if (!bruteForceExplore(M, std::move(Next)))
      return false;
  }
  if (!AnyRan) {
    // All threads finished (these programs never block): run the epilogue.
    exec::Violation V;
    return M.runToCompletion(S, M.epilogueCtx(), V);
  }
  return true;
}

} // namespace

class CheckerOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckerOracleTest, AgreesWithBruteForce) {
  psketch::Rng R(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  for (int Iter = 0; Iter < 40; ++Iter) {
    Program P;
    buildRandomProgram(P, R);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {});
    bool BruteOk = bruteForceExplore(M, M.initialState());
    CheckResult Got = checkCandidate(M);
    ASSERT_EQ(Got.Ok, BruteOk)
        << "seed " << GetParam() << " iter " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerOracleTest, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// The reference oracle (verify/Oracle.h).
//===----------------------------------------------------------------------===//

TEST(Oracle, VerdictsMatchDfs) {
  for (bool Atomic : {false, true}) {
    Program P;
    buildCounter(P, Atomic, 2, 4);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {});
    CheckerConfig Dfs;
    Dfs.UseRandomFalsifier = false;
    EXPECT_EQ(checkCandidate(M, Dfs).Ok, Atomic);
    EXPECT_EQ(checkOracle(M).Ok, Atomic);
  }
}

TEST(Oracle, FindsDeadlockWithSet) {
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
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  CheckResult R = checkOracle(M);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
  EXPECT_EQ(R.Cex->DeadlockSet.size(), 2u);
}

TEST(Oracle, TraceReplaysOnTheMachine) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  CheckResult R = checkOracle(M);
  ASSERT_FALSE(R.Ok);
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, M.prologueCtx(), V));
  for (const TraceStep &TS : R.Cex->Steps) {
    exec::ExecOutcome Out = M.execStep(S, TS.Thread, V);
    ASSERT_EQ(Out.Result, exec::StepResult::Ok);
    ASSERT_EQ(Out.ExecutedPc, TS.Pc);
  }
  // The racy counter fails in the epilogue: every thread has finished.
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Epilogue);
  EXPECT_FALSE(M.runToCompletion(S, M.epilogueCtx(), V));
}

/// The oracle itself against tree enumeration without any dedup.
class OracleBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleBruteForceTest, AgreesWithBruteForce) {
  psketch::Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  for (int Iter = 0; Iter < 25; ++Iter) {
    Program P;
    buildRandomProgram(P, R);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {});
    bool BruteOk = bruteForceExplore(M, M.initialState());
    CheckResult Got = checkOracle(M);
    ASSERT_FALSE(Got.Exhausted);
    ASSERT_EQ(Got.Ok, BruteOk) << "seed " << GetParam() << " iter " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleBruteForceTest, ::testing::Range(0, 4));
