//===- verify/Oracle.cpp ---------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/Oracle.h"

#include "verify/SearchCore.h"

#include <cassert>
#include <string>
#include <unordered_set>
#include <vector>

using namespace psketch;
using namespace psketch::verify;
using exec::ExecOutcome;
using exec::Machine;
using exec::State;
using exec::StepResult;
using exec::Violation;

CheckResult psketch::verify::checkOracle(const Machine &M,
                                         uint64_t MaxStates) {
  CheckResult Result;
  Counterexample Cex;

  // Phase 1: the deterministic prologue.
  State Start = M.initialState();
  Violation PrologueV;
  if (!M.runToCompletion(Start, M.prologueCtx(), PrologueV)) {
    Cex.Where = Counterexample::Phase::Prologue;
    Cex.V = PrologueV;
    Result.Cex = std::move(Cex);
    return Result;
  }

  // Phase 2: exhaustive DFS. A frame owns a full copy of its state and
  // the ready contexts still to branch on.
  struct Frame {
    State S;
    std::vector<unsigned> Ready;
    size_t Next = 0;
    size_t PathLen = 0;
  };
  std::vector<Frame> Stack;
  std::vector<TraceStep> Path;
  std::unordered_set<std::string> Seen;

  // Enters \p S, reached by Path: dedup, classify, check the terminal
  // cases, push a frame. Returns false with Cex filled on a violation.
  auto Enter = [&](State S) -> bool {
    if (!Seen.insert(M.encodeState(S)).second) {
      ++Result.StatesDeduped;
      return true;
    }
    if (++Result.StatesExplored >= MaxStates)
      Result.Exhausted = true;
    Frame F;
    std::vector<TraceStep> Blocked;
    if (!detail::classifyAll(M, S, F.Ready, Blocked, Path, Cex))
      return false;
    if (F.Ready.empty()) {
      if (Blocked.empty())
        return detail::checkEpilogue(M, S, Path, Cex);
      Cex.Steps = Path;
      Cex.V.VKind = Violation::Kind::Deadlock;
      Cex.V.Label = "deadlock: all live threads blocked";
      Cex.Where = Counterexample::Phase::Parallel;
      Cex.DeadlockSet = Blocked;
      return false;
    }
    F.S = std::move(S);
    F.PathLen = Path.size();
    Stack.push_back(std::move(F));
    return true;
  };

  bool Clean = Enter(Start);
  while (Clean && !Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next == Top.Ready.size() || Result.Exhausted) {
      Stack.pop_back();
      continue;
    }
    Path.resize(Top.PathLen);
    unsigned Ctx = Top.Ready[Top.Next++];
    State Next = Top.S;
    Violation V;
    ExecOutcome Out = M.execStep(Next, Ctx, V);
    Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
    if (Out.Result == StepResult::Violated) {
      Cex.Steps = Path;
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      Clean = false;
      break;
    }
    assert(Out.Result == StepResult::Ok && "ready thread must step");
    Clean = Enter(std::move(Next));
  }

  Result.Ok = Clean;
  if (!Clean)
    Result.Cex = std::move(Cex);
  return Result;
}
