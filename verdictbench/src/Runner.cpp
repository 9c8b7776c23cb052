//===- verdictbench/src/Runner.cpp - Untraced rows and certification ------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include "Stats.h"

#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "frontend/Parser.h"
#include "support/Timer.h"
#include "verify/ModelChecker.h"

#include <cstdlib>
#include <sstream>

using namespace psketch;

namespace vb {

std::string Trajectory::str() const {
  std::ostringstream S;
  S << "verdict=" << (Resolvable ? "YES" : "NO") << " aborted=" << Aborted
    << " itns=" << Iterations << " solves=" << Solves
    << " props=" << Propagations << " conflicts=" << Conflicts
    << " states=" << States << " clauses=" << Clauses
    << " prunes=" << IntervalPrunes << " candidate=";
  for (size_t I = 0; I < Candidate.size(); ++I)
    S << (I ? "," : "") << Candidate[I];
  return S.str();
}

std::unique_ptr<ir::Program> makeProgram(const Row &R, std::string &Err) {
  if (!R.isPsk())
    return R.Build();
  frontend::ParseResult Parsed = frontend::parseProgram(R.Source);
  if (!Parsed.ok())
    Err = R.Test + ": " + Parsed.Error;
  return std::move(Parsed.Program);
}

RowResult runRow(const Row &R, const cegis::CegisConfig &Cfg,
                 unsigned SetupReps) {
  RowResult Out;
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<cegis::ConcurrentCegis> Driver;
  std::vector<double> Setups;
  for (unsigned I = 0; I < std::max(1u, SetupReps); ++I) {
    Driver.reset();
    WallTimer Setup;
    P = makeProgram(R, Out.Error);
    if (!P)
      return Out;
    Driver = std::make_unique<cegis::ConcurrentCegis>(*P, Cfg);
    Setups.push_back(Setup.seconds());
  }
  Out.SetupSeconds = median(Setups);

  WallTimer Run;
  cegis::CegisResult Res = Driver->run();
  Out.RunSeconds = Run.seconds();

  Trajectory &T = Out.Traj;
  T.Resolvable = Res.Stats.Resolvable;
  T.Aborted = Res.Stats.Aborted;
  if (T.Resolvable)
    T.Candidate = Res.Candidate;
  T.Iterations = Res.Stats.Iterations;
  T.Solves = Res.Stats.SolveLog.size();
  for (const synth::SolveRecord &S : Res.Stats.SolveLog) {
    T.Propagations += S.Propagations;
    T.Conflicts += S.Conflicts;
  }
  T.States = Res.Stats.StatesExplored;
  T.Clauses = Res.Stats.ClauseCount;
  T.IntervalPrunes = Res.Stats.IntervalPrunes;
  return Out;
}

namespace {

std::string verdictFailure(const Row &R, const Trajectory &T) {
  if (T.Aborted)
    return "aborted on the iteration or time budget";
  if (T.Resolvable != R.ExpectResolvable)
    return std::string("verdict ") + (T.Resolvable ? "YES" : "NO") +
           ", expected " + (R.ExpectResolvable ? "YES" : "NO") + " (" +
           R.Provenance + ")";
  return "";
}

std::string certify(const Row &R, const ir::HoleAssignment &Candidate,
                    uint64_t MaxStates) {
  std::string Err;
  std::unique_ptr<ir::Program> P = makeProgram(R, Err);
  if (!P)
    return Err;
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, Candidate);
  verify::CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  Cfg.Por = verify::PorMode::Off;
  Cfg.Symmetry = verify::SymmetryMode::Off;
  Cfg.Visited = verify::VisitedMode::Exact;
  Cfg.NumThreads = 1;
  Cfg.MaxStates = MaxStates;
  verify::CheckResult Check = verify::checkCandidate(M, Cfg);
  if (Check.Exhausted)
    return "certification hit MaxStates (" + std::to_string(MaxStates) + ")";
  if (!Check.Ok)
    return "certification found a violation: " +
           (Check.Cex ? Check.Cex->V.Label : std::string("?"));
  return "";
}

} // namespace

std::string rowFailure(const Row &R, const Trajectory &T, uint64_t MaxStates,
                       std::map<std::string, std::string> &Certified) {
  std::string Why = verdictFailure(R, T);
  if (!Why.empty() || !T.Resolvable)
    return Why;
  std::string Key = R.id() + " " + T.str() + " " + std::to_string(MaxStates);
  auto It = Certified.find(Key);
  if (It == Certified.end())
    It = Certified.emplace(Key, certify(R, T.Candidate, MaxStates)).first;
  return It->second;
}

std::string configGuard() {
  for (const char *Var : {"PSKETCH_SHAPE", "PSKETCH_WARM_START"})
    if (std::getenv(Var))
      return std::string(Var) +
             " is set; it changes library defaults, so this run would "
             "measure a different program. Unset it.";
  return "";
}

} // namespace vb
