//===- bench/bench_sat_incremental.cpp - warm-started solver gate ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures and gates the warm-started incremental SAT core
// (sat::Solver::setWarmStart, docs/SOLVER.md). Every row runs the full
// CEGIS loop twice — warm start off (the from-scratch trajectory every
// prior PR shipped) and on (trail-reusing re-solves + replay, persistent
// Luby round, between-solve inprocessing, scoped enumeration) — and
// gates:
//
//  * Verdict agreement (hard gate, all modes): Resolvable must be
//    identical. The warm instance is equisatisfiable with the cold one
//    at every step (trail repair, replay, and inprocessing all preserve
//    the clause set up to entailed strengthenings), so a verdict flip is
//    a solver bug, full stop.
//
//  * Candidate validity (hard gate, all modes): each mode's resolved
//    candidate is INDEPENDENTLY re-verified by the model checker here.
//    Note this is deliberately not byte-equality of the candidate
//    sequences: a CDCL model is an accident of the search path, and warm
//    start exists precisely to take a cheaper path, so the two modes can
//    legitimately walk through different (equally correct) candidates —
//    the same way a different random seed would. The solver-level
//    equivalence (same clauses => same SAT/UNSAT, models satisfy every
//    clause) is gated exhaustively by test_sat_incremental's randomized
//    property instead.
//
//  * Iteration sanity (hard gate, all modes): warm iterations must stay
//    within 1.5x + 2 of cold — divergence is allowed, pathological
//    candidate quality is not. (In practice warm often needs FEWER
//    iterations: trail reuse keeps consecutive candidates close, so
//    counterexample learning transfers better.)
//
//  * Speedup (hard gate in full mode only): per-iteration Ssolve —
//    total candidate-solve seconds over the verifier calls — must
//    improve by >= 1.3x on at least 2 of the 3 ROADMAP rows
//    (queueDE2 ed(ed|ed), barrier2 N=2,B=3, fineset2 ar(arar|arar)).
//    --smoke runs lighter rows and reports the ratio without enforcing
//    it (CI boxes are too noisy for a timing gate).
//
//  * Solve count (reported per row as warm_solves; capped by
//    scripts/check_bench_regression.py against max_warm_solves in
//    bench/baselines/sat_incremental.json): every SAT solve beyond one per
//    verifier call is a candidate excluded point-wise, so the count is a
//    machine-independent measure of wasted search.
//
// Flags: --smoke, --jobs N, --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <cstring>

using namespace psketch;
using namespace psketch::bench;

namespace {

/// Finds one suite row by family and test label.
SuiteEntry findRow(const std::string &Family, const std::string &Test) {
  for (const SuiteEntry &E : paperSuite(Family))
    if (E.Test == Test)
      return E;
  std::fprintf(stderr, "error: no suite row %s %s\n", Family.c_str(),
               Test.c_str());
  std::exit(2);
}

cegis::CegisResult runRow(const SuiteEntry &E, bool WarmStart,
                          unsigned Jobs) {
  auto P = E.Build();
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = 600.0;
  Cfg.Checker.NumThreads = Jobs;
  Cfg.SolverWarmStart = WarmStart;
  cegis::ConcurrentCegis C(*P, Cfg);
  return C.run();
}

double solveSeconds(const cegis::CegisResult &R) {
  double S = 0.0;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog)
    S += Rec.Seconds;
  return S;
}

uint64_t solveConflicts(const cegis::CegisResult &R) {
  uint64_t C = 0;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog)
    C += Rec.Conflicts;
  return C;
}

/// Re-verifies a resolved candidate from scratch: fresh flatten, fresh
/// Machine, default checker. \returns true when the candidate passes
/// (or the row was reported unresolvable, which the verdict gate covers).
bool reverify(const SuiteEntry &E, const cegis::CegisResult &R) {
  if (!R.Stats.Resolvable)
    return true;
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, R.Candidate);
  verify::CheckerConfig Cfg;
  return verify::checkCandidate(M, Cfg).Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      parseBenchOptions(Argc, Argv, "sat_incremental", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  JsonReport Json(Opts);
  Json.add(provenanceJson(Opts.Jobs ? Opts.Jobs : 1));

  struct RowSpec {
    const char *Family;
    const char *Test;
  };
  // Full mode runs the three ROADMAP Ssolve rows; smoke runs each
  // family's light sibling so CI exercises the same three instance
  // shapes in seconds, not minutes.
  std::vector<RowSpec> Specs =
      Smoke ? std::vector<RowSpec>{{"queueDE1", "ed(ed|ed)"},
                                   {"barrier1", "N=3,B=2"},
                                   {"fineset1", "ar(ar|ar)"}}
            : std::vector<RowSpec>{{"queueDE2", "ed(ed|ed)"},
                                   {"barrier2", "N=2,B=3"},
                                   {"fineset2", "ar(arar|arar)"}};

  std::printf("Warm-started incremental SAT core: warm vs from-scratch per "
              "row%s\n",
              Smoke ? " [smoke]" : "");
  std::printf("%-9s %-14s | %-9s %-9s | %9s %9s %7s | %9s %9s | %-5s\n",
              "sketch", "test", "resolv.", "itns", "Ssolve", "Ssolve",
              "speedup", "conflicts", "conflicts", "agree");
  std::printf("%-9s %-14s | %-9s %-9s | %9s %9s %7s | %9s %9s | %-5s\n", "",
              "", "cold/warm", "cold/warm", "cold(s)", "warm(s)", "", "cold",
              "warm", "");
  std::printf("--------------------------------------------------------------"
              "--------------------------------------\n");

  unsigned Disagreements = 0, SpeedupRows = 0;
  for (const RowSpec &Spec : Specs) {
    SuiteEntry E = findRow(Spec.Family, Spec.Test);
    cegis::CegisResult Cold = runRow(E, /*WarmStart=*/false, Opts.Jobs);
    cegis::CegisResult Warm = runRow(E, /*WarmStart=*/true, Opts.Jobs);

    // The agreement gates: same verdict, both answers independently
    // re-verified, iteration count within the sanity bound.
    bool VerdictAgree = !Cold.Stats.Aborted && !Warm.Stats.Aborted &&
                        Cold.Stats.Resolvable == Warm.Stats.Resolvable;
    bool ColdValid = reverify(E, Cold);
    bool WarmValid = reverify(E, Warm);
    unsigned ItnsBound = Cold.Stats.Iterations +
                         Cold.Stats.Iterations / 2 + 2;
    bool ItnsSane = Warm.Stats.Iterations <= ItnsBound;
    bool Agree = VerdictAgree && ColdValid && WarmValid && ItnsSane;
    if (!Agree)
      ++Disagreements;

    double ColdS = solveSeconds(Cold), WarmS = solveSeconds(Warm);
    unsigned ColdN = Cold.Stats.Iterations, WarmN = Warm.Stats.Iterations;
    double ColdPerIter = ColdN ? ColdS / ColdN : 0.0;
    double WarmPerIter = WarmN ? WarmS / WarmN : 0.0;
    double Speedup = WarmPerIter > 0.0 ? ColdPerIter / WarmPerIter : 1.0;
    if (Speedup >= 1.3)
      ++SpeedupRows;

    std::printf("%-9s %-14s | %3s / %-3s %4u / %-4u | %9.3f %9.3f %6.2fx | "
                "%9llu %9llu | %-5s%s\n",
                E.Sketch.c_str(), E.Test.c_str(),
                Cold.Stats.Resolvable ? "yes" : "NO",
                Warm.Stats.Resolvable ? "yes" : "NO", Cold.Stats.Iterations,
                Warm.Stats.Iterations, ColdS, WarmS, Speedup,
                static_cast<unsigned long long>(solveConflicts(Cold)),
                static_cast<unsigned long long>(solveConflicts(Warm)),
                Agree ? "yes" : "NO!",
                (Cold.Stats.Aborted || Warm.Stats.Aborted) ? " [ABORTED]"
                                                           : "");
    std::fflush(stdout);

    JsonObject Perf;
    Perf.field("kind", "sat_incremental")
        .field("sketch", E.Sketch)
        .field("test", E.Test)
        .field("iterations", static_cast<uint64_t>(Warm.Stats.Iterations))
        .field("warm_solves",
               static_cast<uint64_t>(Warm.Stats.SolveLog.size()))
        .field("cold_ssolve_s", ColdS)
        .field("warm_ssolve_s", WarmS)
        .field("cold_ssolve_per_iter_s", ColdPerIter)
        .field("warm_ssolve_per_iter_s", WarmPerIter)
        .field("ssolve_speedup", Speedup)
        .field("cold_conflicts", solveConflicts(Cold))
        .field("warm_conflicts", solveConflicts(Warm))
        .field("solver_probes", Warm.Stats.SolverProbes)
        .field("smoke", Smoke);
    Json.add(Perf);

    JsonObject Agreement;
    Agreement.field("kind", "sat_agreement")
        .field("sketch", E.Sketch)
        .field("test", E.Test)
        .field("cold_resolvable", Cold.Stats.Resolvable)
        .field("warm_resolvable", Warm.Stats.Resolvable)
        .field("cold_iterations",
               static_cast<uint64_t>(Cold.Stats.Iterations))
        .field("warm_iterations",
               static_cast<uint64_t>(Warm.Stats.Iterations))
        .field("cold_candidate_valid", ColdValid)
        .field("warm_candidate_valid", WarmValid)
        .field("agrees", Agree)
        .field("smoke", Smoke);
    Json.add(Agreement);
  }

  Json.write();

  if (Disagreements != 0) {
    std::fprintf(stderr,
                 "error: warm start broke %u row gate(s) — verdict flip, "
                 "invalid candidate, or iteration blow-up (see NO! rows)\n",
                 Disagreements);
    return 1;
  }
  std::printf("\nall rows agree (verdict, re-verified candidates, sane "
              "iterations); >=1.3x per-iteration Ssolve on %u/%zu rows\n",
              SpeedupRows, Specs.size());
  if (!Smoke && SpeedupRows < 2) {
    std::fprintf(stderr,
                 "error: warm start must reach >=1.3x per-iteration Ssolve "
                 "on at least 2 of %zu rows\n",
                 Specs.size());
    return 1;
  }
  return 0;
}
