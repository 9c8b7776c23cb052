//===- verdictbench/src/Selftest.cpp - The benchmark's own tests ----------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//
//
// Run with `python3 verdictbench/run.py --selftest` from the repository
// root. Covers the order statistics, the host speed factor, the
// configuration guard, seed determinism, the failure accounting (a wrong
// expected verdict and a check cut off at MaxStates both fail their
// row), and that the traced replay reproduces the untraced trajectory on
// every fig9 row.
//
//===----------------------------------------------------------------------===//

#include "Selftest.h"

#include "Reference.h"
#include "Rows.h"
#include "Runner.h"
#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace psketch;

namespace vb {

namespace {

unsigned Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
  std::fflush(stdout);
  Failures += !Ok;
}

bool near(double A, double B) { return std::abs(A - B) < 1e-9; }

void testOrderStatistics() {
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
  expect(near(geomean({0.5, 2.0}), 1.0) && near(geomean({8, 8, 8}), 8),
         "geometric mean");

  std::vector<double> Ten;
  for (int I = 1; I <= 10; ++I)
    Ten.push_back(I);
  Tail T10 = tail(Ten);
  expect(near(T10.Value, 10) && near(T10.Percentile, 100) && T10.Samples == 10,
         "10 samples: the tail is the maximum");

  std::vector<double> Eleven = Ten;
  Eleven.push_back(11);
  Tail T11 = tail(Eleven);
  expect(near(T11.Value, 1) && near(T11.Percentile, 100.0 / 11),
         "11 samples: the lowest value has exactly 10 beyond it");

  std::vector<double> Hundred;
  for (int I = 100; I >= 1; --I)
    Hundred.push_back(I);
  Tail T100 = tail(Hundred);
  expect(near(T100.Value, 90) && near(T100.Percentile, 90) &&
             T100.Samples == 100,
         "100 samples: p90, with samples 91..100 beyond it");

  std::vector<double> Thousand;
  for (int I = 1; I <= 1000; ++I)
    Thousand.push_back(I);
  Tail T1000 = tail(Thousand);
  expect(near(T1000.Value, 990) && near(T1000.Percentile, 99),
         "1000 samples: p99");
}

void testReference() {
  Reference Empty;
  expect(near(Empty.factor(0, 1), 1), "no slices: speed factor 1");

  // Slices every 0.2 s; from 2.0 s on the host runs twice as slow.
  Reference R;
  const Reference::Times &Nom = Reference::NominalSeconds;
  for (int I = 0; I <= 30; ++I) {
    double Slow = I >= 10 ? 2.0 : 1.0;
    R.record(0.2 * I, {Nom[0] * Slow, Nom[1] * Slow, Nom[2] * Slow});
  }
  expect(near(R.factor(0.3, 0.35), 1) && near(R.factor(4.0, 4.1), 0.5),
         "speed factor is nominal over measured slice time");
  expect(near(R.factor(0.9, 1.0), 1) && near(R.factor(2.9, 3.0), 0.5),
         "speed factor uses the slices within 0.5 s of the run");
  expect(near(R.factor(5.5, 9.0), 0.5),
         "after the last slice the last slice sets the factor");
  expect(near(R.factor(2.2, 2.8), 0.5) && near(R.factor(0.2, 1.4), 1),
         "a longer run takes the slices within its own length of it");

  // One kernel slow, the others not: the geometric mean.
  Reference G;
  G.record(0.0, {Nom[0] * 8, Nom[1], Nom[2]});
  expect(near(G.factor(0.0, 0.1), 0.5),
         "speed factor is the geometric mean over the kernels");
}

void testConfigGuard() {
  expect(configGuard().empty(), "guard passes with a clean environment");
  for (const char *Var : {"PSKETCH_SHAPE", "PSKETCH_WARM_START"}) {
    setenv(Var, "on", 1);
    expect(!configGuard().empty(), std::string("guard refuses ") + Var);
    unsetenv(Var);
  }
}

std::vector<std::string> ids(const std::vector<Row> &Rows) {
  std::vector<std::string> Out;
  for (const Row &R : Rows)
    Out.push_back(R.id());
  return Out;
}

void testSeeds(const ExpectedTable &Table) {
  for (const std::string &W : workloadNames()) {
    std::vector<Row> A, B;
    std::string Err;
    bool Ok = drawWorkload(W, 7, Table, A, Err) &&
              drawWorkload(W, 7, Table, B, Err);
    expect(Ok && !A.empty() && ids(A) == ids(B),
           W + ": the same seed draws the same rows" +
               (Err.empty() ? "" : " (" + Err + ")"));
    std::set<std::vector<std::string>> Lists;
    for (uint64_t Seed = 1; Seed <= 16; ++Seed)
      if (drawWorkload(W, Seed, Table, A, Err))
        Lists.insert(ids(A));
    bool Seeded = W == "verify-large";
    expect(Seeded ? Lists.size() > 1 : Lists.size() == 1,
           W + (Seeded ? ": seeds draw different rows"
                       : ": Figure-9 rows do not depend on the seed"));
  }
}

/// Finds a row of \p Workload by id.
Row findRow(const ExpectedTable &Table, const std::string &Workload,
            const std::string &Id) {
  std::vector<Row> Rows;
  std::string Err;
  if (drawWorkload(Workload, 1, Table, Rows, Err))
    for (Row &R : Rows)
      if (R.id() == Id)
        return R;
  std::fprintf(stderr, "selftest: no row '%s' in %s\n", Id.c_str(),
               Workload.c_str());
  std::exit(1);
}

void testFailureAccounting(const ExpectedTable &Table) {
  const cegis::CegisConfig Cfg;
  std::map<std::string, std::string> Certified;
  Row R = findRow(Table, "fig9", "lazyset ar(aa|rr)");
  Trajectory T = runRow(R, Cfg, 1).Traj;
  expect(rowFailure(R, T, Cfg.Checker.MaxStates, Certified).empty(),
         "a correct, certified row passes");
  Row Wrong = R;
  Wrong.ExpectResolvable = !R.ExpectResolvable;
  expect(!rowFailure(Wrong, T, Cfg.Checker.MaxStates, Certified).empty(),
         "an injected wrong expected verdict fails its row");

  // ConcurrentCegis::run never reads CheckResult::Exhausted, so a check
  // cut off at MaxStates passes as "resolvable". Both the untraced
  // certification and the traced replay must turn that into a failure.
  cegis::CegisConfig Small;
  Small.Checker.MaxStates = 2000;
  Row Din = findRow(Table, "fig9", "dinphilo N=4,T=3");
  Trajectory DT = runRow(Din, Small, 1).Traj;
  std::string Why = rowFailure(Din, DT, Small.Checker.MaxStates, Certified);
  expect(DT.Resolvable && !Why.empty(),
         "a run with MaxStates=2000 reports YES and fails its row (" + Why +
             ")");
  Recorder Rec;
  std::map<std::string, double> Counts;
  TracedRow TR = replayRow(Din, Small, Rec, 0, Counts);
  expect(TR.ExhaustedChecks > 0 && Counts["verify.exhausted"] > 0,
         "the traced replay counts the exhausted check");
}

void testReplay(const ExpectedTable &Table) {
  std::vector<Row> Rows;
  std::string Err;
  if (!drawWorkload("fig9", 1, Table, Rows, Err)) {
    expect(false, "draw fig9: " + Err);
    return;
  }
  const cegis::CegisConfig Cfg;
  for (size_t I = 0; I < Rows.size(); ++I) {
    Trajectory Untraced = runRow(Rows[I], Cfg, 1).Traj;
    Recorder Rec;
    std::map<std::string, double> Counts;
    TracedRow TR = replayRow(Rows[I], Cfg, Rec, static_cast<uint32_t>(I),
                             Counts);
    std::map<std::string, double> Times;
    addLayerTimes(Rec, Times);
    double Parts = 0.0;
    for (const auto &[Name, V] : Times)
      if (Name != "cegis.traced_wall_s")
        Parts += V;
    expect(TR.Traj == Untraced &&
               std::abs(Parts - Times["cegis.traced_wall_s"]) < 1e-6,
           "replay of " + Rows[I].id() + " matches (" + TR.Traj.str() + ")");
  }
}

} // namespace

int runSelftest(const std::string &ExpectedPath) {
  ExpectedTable Table;
  std::string Err;
  if (!loadExpected(ExpectedPath, Table, Err)) {
    std::fprintf(stderr, "selftest: %s\n", Err.c_str());
    return 1;
  }
  testOrderStatistics();
  testReference();
  testConfigGuard();
  testSeeds(Table);
  testFailureAccounting(Table);
  testReplay(Table);
  std::printf("%u failure(s)\n", Failures);
  return Failures ? 1 : 0;
}

} // namespace vb
