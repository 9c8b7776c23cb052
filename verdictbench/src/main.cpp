//===- verdictbench/src/main.cpp - Time-to-verdict benchmark driver -------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
//
// Usage (from the repository root; verdictbench/run.py builds and calls it):
//
//   verdict_bench --workload W --seed N --seconds S --trace 0|1
//                 [--expected FILE] [--trace-out FILE] [--commit SHA]
//   verdict_bench --derive-expected   # prints expected.tsv
//   verdict_bench --selftest
//   verdict_bench --list-metrics
//
// One closed-loop client resolves the workload's rows one after another
// with the library-default CegisConfig (1 checker worker). Every row runs
// once, then rows run again, short ones more often, until S seconds have
// gone by; the metrics are taken over the per-row medians at nominal
// host speed (Reference.h).
// Untraced, it prints the seven end-to-end metrics; with --trace 1 it
// runs every row once untraced and then replays the rows through the
// layers' public functions until S seconds have gone by, printing the
// per-layer metrics.
// The last stdout line is the JSON result.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Rows.h"
#include "Runner.h"
#include "Selftest.h"
#include "Stats.h"
#include "Trace.h"

#include "cegis/Enumerate.h"
#include "support/MemUsage.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

using namespace psketch;
using namespace vb;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
  std::string Expected = "verdictbench/expected.tsv";
  std::string TraceOut;
  std::string Commit = "unknown";
};

struct Metric {
  const char *Name;
  const char *Unit;
};

const std::vector<Metric> EndToEnd = {
    {"verdict_s", "s"},     {"setup_s", "s"},       {"row_s_p50", "s"},
    {"row_s_tail", "s"},    {"row_s_geomean", "s"}, {"peak_rss_mib", "MiB"},
    {"verified_share", "ratio"},
};

const std::vector<Metric> PerLayer = {
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"sat.restarts", "count"},
    {"sat.propagations_per_s", "1/s"},
    {"synth.solve_s", "s"},
    {"synth.solves", "count"},
    {"synth.init_s", "s"},
    {"circuit.gates", "count"},
    {"circuit.clauses", "count"},
    {"circuit.clauses_per_observation", "ratio"},
    {"synth.add_trace_s", "s"},
    {"synth.observations", "count"},
    {"analysis.candidate_s", "s"},
    {"analysis.candidate_calls", "count"},
    {"analysis.interval_prunes", "count"},
    {"analysis.prune_share", "ratio"},
    {"synth.exclude_s", "s"},
    {"cegis.solves_per_iteration", "ratio"},
    {"verify.check_s", "s"},
    {"verify.checks", "count"},
    {"verify.states", "count"},
    {"verify.states_per_s", "1/s"},
    {"verify.cex_steps", "count"},
    {"verify.exhausted", "count"},
    {"exec.machine_s", "s"},
    {"exec.machines", "count"},
    {"analysis.prescreen_s", "s"},
    {"analysis.prescreen_bans", "count"},
    {"analysis.prescreen_exclusions", "count"},
    {"desugar.flatten_s", "s"},
    {"benchmarks.build_s", "s"},
    {"frontend.parse_s", "s"},
    {"cegis.iterations", "count"},
    {"cegis.unattributed_s", "s"},
    {"cegis.traced_wall_s", "s"},
    {"cegis.trace_overhead", "ratio"},
};

/// Set-up is a few milliseconds per row, so each row is set up this many
/// times per pass and the median counts.
constexpr unsigned SetupReps = 5;

/// Seconds between reference slices (Reference.h); each takes about 12 ms.
constexpr double SliceEvery = 0.2;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "verdict_bench: %s\n", Msg.c_str());
  std::exit(1);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      O.Trace = V == "0" ? 0 : V == "1" ? 1 : -1;
    else if (A == "--expected")
      O.Expected = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--commit")
      O.Commit = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !O.Workload.empty() && O.Seconds > 0.0 && O.Seconds <= 600.0 &&
         O.Trace >= 0;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

const char *porName(verify::PorMode M) {
  return M == verify::PorMode::Off     ? "off"
         : M == verify::PorMode::Local ? "local"
                                       : "ample";
}

void printProvenance(const Options &O, const cegis::CegisConfig &Cfg,
                     const std::vector<Row> &Rows) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace);
  std::printf("# config: Shape=%d SolverWarmStart=%d Prescreen=%d AbsInt=%d "
              "Por=%s Symmetry=%s BatchWidth=%u NumThreads=%u "
              "MaxStates=%llu MaxIterations=%u TimeLimitSeconds=%g\n",
              Cfg.Shape, Cfg.SolverWarmStart, Cfg.Prescreen, Cfg.AbsInt,
              porName(Cfg.Checker.Por),
              Cfg.Checker.Symmetry == verify::SymmetryMode::Off ? "off"
                                                                 : "orbit",
              Cfg.Checker.BatchWidth, verify::resolvedNumThreads(Cfg.Checker),
              static_cast<unsigned long long>(Cfg.Checker.MaxStates),
              Cfg.MaxIterations, Cfg.TimeLimitSeconds);
  std::printf("# host: cpu=\"%s\" nproc=%u build=%s commit=%s\n",
              cpuModel().c_str(), std::thread::hardware_concurrency(),
              VB_BUILD_TYPE, O.Commit.c_str());
  std::printf("# rows (%zu):", Rows.size());
  for (const Row &R : Rows)
    std::printf(" [%s]", R.id().c_str());
  std::printf("\n");
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Names,
                 const std::map<std::string, double> &Values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Names.size(); ++I) {
    auto It = Values.find(Names[I].Name);
    double V = It == Values.end() ? 0.0 : It->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Names[I].Name, V, Names[I].Unit);
  }
  std::printf("}}\n");
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// The untraced runs of one row.
struct Samples {
  std::vector<double> Setup, Run; ///< wall seconds of each run
  std::vector<double> From, To;   ///< each run's window on the run clock
  std::vector<double> Factor;     ///< each run's host speed factor
  double Used = 0.0; ///< wall seconds spent on the row, set-up repeats too

  /// Set-up plus run of each run, in wall seconds or, with \p Nominal,
  /// at nominal host speed.
  std::vector<double> total(bool Nominal = false) const {
    std::vector<double> T;
    for (size_t K = 0; K < Run.size(); ++K)
      T.push_back((Setup[K] + Run[K]) * (Nominal ? Factor[K] : 1.0));
    return T;
  }
  /// \p V (Setup or Run) at nominal host speed.
  std::vector<double> nominal(const std::vector<double> &V) const {
    std::vector<double> N;
    for (size_t K = 0; K < V.size(); ++K)
      N.push_back(V[K] * Factor[K]);
    return N;
  }
};

/// The traced passes, at least one and then more until \p Clock reads
/// --seconds: per-layer metrics of each pass.
std::vector<std::map<std::string, double>>
tracedPasses(const Options &O, const WallTimer &Clock,
             const cegis::CegisConfig &Cfg,
             const std::vector<Row> &Rows,
             const std::vector<Trajectory> &Untraced, double UntracedWall,
             std::vector<std::string> &Fail) {
  std::vector<std::map<std::string, double>> Out;
  std::vector<std::string> Names;
  for (const Row &R : Rows)
    Names.push_back(R.id());
  do {
    Recorder Rec;
    std::map<std::string, double> M;
    for (const char *Count : {"analysis.candidate_calls", "verify.cex_steps"})
      M[Count] = 0.0;
    for (size_t I = 0; I < Rows.size(); ++I) {
      TracedRow TR = replayRow(Rows[I], Cfg, Rec, static_cast<uint32_t>(I), M);
      if (!TR.Error.empty())
        die(TR.Error);
      if (Out.empty())
        std::printf("traced %-32s wall_s=%.6f ended=%s exhausted_checks=%llu\n",
                    Rows[I].id().c_str(), TR.WallSeconds,
                    TR.Traj.Resolvable ? "candidate"
                    : TR.EndedUnsat    ? "UNSAT"
                                       : "prescreen",
                    static_cast<unsigned long long>(TR.ExhaustedChecks));
      if (!Fail[I].empty())
        continue;
      if (TR.Traj != Untraced[I])
        Fail[I] = "traced replay diverged: " + TR.Traj.str();
      else if (TR.ExhaustedChecks)
        Fail[I] = "a checker call hit MaxStates (the loop reads it as a pass)";
    }
    addLayerTimes(Rec, M);
    double Wall = M["cegis.traced_wall_s"];
    double Attributed = 0.0;
    for (const auto &[Name, V] : M)
      if (Name.size() > 2 && Name.compare(Name.size() - 2, 2, "_s") == 0 &&
          Name != "cegis.traced_wall_s")
        Attributed += V;
    if (std::abs(Attributed - Wall) > 1e-6 * std::max(1.0, Wall))
      die("span self times do not partition the traced wall time");
    M["sat.propagations_per_s"] =
        ratio(M["sat.propagations"], M["synth.solve_s"]);
    M["verify.states_per_s"] = ratio(M["verify.states"], M["verify.check_s"]);
    M["circuit.clauses_per_observation"] =
        ratio(M["circuit.clauses"], M["synth.observations"]);
    M["analysis.prune_share"] =
        ratio(M["analysis.interval_prunes"], M["analysis.candidate_calls"]);
    M["cegis.solves_per_iteration"] =
        ratio(M["synth.solves"], M["cegis.iterations"]);
    M["cegis.trace_overhead"] = ratio(Wall, UntracedWall);
    if (Out.empty() && !O.TraceOut.empty() && !Rec.write(O.TraceOut, Names))
      die("cannot write " + O.TraceOut);
    Out.push_back(std::move(M));
  } while (Clock.seconds() < O.Seconds);
  return Out;
}

int measure(const Options &O) {
  std::string Err = configGuard();
  if (!Err.empty())
    die(Err);
  ExpectedTable Table;
  std::vector<Row> Rows;
  if (!loadExpected(O.Expected, Table, Err) ||
      !drawWorkload(O.Workload, O.Seed, Table, Rows, Err))
    die(Err);

  const cegis::CegisConfig Cfg; // the library defaults psketch_tool runs
  printProvenance(O, Cfg, Rows);

  // Untraced closed loop. The first pass runs every row once, in list
  // order. After it, until --seconds have gone by, the loop runs the row
  // with the least (time used) x (runs) among those whose mean run fits
  // in the time left. A row taking c seconds a run then runs about in
  // proportion to 1/sqrt(c) times: the split of a fixed time that makes
  // the per-row medians, which the median, tail and geometric mean
  // weigh equally, steadiest together. Each row's runs spread over the
  // whole run, so a slow spell of the host touches a few of a row's
  // runs rather than all of them. A traced run stops after the first
  // pass: it needs one untraced trajectory and wall time per row, and
  // spends the rest on replays.
  // Reference slices run between rows, at most every SliceEvery
  // seconds, and set each run's host speed factor (Reference.h).
  WallTimer Clock;
  std::vector<Trajectory> First(Rows.size());
  std::vector<std::string> Fail(Rows.size());
  std::vector<Samples> Runs(Rows.size());
  Reference Ref;
  double LastSlice = 0.0;
  for (;;) {
    size_t I = 0;
    while (I < Rows.size() && !Runs[I].Run.empty())
      ++I;
    if (I == Rows.size()) {
      const double Left = O.Seconds - Clock.seconds();
      if (O.Trace || Left <= 0.0)
        break;
      I = Rows.size();
      for (size_t K = 0; K < Rows.size(); ++K) {
        const Samples &S = Runs[K];
        if (S.Used / static_cast<double>(S.Run.size()) > Left)
          continue;
        if (I == Rows.size() ||
            S.Used * static_cast<double>(S.Run.size()) <
                Runs[I].Used * static_cast<double>(Runs[I].Run.size()))
          I = K;
      }
      if (I == Rows.size())
        break;
    }
    Samples &S = Runs[I];
    // Five slices before the first row, then one whenever one is due.
    while (Ref.slices() < 5 || Clock.seconds() - LastSlice >= SliceEvery) {
      LastSlice = Clock.seconds();
      Ref.slice(LastSlice);
    }
    S.From.push_back(Clock.seconds());
    WallTimer Used;
    RowResult RR = runRow(Rows[I], Cfg, SetupReps);
    if (!RR.Error.empty())
      die(RR.Error);
    if (S.Run.empty()) {
      First[I] = RR.Traj;
      std::printf("row %-32s expect=%s(%s) %s setup_s=%.6f run_s=%.6f\n",
                  Rows[I].id().c_str(),
                  Rows[I].ExpectResolvable ? "YES" : "NO",
                  Rows[I].Provenance.c_str(), RR.Traj.str().c_str(),
                  RR.SetupSeconds, RR.RunSeconds);
      std::fflush(stdout);
    } else if (RR.Traj != First[I] && Fail[I].empty()) {
      Fail[I] = "trajectory differs between runs: " + RR.Traj.str();
    }
    S.Setup.push_back(RR.SetupSeconds);
    S.Run.push_back(RR.RunSeconds);
    S.Used += Used.seconds();
    S.To.push_back(Clock.seconds());
  }
  Ref.slice(Clock.seconds());
  for (Samples &S : Runs)
    for (size_t K = 0; K < S.Run.size(); ++K)
      S.Factor.push_back(Ref.factor(S.From[K], S.To[K]));
  const double PeakRss = peakRSSMiB(); // before certification

  // Outside the timed window: verdicts and certification.
  std::map<std::string, std::string> Certified;
  for (size_t I = 0; I < Rows.size(); ++I)
    if (Fail[I].empty())
      Fail[I] = rowFailure(Rows[I], First[I], Cfg.Checker.MaxStates, Certified);

  std::map<std::string, double> Values;
  std::vector<std::map<std::string, double>> Traced;
  if (O.Trace) {
    double UntracedWall = 0.0;
    for (const Samples &S : Runs)
      UntracedWall += S.total().front();
    Traced = tracedPasses(O, Clock, Cfg, Rows, First, UntracedWall, Fail);
    for (const Metric &M : PerLayer) {
      std::vector<double> V;
      for (auto &T : Traced)
        V.push_back(T[M.Name]);
      Values[M.Name] = median(V);
    }
    double Wall = Values["cegis.traced_wall_s"];
    std::printf("shares of traced wall %.3fs: solve+add_trace=%.1f%% "
                "check=%.1f%% solve=%.1f%% unattributed=%.2f%% "
                "(median of %zu traced passes)\n",
                Wall,
                100 * ratio(Values["synth.solve_s"] +
                                Values["synth.add_trace_s"], Wall),
                100 * ratio(Values["verify.check_s"], Wall),
                100 * ratio(Values["synth.solve_s"], Wall),
                100 * ratio(Values["cegis.unattributed_s"], Wall),
                Traced.size());
  }

  uint64_t Attempted = 0, Failed = 0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    Attempted += Runs[I].Run.size();
    if (!Fail[I].empty()) {
      Failed += Runs[I].Run.size();
      std::printf("FAIL %s: %s\n", Rows[I].id().c_str(), Fail[I].c_str());
    }
  }

  if (!O.Trace) {
    // Every time metric is at nominal host speed; the wall-clock
    // medians are printed beside them.
    std::vector<double> RowS;
    double WallVerdict = 0.0;
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Samples &S = Runs[I];
      Values["verdict_s"] += median(S.nominal(S.Run));
      Values["setup_s"] += median(S.nominal(S.Setup));
      WallVerdict += median(S.Run);
      RowS.push_back(median(S.total(true)));
      std::printf("row %-32s runs=%zu median_row_s=%.6f wall_row_s=%.6f "
                  "speed_factor=%.4f\n",
                  Rows[I].id().c_str(), S.Run.size(), RowS.back(),
                  median(S.total()), median(S.Factor));
    }
    std::printf("reference: %zu slices, median/nominal s %s; "
                "wall-clock verdict_s=%.6f\n",
                Ref.slices(), Ref.summary().c_str(), WallVerdict);
    Tail T = tail(RowS);
    Values["row_s_p50"] = median(RowS);
    Values["row_s_tail"] = T.Value;
    Values["row_s_geomean"] = geomean(RowS);
    Values["peak_rss_mib"] = PeakRss;
    Values["verified_share"] = 1.0 - ratio(double(Failed), double(Attempted));
    std::printf("row_s_tail is p%.2f of %zu row times (%s); "
                "failed_share=%.4f (%llu/%llu row runs)\n",
                T.Percentile, T.Samples,
                T.Samples <= 10 ? "the maximum" : "10 beyond it",
                ratio(double(Failed), double(Attempted)),
                static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(Attempted));
  }
  printResult(Failed == 0, Attempted, Failed, O.Trace ? PerLayer : EndToEnd,
              Values);
  return 0;
}

/// Prints the expected-verdict table for every row a seed can draw
/// outside Figure 9: exhaustive enumeration for |C| <= 1e4, otherwise a
/// CEGIS run with every pruning, reduction and warm start off.
int deriveExpected() {
  cegis::CegisConfig Plain;
  Plain.Prescreen = false;
  Plain.AbsInt = false;
  Plain.Shape = false;
  Plain.Analysis.Shape = false;
  Plain.SolverWarmStart = false;
  Plain.Checker.Por = verify::PorMode::Off;
  Plain.Checker.Symmetry = verify::SymmetryMode::Off;
  std::printf("# id\tverdict\tprovenance (verdict_bench --derive-expected)\n");
  for (Row R : generatedRows()) {
    std::string Err;
    if (!resolveRow(R, Err))
      die(Err);
    std::unique_ptr<ir::Program> P = makeProgram(R, Err);
    if (!P)
      die(Err);
    bool Yes = false;
    const char *Prov = "enumerate";
    if (P->candidateSpaceSize().log10() <= 4.0) {
      cegis::EnumerateResult E = cegis::enumerateSolutions(*P, 1u << 20, Plain);
      if (!E.Exhausted)
        die("enumeration of '" + R.id() + "' did not cover the space");
      Yes = !E.Solutions.empty();
    } else {
      Prov = "cegis-plain";
      cegis::ConcurrentCegis Driver(*P, Plain);
      cegis::CegisResult Res = Driver.run();
      if (Res.Stats.Aborted)
        die("plain CEGIS on '" + R.id() + "' aborted");
      Yes = Res.Stats.Resolvable;
    }
    std::printf("%s\t%s\t%s\n", R.id().c_str(), Yes ? "YES" : "NO", Prov);
    std::fflush(stdout);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && !std::strcmp(Argv[1], "--derive-expected"))
    return deriveExpected();
  if (Argc == 2 && !std::strcmp(Argv[1], "--list-metrics")) {
    for (const Metric &M : EndToEnd)
      std::printf("end_to_end %s %s\n", M.Name, M.Unit);
    for (const Metric &M : PerLayer)
      std::printf("per_layer %s %s\n", M.Name, M.Unit);
    return 0;
  }
  if (Argc >= 2 && !std::strcmp(Argv[1], "--selftest"))
    return runSelftest(Argc > 3 ? Argv[3] : "verdictbench/expected.tsv");
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--expected FILE] [--trace-out FILE] "
                 "[--commit SHA]\n");
    return 2;
  }
  return measure(O);
}
