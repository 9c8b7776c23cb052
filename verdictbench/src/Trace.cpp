//===- verdictbench/src/Trace.cpp - Traced replay of the CEGIS loop -------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analysis/AbsInt.h"
#include "analysis/Analyzer.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "support/Timer.h"
#include "synth/InductiveSynth.h"
#include "verify/ModelChecker.h"

#include <cstdio>
#include <fstream>
#include <memory>

using namespace psketch;

namespace vb {

uint32_t Recorder::begin(const char *Name, uint32_t Parent, uint32_t Row) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Row = Row;
  S.Start = now();
  Spans.push_back(std::move(S));
  return static_cast<uint32_t>(Spans.size());
}

std::vector<double> Recorder::selfSeconds() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent)
      Self[S.Parent - 1] -= S.End - S.Start;
  return Self;
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// The per-layer timing each span name is charged to. The prescreen's
/// bans and exclusions are asserted by the synthesizer but belong to the
/// prescreen step.
const std::map<std::string, std::string> &layerOf() {
  static const std::map<std::string, std::string> M = {
      {"benchmarks.build", "benchmarks.build_s"},
      {"frontend.parse", "frontend.parse_s"},
      {"desugar.flatten", "desugar.flatten_s"},
      {"synth.init", "synth.init_s"},
      {"analysis.analyze", "analysis.prescreen_s"},
      {"synth.banHoleValue", "analysis.prescreen_s"},
      {"synth.assertHoleConstraint", "analysis.prescreen_s"},
      {"synth.solve", "synth.solve_s"},
      {"analysis.analyzeCandidate", "analysis.candidate_s"},
      {"exec.Machine", "exec.machine_s"},
      {"verify.checkCandidate", "verify.check_s"},
      {"synth.addTrace", "synth.add_trace_s"},
      {"synth.excludeCandidate", "synth.exclude_s"},
      {"cegis.row", "cegis.unattributed_s"},
  };
  return M;
}

} // namespace

bool Recorder::write(const std::string &Path,
                     const std::vector<std::string> &RowNames) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof Buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":",
                  S.Start * 1e6, (S.End - S.Start) * 1e6);
    Out << (I ? ",\n" : "") << Buf << jsonString(S.Name)
        << ",\"args\":{\"span\":" << I + 1 << ",\"parent\":" << S.Parent
        << ",\"row\":"
        << jsonString(S.Row < RowNames.size() ? RowNames[S.Row] : "?");
    for (const auto &[Key, Value] : S.Args) {
      std::snprintf(Buf, sizeof Buf, "%.17g", Value);
      Out << "," << jsonString(Key) << ":" << Buf;
    }
    Out << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

void addLayerTimes(const Recorder &Rec,
                   std::map<std::string, double> &Metrics) {
  std::vector<double> Self = Rec.selfSeconds();
  for (const auto &[Span, Metric] : layerOf())
    Metrics[Metric] += 0.0; // every layer appears, even when never called
  for (size_t I = 0; I < Self.size(); ++I) {
    const Span &S = Rec.spans()[I];
    auto It = layerOf().find(S.Name);
    if (It != layerOf().end())
      Metrics[It->second] += Self[I];
    if (!S.Parent)
      Metrics["cegis.traced_wall_s"] += S.End - S.Start;
  }
}

TracedRow replayRow(const Row &R, const cegis::CegisConfig &Cfg,
                    Recorder &Rec, uint32_t RowIndex,
                    std::map<std::string, double> &Counts) {
  TracedRow Out;
  Trajectory &T = Out.Traj;
  const uint32_t Root = Rec.begin("cegis.row", 0, RowIndex);
  // Times one call as a child span of the row.
  auto Call = [&](const char *Name, auto &&Fn) {
    uint32_t H = Rec.begin(Name, Root, RowIndex);
    Fn();
    Rec.end(H);
  };

  std::unique_ptr<ir::Program> P;
  Call(R.isPsk() ? "frontend.parse" : "benchmarks.build",
       [&] { P = makeProgram(R, Out.Error); });
  if (!P) {
    Rec.end(Root);
    return Out;
  }
  flat::FlatProgram FP;
  Call("desugar.flatten", [&] { FP = flat::flatten(*P); });

  std::unique_ptr<synth::InductiveSynth> Synth;
  Call("synth.init", [&] {
    synth::SynthOptions Opts;
    Opts.WarmStart = Cfg.SolverWarmStart;
    Synth = std::make_unique<synth::InductiveSynth>(FP, Opts);
  });

  // The prescreen (cegis/Cegis.cpp applyPrescreen).
  bool Proved = false;
  if (Cfg.Prescreen) {
    analysis::AnalysisResult A;
    Call("analysis.analyze", [&] { A = analysis::analyze(*P, FP, Cfg.Analysis); });
    for (const analysis::HoleValueBan &B : A.Bans)
      Call("synth.banHoleValue",
           [&] { Synth->banHoleValue(B.HoleId, B.Value); });
    for (ir::ExprRef E : A.Exclusions)
      Call("synth.assertHoleConstraint",
           [&] { Synth->assertHoleConstraint(E); });
    Counts["analysis.prescreen_bans"] += A.Bans.size();
    Counts["analysis.prescreen_exclusions"] += A.Exclusions.size();
    Proved = A.ProvedUnresolvable;
  }

  // The loop (cegis/Cegis.cpp ConcurrentCegis::run), with the library's
  // default audit settings: AbsIntAudit and ShapeAudit off.
  WallTimer Total;
  while (!Proved) {
    if (T.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      T.Aborted = true;
      break;
    }

    ir::HoleAssignment Candidate;
    uint32_t SolveSpan = Rec.begin("synth.solve", Root, RowIndex);
    bool Sat = Synth->solve(Candidate);
    Rec.end(SolveSpan);
    if (!Synth->stats().Solves.empty()) {
      const synth::SolveRecord &S = Synth->stats().Solves.back();
      Rec.span(SolveSpan).Args = {
          {"sat", S.Sat ? 1.0 : 0.0},
          {"conflicts", static_cast<double>(S.Conflicts)},
          {"decisions", static_cast<double>(S.Decisions)},
          {"propagations", static_cast<double>(S.Propagations)}};
    }
    if (!Sat) {
      Out.EndedUnsat = true;
      break;
    }

    analysis::CandidateFacts Facts;
    bool HaveFacts = false;
    if (Cfg.AbsInt) {
      Call("analysis.analyzeCandidate", [&] {
        Facts = analysis::analyzeCandidate(*P, FP, Candidate,
                                           analysis::AbsIntConfig(),
                                           Cfg.Shape);
      });
      HaveFacts = true;
      Counts["analysis.candidate_calls"] += 1;
    }
    if (HaveFacts && Facts.Refuted) {
      ++T.IntervalPrunes;
      Call("synth.excludeCandidate",
           [&] { Synth->excludeCandidate(Candidate); });
      if (T.IntervalPrunes >= (uint64_t(1) << 20)) {
        T.Aborted = true;
        break;
      }
      continue;
    }

    exec::MachineTuning Tuning;
    if (HaveFacts) {
      Tuning.Locks = &Facts.Locks;
      Tuning.Bounds = &Facts.Bounds;
      if (Cfg.Shape && !Facts.Heap.empty())
        Tuning.Heap = &Facts.Heap;
    }
    std::unique_ptr<exec::Machine> M;
    Call("exec.Machine", [&] {
      M = std::make_unique<exec::Machine>(FP, Candidate, Tuning);
    });

    verify::CheckResult Check;
    uint32_t CheckSpan = Rec.begin("verify.checkCandidate", Root, RowIndex);
    Check = verify::checkCandidate(*M, Cfg.Checker);
    Rec.end(CheckSpan);
    Rec.span(CheckSpan).Args = {
        {"ok", Check.Ok ? 1.0 : 0.0},
        {"exhausted", Check.Exhausted ? 1.0 : 0.0},
        {"states", static_cast<double>(Check.StatesExplored)}};
    ++T.Iterations;
    T.States += Check.StatesExplored;
    Out.ExhaustedChecks += Check.Exhausted;

    if (Check.Ok) {
      T.Resolvable = true;
      T.Candidate = std::move(Candidate);
      break;
    }
    Counts["verify.cex_steps"] += Check.Cex->Steps.size();
    if (Cfg.LearnFromTraces)
      Call("synth.addTrace", [&] { Synth->addTrace(*Check.Cex); });
    else
      Call("synth.excludeCandidate",
           [&] { Synth->excludeCandidate(Candidate); });
  }
  Rec.end(Root);
  Out.WallSeconds = Rec.span(Root).End - Rec.span(Root).Start;

  const synth::SynthStats &SS = Synth->stats();
  T.Solves = SS.Solves.size();
  for (const synth::SolveRecord &S : SS.Solves) {
    T.Propagations += S.Propagations;
    T.Conflicts += S.Conflicts;
    Counts["sat.decisions"] += static_cast<double>(S.Decisions);
    Counts["sat.restarts"] += static_cast<double>(S.Restarts);
  }
  T.Clauses = SS.ClauseCount;
  Counts["sat.propagations"] += static_cast<double>(T.Propagations);
  Counts["sat.conflicts"] += static_cast<double>(T.Conflicts);
  Counts["synth.solves"] += static_cast<double>(T.Solves);
  Counts["synth.observations"] += static_cast<double>(SS.Observations);
  Counts["circuit.gates"] += static_cast<double>(SS.GateCount);
  Counts["circuit.clauses"] += static_cast<double>(SS.ClauseCount);
  Counts["analysis.interval_prunes"] += static_cast<double>(T.IntervalPrunes);
  Counts["verify.checks"] += T.Iterations;
  Counts["verify.states"] += static_cast<double>(T.States);
  Counts["verify.exhausted"] += static_cast<double>(Out.ExhaustedChecks);
  Counts["exec.machines"] += T.Iterations;
  Counts["cegis.iterations"] += T.Iterations;
  return Out;
}

} // namespace vb
