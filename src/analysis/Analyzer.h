//===- analysis/Analyzer.h - The static sketch analyzer ---------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static analyzer that runs before CEGIS touches a verifier. Every
/// CEGIS iteration pays a full model-checking pass, yet a class of
/// candidate failures is decidable from the FlatProgram alone; the
/// analyzer decides those up front and hands the synthesizer unit clauses
/// and hole-only exclusion constraints, so whole subspaces of C are never
/// proposed. Three passes share one Diagnostic sink:
///
///  * hole-space pruning (HoleSpacePrune.h) — constant-folds static
///    guards, detects syntactically-equivalent generator alternatives and
///    redundant reorder positions, and emits unit bans / canonicalization
///    constraints;
///  * lockset + wait-graph pre-screen (Prescreen.h) — flags statically
///    unprotected shared writes and detects wait-condition cycles that
///    deadlock under every hole assignment of a subspace, which CEGIS
///    then excludes without a verifier call;
///  * sketch lint (SketchLint.h) — dead steps, unobservable holes,
///    constant asserts, and structural mistakes, rendered with the
///    flattener's step labels.
///
/// Soundness contract: every assignment covered by a ban or exclusion is
/// either (a) guaranteed to fail verification, or (b) semantically
/// identical to a smaller assignment that stays in the space. Hence the
/// Resolvable/NO verdict of CEGIS is unchanged, and any resolution found
/// is a correct (possibly different but equivalent) implementation.
/// docs/ANALYSIS.md spells out the per-pass arguments; the property test
/// in tests/test_analysis.cpp checks them on randomized sketches.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_ANALYZER_H
#define PSKETCH_ANALYSIS_ANALYZER_H

#include "analysis/Diagnostic.h"
#include "desugar/Flat.h"
#include "ir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psketch {
namespace analysis {

/// Knobs for the analyzer. The enumeration caps bound the work each pass
/// may spend per guard / hole / reorder block; exceeding a cap silently
/// skips the (optional) finding, never affecting soundness.
struct AnalysisConfig {
  bool Prune = true;     ///< run the hole-space pruning pass
  bool Prescreen = true; ///< run the lockset + wait-graph pre-screen
  bool Lint = true;      ///< run the sketch lint pass
  bool AbsInt = true;    ///< run the interval + lockset screen (AbsInt.h)
  bool Shape = true;     ///< run the points-to + shape lint (Shape.h)
  uint64_t MaxGuardEnum = 4096;       ///< assignments per static guard
  unsigned MaxHoleChoices = 64;       ///< equivalence scan per-hole cap
  uint64_t MaxReorderEnum = 4096;     ///< assignments per reorder block
  unsigned MaxReorderExclusions = 256;///< exclusion constraints per block
  unsigned MaxAbsIntProbes = 256;     ///< pinned-hole abstract runs
};

/// A unit clause: hole \p HoleId must not take \p Value.
struct HoleValueBan {
  unsigned HoleId = 0;
  uint64_t Value = 0;
};

/// Everything the analyzer concluded.
struct AnalysisResult {
  std::vector<Diagnostic> Diags;

  /// Unit bans the synthesizer asserts up front (each value is either a
  /// guaranteed failure or equivalent to a smaller remaining value).
  std::vector<HoleValueBan> Bans;

  /// Hole-only constraints every proposed candidate must satisfy
  /// (deadlocking-subspace exclusions, reorder canonicalizations).
  std::vector<ir::ExprRef> Exclusions;

  /// The analyzer proved that *no* hole assignment can satisfy the
  /// specification; CEGIS may report NO without a verifier call.
  bool ProvedUnresolvable = false;
  std::string UnresolvableWhy;

  /// log10 |C'| - log10 |C|: the candidate-space shrink from bans and
  /// canonicalizations (<= 0). bench_table1 adds this to Table 1's |C|.
  double SpaceLog10Delta = 0.0;

  /// Eraser-style inconsistent-locking warnings emitted by the abstract
  /// interpretation screen (subset of Diags, counted for --stats).
  unsigned RaceWarnings = 0;

  /// Heap-field race warnings from the shape lint (subset of Diags,
  /// counted for --stats); zero when the pass is off or refused (site
  /// overflow).
  unsigned HeapRaceWarnings = 0;

  bool hasErrors() const {
    for (const Diagnostic &D : Diags)
      if (D.Sev == Severity::Error)
        return true;
    return false;
  }
};

/// Runs the enabled passes over \p P / \p FP. \p FP must be the
/// flattening of \p P (exclusion constraints are allocated in \p P's
/// arena, which is why the program is taken mutably).
AnalysisResult analyze(ir::Program &P, const flat::FlatProgram &FP,
                       const AnalysisConfig &Cfg = AnalysisConfig());

/// Frontend-facing well-formedness validation: out-of-range hole, global,
/// field, and local references; Choice nodes whose alternative count
/// disagrees with their selector hole. \returns error diagnostics (empty
/// when the program is well-formed). Used by psketch_tool to reject
/// malformed inputs with a real diagnostic instead of crashing or
/// silently reporting non-resolution.
std::vector<Diagnostic> validateProgram(const ir::Program &P);

//===----------------------------------------------------------------------===//
// Individual passes (exposed for unit testing; analyze() runs them all).
//===----------------------------------------------------------------------===//

void runHoleSpacePrune(ir::Program &P, const flat::FlatProgram &FP,
                       const AnalysisConfig &Cfg, DiagnosticSink &Sink,
                       AnalysisResult &Out);
void runPrescreen(ir::Program &P, const flat::FlatProgram &FP,
                  const AnalysisConfig &Cfg, DiagnosticSink &Sink,
                  AnalysisResult &Out);
void runSketchLint(ir::Program &P, const flat::FlatProgram &FP,
                   const AnalysisConfig &Cfg, DiagnosticSink &Sink,
                   AnalysisResult &Out);
/// The thread-modular abstract interpretation screen (AbsInt.h): whole-
/// space refutation (ProvedUnresolvable), pinned-hole unit bans,
/// interval-dead asserts, and Eraser-style race warnings.
void runAbsIntScreen(ir::Program &P, const flat::FlatProgram &FP,
                     const AnalysisConfig &Cfg, DiagnosticSink &Sink,
                     AnalysisResult &Out);
/// The allocation-site points-to + shape lint screen (Shape.h):
/// definite-null derefs, leaked sites, and heap-field races.
void runShapeScreen(ir::Program &P, const flat::FlatProgram &FP,
                    const AnalysisConfig &Cfg, DiagnosticSink &Sink,
                    AnalysisResult &Out);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_ANALYZER_H
