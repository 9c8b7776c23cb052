//===- verdictbench/src/Trace.h - Traced replay of the CEGIS loop -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run drives the same loop as `ConcurrentCegis::run()` from
/// the layers' public functions (analysis, synth, exec, verify) and
/// records one span per call: name, start, end, parent and the row it
/// belongs to, plus the counts read at that boundary from SolveRecord,
/// SynthStats and CheckResult. Spans stay in memory and are written at
/// exit in the trace-event JSON format a browser's trace viewer reads
/// offline.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_TRACE_H
#define VERDICTBENCH_TRACE_H

#include "Rows.h"
#include "Runner.h"

#include "cegis/Cegis.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vb {

/// One recorded call.
struct Span {
  const char *Name = "";
  double Start = 0.0; ///< seconds since the recorder's epoch
  double End = 0.0;
  uint32_t Parent = 0; ///< index + 1 of the enclosing span; 0 for a root
  uint32_t Row = 0;    ///< index of the row every span of a run shares
  std::vector<std::pair<const char *, double>> Args;
};

/// In-memory span store.
class Recorder {
public:
  Recorder() : Epoch(Clock::now()) {}

  /// Opens a span. \returns its handle (index + 1).
  uint32_t begin(const char *Name, uint32_t Parent, uint32_t Row);
  void end(uint32_t Handle) { Spans[Handle - 1].End = now(); }
  Span &span(uint32_t Handle) { return Spans[Handle - 1]; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus its direct children's.
  std::vector<double> selfSeconds() const;

  /// Writes the spans as trace-event JSON ("X" events, microseconds);
  /// \p RowNames names each row index. \returns false on an I/O error.
  bool write(const std::string &Path,
             const std::vector<std::string> &RowNames) const;

private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// What the traced run of one row produced.
struct TracedRow {
  Trajectory Traj;
  double WallSeconds = 0.0;    ///< the row span's duration
  uint64_t ExhaustedChecks = 0; ///< checker calls that hit MaxStates
  bool EndedUnsat = false;      ///< the last solve returned UNSAT
  std::string Error;
};

/// Replays one row under \p Cfg through the layers' public functions,
/// recording spans into \p Rec under row index \p RowIndex and adding the
/// row's counts into \p Counts (keyed by per-layer metric name).
TracedRow replayRow(const Row &R, const psketch::cegis::CegisConfig &Cfg,
                    Recorder &Rec, uint32_t RowIndex,
                    std::map<std::string, double> &Counts);

/// Sums span self times by span name into \p Metrics, as the per-layer
/// `<module>.<metric>_s` timings, and sets `cegis.unattributed_s` (the
/// row spans' self time) and `cegis.traced_wall_s`.
void addLayerTimes(const Recorder &Rec, std::map<std::string, double> &Metrics);

} // namespace vb

#endif // VERDICTBENCH_TRACE_H
