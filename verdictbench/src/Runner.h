//===- verdictbench/src/Runner.h - Untraced rows and certification -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one row the way `psketch_tool` does — build or parse the sketch,
/// construct `cegis::ConcurrentCegis` (which flattens it), `run()` — and
/// times set-up and run separately. Also the checks that decide whether a
/// row failed: verdict, budget, and certification of a resolved candidate
/// by the unreduced checker.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_RUNNER_H
#define VERDICTBENCH_RUNNER_H

#include "Rows.h"

#include "cegis/Cegis.h"

#include <cstdint>
#include <memory>
#include <string>

namespace vb {

/// The machine-independent facts of one row's run. Two runs of the same
/// row (untraced and traced, or two passes) must agree on all of them.
struct Trajectory {
  bool Resolvable = false;
  bool Aborted = false;
  psketch::ir::HoleAssignment Candidate; ///< empty unless Resolvable
  unsigned Iterations = 0;               ///< verifier calls
  uint64_t Solves = 0;                   ///< candidate-proposing SAT solves
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t States = 0;
  uint64_t Clauses = 0;
  uint64_t IntervalPrunes = 0;

  bool operator==(const Trajectory &) const = default;
  /// One line of `key=value` counts, printed per row.
  std::string str() const;
};

/// Builds (or parses) the row's sketch. \returns nullptr with \p Err set
/// when a `.psk` row does not parse.
std::unique_ptr<psketch::ir::Program> makeProgram(const Row &R,
                                                  std::string &Err);

/// One untraced run of a row.
struct RowResult {
  double SetupSeconds = 0.0; ///< median over the set-up repetitions
  double RunSeconds = 0.0;   ///< ConcurrentCegis::run()
  Trajectory Traj;
  std::string Error; ///< set when the sketch could not be built
};

/// Sets the row up \p SetupReps times (sketch construction, `.psk`
/// parsing, the ConcurrentCegis constructor), keeps the median set-up
/// time, and runs the last one.
RowResult runRow(const Row &R, const psketch::cegis::CegisConfig &Cfg,
                 unsigned SetupReps);

/// \returns why the run fails its row ("" when it passes): it aborted on
/// its budget, its verdict differs from the expected one, or its resolved
/// candidate fails certification. Certification re-checks the candidate
/// on an untuned Machine with POR and symmetry off and exact visited
/// keys, under \p MaxStates; a re-check that hits MaxStates fails. Each
/// distinct (row, candidate) is certified once; \p Certified caches the
/// outcome by key.
std::string rowFailure(const Row &R, const Trajectory &T, uint64_t MaxStates,
                       std::map<std::string, std::string> &Certified);

/// \returns why the run must be refused ("" when it may run): the
/// PSKETCH_SHAPE and PSKETCH_WARM_START environment variables silently
/// change library defaults, so a run with either set measures a
/// different program.
std::string configGuard();

} // namespace vb

#endif // VERDICTBENCH_RUNNER_H
