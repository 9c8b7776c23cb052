//===- verify/Oracle.h - Naive reference model checker ----------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference oracle every checker agreement test compares against: a
/// deliberately naive explicit-state search that is meant to be obviously
/// right rather than fast. It runs the prologue, then a sequential DFS
/// over copied States in which every ready context branches at every
/// state, dedups on the exact Machine::encodeState key in a standard hash
/// set, and checks deadlock and the epilogue at the leaves. There is no
/// falsifier, no partial-order reduction, no sleep sets, no symmetry, no
/// fingerprints, no spill tier and no threads — none of the machinery the
/// engine in ModelChecker.cpp layers on top is trusted here.
///
/// The search enters states in the same order as checkCandidate with
/// Por == Off, Symmetry == Off, Visited == Exact, the falsifier off and
/// one worker, so for that configuration the two agree on the verdict,
/// the counterexample byte for byte, and StatesExplored. Under every
/// other configuration only the verdict is comparable.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_ORACLE_H
#define PSKETCH_VERIFY_ORACLE_H

#include "verify/ModelChecker.h"

namespace psketch {
namespace verify {

/// Model-checks the candidate \p M with the naive reference search. Stops
/// expanding once \p MaxStates distinct states were entered and reports
/// Exhausted (Ok then means "no violation up to the budget"). Fills Ok,
/// Exhausted, Cex, StatesExplored and StatesDeduped; every other
/// CheckResult field stays at its default.
CheckResult checkOracle(const exec::Machine &M,
                        uint64_t MaxStates = CheckerConfig().MaxStates);

} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_ORACLE_H
