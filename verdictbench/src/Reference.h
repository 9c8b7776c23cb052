//===- verdictbench/src/Reference.h - Host speed reference -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed reference kernels that track how fast the host runs right now.
/// On a shared host the same row can take 1.5x longer for a minute at a
/// time, longer than a run. The benchmark runs a short reference slice
/// between rows and scales each row's time by the reference's nominal
/// time over its measured time around that row, so a slow spell of the
/// host divides out. The kernels are the benchmark's own code: a change
/// to the library cannot make them faster or slower.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_REFERENCE_H
#define VERDICTBENCH_REFERENCE_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace vb {

/// The reference slices of one run, in time order.
class Reference {
public:
  /// A slice times three kernels: dependent loads over a 1 MiB, a
  /// 16 KiB and an 8 MiB table, mixed with branchy integer work. One
  /// hits L2/L3, one L1 (core speed), one mostly memory.
  static constexpr size_t Kernels = 3;
  using Times = std::array<double, Kernels>;
  /// Each kernel's slice time on a quiet 4-core Intel Xeon VM at
  /// 2.1 GHz; the factors scale to these.
  static constexpr Times NominalSeconds = {0.0026, 0.0022, 0.0024};

  /// Runs one slice (about 12 ms); \p Now is the run clock.
  void slice(double Now);
  /// Records a slice taken at \p Now that measured \p Seconds.
  void record(double Now, const Times &Seconds);
  /// The speed factor for work that ran from \p From to \p To on the run
  /// clock. Per kernel it is the nominal time over the median of the
  /// slices nearest that window: the last one before it, the first one
  /// after it and any within half a second or the window's own length
  /// of it, whichever is longer (a 10 s row has no slices inside it, so
  /// it takes those of the 10 s around it). The factor is the
  /// geometric mean over the kernels, so no one kind of contention sets
  /// it. Multiplying a time by it gives the time on the quiet host.
  /// 1 when no slice was taken.
  double factor(double From, double To) const;
  size_t slices() const { return At.size(); }
  /// Each kernel's median slice time over the run, for the run's log.
  std::string summary() const;

private:
  std::vector<double> At;
  std::vector<Times> Seconds;
};

} // namespace vb

#endif // VERDICTBENCH_REFERENCE_H
