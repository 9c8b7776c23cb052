//===- verdictbench/src/Stats.h - Order statistics of row times -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_STATS_H
#define VERDICTBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace vb {

/// The median (mean of the middle two for an even count; 0 when empty).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The geometric mean of positive samples (0 when empty).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The tail of a sample: the highest percentile with at least
/// `MinBeyond` samples strictly above it, and the value there.
struct Tail {
  double Value = 0.0;
  double Percentile = 100.0;
  size_t Samples = 0;
};

/// With n samples sorted ascending, the value with exactly `MinBeyond`
/// samples beyond it is x[n - MinBeyond - 1], at percentile
/// 100 * (n - MinBeyond) / n. Below MinBeyond + 1 samples no percentile
/// has that many beyond it, and the tail is the maximum.
inline Tail tail(std::vector<double> V, size_t MinBeyond = 10) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N <= MinBeyond) {
    T.Value = V.back();
    return T;
  }
  T.Value = V[N - MinBeyond - 1];
  T.Percentile = 100.0 * static_cast<double>(N - MinBeyond) /
                 static_cast<double>(N);
  return T;
}

} // namespace vb

#endif // VERDICTBENCH_STATS_H
