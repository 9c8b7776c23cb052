//===- verdictbench/src/Reference.cpp - Host speed reference --------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "Stats.h"

#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

using namespace psketch;

namespace vb {

namespace {

/// Table words each kernel walks over (a prefix of one 8 MiB table) and
/// its steps per walk. A kernel's slice time is the median of Parts
/// walks, so one interrupt or migration in a walk does not set it.
constexpr size_t Words[Reference::Kernels] = {size_t(1) << 18, size_t(1) << 12,
                                              size_t(1) << 21};
constexpr unsigned Steps[Reference::Kernels] = {60000, 120000, 30000};
constexpr unsigned Parts = 5;

const std::vector<uint32_t> &table() {
  static const std::vector<uint32_t> T = [] {
    std::vector<uint32_t> V(Words[2]);
    uint32_t X = 12345;
    for (uint32_t &W : V) {
      X = X * 1664525u + 1013904223u;
      W = X;
    }
    return V;
  }();
  return T;
}

volatile uint32_t Sink;

/// Dependent loads from the first \p N words of the table (a power of
/// two) mixed with branchy integer work.
uint32_t walk(const std::vector<uint32_t> &T, size_t N, unsigned Steps) {
  uint32_t X = 1;
  for (unsigned I = 0; I < Steps; ++I) {
    X = T[(X ^ I) & (N - 1)] + (X >> 3) * 2654435761u;
    if (X & 1)
      X ^= I << 5;
  }
  return X;
}

} // namespace

void Reference::slice(double Now) {
  const std::vector<uint32_t> &T = table();
  // The first slice of a run walks once untimed. Every slice first
  // brings the 1 MiB prefix back into cache, so the walks do not depend
  // on how much of the cache the previous row used.
  uint32_t Acc = At.empty() ? walk(T, Words[0], Parts * Steps[0]) : 0;
  for (size_t I = 0; I < Words[0]; I += 16)
    Acc += T[I];
  Times Sec;
  for (size_t K = 0; K < Kernels; ++K) {
    std::vector<double> Walks;
    for (unsigned P = 0; P < Parts; ++P) {
      WallTimer Clock;
      Acc += walk(T, Words[K], Steps[K]);
      Walks.push_back(Clock.seconds());
    }
    Sec[K] = median(Walks) * Parts;
  }
  Sink = Acc;
  record(Now, Sec);
}

void Reference::record(double Now, const Times &Sec) {
  At.push_back(Now);
  Seconds.push_back(Sec);
}

double Reference::factor(double From, double To) const {
  if (At.empty())
    return 1.0;
  size_t Before = 0, After = At.size() - 1;
  for (size_t I = 0; I < At.size(); ++I) {
    if (At[I] <= From)
      Before = I;
    if (At[I] >= To) {
      After = I;
      break;
    }
  }
  const double Reach = std::max(0.5, To - From);
  double LogSum = 0.0;
  for (size_t K = 0; K < Kernels; ++K) {
    std::vector<double> Near;
    for (size_t I = 0; I < At.size(); ++I)
      if (I == Before || I == After ||
          (At[I] >= From - Reach && At[I] <= To + Reach))
        Near.push_back(Seconds[I][K]);
    LogSum += std::log(NominalSeconds[K] / median(Near));
  }
  return std::exp(LogSum / Kernels);
}

std::string Reference::summary() const {
  std::string Out;
  for (size_t K = 0; K < Kernels; ++K) {
    std::vector<double> V;
    for (const Times &S : Seconds)
      V.push_back(S[K]);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%.6f/%.4f", K ? " " : "", median(V),
                  NominalSeconds[K]);
    Out += Buf;
  }
  return Out;
}

} // namespace vb
