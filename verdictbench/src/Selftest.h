//===- verdictbench/src/Selftest.h - The benchmark's own tests --*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_SELFTEST_H
#define VERDICTBENCH_SELFTEST_H

#include <string>

namespace vb {

/// Runs the benchmark's self-tests; \returns the process exit code
/// (0 when every test passes).
int runSelftest(const std::string &ExpectedPath);

} // namespace vb

#endif // VERDICTBENCH_SELFTEST_H
