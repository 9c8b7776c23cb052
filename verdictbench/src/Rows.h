//===- verdictbench/src/Rows.h - Workload rows and their verdicts -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs: two workloads of sketch rows. The `fig9` rows
/// (Figure 9 plus examples/*.psk) are fixed; the `verify-large` rows are
/// drawn from bounded pattern and (N,T) grammars by the workload seed.
/// Every row carries the verdict it must reach and where that verdict
/// comes from.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_ROWS_H
#define VERDICTBENCH_ROWS_H

#include "ir/Program.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vb {

/// One sketch to resolve. Builtin rows are built from `Family` and
/// `Test`; `.psk` rows (Family == "psk") are parsed from `Test`, a path
/// relative to the checkout root.
struct Row {
  std::string Family; ///< e.g. "fineset2", "dinphilo", "psk"
  std::string Test;   ///< e.g. "ar(ar|ar)", "N=5,T=4", "examples/enqueue.psk"
  bool ExpectResolvable = true;
  std::string Provenance; ///< "paper", "enumerate" or "cegis-plain"
  /// Builds a builtin row's sketch (empty for `.psk` rows).
  std::function<std::unique_ptr<psketch::ir::Program>()> Build;
  std::string Source; ///< a `.psk` row's text, read when it is drawn

  std::string id() const { return Family + " " + Test; }
  bool isPsk() const { return Family == "psk"; }
};

/// Expected verdicts of the rows that are not Figure-9 rows, keyed by
/// Row::id(): {resolvable, provenance}.
using ExpectedTable = std::map<std::string, std::pair<bool, std::string>>;

/// Reads the tab-separated table (id, YES|NO, provenance). \returns false
/// with \p Err set when the file is missing or malformed.
bool loadExpected(const std::string &Path, ExpectedTable &Out,
                  std::string &Err);

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string> &workloadNames();

/// Draws the rows of workload \p Name for \p Seed: the same seed gives
/// the same rows in the same order. \returns false with \p Err set for an
/// unknown workload or a row the table gives no verdict for.
bool drawWorkload(const std::string &Name, uint64_t Seed,
                  const ExpectedTable &Table, std::vector<Row> &Out,
                  std::string &Err);

/// Every row any seed can draw outside Figure 9 (the ids
/// `--derive-expected` must cover), with its family and test.
std::vector<Row> generatedRows();

/// Resolves \p R's builder, or reads its `.psk` source. \returns false
/// with \p Err set for an unknown family or an unreadable file.
bool resolveRow(Row &R, std::string &Err);

} // namespace vb

#endif // VERDICTBENCH_ROWS_H
