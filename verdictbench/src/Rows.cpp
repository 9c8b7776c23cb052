//===- verdictbench/src/Rows.cpp - Workload rows and their verdicts -------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "Rows.h"

#include "benchmarks/Dining.h"
#include "benchmarks/Queue.h"
#include "benchmarks/Suite.h"
#include "benchmarks/Workload.h"
#include "support/Rng.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace psketch;
using vb::ExpectedTable;
using vb::Row;

namespace {

/// A slot of a seeded workload: the seed picks one of its alternatives.
/// Alternatives of one slot are rows of the same family whose time to
/// verdict was measured within about 10% of each other, so a seed varies
/// the sketches without varying the workload's cost profile. Rows whose
/// time sets a pass's median or maximum have one alternative.
struct Slot {
  const char *Family;
  std::vector<const char *> Tests;
};

// verify-large: checker-bound rows with a reference candidate, each
// certifiable by the unreduced checker well under its 4M-state budget.
const std::vector<Slot> VerifyLargeSlots = {
    {"dinphilo", {"N=4,T=8"}},
    {"dinphilo", {"N=5,T=4"}},
    {"dinphilo", {"N=4,T=6"}},
    {"dinphilo", {"N=5,T=3"}},
    {"dinphilo", {"N=3,T=10"}},
    {"dinphilo", {"N=4,T=4", "N=3,T=7"}},
    {"queueE1", {"e(ed|ed)d", "ee(ed|dd)"}},
    {"queueE1", {"ee(dd|ed)", "e(ed|de)d", "ee(d|e|d)"}},
};

// The solve-bound Figure-9 rows (synth, circuit and sat do most of the
// work). Each takes seconds, so it runs about once in a run; `fig9`
// spreads them evenly through its row list so their runs fall at
// different times of the run instead of in one stretch.
const std::vector<std::pair<const char *, const char *>> LongFig9 = {
    {"barrier2", "N=2,B=3"},
    {"queueDE2", "ed(ed|ed)"},
    {"fineset2", "ar(arar|arar)"},
    {"fineset2", "ar(aaaa|rrrr)"},
    {"fineset2", "ar(ar|ar|ar)"},
};

const std::vector<const char *> PskRows = {
    "examples/barrier2.psk",
    "examples/dining2.psk",
    "examples/enqueue.psk",
    "examples/sorted_list_race.psk",
};

bool isLongFig9(const std::string &Family, const std::string &Test) {
  for (const auto &[F, T] : LongFig9)
    if (Family == F && Test == T)
      return true;
  return false;
}

/// Parses "N=5,T=4" into dining options.
bool parseDining(const std::string &Test, bench::DiningOptions &O) {
  char Tail = 0;
  return std::sscanf(Test.c_str(), "N=%u,T=%u%c", &O.Philosophers, &O.Meals,
                     &Tail) == 2;
}

std::vector<Row> slotRows(const std::vector<Slot> &Slots) {
  std::vector<Row> Out;
  for (const Slot &S : Slots)
    for (const char *T : S.Tests) {
      Row R;
      R.Family = S.Family;
      R.Test = T;
      Out.push_back(std::move(R));
    }
  return Out;
}

/// Looks up a generated row's verdict in the table.
bool applyExpected(Row &R, const ExpectedTable &Table, std::string &Err) {
  auto It = Table.find(R.id());
  if (It == Table.end()) {
    Err = "no expected verdict for '" + R.id() +
          "' (regenerate expected.tsv with --derive-expected)";
    return false;
  }
  R.ExpectResolvable = It->second.first;
  R.Provenance = It->second.second;
  return true;
}

} // namespace

namespace vb {

bool loadExpected(const std::string &Path, ExpectedTable &Out,
                  std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Id, Verdict, Prov;
    if (!std::getline(Fields, Id, '\t') ||
        !std::getline(Fields, Verdict, '\t') ||
        !std::getline(Fields, Prov, '\t') ||
        (Verdict != "YES" && Verdict != "NO")) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed row";
      return false;
    }
    Out[Id] = {Verdict == "YES", Prov};
  }
  return true;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"fig9", "verify-large"};
  return Names;
}

std::vector<Row> generatedRows() {
  std::vector<Row> Out = slotRows(VerifyLargeSlots);
  for (const char *Path : PskRows) {
    Row R;
    R.Family = "psk";
    R.Test = Path;
    Out.push_back(std::move(R));
  }
  return Out;
}

bool resolveRow(Row &R, std::string &Err) {
  if (R.isPsk()) {
    std::ifstream In(R.Test);
    if (!In) {
      Err = "cannot read " + R.Test;
      return false;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    R.Source = Text.str();
    return true;
  }
  for (bench::SuiteEntry &E : bench::paperSuite(R.Family))
    if (E.Test == R.Test) {
      R.Build = std::move(E.Build);
      return true;
    }
  // Not a Figure-9 row: one of the slot tables' families.
  const std::string Test = R.Test;
  bench::DiningOptions Din;
  if (R.Family == "dinphilo" && parseDining(Test, Din))
    R.Build = [Din] { return bench::buildDining(Din); };
  else if (R.Family == "queueE1")
    R.Build = [Test] {
      return bench::buildQueue(bench::parseWorkload(Test),
                               bench::QueueOptions());
    };
  if (R.Build)
    return true;
  Err = "unknown row '" + R.id() + "'";
  return false;
}

bool drawWorkload(const std::string &Name, uint64_t Seed,
                  const ExpectedTable &Table, std::vector<Row> &Out,
                  std::string &Err) {
  Out.clear();
  if (Name == "fig9") {
    std::vector<Row> Long, Short;
    for (bench::SuiteEntry &E : bench::paperSuite()) {
      Row R;
      R.Family = E.Sketch;
      R.Test = E.Test;
      R.ExpectResolvable = E.PaperResolvable;
      R.Provenance = "paper";
      (isLongFig9(E.Sketch, E.Test) ? Long : Short).push_back(std::move(R));
    }
    for (const char *Path : PskRows) {
      Row R;
      R.Family = "psk";
      R.Test = Path;
      if (!applyExpected(R, Table, Err))
        return false;
      Short.push_back(std::move(R));
    }
    // Each long row leads an equal run of short rows.
    size_t Per = (Short.size() + Long.size() - 1) / Long.size();
    for (size_t L = 0, S = 0; L < Long.size() || S < Short.size(); ++L) {
      if (L < Long.size())
        Out.push_back(std::move(Long[L]));
      for (size_t K = 0; K < Per && S < Short.size(); ++K)
        Out.push_back(std::move(Short[S++]));
    }
  } else if (Name == "verify-large") {
    Rng Gen(Seed);
    for (const Slot &S : VerifyLargeSlots) {
      Row R;
      R.Family = S.Family;
      R.Test = S.Tests[Gen.below(S.Tests.size())];
      if (!applyExpected(R, Table, Err))
        return false;
      Out.push_back(std::move(R));
    }
  } else {
    Err = "unknown workload '" + Name + "'";
    return false;
  }
  for (Row &R : Out)
    if (!resolveRow(R, Err))
      return false;
  return true;
}

} // namespace vb
