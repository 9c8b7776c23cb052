//===- tests/test_shape.cpp - points-to and shape lint tests --------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The guarantees under test (docs/ANALYSIS.md, Pass 5):
//  * the PtSet lattice behaves (join, resolution, disjointness);
//  * the allocation-site points-to solution separates prologue-published
//    structure from thread-private nodes and proves must-not-alias pairs;
//  * the two lint fixtures produce their exact diagnostics: the
//    sorted-list race fixture yields exactly one heap-field race, the
//    leak fixture yields the leak and the provably-null dereference and
//    stays quiet about the published node;
//  * symmetry inference admits disciplined thread-private heaps (one
//    orbit) and still refuses escaping thread allocations and
//    value-asymmetric heap bodies;
//  * CEGIS integration: with the shape lint on or off, CEGIS resolves a
//    heap sketch to the same candidate and the reference oracle accepts
//    it; the min-where-ran stats accumulation policy for
//    SymmetryOrbits.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/PointsTo.h"
#include "analysis/Shape.h"
#include "analysis/SymmetryInfer.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "frontend/Parser.h"
#include "verify/ModelChecker.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;

namespace {

/// Loads a .psk fixture relative to the tests/ source dir.
std::unique_ptr<Program> parseFixture(const std::string &RelPath) {
  std::ifstream File(std::string(PSKETCH_TEST_DIR) + "/" + RelPath);
  EXPECT_TRUE(File.good()) << "fixture missing: " << RelPath;
  if (!File.good())
    return nullptr;
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  frontend::ParseResult Parsed = frontend::parseProgram(Buffer.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  return std::move(Parsed.Program);
}

bool hasDiag(const std::vector<Diagnostic> &Diags, const std::string &Pass,
             const std::string &Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

unsigned countDiags(const std::vector<Diagnostic> &Diags,
                    const std::string &Pass, const std::string &Needle) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Message.find(Needle) != std::string::npos)
      ++N;
  return N;
}

/// Prologue allocates one node per global pointer; each thread writes a
/// field of its own node.
std::unique_ptr<Program> buildDisjointWriters() {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned A = P->addGlobal("a", Type::Ptr, 0);
  unsigned B = P->addGlobal("b", Type::Ptr, 0);
  P->setPoolSize(2);
  P->setRoot(BodyId::prologue(),
             P->seq({P->alloc(P->locGlobal(A)), P->alloc(P->locGlobal(B))}));
  unsigned T0 = P->addThread("t0");
  P->setRoot(BodyId::thread(T0),
             P->assign(P->locField(P->global(A), Val), P->constInt(1)));
  unsigned T1 = P->addThread("t1");
  P->setRoot(BodyId::thread(T1),
             P->assign(P->locField(P->global(B), Val), P->constInt(2)));
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->eq(P->field(P->global(A), Val), P->constInt(1)),
                        "a kept"));
  return P;
}

/// A heap sketch with one resolving candidate: a.val = {1|2} and
/// b.val = {2|3} must sum to 5, so only (2, 3) passes.
std::unique_ptr<Program> buildHeapSketch() {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned A = P->addGlobal("a", Type::Ptr, 0);
  unsigned B = P->addGlobal("b", Type::Ptr, 0);
  P->setPoolSize(2);
  P->setRoot(BodyId::prologue(),
             P->seq({P->alloc(P->locGlobal(A)), P->alloc(P->locGlobal(B))}));
  unsigned T0 = P->addThread("t0");
  P->setRoot(BodyId::thread(T0),
             P->assign(P->locField(P->global(A), Val),
                       P->choose("va", {P->constInt(1), P->constInt(2)})));
  unsigned T1 = P->addThread("t1");
  P->setRoot(BodyId::thread(T1),
             P->assign(P->locField(P->global(B), Val),
                       P->choose("vb", {P->constInt(2), P->constInt(3)})));
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->eq(P->add(P->field(P->global(A), Val),
                                     P->field(P->global(B), Val)),
                              P->constInt(5)),
                        "sums to five"));
  return P;
}

/// Two structurally identical threads, each allocating a private node
/// and storing into it. \p Publish leaks the node through a shared
/// global (the D2 escape refusal); \p SameVal = false stores a
/// thread-dependent constant (the D1 value-relabel refusal).
std::unique_ptr<Program> buildPrivateHeapPair(bool Publish, bool SameVal) {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned G = P->addGlobal("g", Type::Ptr, 0);
  P->setPoolSize(2);
  for (unsigned T = 0; T < 2; ++T) {
    unsigned Id = P->addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned L = P->addLocal(B, "n", Type::Ptr, 0);
    std::vector<StmtRef> Stmts;
    Stmts.push_back(P->alloc(P->locLocal(L)));
    Stmts.push_back(
        P->assign(P->locField(P->local(L, Type::Ptr), Val),
                  P->constInt(SameVal ? 1 : static_cast<int64_t>(T + 1))));
    if (Publish)
      Stmts.push_back(P->assign(P->locGlobal(G), P->local(L, Type::Ptr)));
    P->setRoot(B, P->seq(std::move(Stmts)));
  }
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// PtSet lattice.
//===----------------------------------------------------------------------===//

TEST(PtSet, LatticeBasics) {
  PtSet N = PtSet::null();
  EXPECT_TRUE(N.definitelyNull());
  EXPECT_TRUE(N.resolved());

  PtSet S0 = PtSet::site(0);
  PtSet S1 = PtSet::site(1);
  EXPECT_TRUE(S0.resolved());
  EXPECT_FALSE(S0.definitelyNull());
  EXPECT_TRUE(S0.disjointSites(S1));

  PtSet J = S0;
  J.join(S1);
  EXPECT_TRUE(J.resolved());
  EXPECT_EQ(J.Sites, 3u);
  EXPECT_FALSE(J.disjointSites(S1));

  PtSet T = PtSet::top();
  EXPECT_FALSE(T.resolved());
  EXPECT_FALSE(T.disjointSites(S0));
  PtSet S0T = S0;
  S0T.join(T);
  EXPECT_FALSE(S0T.resolved());
}

//===----------------------------------------------------------------------===//
// The points-to solution on a published-plus-private heap.
//===----------------------------------------------------------------------===//

TEST(PointsTo, SeparatesPublishedFromPrivateSites) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.Sites.size(), 2u);
  // Neither node is reachable from a global: both thread-private.
  EXPECT_EQ(R.Escaping, 0u);
  EXPECT_EQ(R.ThreadPrivate, 3u);
  // Each thread's local dereference resolves to its own site only, so
  // the two threads' dereferences never alias.
  for (unsigned T = 0; T < 2; ++T)
    for (const auto &KV : R.Derefs[T]) {
      EXPECT_TRUE(KV.second.resolved()) << "thread " << T;
      EXPECT_EQ(KV.second.Sites & (KV.second.Sites - 1), 0u)
          << "thread " << T << ": more than one site";
    }
  ASSERT_FALSE(R.Derefs[0].empty());
  ASSERT_FALSE(R.Derefs[1].empty());
  for (const auto &A : R.Derefs[0])
    for (const auto &B : R.Derefs[1])
      EXPECT_TRUE(A.second.disjointSites(B.second));
}

TEST(PointsTo, PublishingEscapesTheSite) {
  auto P = buildDisjointWriters();
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.Sites.size(), 2u);
  EXPECT_EQ(R.Escaping, 3u) << "both nodes reachable from globals";
  EXPECT_EQ(R.ThreadPrivate, 0u);
}

//===----------------------------------------------------------------------===//
// Fixture diagnostics (exact text).
//===----------------------------------------------------------------------===//

TEST(Fixture, SortedListRaceIsFlagged) {
  auto P = parseFixture("../examples/sorted_list_race.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  AnalysisResult A = analyze(*P, FP);

  EXPECT_EQ(A.HeapRaceWarnings, 1u);
  EXPECT_TRUE(hasDiag(
      A.Diags, "shape",
      "possible race on heap field 'val' of the shared node allocated at "
      "'lo = new Node();': no common lock protects all access sites"))
      << "exact race diagnostic missing";
  // The locked field is the only race; the list links stay quiet, and
  // nothing leaks (both nodes are published through head).
  EXPECT_EQ(countDiags(A.Diags, "shape", "possible race"), 1u);
  EXPECT_FALSE(hasDiag(A.Diags, "shape", "allocation never published"));
  EXPECT_FALSE(hasDiag(A.Diags, "shape", "provably-null"));
}

TEST(Fixture, LeakAndNullDerefAreFlagged) {
  auto P = parseFixture("fixtures/leak_null.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  AnalysisResult A = analyze(*P, FP);

  EXPECT_TRUE(hasDiag(
      A.Diags, "shape",
      "field access through a provably-null pointer: this dereference "
      "faults on every execution that reaches it"))
      << "exact null-deref diagnostic missing";
  EXPECT_TRUE(hasDiag(
      A.Diags, "shape",
      "allocation never published: the node is unreachable from every "
      "global at quiescence (leaked pool capacity, acyclic-list)"))
      << "exact leak diagnostic missing";
  // Exactly one leak: the published `keep` node must stay quiet. And an
  // unlocked single-writer heap is not a race.
  EXPECT_EQ(countDiags(A.Diags, "shape", "allocation never published"), 1u);
  EXPECT_EQ(countDiags(A.Diags, "shape", "provably-null"), 1u);
  EXPECT_EQ(A.HeapRaceWarnings, 0u);
}

TEST(Fixture, ShapeClassifiesRaceListSites) {
  auto P = parseFixture("../examples/sorted_list_race.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  ShapeResult R = runShape(*P, FP);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.SiteShapes.size(), 2u);
  // Both list nodes are reachable from `head`: escaping, not leaked.
  EXPECT_EQ(R.SiteShapes[0], ShapeKind::Escaping);
  EXPECT_EQ(R.SiteShapes[1], ShapeKind::Escaping);
  EXPECT_EQ(R.LeakedSites, 0u);
  ASSERT_EQ(R.HeapRaces.size(), 1u);
  EXPECT_EQ(R.HeapRaces[0].FieldName, "val");
}

//===----------------------------------------------------------------------===//
// Symmetry: disciplined private heaps unlock, escapes stay refused.
//===----------------------------------------------------------------------===//

TEST(SymmetryInfer, DisciplinedPrivateHeapProvesOneOrbit) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  EXPECT_FALSE(Plan.Perms.empty())
      << "thread-private isomorphic heaps must be admissible";
  EXPECT_EQ(Plan.NumOrbits, 1u);
}

TEST(SymmetryInfer, EscapingThreadAllocationStaysRefused) {
  auto P = buildPrivateHeapPair(/*Publish=*/true, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  EXPECT_TRUE(Plan.Perms.empty());
  bool Noted = false;
  for (const std::string &N : Plan.Notes)
    Noted = Noted || N.find("escapes its thread") != std::string::npos;
  EXPECT_TRUE(Noted) << "refusal must say why";
}

TEST(SymmetryInfer, ValueAsymmetricHeapBodyIsRefused) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/false);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  // Swapping the threads would need a value relabeling through heap
  // cells, where node ids and payloads are indistinguishable: refused.
  EXPECT_TRUE(Plan.Perms.empty());
}

TEST(SymmetryInfer, SiteGraphIsomorphismChecksPerContext) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  EXPECT_TRUE(siteGraphsIsomorphic(R, 0, 1));
  EXPECT_TRUE(siteGraphsIsomorphic(R, 1, 0));
}

//===----------------------------------------------------------------------===//
// CEGIS integration: the heap sketch resolves, and the stats policy.
//===----------------------------------------------------------------------===//

TEST(Cegis, ShapeOnOffAgreeOnHeapSketchVerdict) {
  // The shape lint only reports; with it on or off CEGIS resolves the
  // heap sketch to its unique candidate, and the unreduced reference
  // oracle accepts that candidate.
  HoleAssignment Resolved[2];
  for (bool Lint : {true, false}) {
    auto P = buildHeapSketch();
    cegis::CegisConfig Cfg;
    Cfg.MaxIterations = 64;
    Cfg.Analysis.Shape = Lint;
    cegis::ConcurrentCegis C(*P, Cfg);
    cegis::CegisResult R = C.run();
    ASSERT_FALSE(R.Stats.Aborted) << "lint " << Lint;
    ASSERT_TRUE(R.Stats.Resolvable) << "lint " << Lint;
    exec::Machine M(C.flatProgram(), R.Candidate);
    verify::CheckResult Oracle = verify::checkOracle(M);
    EXPECT_TRUE(Oracle.Ok && !Oracle.Exhausted) << "lint " << Lint;
    Resolved[Lint] = R.Candidate;
  }
  // The resolving candidate is unique: a.val = 2, b.val = 3.
  EXPECT_EQ(Resolved[1], (HoleAssignment{1, 1}));
  EXPECT_EQ(Resolved[0], Resolved[1]);
}

TEST(Cegis, CheckerStatsAccumulateMinWhereRan) {
  cegis::CegisStats Stats;
  verify::CheckResult C1;
  C1.SymmetryOrbits = 4;
  cegis::accumulateCheckerStats(Stats, C1);
  EXPECT_EQ(Stats.SymmetryOrbits, 4u);

  // A call where inference did not run (Symmetry Off reports 0) must not
  // reset the floor.
  verify::CheckResult C2;
  cegis::accumulateCheckerStats(Stats, C2);
  EXPECT_EQ(Stats.SymmetryOrbits, 4u);

  // A candidate whose inference proved less symmetry does not raise the
  // minimum; one that proved more lowers it.
  verify::CheckResult C3;
  C3.SymmetryOrbits = 6;
  cegis::accumulateCheckerStats(Stats, C3);
  EXPECT_EQ(Stats.SymmetryOrbits, 4u);
  verify::CheckResult C4;
  C4.SymmetryOrbits = 2;
  cegis::accumulateCheckerStats(Stats, C4);
  EXPECT_EQ(Stats.SymmetryOrbits, 2u);
}
