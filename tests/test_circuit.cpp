//===- tests/test_circuit.cpp - gate graph and bitvector tests -------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "circuit/BitVec.h"
#include "circuit/CnfBuilder.h"
#include "circuit/Graph.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

using namespace psketch;
using namespace psketch::circuit;

TEST(Graph, ConstantFolding) {
  Graph G;
  NodeRef A = G.mkInput("a");
  EXPECT_EQ(G.mkAnd(A, G.getTrue()), A);
  EXPECT_EQ(G.mkAnd(G.getTrue(), A), A);
  EXPECT_EQ(G.mkAnd(A, G.getFalse()), G.getFalse());
  EXPECT_EQ(G.mkAnd(A, A), A);
  EXPECT_EQ(G.mkAnd(A, ~A), G.getFalse());
  EXPECT_EQ(G.mkOr(A, G.getTrue()), G.getTrue());
  EXPECT_EQ(G.mkOr(A, G.getFalse()), A);
  EXPECT_EQ(G.mkXor(A, A), G.getFalse());
  EXPECT_EQ(G.mkXor(A, ~A), G.getTrue());
  EXPECT_EQ(G.mkIte(G.getTrue(), A, ~A), A);
  EXPECT_EQ(G.mkIte(G.getFalse(), A, ~A), ~A);
  EXPECT_EQ(G.mkIte(A, G.getTrue(), G.getFalse()), A);
}

TEST(Graph, StructuralHashing) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef X = G.mkAnd(A, B);
  NodeRef Y = G.mkAnd(B, A); // commuted: must hash to the same node
  EXPECT_EQ(X, Y);
  size_t Before = G.numNodes();
  (void)G.mkAnd(A, B);
  EXPECT_EQ(G.numNodes(), Before);
}

TEST(Graph, EvaluateTruthTable) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef AndAB = G.mkAnd(A, B);
  NodeRef XorAB = G.mkXor(A, B);
  for (int AV = 0; AV < 2; ++AV)
    for (int BV = 0; BV < 2; ++BV) {
      std::vector<bool> In = {AV != 0, BV != 0};
      EXPECT_EQ(G.evaluate(AndAB, In), AV && BV);
      EXPECT_EQ(G.evaluate(XorAB, In), (AV ^ BV) != 0);
      EXPECT_EQ(G.evaluate(~AndAB, In), !(AV && BV));
    }
}

TEST(Graph, AndAllOrAll) {
  Graph G;
  std::vector<NodeRef> Inputs;
  for (int I = 0; I < 5; ++I)
    Inputs.push_back(G.mkInput("x"));
  NodeRef All = G.mkAndAll(Inputs);
  NodeRef Any = G.mkOrAll(Inputs);
  std::vector<bool> AllTrue(5, true), OneFalse(5, true), AllFalse(5, false);
  OneFalse[3] = false;
  EXPECT_TRUE(G.evaluate(All, AllTrue));
  EXPECT_FALSE(G.evaluate(All, OneFalse));
  EXPECT_TRUE(G.evaluate(Any, OneFalse));
  EXPECT_FALSE(G.evaluate(Any, AllFalse));
  EXPECT_EQ(G.mkAndAll({}), G.getTrue());
  EXPECT_EQ(G.mkOrAll({}), G.getFalse());
}

namespace {

/// A reference for Graph's hash-consing: the same folding rules and
/// decompositions, with the structural hash kept in a std::map keyed by
/// the canonical (A, B) operand codes and the n-ary builders reducing
/// through fresh per-layer vectors.
struct RefGraph {
  std::map<std::pair<int32_t, int32_t>, uint32_t> Ands;
  /// Per node: its operands (an AND) or its input ordinal (an input).
  std::vector<std::pair<NodeRef, NodeRef>> Operands = {{}};
  std::vector<int> InputOrdinal = {-1};
  unsigned NumInputs = 0;

  NodeRef getTrue() const { return NodeRef::make(0, false); }
  NodeRef getFalse() const { return NodeRef::make(0, true); }

  NodeRef mkInput() {
    Operands.push_back({});
    InputOrdinal.push_back(static_cast<int>(NumInputs++));
    return NodeRef::make(static_cast<uint32_t>(Operands.size() - 1), false);
  }

  NodeRef mkAnd(NodeRef A, NodeRef B) {
    if (A == getFalse() || B == getFalse())
      return getFalse();
    if (A == getTrue())
      return B;
    if (B == getTrue())
      return A;
    if (A == B)
      return A;
    if (A == ~B)
      return getFalse();
    if (B < A)
      std::swap(A, B);
    auto [It, Fresh] = Ands.try_emplace({A.code(), B.code()},
                                        static_cast<uint32_t>(Operands.size()));
    if (Fresh) {
      Operands.push_back({A, B});
      InputOrdinal.push_back(-1);
    }
    return NodeRef::make(It->second, false);
  }

  NodeRef mkXor(NodeRef A, NodeRef B) {
    if (A == getFalse())
      return B;
    if (B == getFalse())
      return A;
    if (A == getTrue())
      return ~B;
    if (B == getTrue())
      return ~A;
    if (A == B)
      return getFalse();
    if (A == ~B)
      return getTrue();
    return ~mkAnd(~mkAnd(A, ~B), ~mkAnd(~A, B));
  }

  NodeRef mkOr(NodeRef A, NodeRef B) { return ~mkAnd(~A, ~B); }

  NodeRef mkIte(NodeRef C, NodeRef T, NodeRef E) {
    if (C == getTrue())
      return T;
    if (C == getFalse())
      return E;
    if (T == E)
      return T;
    if (T == getTrue())
      return mkOr(C, E);
    if (T == getFalse())
      return mkAnd(~C, E);
    if (E == getTrue())
      return mkOr(~C, T);
    if (E == getFalse())
      return mkAnd(C, T);
    return mkOr(mkAnd(C, T), mkAnd(~C, E));
  }

  NodeRef mkAndAll(std::vector<NodeRef> Layer) {
    if (Layer.empty())
      return getTrue();
    while (Layer.size() > 1) {
      std::vector<NodeRef> Next;
      for (size_t I = 0; I + 1 < Layer.size(); I += 2)
        Next.push_back(mkAnd(Layer[I], Layer[I + 1]));
      if (Layer.size() % 2 == 1)
        Next.push_back(Layer.back());
      Layer = std::move(Next);
    }
    return Layer[0];
  }

  NodeRef mkOrAll(std::vector<NodeRef> Terms) {
    for (NodeRef &T : Terms)
      T = ~T;
    return ~mkAndAll(std::move(Terms));
  }

  bool evaluate(NodeRef R, const std::vector<bool> &In,
                std::vector<signed char> &Memo) const {
    uint32_t N = R.node();
    if (Memo[N] < 0) {
      if (N == 0)
        Memo[N] = 1;
      else if (InputOrdinal[N] >= 0)
        Memo[N] = In[static_cast<size_t>(InputOrdinal[N])];
      else
        Memo[N] = evaluate(Operands[N].first, In, Memo) &&
                  evaluate(Operands[N].second, In, Memo);
    }
    return (Memo[N] == 1) != R.negated();
  }
};

} // namespace

TEST(Graph, HashConsingMatchesMapReference) {
  // Random builder calls over inputs, constants and earlier results, with
  // random negation and replayed AND pairs in swapped order. Every edge
  // must match a std::map-keyed reference, through many doublings of the
  // flat table (it starts at 64 slots and doubles at load 1/2).
  Rng R(20260515);
  Graph G;
  RefGraph Ref;
  std::vector<NodeRef> Pool = {G.getTrue()};
  std::vector<std::pair<NodeRef, NodeRef>> AndCalls;
  auto Pick = [&]() {
    NodeRef P = Pool[R.below(Pool.size())];
    return R.chance(1, 2) ? ~P : P;
  };
  auto PickTerms = [&]() {
    std::vector<NodeRef> Terms(R.below(9));
    for (NodeRef &T : Terms)
      T = Pick();
    return Terms;
  };
  for (int Step = 0; Step < 6000; ++Step) {
    NodeRef Got, Want;
    switch (Step < 24 ? 0 : R.below(9)) {
    case 0:
      Got = G.mkInput("x");
      Want = Ref.mkInput();
      break;
    case 1:
    case 2: {
      NodeRef A = Pick(), B = Pick();
      AndCalls.push_back({A, B});
      Got = G.mkAnd(A, B);
      Want = Ref.mkAnd(A, B);
      break;
    }
    case 3: {
      auto [A, B] = AndCalls.empty() ? std::make_pair(Pick(), Pick())
                                     : AndCalls[R.below(AndCalls.size())];
      Got = G.mkAnd(B, A);
      Want = Ref.mkAnd(B, A);
      EXPECT_EQ(Got, G.mkAnd(A, B)) << "step " << Step;
      break;
    }
    case 4: {
      NodeRef A = Pick(), B = Pick();
      Got = G.mkXor(A, B);
      Want = Ref.mkXor(A, B);
      break;
    }
    case 5: {
      NodeRef C = Pick(), T = Pick(), E = Pick();
      Got = G.mkIte(C, T, E);
      Want = Ref.mkIte(C, T, E);
      break;
    }
    case 6: {
      std::vector<NodeRef> Terms = PickTerms();
      Got = G.mkAndAll(Terms);
      Want = Ref.mkAndAll(Terms);
      break;
    }
    case 7: {
      std::vector<NodeRef> Terms = PickTerms();
      Got = G.mkOrAll(Terms);
      Want = Ref.mkOrAll(Terms);
      break;
    }
    default: {
      std::vector<NodeRef> Terms = PickTerms();
      G.termBuffer() = Terms;
      Got = G.andTerms();
      Want = Ref.mkAndAll(Terms);
      break;
    }
    }
    ASSERT_EQ(Got, Want) << "step " << Step;
    ASSERT_EQ(G.numNodes(), Ref.Operands.size()) << "step " << Step;
    Pool.push_back(Got);
  }
  // 4096 or more ANDs means at least six doublings.
  EXPECT_GE(G.numNodes() - G.numInputs(), 4096u);
  // Every AND node stays findable, whichever doubling it came before or
  // after: asking again, operands swapped, returns it and adds nothing.
  size_t Nodes = G.numNodes();
  for (uint32_t Index = 1; Index < Nodes; ++Index) {
    NodeRef N = NodeRef::make(Index, false);
    if (G.isAnd(N)) {
      ASSERT_EQ(G.mkAnd(G.operandB(N), G.operandA(N)), N) << "node " << Index;
    }
  }
  EXPECT_EQ(G.numNodes(), Nodes);

  for (int Trial = 0; Trial < 16; ++Trial) {
    std::vector<bool> In(G.numInputs());
    for (size_t I = 0; I < In.size(); ++I)
      In[I] = R.chance(1, 2);
    std::vector<signed char> Memo(Ref.Operands.size(), -1);
    for (int Probe = 0; Probe < 64; ++Probe) {
      NodeRef Root = Pool[R.below(Pool.size())];
      EXPECT_EQ(G.evaluate(Root, In), Ref.evaluate(Root, In, Memo))
          << "trial " << Trial;
    }
  }
}

namespace {

struct BvFixture {
  Graph G;
  unsigned Width;
  BitVec A, B;
  uint64_t AV, BV;
  std::vector<bool> Inputs;
  uint64_t Mask;

  BvFixture(Rng &R, unsigned W) : Width(W) {
    A = bvInput(G, W, "a");
    B = bvInput(G, W, "b");
    Mask = W == 64 ? ~0ull : ((1ull << W) - 1);
    AV = R.below(Mask + 1);
    BV = R.below(Mask + 1);
    Inputs.resize(2 * W);
    for (unsigned I = 0; I < W; ++I) {
      Inputs[I] = (AV >> I) & 1;
      Inputs[W + I] = (BV >> I) & 1;
    }
  }

  int64_t sext(uint64_t V) const {
    return static_cast<int64_t>(V << (64 - Width)) >> (64 - Width);
  }
};

} // namespace

class BitVecOpsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecOpsTest, MatchesConcreteArithmetic) {
  unsigned W = GetParam();
  Rng R(W * 1337 + 5);
  for (int Iter = 0; Iter < 60; ++Iter) {
    BvFixture F(R, W);
    Graph &G = F.G;
    EXPECT_EQ(bvEvaluate(G, bvAdd(G, F.A, F.B), F.Inputs),
              (F.AV + F.BV) & F.Mask);
    EXPECT_EQ(bvEvaluate(G, bvSub(G, F.A, F.B), F.Inputs),
              (F.AV - F.BV) & F.Mask);
    EXPECT_EQ(G.evaluate(bvEq(G, F.A, F.B), F.Inputs), F.AV == F.BV);
    EXPECT_EQ(G.evaluate(bvNe(G, F.A, F.B), F.Inputs), F.AV != F.BV);
    EXPECT_EQ(G.evaluate(bvUlt(G, F.A, F.B), F.Inputs), F.AV < F.BV);
    EXPECT_EQ(G.evaluate(bvUle(G, F.A, F.B), F.Inputs), F.AV <= F.BV);
    EXPECT_EQ(G.evaluate(bvSlt(G, F.A, F.B), F.Inputs),
              F.sext(F.AV) < F.sext(F.BV));
    EXPECT_EQ(G.evaluate(bvSle(G, F.A, F.B), F.Inputs),
              F.sext(F.AV) <= F.sext(F.BV));
    EXPECT_EQ(bvEvaluate(G, bvAnd(G, F.A, F.B), F.Inputs), F.AV & F.BV);
    EXPECT_EQ(bvEvaluate(G, bvOr(G, F.A, F.B), F.Inputs), F.AV | F.BV);
    EXPECT_EQ(bvEvaluate(G, bvXor(G, F.A, F.B), F.Inputs), F.AV ^ F.BV);
    EXPECT_EQ(bvEvaluate(G, bvNot(G, F.A), F.Inputs), ~F.AV & F.Mask);
    EXPECT_EQ(G.evaluate(bvNonZero(G, F.A), F.Inputs), F.AV != 0);
    EXPECT_EQ(G.evaluate(bvEqConst(G, F.A, F.BV), F.Inputs), F.AV == F.BV);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecOpsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 13u));

TEST(BitVec, ConstRoundTrip) {
  Graph G;
  for (uint64_t V : {0ull, 1ull, 5ull, 127ull, 255ull}) {
    BitVec C = bvConst(G, 8, V);
    EXPECT_EQ(bvEvaluate(G, C, {}), V & 0xff);
  }
}

TEST(BitVec, MuxSelects) {
  Graph G;
  NodeRef Cond = G.mkInput("c");
  BitVec A = bvConst(G, 4, 9), B = bvConst(G, 4, 4);
  BitVec M = bvMux(G, Cond, A, B);
  EXPECT_EQ(bvEvaluate(G, M, {true}), 9u);
  EXPECT_EQ(bvEvaluate(G, M, {false}), 4u);
}

TEST(BitVec, ResizeTruncatesAndZeroExtends) {
  Graph G;
  BitVec A = bvConst(G, 8, 0xAB);
  EXPECT_EQ(bvEvaluate(G, bvResize(G, A, 4), {}), 0xBu);
  EXPECT_EQ(bvEvaluate(G, bvResize(G, A, 12), {}), 0xABu);
}

TEST(CnfBuilder, EncodesConsistently) {
  // For random cones: SAT model restricted to inputs must evaluate the
  // root to the asserted polarity.
  Rng R(99);
  for (int Iter = 0; Iter < 40; ++Iter) {
    Graph G;
    unsigned W = 2 + R.below(5);
    BitVec A = bvInput(G, W, "a");
    BitVec B = bvInput(G, W, "b");
    NodeRef Root = G.mkAnd(bvUlt(G, A, B), ~bvEqConst(G, A, 0));
    sat::Solver S;
    CnfBuilder CB(G, S);
    CB.assertTrue(Root);
    ASSERT_TRUE(S.solve());
    std::vector<bool> In(2 * W);
    for (unsigned I = 0; I < W; ++I) {
      In[I] = S.modelValue(CB.litFor(A.bit(I))) == sat::LBool::True;
      In[W + I] = S.modelValue(CB.litFor(B.bit(I))) == sat::LBool::True;
    }
    EXPECT_TRUE(G.evaluate(Root, In));
  }
}

TEST(CnfBuilder, UnsatWhenForcedBothWays) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef X = G.mkXor(A, B);
  sat::Solver S;
  CnfBuilder CB(G, S);
  CB.assertTrue(X);
  CB.assertTrue(G.mkEq(A, B));
  EXPECT_FALSE(S.solve());
}

TEST(CnfBuilder, IncrementalAcrossCones) {
  Graph G;
  sat::Solver S;
  CnfBuilder CB(G, S);
  NodeRef A = G.mkInput("a");
  CB.assertTrue(A);
  ASSERT_TRUE(S.solve());
  NodeRef B = G.mkInput("b");
  CB.assertTrue(G.mkAnd(A, ~B)); // new cone, same solver
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(CB.litFor(A)), sat::LBool::True);
  EXPECT_EQ(S.modelValue(CB.litFor(B)), sat::LBool::False);
}

TEST(CnfBuilder, DeepConeDoesNotOverflowTheStack) {
  // A 1500-stage 8-bit adder chain: both evaluation and Tseitin encoding
  // must be iterative.
  Graph G;
  BitVec Acc = bvInput(G, 8, "x");
  for (unsigned I = 0; I < 1500; ++I)
    Acc = bvAdd(G, Acc, bvConst(G, 8, (I % 5) + 1));
  NodeRef Root = bvEqConst(G, Acc, 0);
  // Evaluate concretely at x = 0.
  std::vector<bool> In(8, false);
  uint64_t Sum = 0;
  for (unsigned I = 0; I < 1500; ++I)
    Sum += (I % 5) + 1;
  EXPECT_EQ(G.evaluate(Root, In), (Sum & 0xff) == 0);
  // And encode into CNF.
  sat::Solver S;
  CnfBuilder CB(G, S);
  CB.assertTrue(Root);
  (void)S.solve(); // either verdict is fine; we only check survival
  SUCCEED();
}

TEST(Graph, HashConsingScalesAcrossRepeatedCones) {
  // Re-encoding the same arithmetic must not grow the graph.
  Graph G;
  BitVec A = bvInput(G, 8, "a"), B = bvInput(G, 8, "b");
  (void)bvAdd(G, A, B);
  size_t After = G.numNodes();
  for (int I = 0; I < 10; ++I)
    (void)bvAdd(G, A, B);
  EXPECT_EQ(G.numNodes(), After);
}
