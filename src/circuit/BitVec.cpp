//===- circuit/BitVec.cpp --------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "circuit/BitVec.h"

#include "support/StrUtil.h"

#include <cassert>

using namespace psketch;
using namespace psketch::circuit;

BitVec psketch::circuit::bvConst(Graph &G, unsigned Width, uint64_t Value) {
  BitVec Result;
  Result.Bits.reserve(Width);
  for (unsigned I = 0; I < Width; ++I)
    Result.Bits.push_back(G.getConst(((Value >> I) & 1) != 0));
  return Result;
}

BitVec psketch::circuit::bvInput(Graph &G, unsigned Width,
                                 const std::string &Name) {
  BitVec Result;
  Result.Bits.reserve(Width);
  for (unsigned I = 0; I < Width; ++I)
    Result.Bits.push_back(G.mkInput(format("%s[%u]", Name.c_str(), I)));
  return Result;
}

BitVec psketch::circuit::bvAdd(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in add");
  BitVec Result;
  Result.Bits.reserve(A.width());
  NodeRef Carry = G.getFalse();
  for (unsigned I = 0; I < A.width(); ++I) {
    NodeRef Sum = G.mkXor(G.mkXor(A.bit(I), B.bit(I)), Carry);
    NodeRef NewCarry = G.mkOr(G.mkAnd(A.bit(I), B.bit(I)),
                              G.mkAnd(Carry, G.mkXor(A.bit(I), B.bit(I))));
    Result.Bits.push_back(Sum);
    Carry = NewCarry;
  }
  return Result;
}

BitVec psketch::circuit::bvSub(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in sub");
  // A - B == A + ~B + 1 (two's complement).
  BitVec Result;
  Result.Bits.reserve(A.width());
  NodeRef Carry = G.getTrue();
  for (unsigned I = 0; I < A.width(); ++I) {
    NodeRef NotB = ~B.bit(I);
    NodeRef Sum = G.mkXor(G.mkXor(A.bit(I), NotB), Carry);
    NodeRef NewCarry = G.mkOr(G.mkAnd(A.bit(I), NotB),
                              G.mkAnd(Carry, G.mkXor(A.bit(I), NotB)));
    Result.Bits.push_back(Sum);
    Carry = NewCarry;
  }
  return Result;
}

BitVec psketch::circuit::bvMux(Graph &G, NodeRef Cond, const BitVec &A,
                               const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in mux");
  BitVec Result;
  Result.Bits.reserve(A.width());
  for (unsigned I = 0; I < A.width(); ++I)
    Result.Bits.push_back(G.mkIte(Cond, A.bit(I), B.bit(I)));
  return Result;
}

BitVec psketch::circuit::bvAnd(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in and");
  BitVec Result;
  for (unsigned I = 0; I < A.width(); ++I)
    Result.Bits.push_back(G.mkAnd(A.bit(I), B.bit(I)));
  return Result;
}

BitVec psketch::circuit::bvOr(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in or");
  BitVec Result;
  for (unsigned I = 0; I < A.width(); ++I)
    Result.Bits.push_back(G.mkOr(A.bit(I), B.bit(I)));
  return Result;
}

BitVec psketch::circuit::bvXor(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in xor");
  BitVec Result;
  for (unsigned I = 0; I < A.width(); ++I)
    Result.Bits.push_back(G.mkXor(A.bit(I), B.bit(I)));
  return Result;
}

BitVec psketch::circuit::bvNot([[maybe_unused]] Graph &G, const BitVec &A) {
  BitVec Result;
  for (unsigned I = 0; I < A.width(); ++I)
    Result.Bits.push_back(~A.bit(I));
  return Result;
}

NodeRef psketch::circuit::bvEq(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in eq");
  std::vector<NodeRef> &Terms = G.termBuffer();
  for (unsigned I = 0; I < A.width(); ++I)
    Terms.push_back(G.mkEq(A.bit(I), B.bit(I)));
  return G.andTerms();
}

NodeRef psketch::circuit::bvNe(Graph &G, const BitVec &A, const BitVec &B) {
  return ~bvEq(G, A, B);
}

NodeRef psketch::circuit::bvUlt(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && "width mismatch in ult");
  // Ripple from the least significant bit: lt_i depends on bits [0, i].
  NodeRef Lt = G.getFalse();
  for (unsigned I = 0; I < A.width(); ++I) {
    NodeRef BitLt = G.mkAnd(~A.bit(I), B.bit(I));
    NodeRef BitEq = G.mkEq(A.bit(I), B.bit(I));
    Lt = G.mkOr(BitLt, G.mkAnd(BitEq, Lt));
  }
  return Lt;
}

NodeRef psketch::circuit::bvUle(Graph &G, const BitVec &A, const BitVec &B) {
  return ~bvUlt(G, B, A);
}

NodeRef psketch::circuit::bvSlt(Graph &G, const BitVec &A, const BitVec &B) {
  assert(A.width() == B.width() && A.width() > 0 && "bad widths in slt");
  // Flip the sign bits and compare unsigned.
  BitVec FlippedA = A, FlippedB = B;
  FlippedA.Bits.back() = ~FlippedA.Bits.back();
  FlippedB.Bits.back() = ~FlippedB.Bits.back();
  return bvUlt(G, FlippedA, FlippedB);
}

NodeRef psketch::circuit::bvSle(Graph &G, const BitVec &A, const BitVec &B) {
  return ~bvSlt(G, B, A);
}

NodeRef psketch::circuit::bvNonZero(Graph &G, const BitVec &A) {
  return G.mkOrAll(A.Bits);
}

NodeRef psketch::circuit::bvEqConst(Graph &G, const BitVec &A,
                                    uint64_t Value) {
  std::vector<NodeRef> &Terms = G.termBuffer();
  for (unsigned I = 0; I < A.width(); ++I) {
    bool BitSet = ((Value >> I) & 1) != 0;
    Terms.push_back(BitSet ? A.bit(I) : ~A.bit(I));
  }
  return G.andTerms();
}

BitVec psketch::circuit::bvResize(Graph &G, const BitVec &A, unsigned Width) {
  BitVec Result = A;
  while (Result.Bits.size() > Width)
    Result.Bits.pop_back();
  while (Result.Bits.size() < Width)
    Result.Bits.push_back(G.getFalse());
  return Result;
}

uint64_t psketch::circuit::bvEvaluate(const Graph &G, const BitVec &A,
                                      const std::vector<bool> &InputValues) {
  uint64_t Value = 0;
  for (unsigned I = 0; I < A.width(); ++I)
    if (G.evaluate(A.bit(I), InputValues))
      Value |= (1ull << I);
  return Value;
}
