//===- sat/ClauseArena.h - Contiguous clause storage ------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every clause of the SAT solver lives in one vector of 32-bit words,
/// named by the index of its header word (a ClauseRef). The literals sit
/// inline right after the header, so a watcher visit reads one cache line
/// of the arena instead of chasing a clause object and then its literal
/// buffer. Learnt clauses carry three more words *before* the header —
/// the activity (a double, read and written with memcpy) and the LBD —
/// so the literals start one word past the header for every clause:
///
/// \code
///   learnt only:  [activity lo][activity hi][LBD]
///   every clause: [size << 2 | learnt << 1 | relocated][lit 0][lit 1]...
/// \endcode
///
/// Freed clauses and literals cut off by in-place shrinking stay in the
/// vector as waste until the solver compacts: it copies every live
/// clause into a fresh arena (relocate), which leaves a forwarding ref in
/// the old copy, and then rewrites its refs with forward(). See
/// docs/SOLVER.md, "Clause storage".
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SAT_CLAUSEARENA_H
#define PSKETCH_SAT_CLAUSEARENA_H

#include "sat/SatTypes.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace psketch {
namespace sat {

/// A clause's name: the arena index of its header word.
using ClauseRef = uint32_t;

/// The "no clause" sentinel (a decision's reason, no conflict).
const ClauseRef ClauseRefUndef = UINT32_MAX;

class ClauseArena {
public:
  /// Appends a clause with the \p Size literals at \p Lits. \returns its
  /// ref. A learnt clause starts with activity 0 and LBD 0.
  ClauseRef alloc(const Lit *Lits, size_t Size, bool Learnt) {
    assert(Size >= 2 && "the arena stores clauses of two or more literals");
    if (Learnt)
      Words.insert(Words.end(), LearntExtra, 0);
    ClauseRef Ref = static_cast<ClauseRef>(Words.size());
    assert(Ref < (1u << 31) && "clause arena exceeds 2^31 words");
    Words.push_back(static_cast<uint32_t>(Size) << 2 |
                    (Learnt ? LearntBit : 0u));
    for (size_t I = 0; I < Size; ++I)
      Words.push_back(static_cast<uint32_t>(Lits[I].index()));
    return Ref;
  }

  /// Frees \p Ref: its words count as waste until the next compaction.
  void free(ClauseRef Ref) {
    Wasted += size(Ref) + 1 + (learnt(Ref) ? LearntExtra : 0);
  }

  /// Cuts \p Ref down to its first \p NewSize literals. A clause cut
  /// below two literals must be freed before the next compaction.
  void shrink(ClauseRef Ref, size_t NewSize) {
    assert(NewSize <= size(Ref) && "shrink cannot grow a clause");
    Wasted += size(Ref) - NewSize;
    Words[Ref] = static_cast<uint32_t>(NewSize) << 2 | (Words[Ref] & 3u);
  }

  uint32_t size(ClauseRef Ref) const { return Words[Ref] >> 2; }
  bool learnt(ClauseRef Ref) const { return (Words[Ref] & LearntBit) != 0; }

  Lit lit(ClauseRef Ref, size_t I) const {
    return Lit::fromCode(static_cast<int32_t>(Words[Ref + 1 + I]));
  }
  void setLit(ClauseRef Ref, size_t I, Lit L) {
    Words[Ref + 1 + I] = static_cast<uint32_t>(L.index());
  }
  void swapLits(ClauseRef Ref, size_t I, size_t J) {
    std::swap(Words[Ref + 1 + I], Words[Ref + 1 + J]);
  }
  /// \returns the literal words of \p Ref (valid until the next alloc).
  uint32_t *lits(ClauseRef Ref) { return &Words[Ref + 1]; }

  /// \returns the literals of \p Ref as a vector.
  std::vector<Lit> litVector(ClauseRef Ref) const {
    std::vector<Lit> Out;
    Out.reserve(size(Ref));
    for (uint32_t I = 0; I < size(Ref); ++I)
      Out.push_back(lit(Ref, I));
    return Out;
  }

  double activity(ClauseRef Ref) const {
    assert(learnt(Ref) && "only learnt clauses carry an activity");
    double A;
    std::memcpy(&A, &Words[Ref - 3], sizeof A);
    return A;
  }
  void setActivity(ClauseRef Ref, double A) {
    assert(learnt(Ref) && "only learnt clauses carry an activity");
    std::memcpy(&Words[Ref - 3], &A, sizeof A);
  }
  uint32_t lbd(ClauseRef Ref) const {
    assert(learnt(Ref) && "only learnt clauses carry an LBD");
    return Words[Ref - 1];
  }
  void setLbd(ClauseRef Ref, uint32_t LBD) {
    assert(learnt(Ref) && "only learnt clauses carry an LBD");
    Words[Ref - 1] = LBD;
  }

  /// Words in use, and how many of them are waste.
  size_t words() const { return Words.size(); }
  size_t wasted() const { return Wasted; }

  /// Copies \p Ref (still live, not yet relocated) to the end of \p To and
  /// leaves a forwarding ref behind. \returns the new ref.
  ClauseRef relocate(ClauseRef Ref, ClauseArena &To) {
    assert(!relocated(Ref) && "clause relocated twice");
    const uint32_t Extra = learnt(Ref) ? LearntExtra : 0;
    const uint32_t *First = &Words[Ref - Extra];
    To.Words.insert(To.Words.end(), First, First + Extra + 1 + size(Ref));
    ClauseRef NewRef = static_cast<ClauseRef>(To.Words.size()) - size(Ref) - 1;
    Words[Ref] |= RelocatedBit;
    Words[Ref + 1] = NewRef; // every clause has a literal slot to spare
    return NewRef;
  }

  /// \returns true when \p Ref was relocated (it was live at compaction).
  bool relocated(ClauseRef Ref) const {
    return (Words[Ref] & RelocatedBit) != 0;
  }
  /// \returns the new ref of the relocated clause \p Ref.
  ClauseRef forward(ClauseRef Ref) const {
    assert(relocated(Ref) && "forwarding a clause that did not move");
    return Words[Ref + 1];
  }

  /// Reserves room for \p N words (the live words of a compaction).
  void reserve(size_t N) { Words.reserve(N); }

private:
  static constexpr uint32_t RelocatedBit = 1u;
  static constexpr uint32_t LearntBit = 2u;
  static constexpr uint32_t LearntExtra = 3; ///< activity (2) + LBD (1)

  std::vector<uint32_t> Words;
  size_t Wasted = 0;
};

} // namespace sat
} // namespace psketch

#endif // PSKETCH_SAT_CLAUSEARENA_H
