//===- sat/SatTypes.h - Literals, variables, truth values -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basic vocabulary of the SAT solver: variables, literals, and the
/// three-valued truth type. Follows the MiniSat conventions (a literal is
/// 2*var + sign, so both polarities of a variable index adjacent slots).
/// Clauses themselves live in the solver's arena (sat/ClauseArena.h).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SAT_SATTYPES_H
#define PSKETCH_SAT_SATTYPES_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace psketch {
namespace sat {

/// A propositional variable; variables are dense non-negative integers.
using Var = int32_t;

/// The invalid variable sentinel.
const Var VarUndef = -1;

/// A literal: a variable together with a polarity.
class Lit {
public:
  Lit() : Code(-2) {}

  /// Builds the literal for \p V, negated if \p Negated.
  Lit(Var V, bool Negated) : Code(V * 2 + static_cast<int32_t>(Negated)) {
    assert(V >= 0 && "literal of invalid variable");
  }

  /// \returns the underlying variable.
  Var var() const { return Code >> 1; }

  /// \returns true if this is the negative-polarity literal.
  bool sign() const { return (Code & 1) != 0; }

  /// \returns the opposite-polarity literal of the same variable.
  Lit operator~() const { return fromCode(Code ^ 1); }

  /// \returns a dense non-negative index usable for watch lists.
  int32_t index() const { return Code; }

  /// Rebuilds a literal from its dense index.
  static Lit fromCode(int32_t Code) {
    Lit L;
    L.Code = Code;
    return L;
  }

  bool operator==(const Lit &Other) const { return Code == Other.Code; }
  bool operator!=(const Lit &Other) const { return Code != Other.Code; }
  bool operator<(const Lit &Other) const { return Code < Other.Code; }

private:
  int32_t Code;
};

/// The undefined literal sentinel.
inline Lit litUndef() { return Lit(); }

/// Three-valued truth: used both for assignments and models.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/// \returns the LBool encoding of the concrete boolean \p B.
inline LBool boolToLBool(bool B) { return B ? LBool::True : LBool::False; }

/// \returns \p Value flipped when \p Negate is set; Undef stays Undef.
inline LBool xorLBool(LBool Value, bool Negate) {
  if (Value == LBool::Undef)
    return LBool::Undef;
  return boolToLBool((Value == LBool::True) != Negate);
}

} // namespace sat
} // namespace psketch

#endif // PSKETCH_SAT_SATTYPES_H
