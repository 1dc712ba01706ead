#ifndef PRKB_EDBMS_TYPES_H_
#define PRKB_EDBMS_TYPES_H_

#include <cstdint>
#include <string>

namespace prkb::edbms {

/// Plain attribute value. The paper evaluates on integer domains
/// (e.g. [1, 30M]); we use a signed 64-bit domain throughout.
using Value = int64_t;

/// Dense tuple identifier assigned by the service provider in insertion
/// order. Identifiers are never reused; deleted tuples become tombstones.
using TupleId = uint32_t;

/// Attribute (column) index within a table.
using AttrId = uint32_t;

/// Comparison operators of a simple comparison predicate 'X op c'.
/// Per the paper (Sec. 3.1), the SP cannot distinguish which of the four is
/// inside a trapdoor — they are all processed by the same algorithm.
enum class CompareOp : uint8_t { kLt = 0, kGt = 1, kLe = 2, kGe = 3 };

/// Predicate families the SP *can* distinguish (different algorithms).
enum class PredicateKind : uint8_t { kComparison = 0, kBetween = 1 };

/// Plaintext form of a predicate. Exists only on the data-owner side, inside
/// the trusted machine once it has opened a trapdoor, and in test oracles;
/// the service provider never sees one.
struct PlainPredicate {
  AttrId attr = 0;
  PredicateKind kind = PredicateKind::kComparison;
  CompareOp op = CompareOp::kLt;  // comparison only
  Value lo = 0;                   // comparison constant, or BETWEEN lower
  Value hi = 0;                   // BETWEEN upper (inclusive)

  /// Ground-truth evaluation on a plain value.
  bool Satisfies(Value v) const {
    if (kind == PredicateKind::kBetween) return lo <= v && v <= hi;
    switch (op) {
      case CompareOp::kLt:
        return v < lo;
      case CompareOp::kGt:
        return v > lo;
      case CompareOp::kLe:
        return v <= lo;
      case CompareOp::kGe:
        return v >= lo;
    }
    return false;
  }

  std::string ToString() const;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_TYPES_H_
