#ifndef PRKB_PRKB_MEMBERSET_H_
#define PRKB_PRKB_MEMBERSET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "edbms/types.h"

namespace prkb::core {

/// Compressed sorted set of tuple ids — the packed form of a partition's
/// membership in WAL records (docs/PERSISTENCE.md §3) and the count behind
/// the `memberset.*` footprint gauges. It is not an in-memory structure of
/// the chain: `Pop` holds membership only as its chain-ordered layout
/// (DESIGN.md §13) and builds a MemberSet from a layout slice on demand.
///
/// Roaring-style layout: ids are bucketed by their high 16 bits into
/// *containers* of low-16-bit values, each stored in whichever of three forms
/// is smallest for its population:
///
///   - array:  sorted `uint16_t` values (≤ 4096 entries, 2 bytes each)
///   - bitmap: 65536-bit bitset (8 KiB, wins above 4096 entries)
///   - run:    (start, length−1) pairs — wins when membership is clumped,
///             which is exactly what PRKB partitions look like whenever the
///             indexed value correlates with insertion order (timestamps,
///             auto-increment keys): a partition is a contiguous run of the
///             hidden sorted order, so its tuple ids form O(1) runs.
///
/// Iteration is always in ascending tuple-id order, and the builders always
/// pick the cheapest form, so equal sets encode to equal bytes.
class MemberSet {
 public:
  MemberSet() = default;

  /// Builds from any tuple list (sorts + dedups a copy).
  static MemberSet FromTuples(const std::vector<edbms::TupleId>& tuples);
  /// Builds from a strictly ascending list (asserted in debug builds).
  static MemberSet FromSorted(std::span<const edbms::TupleId> sorted);

  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// --- Iteration (ascending) ----------------------------------------------

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Container& c : containers_) ForEachIn(c, fn);
  }
  std::vector<edbms::TupleId> ToVector() const;

  /// --- Accounting ---------------------------------------------------------

  /// Compressed heap footprint in bytes (container payloads + headers).
  size_t SizeBytes() const;
  size_t ContainerCount() const { return containers_.size(); }

  /// --- Serialization (WAL deltas; docs/PERSISTENCE.md §3) ------------------

  void EncodeTo(Encoder* enc) const;
  Status DecodeFrom(Decoder* dec);

 private:
  /// At most 4096 entries as an array; above that a bitmap is smaller.
  static constexpr size_t kArrayMax = 4096;
  static constexpr size_t kBitmapWords = 1024;  // 65536 bits

  struct Container {
    enum Kind : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };
    uint16_t key = 0;  // high 16 bits of every member
    Kind kind = kArray;
    uint32_t n = 0;  // cardinality
    /// kArray: sorted values. kRun: (start, length−1) pairs, sorted,
    /// non-adjacent. kBitmap: unused.
    std::vector<uint16_t> vals;
    std::vector<uint64_t> bits;  // kBitmap only
  };

  static uint16_t KeyOf(edbms::TupleId tid) {
    return static_cast<uint16_t>(tid >> 16);
  }
  static uint16_t LowOf(edbms::TupleId tid) {
    return static_cast<uint16_t>(tid & 0xFFFF);
  }
  static edbms::TupleId Join(uint16_t key, uint16_t low) {
    return (static_cast<edbms::TupleId>(key) << 16) | low;
  }

  static void ToBitmap(Container* c);
  /// Re-packs the array container `c` into its cheapest of the three forms.
  static void Compact(Container* c);
  static size_t ContainerBytes(const Container& c);

  template <typename Fn>
  static void ForEachIn(const Container& c, Fn&& fn) {
    switch (c.kind) {
      case Container::kArray:
        for (uint16_t v : c.vals) fn(Join(c.key, v));
        break;
      case Container::kRun:
        for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
          const uint32_t start = c.vals[i];
          const uint32_t len = static_cast<uint32_t>(c.vals[i + 1]) + 1;
          for (uint32_t v = start; v < start + len; ++v) {
            fn(Join(c.key, static_cast<uint16_t>(v)));
          }
        }
        break;
      case Container::kBitmap:
        for (size_t w = 0; w < c.bits.size(); ++w) {
          uint64_t word = c.bits[w];
          while (word != 0) {
            const int bit = __builtin_ctzll(word);
            fn(Join(c.key, static_cast<uint16_t>(w * 64 + bit)));
            word &= word - 1;
          }
        }
        break;
    }
  }

  std::vector<Container> containers_;  // ascending by key
  size_t size_ = 0;
};

}  // namespace prkb::core

#endif  // PRKB_PRKB_MEMBERSET_H_
