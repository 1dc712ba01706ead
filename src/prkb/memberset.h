#ifndef PRKB_PRKB_MEMBERSET_H_
#define PRKB_PRKB_MEMBERSET_H_

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "edbms/types.h"

namespace prkb::core {

/// Compressed sorted set of tuple ids — the partition-membership
/// representation of `Pop` (docs/PERSISTENCE.md §2).
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
/// Iteration is always in ascending tuple-id order, which makes every
/// consumer deterministic (the chain's layout rebuild, WAL deltas, snapshot
/// encoding). Selections do not read MemberSets: they read the chain's
/// contiguous tuple layout (Pop::tuples), which mirrors them.
/// Mutations keep containers in their cheapest *mutable* form (array/bitmap);
/// `Optimize()` re-packs clumped containers into runs and is called by the
/// bulk constructors, so freshly split partitions are born compressed.
class MemberSet {
 public:
  MemberSet() = default;

  /// Builds from any tuple list (sorts + dedups a copy).
  static MemberSet FromTuples(const std::vector<edbms::TupleId>& tuples);
  /// Builds from a strictly ascending list (asserted in debug builds).
  static MemberSet FromSorted(const std::vector<edbms::TupleId>& sorted);

  /// --- Point ops -----------------------------------------------------------

  /// Inserts `tid`; returns false if it was already present.
  bool Add(edbms::TupleId tid);
  /// Erases `tid`; returns false if it was absent.
  bool Remove(edbms::TupleId tid);
  bool Contains(edbms::TupleId tid) const;

  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }
  void Clear();

  /// --- Set ops (ascending-merge; operands may alias) ----------------------

  static MemberSet Union(const MemberSet& a, const MemberSet& b);
  static MemberSet Intersect(const MemberSet& a, const MemberSet& b);
  static MemberSet Difference(const MemberSet& a, const MemberSet& b);
  /// In-place union (chain merges: |containers| work, not |members|, when
  /// the operands' containers do not collide).
  void UnionWith(const MemberSet& other);

  /// --- Iteration (ascending) ----------------------------------------------

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Container& c : containers_) ForEachIn(c, fn);
  }
  std::vector<edbms::TupleId> ToVector() const;

  /// --- Maintenance / accounting -------------------------------------------

  /// Re-packs every container into its cheapest form (including runs).
  void Optimize();
  /// Compressed heap footprint in bytes (container payloads + headers).
  size_t SizeBytes() const;
  size_t ContainerCount() const { return containers_.size(); }

  /// --- Serialization (WAL deltas; docs/PERSISTENCE.md §3) ------------------

  void EncodeTo(Encoder* enc) const;
  Status DecodeFrom(Decoder* dec);

  /// Content equality (form-insensitive: a run container equals the array
  /// holding the same ids).
  bool operator==(const MemberSet& other) const;

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

  /// Index of the container with `key`, or the insertion point.
  size_t LowerBound(uint16_t key) const;
  Container* FindContainer(uint16_t key);
  const Container* FindContainer(uint16_t key) const;

  static bool ContainerContains(const Container& c, uint16_t low);
  static bool ContainerAdd(Container* c, uint16_t low);
  static bool ContainerRemove(Container* c, uint16_t low);
  /// Converts a run container to array or bitmap (whichever fits) so point
  /// mutations stay simple.
  static void UnpackRuns(Container* c);
  static void ToBitmap(Container* c);
  /// Re-packs `c` into its cheapest of the three forms.
  static void Compact(Container* c);
  static size_t ContainerBytes(const Container& c);

  /// Expands run form so the binary set-op kernels see only array/bitmap.
  static const Container& Expanded(const Container& c, Container* scratch);
  static Container UnionC(const Container& a, const Container& b);
  static Container IntersectC(const Container& a, const Container& b);
  static Container DifferenceC(const Container& a, const Container& b);

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
