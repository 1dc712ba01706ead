#include "prkb/memberset.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace prkb::core {

using edbms::TupleId;

namespace {

/// Number of (start, len−1) pairs an ascending uint16 sequence packs into.
size_t CountRuns(const std::vector<uint16_t>& sorted) {
  size_t runs = 0;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) ++j;
    ++runs;
    i = j;
  }
  return runs;
}

}  // namespace

// --- Container form changes --------------------------------------------------

void MemberSet::ToBitmap(Container* c) {
  assert(c->kind == Container::kArray);
  std::vector<uint64_t> bits(kBitmapWords, 0);
  for (uint16_t v : c->vals) bits[v >> 6] |= uint64_t{1} << (v & 63);
  c->kind = Container::kBitmap;
  c->vals.clear();
  c->vals.shrink_to_fit();
  c->bits = std::move(bits);
}

void MemberSet::Compact(Container* c) {
  // Pick the smallest of 2n (array), 8192 (bitmap) and 4·runs (run) bytes.
  assert(c->kind == Container::kArray);
  const std::vector<uint16_t>& sorted = c->vals;
  const size_t runs = CountRuns(sorted);
  const size_t array_bytes = 2 * sorted.size();
  const size_t run_bytes = 4 * runs;
  const size_t bitmap_bytes = 8 * kBitmapWords;
  if (run_bytes <= array_bytes && run_bytes <= bitmap_bytes) {
    std::vector<uint16_t> pairs;
    pairs.reserve(2 * runs);
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) ++j;
      pairs.push_back(sorted[i]);
      pairs.push_back(static_cast<uint16_t>(j - i - 1));
      i = j;
    }
    c->kind = Container::kRun;
    c->vals = std::move(pairs);
  } else if (array_bytes > bitmap_bytes) {
    ToBitmap(c);
  }
}

size_t MemberSet::ContainerBytes(const Container& c) {
  return sizeof(Container) + c.vals.size() * sizeof(uint16_t) +
         c.bits.size() * sizeof(uint64_t);
}

// --- Construction ------------------------------------------------------------

MemberSet MemberSet::FromTuples(const std::vector<TupleId>& tuples) {
  std::vector<TupleId> sorted = tuples;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return FromSorted(sorted);
}

MemberSet MemberSet::FromSorted(std::span<const TupleId> sorted) {
  MemberSet out;
  size_t i = 0;
  while (i < sorted.size()) {
    const uint16_t key = KeyOf(sorted[i]);
    size_t j = i;
    while (j < sorted.size() && KeyOf(sorted[j]) == key) {
      assert(j == i || sorted[j] > sorted[j - 1]);
      ++j;
    }
    Container c;
    c.key = key;
    c.n = static_cast<uint32_t>(j - i);
    c.vals.reserve(j - i);
    for (size_t p = i; p < j; ++p) c.vals.push_back(LowOf(sorted[p]));
    Compact(&c);
    out.containers_.push_back(std::move(c));
    i = j;
  }
  out.size_ = sorted.size();
  return out;
}

// --- Iteration ---------------------------------------------------------------

std::vector<TupleId> MemberSet::ToVector() const {
  std::vector<TupleId> out;
  out.reserve(size_);
  ForEach([&out](TupleId tid) { out.push_back(tid); });
  return out;
}

// --- Accounting --------------------------------------------------------------

size_t MemberSet::SizeBytes() const {
  size_t bytes = 0;
  for (const Container& c : containers_) bytes += ContainerBytes(c);
  return bytes;
}

// --- Serialization -----------------------------------------------------------

void MemberSet::EncodeTo(Encoder* enc) const {
  enc->PutVarint(containers_.size());
  for (const Container& c : containers_) {
    enc->PutVarint(c.key);
    enc->PutU8(static_cast<uint8_t>(c.kind));
    enc->PutVarint(c.n);
    switch (c.kind) {
      case Container::kArray: {
        // Delta-coded: first value, then gaps−1 (values are strictly
        // ascending, so every gap is ≥ 1).
        uint16_t prev = 0;
        for (size_t i = 0; i < c.vals.size(); ++i) {
          enc->PutVarint(i == 0 ? c.vals[0]
                                : static_cast<uint64_t>(c.vals[i] - prev - 1));
          prev = c.vals[i];
        }
        break;
      }
      case Container::kRun: {
        enc->PutVarint(c.vals.size() / 2);
        uint32_t prev_end = 0;
        for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
          enc->PutVarint(i == 0 ? c.vals[0] : c.vals[i] - prev_end - 2);
          enc->PutVarint(c.vals[i + 1]);
          prev_end = static_cast<uint32_t>(c.vals[i]) + c.vals[i + 1];
        }
        break;
      }
      case Container::kBitmap:
        for (uint64_t w : c.bits) enc->PutU64(w);
        break;
    }
  }
}

Status MemberSet::DecodeFrom(Decoder* dec) {
  *this = MemberSet();
  uint64_t ncont;
  PRKB_RETURN_IF_ERROR(dec->GetVarint(&ncont));
  uint32_t prev_key = 0;
  for (uint64_t ci = 0; ci < ncont; ++ci) {
    uint64_t key, n;
    uint8_t kind;
    PRKB_RETURN_IF_ERROR(dec->GetVarint(&key));
    PRKB_RETURN_IF_ERROR(dec->GetU8(&kind));
    PRKB_RETURN_IF_ERROR(dec->GetVarint(&n));
    if (key > 0xFFFF || kind > Container::kRun || n == 0 || n > 65536) {
      return Status::Corruption("bad memberset container header");
    }
    if (ci > 0 && key <= prev_key) {
      return Status::Corruption("memberset containers out of order");
    }
    prev_key = static_cast<uint32_t>(key);
    Container c;
    c.key = static_cast<uint16_t>(key);
    c.kind = static_cast<Container::Kind>(kind);
    c.n = static_cast<uint32_t>(n);
    switch (c.kind) {
      case Container::kArray: {
        if (n > kArrayMax) return Status::Corruption("oversized array");
        c.vals.reserve(n);
        uint64_t acc = 0;
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t d;
          PRKB_RETURN_IF_ERROR(dec->GetVarint(&d));
          acc = i == 0 ? d : acc + d + 1;
          if (acc > 0xFFFF) return Status::Corruption("array value overflow");
          c.vals.push_back(static_cast<uint16_t>(acc));
        }
        break;
      }
      case Container::kRun: {
        uint64_t nruns;
        PRKB_RETURN_IF_ERROR(dec->GetVarint(&nruns));
        if (nruns == 0 || nruns > 32768) {
          return Status::Corruption("bad run count");
        }
        uint64_t covered = 0;
        uint64_t prev_end = 0;
        for (uint64_t i = 0; i < nruns; ++i) {
          uint64_t start_d, len1;
          PRKB_RETURN_IF_ERROR(dec->GetVarint(&start_d));
          PRKB_RETURN_IF_ERROR(dec->GetVarint(&len1));
          const uint64_t start = i == 0 ? start_d : prev_end + start_d + 2;
          if (start > 0xFFFF || len1 > 0xFFFF || start + len1 > 0xFFFF) {
            return Status::Corruption("run out of range");
          }
          c.vals.push_back(static_cast<uint16_t>(start));
          c.vals.push_back(static_cast<uint16_t>(len1));
          prev_end = start + len1;
          covered += len1 + 1;
        }
        if (covered != n) return Status::Corruption("run cardinality mismatch");
        break;
      }
      case Container::kBitmap: {
        c.bits.resize(kBitmapWords);
        uint32_t pop = 0;
        for (size_t w = 0; w < kBitmapWords; ++w) {
          PRKB_RETURN_IF_ERROR(dec->GetU64(&c.bits[w]));
          pop += static_cast<uint32_t>(__builtin_popcountll(c.bits[w]));
        }
        if (pop != c.n) return Status::Corruption("bitmap cardinality");
        break;
      }
    }
    size_ += c.n;
    containers_.push_back(std::move(c));
  }
  return Status::Ok();
}

}  // namespace prkb::core
