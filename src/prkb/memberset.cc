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
  assert(c->kind != Container::kBitmap);
  std::vector<uint64_t> bits(kBitmapWords, 0);
  if (c->kind == Container::kArray) {
    for (uint16_t v : c->vals) bits[v >> 6] |= uint64_t{1} << (v & 63);
  } else {  // kRun
    for (size_t i = 0; i + 1 < c->vals.size(); i += 2) {
      const uint32_t start = c->vals[i];
      const uint32_t end = start + c->vals[i + 1];  // inclusive
      for (uint32_t v = start; v <= end; ++v) {
        bits[v >> 6] |= uint64_t{1} << (v & 63);
      }
    }
  }
  c->kind = Container::kBitmap;
  c->vals.clear();
  c->vals.shrink_to_fit();
  c->bits = std::move(bits);
}

void MemberSet::UnpackRuns(Container* c) {
  assert(c->kind == Container::kRun);
  if (c->n > kArrayMax) {
    ToBitmap(c);
    return;
  }
  std::vector<uint16_t> vals;
  vals.reserve(c->n);
  for (size_t i = 0; i + 1 < c->vals.size(); i += 2) {
    const uint32_t start = c->vals[i];
    const uint32_t end = start + c->vals[i + 1];
    for (uint32_t v = start; v <= end; ++v) {
      vals.push_back(static_cast<uint16_t>(v));
    }
  }
  c->kind = Container::kArray;
  c->vals = std::move(vals);
}

void MemberSet::Compact(Container* c) {
  // Materialise the sorted value list (cheap: n ≤ 65536), count runs, pick
  // the smallest of 2n (array), 8192 (bitmap) and 4·runs (run) bytes.
  std::vector<uint16_t> sorted;
  sorted.reserve(c->n);
  ForEachIn(*c, [&](TupleId tid) {
    sorted.push_back(static_cast<uint16_t>(tid & 0xFFFF));
  });
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
    c->bits.clear();
    c->bits.shrink_to_fit();
  } else if (array_bytes <= bitmap_bytes) {
    c->kind = Container::kArray;
    c->vals = std::move(sorted);
    c->bits.clear();
    c->bits.shrink_to_fit();
  } else if (c->kind != Container::kBitmap) {
    c->kind = Container::kArray;  // ToBitmap converts from array/run
    c->vals = std::move(sorted);
    ToBitmap(c);
  }
}

size_t MemberSet::ContainerBytes(const Container& c) {
  return sizeof(Container) + c.vals.size() * sizeof(uint16_t) +
         c.bits.size() * sizeof(uint64_t);
}

// --- Container point ops -----------------------------------------------------

bool MemberSet::ContainerContains(const Container& c, uint16_t low) {
  switch (c.kind) {
    case Container::kArray:
      return std::binary_search(c.vals.begin(), c.vals.end(), low);
    case Container::kBitmap:
      return (c.bits[low >> 6] >> (low & 63)) & 1;
    case Container::kRun:
      for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
        if (low < c.vals[i]) return false;
        if (static_cast<uint32_t>(low) <=
            static_cast<uint32_t>(c.vals[i]) + c.vals[i + 1]) {
          return true;
        }
      }
      return false;
  }
  return false;
}

bool MemberSet::ContainerAdd(Container* c, uint16_t low) {
  if (c->kind == Container::kRun) UnpackRuns(c);
  if (c->kind == Container::kArray) {
    const auto it = std::lower_bound(c->vals.begin(), c->vals.end(), low);
    if (it != c->vals.end() && *it == low) return false;
    if (c->vals.size() >= kArrayMax) {
      ToBitmap(c);
    } else {
      c->vals.insert(it, low);
      ++c->n;
      return true;
    }
  }
  uint64_t& word = c->bits[low >> 6];
  const uint64_t mask = uint64_t{1} << (low & 63);
  if ((word & mask) != 0) return false;
  word |= mask;
  ++c->n;
  return true;
}

bool MemberSet::ContainerRemove(Container* c, uint16_t low) {
  if (c->kind == Container::kRun) UnpackRuns(c);
  if (c->kind == Container::kArray) {
    const auto it = std::lower_bound(c->vals.begin(), c->vals.end(), low);
    if (it == c->vals.end() || *it != low) return false;
    c->vals.erase(it);
    --c->n;
    return true;
  }
  uint64_t& word = c->bits[low >> 6];
  const uint64_t mask = uint64_t{1} << (low & 63);
  if ((word & mask) == 0) return false;
  word &= ~mask;
  --c->n;
  if (c->n <= kArrayMax) {
    // Shrink back to array form so sparse containers do not pin 8 KiB.
    std::vector<uint16_t> vals;
    vals.reserve(c->n);
    ForEachIn(*c, [&](TupleId tid) {
      vals.push_back(static_cast<uint16_t>(tid & 0xFFFF));
    });
    c->kind = Container::kArray;
    c->vals = std::move(vals);
    c->bits.clear();
    c->bits.shrink_to_fit();
  }
  return true;
}

// --- MemberSet container lookup ---------------------------------------------

size_t MemberSet::LowerBound(uint16_t key) const {
  size_t lo = 0, hi = containers_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (containers_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

MemberSet::Container* MemberSet::FindContainer(uint16_t key) {
  const size_t i = LowerBound(key);
  if (i < containers_.size() && containers_[i].key == key) {
    return &containers_[i];
  }
  return nullptr;
}

const MemberSet::Container* MemberSet::FindContainer(uint16_t key) const {
  const size_t i = LowerBound(key);
  if (i < containers_.size() && containers_[i].key == key) {
    return &containers_[i];
  }
  return nullptr;
}

// --- Construction ------------------------------------------------------------

MemberSet MemberSet::FromTuples(const std::vector<TupleId>& tuples) {
  std::vector<TupleId> sorted = tuples;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return FromSorted(sorted);
}

MemberSet MemberSet::FromSorted(const std::vector<TupleId>& sorted) {
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
    if (c.vals.size() > kArrayMax) ToBitmap(&c);
    Compact(&c);
    out.containers_.push_back(std::move(c));
    i = j;
  }
  out.size_ = sorted.size();
  return out;
}

// --- Point ops ---------------------------------------------------------------

bool MemberSet::Add(TupleId tid) {
  const uint16_t key = KeyOf(tid);
  const size_t i = LowerBound(key);
  if (i == containers_.size() || containers_[i].key != key) {
    Container c;
    c.key = key;
    c.n = 1;
    c.vals.push_back(LowOf(tid));
    containers_.insert(containers_.begin() + static_cast<ptrdiff_t>(i),
                       std::move(c));
    ++size_;
    return true;
  }
  if (!ContainerAdd(&containers_[i], LowOf(tid))) return false;
  ++size_;
  return true;
}

bool MemberSet::Remove(TupleId tid) {
  Container* c = FindContainer(KeyOf(tid));
  if (c == nullptr || !ContainerRemove(c, LowOf(tid))) return false;
  --size_;
  if (c->n == 0) {
    containers_.erase(containers_.begin() + (c - containers_.data()));
  }
  return true;
}

bool MemberSet::Contains(TupleId tid) const {
  const Container* c = FindContainer(KeyOf(tid));
  return c != nullptr && ContainerContains(*c, LowOf(tid));
}

void MemberSet::Clear() {
  containers_.clear();
  size_ = 0;
}

// --- Binary set-op kernels ---------------------------------------------------

const MemberSet::Container& MemberSet::Expanded(const Container& c,
                                                Container* scratch) {
  if (c.kind != Container::kRun) return c;
  *scratch = c;
  UnpackRuns(scratch);
  return *scratch;
}

MemberSet::Container MemberSet::UnionC(const Container& ca,
                                       const Container& cb) {
  Container sa, sb;
  const Container& a = Expanded(ca, &sa);
  const Container& b = Expanded(cb, &sb);
  Container out;
  out.key = a.key;
  if (a.kind == Container::kBitmap || b.kind == Container::kBitmap) {
    out = a.kind == Container::kBitmap ? a : b;
    const Container& other = a.kind == Container::kBitmap ? b : a;
    if (other.kind == Container::kBitmap) {
      uint32_t n = 0;
      for (size_t w = 0; w < kBitmapWords; ++w) {
        out.bits[w] |= other.bits[w];
        n += static_cast<uint32_t>(__builtin_popcountll(out.bits[w]));
      }
      out.n = n;
    } else {
      for (uint16_t v : other.vals) {
        uint64_t& word = out.bits[v >> 6];
        const uint64_t mask = uint64_t{1} << (v & 63);
        if ((word & mask) == 0) {
          word |= mask;
          ++out.n;
        }
      }
    }
  } else {
    out.kind = Container::kArray;
    out.vals.reserve(a.vals.size() + b.vals.size());
    std::set_union(a.vals.begin(), a.vals.end(), b.vals.begin(), b.vals.end(),
                   std::back_inserter(out.vals));
    out.n = static_cast<uint32_t>(out.vals.size());
    if (out.vals.size() > kArrayMax) ToBitmap(&out);
  }
  Compact(&out);
  return out;
}

MemberSet::Container MemberSet::IntersectC(const Container& ca,
                                           const Container& cb) {
  Container sa, sb;
  const Container& a = Expanded(ca, &sa);
  const Container& b = Expanded(cb, &sb);
  Container out;
  out.key = a.key;
  out.kind = Container::kArray;
  if (a.kind == Container::kBitmap && b.kind == Container::kBitmap) {
    out.kind = Container::kBitmap;
    out.bits.resize(kBitmapWords);
    uint32_t n = 0;
    for (size_t w = 0; w < kBitmapWords; ++w) {
      out.bits[w] = a.bits[w] & b.bits[w];
      n += static_cast<uint32_t>(__builtin_popcountll(out.bits[w]));
    }
    out.n = n;
  } else if (a.kind == Container::kArray && b.kind == Container::kArray) {
    std::set_intersection(a.vals.begin(), a.vals.end(), b.vals.begin(),
                          b.vals.end(), std::back_inserter(out.vals));
    out.n = static_cast<uint32_t>(out.vals.size());
  } else {
    const Container& arr = a.kind == Container::kArray ? a : b;
    const Container& bm = a.kind == Container::kArray ? b : a;
    for (uint16_t v : arr.vals) {
      if ((bm.bits[v >> 6] >> (v & 63)) & 1) out.vals.push_back(v);
    }
    out.n = static_cast<uint32_t>(out.vals.size());
  }
  Compact(&out);
  return out;
}

MemberSet::Container MemberSet::DifferenceC(const Container& ca,
                                            const Container& cb) {
  Container sa, sb;
  const Container& a = Expanded(ca, &sa);
  const Container& b = Expanded(cb, &sb);
  Container out;
  out.key = a.key;
  out.kind = Container::kArray;
  if (a.kind == Container::kArray) {
    if (b.kind == Container::kArray) {
      std::set_difference(a.vals.begin(), a.vals.end(), b.vals.begin(),
                          b.vals.end(), std::back_inserter(out.vals));
    } else {
      for (uint16_t v : a.vals) {
        if (((b.bits[v >> 6] >> (v & 63)) & 1) == 0) out.vals.push_back(v);
      }
    }
    out.n = static_cast<uint32_t>(out.vals.size());
  } else {
    out.kind = Container::kBitmap;
    out.bits = a.bits;
    out.n = a.n;
    if (b.kind == Container::kBitmap) {
      uint32_t n = 0;
      for (size_t w = 0; w < kBitmapWords; ++w) {
        out.bits[w] &= ~b.bits[w];
        n += static_cast<uint32_t>(__builtin_popcountll(out.bits[w]));
      }
      out.n = n;
    } else {
      for (uint16_t v : b.vals) {
        uint64_t& word = out.bits[v >> 6];
        const uint64_t mask = uint64_t{1} << (v & 63);
        if ((word & mask) != 0) {
          word &= ~mask;
          --out.n;
        }
      }
    }
  }
  Compact(&out);
  return out;
}

// --- Whole-set ops -----------------------------------------------------------

MemberSet MemberSet::Union(const MemberSet& a, const MemberSet& b) {
  MemberSet out;
  size_t i = 0, j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j == b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i++]);
    } else if (i == a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j++]);
    } else {
      out.containers_.push_back(UnionC(a.containers_[i++], b.containers_[j++]));
    }
    out.size_ += out.containers_.back().n;
  }
  return out;
}

MemberSet MemberSet::Intersect(const MemberSet& a, const MemberSet& b) {
  MemberSet out;
  size_t i = 0, j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    const uint16_t ka = a.containers_[i].key;
    const uint16_t kb = b.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (kb < ka) {
      ++j;
    } else {
      Container c = IntersectC(a.containers_[i++], b.containers_[j++]);
      if (c.n > 0) {
        out.size_ += c.n;
        out.containers_.push_back(std::move(c));
      }
    }
  }
  return out;
}

MemberSet MemberSet::Difference(const MemberSet& a, const MemberSet& b) {
  MemberSet out;
  size_t i = 0, j = 0;
  while (i < a.containers_.size()) {
    const uint16_t ka = a.containers_[i].key;
    while (j < b.containers_.size() && b.containers_[j].key < ka) ++j;
    if (j < b.containers_.size() && b.containers_[j].key == ka) {
      Container c = DifferenceC(a.containers_[i++], b.containers_[j++]);
      if (c.n > 0) {
        out.size_ += c.n;
        out.containers_.push_back(std::move(c));
      }
    } else {
      out.containers_.push_back(a.containers_[i++]);
      out.size_ += out.containers_.back().n;
    }
  }
  return out;
}

void MemberSet::UnionWith(const MemberSet& other) {
  if (other.Empty()) return;
  *this = Union(*this, other);
}

// --- Iteration ---------------------------------------------------------------

std::vector<TupleId> MemberSet::ToVector() const {
  std::vector<TupleId> out;
  out.reserve(size_);
  ForEach([&out](TupleId tid) { out.push_back(tid); });
  return out;
}

// --- Maintenance / accounting ------------------------------------------------

void MemberSet::Optimize() {
  for (Container& c : containers_) Compact(&c);
}

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
  Clear();
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

bool MemberSet::operator==(const MemberSet& other) const {
  if (size_ != other.size_) return false;
  return ToVector() == other.ToVector();
}

}  // namespace prkb::core
