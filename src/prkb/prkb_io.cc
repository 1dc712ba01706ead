#include "prkb/prkb_io.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prkb/pop.h"

namespace prkb::core {
namespace {

constexpr uint32_t kMagic = 0x50524B42;  // "PRKB"
// v2 appends the repeat-predicate fast-path cache to each chain. Cut ids are
// preserved across a round trip (they always were), which is what lets the
// cache reference cuts by id.
// v3 appends the deferred-insert buffer (append order preserved — the order
// is knowledge state: it fixes the flush placement sequence).
constexpr uint8_t kVersion = 3;

}  // namespace

void EncodeTrapdoor(Encoder* enc, const edbms::Trapdoor& td) {
  enc->PutU32(td.attr);
  enc->PutU8(static_cast<uint8_t>(td.kind));
  enc->PutU64(td.uid);
  enc->PutBytes(td.blob);
}

Status DecodeTrapdoor(Decoder* dec, edbms::Trapdoor* td) {
  uint8_t kind;
  PRKB_RETURN_IF_ERROR(dec->GetU32(&td->attr));
  PRKB_RETURN_IF_ERROR(dec->GetU8(&kind));
  if (kind > static_cast<uint8_t>(edbms::PredicateKind::kBetween)) {
    return Status::Corruption("bad predicate kind");
  }
  td->kind = static_cast<edbms::PredicateKind>(kind);
  PRKB_RETURN_IF_ERROR(dec->GetU64(&td->uid));
  PRKB_RETURN_IF_ERROR(dec->GetBytes(&td->blob));
  return Status::Ok();
}

void Pop::EncodeTo(Encoder* enc) const {
  enc->PutVarint(chain_.size());
  for (PartitionId pid : chain_) {
    const MemberSet& m = slots_[pid].members;
    enc->PutVarint(m.Size());
    // Ascending, as MemberSet always iterates — the on-disk member lists are
    // a deterministic function of the knowledge state.
    m.ForEach([enc](edbms::TupleId tid) { enc->PutVarint(tid); });
  }
  // Cuts, referenced by chain position of their left partition.
  size_t live_cuts = 0;
  for (const Cut& cut : cuts_) live_cuts += !cut.dropped;
  enc->PutVarint(live_cuts);
  for (const Cut& cut : cuts_) {
    if (cut.dropped) continue;
    enc->PutU64(cut.id);
    enc->PutVarint(pos_[cut.left_pid]);
    enc->PutU8(cut.left_label ? 1 : 0);
    enc->PutU64(cut.sibling);
    EncodeTrapdoor(enc, cut.trapdoor);
  }
  enc->PutU64(next_cut_id_);
  // Fast-path cache, fingerprint-sorted so the encoding is deterministic
  // (replay tests compare chains byte-for-byte).
  std::vector<std::pair<TrapdoorFp, FastPathEntry>> entries(
      fp_cache_.begin(), fp_cache_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  enc->PutVarint(entries.size());
  for (const auto& [fp, e] : entries) {
    enc->PutU64(fp.hi);
    enc->PutU64(fp.lo);
    enc->PutU64(e.cut_id);
    enc->PutU64(e.cut_id2);
  }
  buffer_.EncodeTo(enc);
}

Status Pop::DecodeFrom(Decoder* dec) {
  slots_.clear();
  chain_.clear();
  pos_.clear();
  part_of_.clear();
  order_.clear();
  start_.assign(1, 0);
  cuts_.clear();
  cut_index_.clear();
  fp_cache_.clear();
  buffer_.Clear();
  num_tuples_ = 0;

  uint64_t k;
  PRKB_RETURN_IF_ERROR(dec->GetVarint(&k));
  for (uint64_t p = 0; p < k; ++p) {
    uint64_t m;
    PRKB_RETURN_IF_ERROR(dec->GetVarint(&m));
    if (m == 0) return Status::Corruption("empty partition");
    std::vector<edbms::TupleId> members;
    members.reserve(m);
    const PartitionId pid = static_cast<PartitionId>(slots_.size());
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t tid;
      PRKB_RETURN_IF_ERROR(dec->GetVarint(&tid));
      members.push_back(static_cast<edbms::TupleId>(tid));
      if (tid >= part_of_.size()) part_of_.resize(tid + 1, kNoPartition);
      if (part_of_[tid] != kNoPartition) {
        return Status::Corruption("tuple in two partitions");
      }
      part_of_[tid] = pid;
      ++num_tuples_;
    }
    NewPartition(MemberSet::FromTuples(members));
    chain_.push_back(pid);
  }
  RebuildPositionsFrom(0);
  RebuildLayout();

  uint64_t ncuts;
  PRKB_RETURN_IF_ERROR(dec->GetVarint(&ncuts));
  for (uint64_t i = 0; i < ncuts; ++i) {
    Cut cut;
    uint64_t left_pos;
    uint8_t label;
    PRKB_RETURN_IF_ERROR(dec->GetU64(&cut.id));
    PRKB_RETURN_IF_ERROR(dec->GetVarint(&left_pos));
    PRKB_RETURN_IF_ERROR(dec->GetU8(&label));
    PRKB_RETURN_IF_ERROR(dec->GetU64(&cut.sibling));
    PRKB_RETURN_IF_ERROR(DecodeTrapdoor(dec, &cut.trapdoor));
    if (chain_.empty() || left_pos + 1 >= chain_.size()) {
      return Status::Corruption("cut position out of range");
    }
    cut.left_label = label != 0;
    cut.left_pid = chain_[left_pos];
    cut.fp = FingerprintTrapdoor(cut.trapdoor);
    // A second cut on an occupied boundary keeps the first one's
    // back-reference, so Validate() rejects the stack below.
    if (slots_[cut.left_pid].right_cut == kNoCutIdx) {
      slots_[cut.left_pid].right_cut = static_cast<uint32_t>(cuts_.size());
    }
    cut_index_[cut.id] = cuts_.size();
    cuts_.push_back(std::move(cut));
  }
  PRKB_RETURN_IF_ERROR(dec->GetU64(&next_cut_id_));
  uint64_t nentries;
  PRKB_RETURN_IF_ERROR(dec->GetVarint(&nentries));
  for (uint64_t i = 0; i < nentries; ++i) {
    TrapdoorFp fp;
    FastPathEntry e;
    PRKB_RETURN_IF_ERROR(dec->GetU64(&fp.hi));
    PRKB_RETURN_IF_ERROR(dec->GetU64(&fp.lo));
    PRKB_RETURN_IF_ERROR(dec->GetU64(&e.cut_id));
    PRKB_RETURN_IF_ERROR(dec->GetU64(&e.cut_id2));
    fp_cache_.insert_or_assign(fp, e);
  }
  PRKB_RETURN_IF_ERROR(buffer_.DecodeFrom(dec));
  // Validate() rejects entries whose anchors are missing or whose
  // fingerprint does not match the anchor cut's trapdoor, and buffered
  // tuples that also appear on the chain.
  return Validate();
}

Status SavePrkb(const PrkbIndex& index, const std::string& path) {
  Encoder enc;
  enc.PutU32(kMagic);
  enc.PutU8(kVersion);
  const auto attrs = index.EnabledAttrs();
  enc.PutVarint(attrs.size());
  for (edbms::AttrId attr : attrs) {
    enc.PutU32(attr);
    index.pop(attr).EncodeTo(&enc);
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const auto& buf = enc.buffer();
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (written != buf.size()) return Status::IoError("short write to " + path);
  return Status::Ok();
}

Status LoadPrkb(PrkbIndex* index, const std::string& path,
                std::vector<edbms::AttrId>* loaded) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  const size_t read = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (read != buf.size()) return Status::IoError("short read from " + path);

  Decoder dec(buf);
  uint32_t magic;
  uint8_t version;
  PRKB_RETURN_IF_ERROR(dec.GetU32(&magic));
  if (magic != kMagic) return Status::Corruption("bad magic");
  PRKB_RETURN_IF_ERROR(dec.GetU8(&version));
  if (version != kVersion) return Status::NotSupported("unknown version");
  uint64_t nattrs;
  PRKB_RETURN_IF_ERROR(dec.GetVarint(&nattrs));
  for (uint64_t i = 0; i < nattrs; ++i) {
    uint32_t attr;
    PRKB_RETURN_IF_ERROR(dec.GetU32(&attr));
    Pop pop;
    PRKB_RETURN_IF_ERROR(pop.DecodeFrom(&dec));
    index->InstallPop(attr, std::move(pop));
    if (loaded != nullptr) loaded->push_back(attr);
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes");
  return Status::Ok();
}

}  // namespace prkb::core
