#include "wal/wal_record.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/serde.h"

namespace insight {

const char* WalRecordTypeToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kNoop:
      return "Noop";
    case WalRecordType::kCreateTable:
      return "CreateTable";
    case WalRecordType::kInsert:
      return "Insert";
    case WalRecordType::kDelete:
      return "Delete";
    case WalRecordType::kDefineInstance:
      return "DefineInstance";
    case WalRecordType::kLinkInstance:
      return "LinkInstance";
    case WalRecordType::kUnlinkInstance:
      return "UnlinkInstance";
    case WalRecordType::kAnnotate:
      return "Annotate";
    case WalRecordType::kRemoveAnnotation:
      return "RemoveAnnotation";
    case WalRecordType::kCreateIndex:
      return "CreateIndex";
    case WalRecordType::kCheckpointBegin:
      return "CheckpointBegin";
    case WalRecordType::kCheckpointEnd:
      return "CheckpointEnd";
    case WalRecordType::kTxnCommit:
      return "TxnCommit";
    case WalRecordType::kTxnAbort:
      return "TxnAbort";
    case WalRecordType::kTxnOp:
      return "TxnOp";
    case WalRecordType::kTxnBegin:
      return "TxnBegin";
    case WalRecordType::kStatsSketch:
      return "StatsSketch";
  }
  return "Unknown";
}

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0]
/// is the classic bytewise table, and kCrcTables[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight table lookups fold eight input
/// bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables kTables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return kTables;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const CrcTables& t = Crc32Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  while (n >= 8) {
    // Little-endian loads: the first four bytes fold into the running
    // CRC, the next four are plain data.
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    if constexpr (std::endian::native == std::endian::big) {
      lo = __builtin_bswap32(lo);
      hi = __builtin_bswap32(hi);
    }
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

namespace {

Status CorruptPayload(const char* what) {
  return Status::Corruption(std::string("wal payload: ") + what);
}

void PutSchema(std::string* dst, const Schema& schema) {
  PutU32(dst, static_cast<uint32_t>(schema.num_columns()));
  for (const Column& col : schema.columns()) {
    PutString(dst, col.name);
    PutU8(dst, static_cast<uint8_t>(col.type));
  }
}

bool ReadSchema(SerdeReader* reader, Schema* out) {
  uint32_t n;
  if (!reader->ReadU32(&n)) return false;
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column col;
    uint8_t type;
    if (!reader->ReadString(&col.name) || !reader->ReadU8(&type)) {
      return false;
    }
    col.type = static_cast<ValueType>(type);
    columns.push_back(std::move(col));
  }
  *out = Schema(std::move(columns));
  return true;
}

}  // namespace

std::string WalCreateTable::Encode() const {
  std::string out;
  PutString(&out, table);
  PutSchema(&out, schema);
  return out;
}

Result<WalCreateTable> WalCreateTable::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalCreateTable rec;
  if (!reader.ReadString(&rec.table) || !ReadSchema(&reader, &rec.schema)) {
    return CorruptPayload("CreateTable");
  }
  return rec;
}

std::string WalInsert::Encode() const {
  std::string out;
  PutString(&out, table);
  PutU64(&out, oid);
  tuple.Serialize(&out);
  return out;
}

Result<WalInsert> WalInsert::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalInsert rec;
  if (!reader.ReadString(&rec.table) || !reader.ReadU64(&rec.oid)) {
    return CorruptPayload("Insert");
  }
  INSIGHT_ASSIGN_OR_RETURN(rec.tuple, Tuple::Deserialize(&reader));
  return rec;
}

std::string WalDelete::Encode() const {
  std::string out;
  PutString(&out, table);
  PutU64(&out, oid);
  return out;
}

Result<WalDelete> WalDelete::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalDelete rec;
  if (!reader.ReadString(&rec.table) || !reader.ReadU64(&rec.oid)) {
    return CorruptPayload("Delete");
  }
  return rec;
}

std::string WalInstanceDef::Encode() const {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(kind));
  PutString(&out, name);
  PutU32(&out, static_cast<uint32_t>(labels.size()));
  for (const std::string& label : labels) PutString(&out, label);
  PutU32(&out, static_cast<uint32_t>(training.size()));
  for (const auto& [text, label] : training) {
    PutString(&out, text);
    PutString(&out, label);
  }
  PutU64(&out, snippet_min_chars);
  PutU64(&out, snippet_max_chars);
  PutDouble(&out, cluster_min_similarity);
  return out;
}

Result<WalInstanceDef> WalInstanceDef::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalInstanceDef def;
  uint8_t kind;
  if (!reader.ReadU8(&kind) || !reader.ReadString(&def.name)) {
    return CorruptPayload("DefineInstance");
  }
  if (kind > static_cast<uint8_t>(Kind::kCluster)) {
    return CorruptPayload("DefineInstance kind");
  }
  def.kind = static_cast<Kind>(kind);
  uint32_t n;
  if (!reader.ReadU32(&n)) return CorruptPayload("DefineInstance labels");
  for (uint32_t i = 0; i < n; ++i) {
    std::string label;
    if (!reader.ReadString(&label)) {
      return CorruptPayload("DefineInstance labels");
    }
    def.labels.push_back(std::move(label));
  }
  if (!reader.ReadU32(&n)) return CorruptPayload("DefineInstance training");
  for (uint32_t i = 0; i < n; ++i) {
    std::string text, label;
    if (!reader.ReadString(&text) || !reader.ReadString(&label)) {
      return CorruptPayload("DefineInstance training");
    }
    def.training.emplace_back(std::move(text), std::move(label));
  }
  if (!reader.ReadU64(&def.snippet_min_chars) ||
      !reader.ReadU64(&def.snippet_max_chars) ||
      !reader.ReadDouble(&def.cluster_min_similarity)) {
    return CorruptPayload("DefineInstance params");
  }
  return def;
}

std::string WalLinkInstance::Encode() const {
  std::string out;
  PutString(&out, table);
  PutString(&out, instance);
  PutU8(&out, indexable ? 1 : 0);
  return out;
}

Result<WalLinkInstance> WalLinkInstance::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalLinkInstance rec;
  uint8_t indexable;
  if (!reader.ReadString(&rec.table) || !reader.ReadString(&rec.instance) ||
      !reader.ReadU8(&indexable)) {
    return CorruptPayload("LinkInstance");
  }
  rec.indexable = indexable != 0;
  return rec;
}

std::string WalUnlinkInstance::Encode() const {
  std::string out;
  PutString(&out, table);
  PutString(&out, instance);
  return out;
}

Result<WalUnlinkInstance> WalUnlinkInstance::Decode(
    std::string_view payload) {
  SerdeReader reader(payload);
  WalUnlinkInstance rec;
  if (!reader.ReadString(&rec.table) || !reader.ReadString(&rec.instance)) {
    return CorruptPayload("UnlinkInstance");
  }
  return rec;
}

std::string WalAnnotate::Encode() const {
  std::string out;
  PutString(&out, table);
  PutU64(&out, ann_id);
  PutString(&out, text);
  PutU32(&out, static_cast<uint32_t>(targets.size()));
  for (const auto& [oid, mask] : targets) {
    PutU64(&out, oid);
    PutU64(&out, mask);
  }
  return out;
}

Result<WalAnnotate> WalAnnotate::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalAnnotate rec;
  uint32_t n;
  if (!reader.ReadString(&rec.table) || !reader.ReadU64(&rec.ann_id) ||
      !reader.ReadString(&rec.text) || !reader.ReadU32(&n)) {
    return CorruptPayload("Annotate");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t oid, mask;
    if (!reader.ReadU64(&oid) || !reader.ReadU64(&mask)) {
      return CorruptPayload("Annotate targets");
    }
    rec.targets.emplace_back(oid, mask);
  }
  return rec;
}

std::string WalRemoveAnnotation::Encode() const {
  std::string out;
  PutString(&out, table);
  PutU64(&out, ann_id);
  return out;
}

Result<WalRemoveAnnotation> WalRemoveAnnotation::Decode(
    std::string_view payload) {
  SerdeReader reader(payload);
  WalRemoveAnnotation rec;
  if (!reader.ReadString(&rec.table) || !reader.ReadU64(&rec.ann_id)) {
    return CorruptPayload("RemoveAnnotation");
  }
  return rec;
}

std::string WalCreateIndex::Encode() const {
  std::string out;
  PutString(&out, table);
  PutString(&out, column);
  return out;
}

Result<WalCreateIndex> WalCreateIndex::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalCreateIndex rec;
  if (!reader.ReadString(&rec.table) || !reader.ReadString(&rec.column)) {
    return CorruptPayload("CreateIndex");
  }
  return rec;
}

std::string WalCheckpointEnd::Encode() const {
  std::string out;
  PutU64(&out, begin_lsn);
  PutU64(&out, txn_floor_lsn);
  return out;
}

Result<WalCheckpointEnd> WalCheckpointEnd::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalCheckpointEnd rec;
  if (!reader.ReadU64(&rec.begin_lsn) || !reader.ReadU64(&rec.txn_floor_lsn)) {
    return CorruptPayload("CheckpointEnd");
  }
  return rec;
}

namespace {

std::string EncodeTxnId(uint64_t txn_id) {
  std::string out;
  PutU64(&out, txn_id);
  return out;
}

bool DecodeTxnId(std::string_view payload, uint64_t* txn_id) {
  SerdeReader reader(payload);
  return reader.ReadU64(txn_id);
}

}  // namespace

std::string WalTxnBegin::Encode() const { return EncodeTxnId(txn_id); }

Result<WalTxnBegin> WalTxnBegin::Decode(std::string_view payload) {
  WalTxnBegin rec;
  if (!DecodeTxnId(payload, &rec.txn_id)) return CorruptPayload("TxnBegin");
  return rec;
}

std::string WalTxnCommit::Encode() const { return EncodeTxnId(txn_id); }

Result<WalTxnCommit> WalTxnCommit::Decode(std::string_view payload) {
  WalTxnCommit rec;
  if (!DecodeTxnId(payload, &rec.txn_id)) return CorruptPayload("TxnCommit");
  return rec;
}

std::string WalTxnAbort::Encode() const { return EncodeTxnId(txn_id); }

Result<WalTxnAbort> WalTxnAbort::Decode(std::string_view payload) {
  WalTxnAbort rec;
  if (!DecodeTxnId(payload, &rec.txn_id)) return CorruptPayload("TxnAbort");
  return rec;
}

std::string WalTxnOp::Encode() const {
  std::string out;
  PutU64(&out, txn_id);
  PutU8(&out, static_cast<uint8_t>(inner_type));
  PutString(&out, inner_payload);
  return out;
}

Result<WalTxnOp> WalTxnOp::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalTxnOp rec;
  uint8_t inner;
  if (!reader.ReadU64(&rec.txn_id) || !reader.ReadU8(&inner) ||
      !reader.ReadString(&rec.inner_payload)) {
    return CorruptPayload("TxnOp");
  }
  if (inner > static_cast<uint8_t>(WalRecordType::kTxnBegin)) {
    return CorruptPayload("TxnOp inner type");
  }
  rec.inner_type = static_cast<WalRecordType>(inner);
  return rec;
}

std::string WalStatsSketch::Encode() const {
  std::string out;
  PutString(&out, image);
  return out;
}

Result<WalStatsSketch> WalStatsSketch::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalStatsSketch rec;
  if (!reader.ReadString(&rec.image)) return CorruptPayload("StatsSketch");
  return rec;
}

void PutSnapshotOp(std::string* dst, WalRecordType type,
                   std::string_view payload) {
  PutU8(dst, static_cast<uint8_t>(type));
  PutString(dst, payload);
}

std::string WalSnapshot::Encode() const {
  std::string out;
  PutU64(&out, next_ann_id);
  for (const auto& [type, payload] : ops) PutSnapshotOp(&out, type, payload);
  return out;
}

Result<WalSnapshot> WalSnapshot::Decode(std::string_view payload) {
  SerdeReader reader(payload);
  WalSnapshot snap;
  if (!reader.ReadU64(&snap.next_ann_id)) {
    return CorruptPayload("Snapshot header");
  }
  while (!reader.AtEnd()) {
    uint8_t type;
    std::string op;
    if (!reader.ReadU8(&type) || !reader.ReadString(&op)) {
      return CorruptPayload("Snapshot op");
    }
    snap.ops.emplace_back(static_cast<WalRecordType>(type), std::move(op));
  }
  return snap;
}

}  // namespace insight
