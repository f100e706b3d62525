#ifndef INSIGHTNOTES_WAL_WAL_RECORD_H_
#define INSIGHTNOTES_WAL_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace insight {

/// Log sequence number: the 1-based position of a record in the log.
/// 0 means "none". LSNs are dense — record N+1 follows record N — which
/// is what the durable-LSN gate in the buffer pool compares against.
using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

/// What one log record describes. The log is *logical*: it records DML
/// and DDL at the Database API level, not page images. Recovery replays
/// these through the same code paths that executed them, so derived
/// structures (summary storage, Summary-BTrees, keyword indexes) are
/// rebuilt as a side effect of replay — idempotent by construction.
enum class WalRecordType : uint8_t {
  kNoop = 0,
  kCreateTable = 1,
  kInsert = 2,
  kDelete = 3,
  kDefineInstance = 4,
  kLinkInstance = 5,
  kUnlinkInstance = 6,
  kAnnotate = 7,
  kRemoveAnnotation = 8,
  kCreateIndex = 9,
  kCheckpointBegin = 10,  // Payload: WalSnapshot.
  kCheckpointEnd = 11,    // Payload: WalCheckpointEnd.
  // Multi-statement transactions. Statements inside an explicit txn log
  // as kTxnOp wrappers (txn id + the inner record they would have been);
  // the commit record is the txn's durability point. Recovery replays a
  // txn's ops only when its commit record made it to disk — an aborted
  // or dangling txn leaves no trace after replay.
  kTxnCommit = 12,  // Payload: WalTxnCommit.
  kTxnAbort = 13,   // Payload: WalTxnAbort.
  kTxnOp = 14,      // Payload: WalTxnOp.
  kTxnBegin = 15,   // Payload: WalTxnBegin.
  // Serialized SketchRegistry image. Only ever embedded as the *last* op
  // of a checkpoint snapshot (after every table/link/insert/annotate op,
  // so the tables it references exist) — never logged as a top-level
  // frame, which keeps ScanValidPrefix's kTxnBegin upper bound intact.
  kStatsSketch = 16,  // Payload: WalStatsSketch.
};

const char* WalRecordTypeToString(WalRecordType type);

/// One decoded log record.
struct WalRecord {
  Lsn lsn = kInvalidLsn;
  WalRecordType type = WalRecordType::kNoop;
  std::string payload;
};

/// CRC32 (IEEE, reflected) over `data`, seeded by `seed` for chaining.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

// ---- Per-type payload codecs ----
//
// Payloads use the serde little-endian primitives. Every Decode returns
// Corruption on malformed input instead of crashing, because payloads are
// read back from a file that may have been torn by a crash.

struct WalCreateTable {
  std::string table;
  Schema schema;

  std::string Encode() const;
  static Result<WalCreateTable> Decode(std::string_view payload);
};

struct WalInsert {
  std::string table;
  Oid oid = kInvalidOid;
  Tuple tuple;

  std::string Encode() const;
  static Result<WalInsert> Decode(std::string_view payload);
};

struct WalDelete {
  std::string table;
  Oid oid = kInvalidOid;

  std::string Encode() const;
  static Result<WalDelete> Decode(std::string_view payload);
};

/// A summary-instance definition, captured as the parameters of the
/// Define* call so replay can re-derive the instance (retraining the
/// classifier from its seed pairs is deterministic).
struct WalInstanceDef {
  enum class Kind : uint8_t { kClassifier = 0, kSnippet = 1, kCluster = 2 };

  Kind kind = Kind::kClassifier;
  std::string name;
  // Classifier.
  std::vector<std::string> labels;
  std::vector<std::pair<std::string, std::string>> training;
  // Snippet.
  uint64_t snippet_min_chars = 0;
  uint64_t snippet_max_chars = 0;
  // Cluster.
  double cluster_min_similarity = 0.0;

  std::string Encode() const;
  static Result<WalInstanceDef> Decode(std::string_view payload);
};

struct WalLinkInstance {
  std::string table;
  std::string instance;
  bool indexable = false;

  std::string Encode() const;
  static Result<WalLinkInstance> Decode(std::string_view payload);
};

struct WalUnlinkInstance {
  std::string table;
  std::string instance;

  std::string Encode() const;
  static Result<WalUnlinkInstance> Decode(std::string_view payload);
};

struct WalAnnotate {
  std::string table;
  uint64_t ann_id = 0;
  std::string text;
  std::vector<std::pair<uint64_t, uint64_t>> targets;  // (oid, column mask).

  std::string Encode() const;
  static Result<WalAnnotate> Decode(std::string_view payload);
};

struct WalRemoveAnnotation {
  std::string table;
  uint64_t ann_id = 0;

  std::string Encode() const;
  static Result<WalRemoveAnnotation> Decode(std::string_view payload);
};

struct WalCreateIndex {
  std::string table;
  std::string column;

  std::string Encode() const;
  static Result<WalCreateIndex> Decode(std::string_view payload);
};

struct WalCheckpointEnd {
  Lsn begin_lsn = kInvalidLsn;
  /// Oldest record recovery still needs past this checkpoint: begin_lsn,
  /// or the kTxnBegin of the oldest transaction open across it (its ops
  /// replay from the log if it commits later). A log may drop every
  /// record below it once this record is durable.
  Lsn txn_floor_lsn = kInvalidLsn;

  std::string Encode() const;
  static Result<WalCheckpointEnd> Decode(std::string_view payload);
};

struct WalTxnBegin {
  uint64_t txn_id = 0;

  std::string Encode() const;
  static Result<WalTxnBegin> Decode(std::string_view payload);
};

struct WalTxnCommit {
  uint64_t txn_id = 0;

  std::string Encode() const;
  static Result<WalTxnCommit> Decode(std::string_view payload);
};

struct WalTxnAbort {
  uint64_t txn_id = 0;

  std::string Encode() const;
  static Result<WalTxnAbort> Decode(std::string_view payload);
};

/// One statement executed inside an explicit transaction: the record it
/// would have logged in autocommit mode, wrapped with the owning txn id.
/// Recovery buffers these per-txn and replays them (in log order, through
/// the ordinary dispatch) iff the txn's commit record is on disk.
struct WalTxnOp {
  uint64_t txn_id = 0;
  WalRecordType inner_type = WalRecordType::kNoop;
  std::string inner_payload;

  std::string Encode() const;
  static Result<WalTxnOp> Decode(std::string_view payload);
};

/// A whole-registry sketch image (stats/sketch_registry.h Serialize()
/// bytes). Restoring it overwrites the online-statistics state so a
/// checkpointed database recovers with warm sketches instead of paying a
/// full rebuild; the WAL tail past the checkpoint then updates the
/// sketches incrementally through the ordinary replay hooks.
struct WalStatsSketch {
  std::string image;

  std::string Encode() const;
  static Result<WalStatsSketch> Decode(std::string_view payload);
};

/// A checkpoint-begin payload: the database's logical state, expressed as
/// a sequence of embedded (type, payload) ops that replay through the
/// exact same dispatch as ordinary records. Restoring a snapshot is
/// therefore the same code as replaying a log — one replay path to trust.
///
/// Layout: u64 next_ann_id, then one PutSnapshotOp per op up to the end
/// of the payload. There is no op count up front, so a checkpoint streams
/// ops into the log as it produces them.
struct WalSnapshot {
  uint64_t next_ann_id = 1;  // Global annotation-id floor.
  std::vector<std::pair<WalRecordType, std::string>> ops;

  std::string Encode() const;
  static Result<WalSnapshot> Decode(std::string_view payload);
};

/// Appends one embedded snapshot op: u8 type, then the length-prefixed
/// payload.
void PutSnapshotOp(std::string* dst, WalRecordType type,
                   std::string_view payload);

}  // namespace insight

#endif  // INSIGHTNOTES_WAL_WAL_RECORD_H_
