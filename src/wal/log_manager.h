#ifndef INSIGHTNOTES_WAL_LOG_MANAGER_H_
#define INSIGHTNOTES_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "wal/wal_record.h"

namespace insight {

/// Append-only, checksummed, LSN-stamped write-ahead log over one file.
/// Writers Append() into an in-memory tail (cheap: one mutex, one
/// memcpy) and make records durable with Commit()/Sync(), which uses
/// group commit: one leader writes every buffered record and issues a
/// single fsync on behalf of all concurrent committers.
///
/// On-disk framing per record:
///   [u32 body_len][u32 crc32(body)][body = u64 lsn | u8 type | payload]
/// A torn tail (crash mid-write) fails the length or checksum test;
/// Open() truncates the file back to the last intact record, which is
/// exactly the commit boundary the crash interrupted.
///
/// The file holds a dense LSN window [first_lsn, last_lsn]. It starts at
/// LSN 1 and only moves forward through Rewrite(), which replaces the
/// file with one that keeps the records from a retention LSN on and
/// continues the LSN sequence (a checkpoint drops the prefix its
/// snapshot supersedes this way).
///
/// Implements the buffer pool's WalBridge so the pool can enforce
/// WAL-before-data: before a dirty page whose page_lsn exceeds the
/// durable LSN reaches the data file, the pool forces the log first.
class LogManager : public WalBridge {
 public:
  /// Opens (creating if needed) the log at `path`, scanning existing
  /// records to find the valid prefix and truncating any torn tail. A
  /// replacement file a crash left behind mid-Rewrite is deleted.
  static Result<std::unique_ptr<LogManager>> Open(const std::string& path);

  /// Best-effort Sync() then closes the file.
  ~LogManager() override;

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Buffers one record and returns its LSN. Not durable until a
  /// Commit()/Sync() covering the LSN returns.
  Result<Lsn> Append(WalRecordType type, std::string payload);

  /// Blocks until `lsn` is durable (no-op when it already is). Concurrent
  /// callers coalesce onto one leader write + fsync.
  Status Commit(Lsn lsn);

  /// Commit up to the last appended record.
  Status Sync();

  /// Last LSN handed out by Append (kInvalidLsn when empty).
  Lsn last_lsn() const;
  /// Highest LSN guaranteed on disk.
  Lsn durable_lsn() const;
  /// The LSN the next Append will return. Single-writer DML stamps dirty
  /// pages with this before applying an operation.
  Lsn next_lsn() const;
  /// Oldest LSN the log file still holds (next_lsn() when it is empty).
  Lsn first_lsn() const;

  /// Bytes of the on-disk file plus the buffered tail.
  uint64_t size_bytes() const;

  /// Decodes the entire valid on-disk file (recovery input). Buffered,
  /// un-synced records are NOT included — they are not durable.
  Result<std::vector<WalRecord>> ReadAll() const;

  /// Byte-offset cursor over the durable records, for incremental tail
  /// reads (replication shipping). `next_lsn` is the first LSN not yet
  /// returned and `offset` its byte position in log file `generation`.
  /// Bytes below the durable frontier are immutable, so cursor reads race
  /// with nothing; a Rewrite() starts a new generation, and a cursor of
  /// an older one re-seeks by LSN on its next read.
  struct TailCursor {
    Lsn next_lsn = 1;
    uint64_t offset = 0;
    uint64_t generation = 0;
  };

  /// Positions a cursor at `first_lsn` by walking record headers from
  /// the file start (one-time cost at subscription). Fails with
  /// OutOfRange when `first_lsn` is past the durable end + 1, or when a
  /// Rewrite() already dropped it (the message names first_lsn()).
  Result<TailCursor> SeekTo(Lsn first_lsn) const;

  /// Reads durable records starting at the cursor — at most
  /// `max_records` and roughly `max_bytes` — advancing it. An empty
  /// result means the cursor has caught up with the durable frontier.
  /// OutOfRange when a Rewrite() dropped the cursor's next record.
  Result<std::vector<WalRecord>> ReadDurableFrom(TailCursor* cursor,
                                                 size_t max_records,
                                                 size_t max_bytes) const;

  /// Writes the records that follow the retained ones in a replacement
  /// log, sequentially, with LSNs continuing the current sequence. A
  /// record whose payload is produced piecewise streams through
  /// BeginRecord / AppendPayload / EndRecord, so it is never held whole.
  class RewriteWriter {
   public:
    Lsn next_lsn() const { return next_lsn_; }
    /// Writes one whole record.
    Status Append(WalRecordType type, std::string_view payload);
    /// Opens a streamed record of `type`; its payload is the
    /// concatenation of the AppendPayload calls until EndRecord.
    Status BeginRecord(WalRecordType type);
    Status AppendPayload(std::string_view bytes);
    Status EndRecord();

   private:
    friend class LogManager;
    RewriteWriter(int fd, const std::string& path, uint64_t offset,
                  Lsn next_lsn)
        : fd_(fd), path_(path), flushed_(offset), next_lsn_(next_lsn) {}
    /// Writes the buffered bytes at flushed_.
    Status Flush();
    uint64_t end_offset() const { return flushed_ + buf_.size(); }

    const int fd_;
    const std::string& path_;
    std::string buf_;    // Bytes past flushed_ not yet written.
    uint64_t flushed_;   // File offset where buf_ starts.
    Lsn next_lsn_;
    bool in_record_ = false;
    uint64_t record_offset_ = 0;  // Header position of the open record.
    uint32_t record_crc_ = 0;     // Running CRC of its body so far.
  };

  /// Replaces the log file with a new one that holds the durable records
  /// at or after `keep_from` (clamped to the file's window), followed by
  /// whatever `fill` (may be null) writes. The new file is written and
  /// fsynced under a temporary name, renamed over the log, and the
  /// directory fsynced; a crash at any point leaves either the old or
  /// the new file, each a complete log. The caller must keep other
  /// threads from appending until it returns (Append fails meanwhile);
  /// readers may run throughout. The new file must hold a record.
  Status Rewrite(Lsn keep_from,
                 const std::function<Status(RewriteWriter*)>& fill);

  // WalBridge:
  uint64_t DurableLsn() const override { return durable_lsn(); }
  /// Forces the log so that everything *appended* up to `lsn` is durable.
  /// An lsn beyond the last appended record (a reserved stamp whose
  /// operation failed before logging) syncs what exists and succeeds.
  Status SyncToLsn(uint64_t lsn) override;

  /// Scans `data` (a raw log image) and returns the decoded valid prefix
  /// plus the byte offset where validity ends. The first record may
  /// carry any LSN; the rest must follow it densely. Exposed for tests.
  static std::vector<WalRecord> ScanValidPrefix(std::string_view data,
                                                uint64_t* valid_end);

 private:
  /// One generation of the on-disk log. Shared so a reader keeps the
  /// file it is reading open across a Rewrite() that replaces it.
  struct LogFile {
    LogFile(int fd, Lsn first_lsn, uint64_t generation)
        : fd(fd), first_lsn(first_lsn), generation(generation) {}
    ~LogFile();
    LogFile(const LogFile&) = delete;
    LogFile& operator=(const LogFile&) = delete;

    const int fd;
    const Lsn first_lsn;
    const uint64_t generation;
  };

  /// The current file with its durable frontier and byte size, read
  /// together so a reader never pairs one file with another's frontier.
  struct View {
    std::shared_ptr<const LogFile> file;
    Lsn durable = kInvalidLsn;
    uint64_t bytes = 0;
  };

  LogManager(std::shared_ptr<const LogFile> file, std::string path,
             Lsn next_lsn, uint64_t file_bytes)
      : file_(std::move(file)),
        path_(std::move(path)),
        next_lsn_(next_lsn),
        last_lsn_(next_lsn - 1),
        durable_lsn_(next_lsn - 1),
        file_bytes_(file_bytes) {}

  View CurrentView() const;

  /// Cursor at `lsn` within `file`, walking headers from its start.
  Result<TailCursor> SeekIn(const View& view, Lsn lsn) const;

  /// Appends `data` to `fd` at file_bytes_, advancing it. Caller holds
  /// sync ownership (leader).
  Status WriteFully(int fd, std::string_view data);

  std::shared_ptr<const LogFile> file_;  // Guarded by sync_mu_.
  const std::string path_;

  mutable std::mutex append_mu_;  // Guards pending_, next/last lsn.
  std::string pending_;
  Lsn next_lsn_;
  Lsn last_lsn_;
  bool rewriting_ = false;  // Appends fail while a Rewrite() runs.

  mutable std::mutex sync_mu_;  // Guards the group-commit hand-off.
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  Lsn durable_lsn_;
  std::atomic<uint64_t> file_bytes_;
  Status poisoned_ = Status::OK();  // Sticky write-failure state.
};

}  // namespace insight

#endif  // INSIGHTNOTES_WAL_LOG_MANAGER_H_
