#include "wal/log_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/serde.h"
#include "obs/metrics.h"
#include "storage/page_store.h"
#include "wal/crash_point.h"

namespace insight {

namespace {

Status IOErrorFor(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Reads the entire file into `out` (pread loop, EINTR-safe).
Status ReadWholeFile(int fd, const std::string& path, std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return IOErrorFor("fstat", path);
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n =
        ::pread(fd, out->data() + done, out->size() - done, done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOErrorFor("pread", path);
    }
    if (n == 0) {  // Concurrent truncation; treat the rest as missing.
      out->resize(done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// pread exactly `len` bytes at `offset` (EINTR-safe); a short file is
/// an error — callers only read below the durable frontier.
Status PreadExact(int fd, const std::string& path, uint64_t offset,
                  char* dst, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOErrorFor("pread", path);
    }
    if (n == 0) {
      return Status::Corruption("log truncated below the durable frontier");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// pwrite all of `data` at `offset` (EINTR-safe).
Status PwriteFully(int fd, const std::string& path, uint64_t offset,
                   std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOErrorFor("pwrite", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc.
constexpr size_t kBodyHeaderBytes = 9;   // u64 lsn + u8 type.
constexpr uint32_t kMaxRecordBytes = 1u << 30;
constexpr size_t kRewriteChunkBytes = 1u << 20;

/// The replacement file Rewrite() builds before renaming it over `path`.
std::string RewritePath(const std::string& path) { return path + ".tmp"; }

void PutBodyHeader(std::string* dst, Lsn lsn, WalRecordType type) {
  PutU64(dst, lsn);
  PutU8(dst, static_cast<uint8_t>(type));
}

void FrameRecord(std::string* dst, Lsn lsn, WalRecordType type,
                 std::string_view payload) {
  std::string body;
  body.reserve(kBodyHeaderBytes + payload.size());
  PutBodyHeader(&body, lsn, type);
  body.append(payload);
  PutU32(dst, static_cast<uint32_t>(body.size()));
  PutU32(dst, Crc32(body));
  dst->append(body);
}

}  // namespace

LogManager::LogFile::~LogFile() { ::close(fd); }

std::vector<WalRecord> LogManager::ScanValidPrefix(std::string_view data,
                                                   uint64_t* valid_end) {
  std::vector<WalRecord> records;
  size_t pos = 0;
  Lsn expected = kInvalidLsn;  // Set by the first record.
  while (pos + kFrameHeaderBytes <= data.size()) {
    uint32_t len, crc;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (len < kBodyHeaderBytes || len > kMaxRecordBytes) break;
    if (pos + kFrameHeaderBytes + len > data.size()) break;  // Torn tail.
    const std::string_view body =
        data.substr(pos + kFrameHeaderBytes, len);
    if (Crc32(body) != crc) break;  // Bit rot or torn overwrite.
    SerdeReader reader(body);
    WalRecord record;
    uint8_t type;
    if (!reader.ReadU64(&record.lsn) || !reader.ReadU8(&type)) break;
    if (type > static_cast<uint8_t>(WalRecordType::kTxnBegin)) break;
    if (record.lsn == kInvalidLsn) break;
    // LSNs are dense by construction; the window may start anywhere.
    if (expected != kInvalidLsn && record.lsn != expected) break;
    record.type = static_cast<WalRecordType>(type);
    record.payload.assign(body.substr(kBodyHeaderBytes));
    expected = record.lsn + 1;
    records.push_back(std::move(record));
    pos += kFrameHeaderBytes + len;
  }
  if (valid_end != nullptr) *valid_end = pos;
  return records;
}

Result<std::unique_ptr<LogManager>> LogManager::Open(
    const std::string& path) {
  // A replacement file left by a crash before its rename is incomplete
  // or superseded; the log at `path` is authoritative either way.
  if (::unlink(RewritePath(path).c_str()) != 0 && errno != ENOENT) {
    return IOErrorFor("unlink", RewritePath(path));
  }
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return IOErrorFor("open", path);
  if (!existed) {
    // A crash right after creation must not lose the directory entry, or
    // the next recovery would silently start an empty log.
    Status synced = SyncContainingDirectory(path);
    if (!synced.ok()) {
      ::close(fd);
      return synced;
    }
  }
  std::string data;
  Status read = ReadWholeFile(fd, path, &data);
  if (!read.ok()) {
    ::close(fd);
    return read;
  }
  uint64_t valid_end = 0;
  std::vector<WalRecord> records = ScanValidPrefix(data, &valid_end);
  if (valid_end < data.size()) {
    // Torn tail from a crash mid-append: discard it so future appends
    // start at a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0 ||
        ::fsync(fd) != 0) {
      Status st = IOErrorFor("truncate torn tail of", path);
      ::close(fd);
      return st;
    }
  }
  const Lsn first = records.empty() ? 1 : records.front().lsn;
  const Lsn next = records.empty() ? 1 : records.back().lsn + 1;
  EngineMetrics::Get().wal_log_bytes->Set(static_cast<int64_t>(valid_end));
  return std::unique_ptr<LogManager>(
      new LogManager(std::make_shared<const LogFile>(fd, first, 0), path,
                     next, valid_end));
}

LogManager::~LogManager() {
  Sync().ok();  // Best effort; a failure here is a failure at close time.
}

Result<Lsn> LogManager::Append(WalRecordType type, std::string payload) {
  INSIGHT_CRASH_POINT("wal_append");
  std::lock_guard<std::mutex> lk(append_mu_);
  if (rewriting_) {
    return Status::Internal("log append while the log file is rewritten");
  }
  const Lsn lsn = next_lsn_++;
  const size_t framed_before = pending_.size();
  FrameRecord(&pending_, lsn, type, payload);
  last_lsn_ = lsn;
  EngineMetrics& m = EngineMetrics::Get();
  m.wal_appends->Add(1);
  m.wal_append_bytes->Add(pending_.size() - framed_before);
  // Approximate between syncs; Commit re-stamps the exact lag.
  m.wal_durable_lag->Add(1);
  return lsn;
}

Status LogManager::WriteFully(int fd, std::string_view data) {
  const uint64_t offset = file_bytes_.load(std::memory_order_relaxed);
  INSIGHT_RETURN_NOT_OK(PwriteFully(fd, path_, offset, data));
  file_bytes_.store(offset + data.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status LogManager::Commit(Lsn lsn) {
  if (lsn == kInvalidLsn) return Status::OK();
  std::unique_lock<std::mutex> lk(sync_mu_);
  for (;;) {
    if (!poisoned_.ok()) return poisoned_;
    if (durable_lsn_ >= lsn) return Status::OK();
    if (sync_in_progress_) {
      sync_cv_.wait(lk);
      continue;
    }
    // This thread leads one group-commit round: it flushes every record
    // buffered so far (its own and any concurrent appenders') with a
    // single write + fsync.
    sync_in_progress_ = true;
    const Lsn prev_durable = durable_lsn_;
    // Rewrite() swaps files only between rounds; the reference keeps the
    // descriptor open for this round regardless.
    const std::shared_ptr<const LogFile> file = file_;
    const int fd = file->fd;
    std::string batch;
    Lsn batch_last;
    {
      std::lock_guard<std::mutex> alk(append_mu_);
      batch.swap(pending_);
      batch_last = last_lsn_;
      if (lsn > last_lsn_) lsn = last_lsn_;  // Never wait on the future.
    }
    lk.unlock();
    INSIGHT_CRASH_POINT("wal_sync_begin");
    Status st = Status::OK();
    if (!batch.empty()) {
      if (CrashPointArmed("wal_sync_partial") && batch.size() >= 2) {
        // Simulate a crash that tears the batch: half the bytes reach the
        // file (and the device), the rest never will.
        WriteFully(fd, batch.substr(0, batch.size() / 2)).ok();
        ::fsync(fd);
        HitCrashPoint("wal_sync_partial");
      }
      const auto sync_start = std::chrono::steady_clock::now();
      st = WriteFully(fd, batch);
      INSIGHT_CRASH_POINT("wal_sync_before_fsync");
      if (st.ok() && ::fsync(fd) != 0) st = IOErrorFor("fsync", path_);
      INSIGHT_CRASH_POINT("wal_sync_after_fsync");
      if (st.ok()) {
        EngineMetrics& m = EngineMetrics::Get();
        m.wal_fsyncs->Add(1);
        m.wal_sync_micros->Observe(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - sync_start)
                .count());
        if (batch_last > prev_durable) {
          m.wal_group_commit_records->Observe(
              static_cast<double>(batch_last - prev_durable));
        }
        m.wal_log_bytes->Set(static_cast<int64_t>(
            file_bytes_.load(std::memory_order_relaxed)));
      }
    }
    lk.lock();
    if (st.ok()) {
      if (batch_last > durable_lsn_) durable_lsn_ = batch_last;
      // sync_mu_ -> append_mu_ matches the batch-swap order above.
      std::lock_guard<std::mutex> alk(append_mu_);
      EngineMetrics::Get().wal_durable_lag->Set(
          static_cast<int64_t>(last_lsn_ - durable_lsn_));
    } else {
      // A half-written batch leaves the durable frontier ambiguous; fail
      // every future commit rather than risk reporting false durability.
      poisoned_ = st;
    }
    sync_in_progress_ = false;
    sync_cv_.notify_all();
    if (!st.ok()) return st;
    // Loop: our lsn may have been appended after the batch swap, in which
    // case the next round covers it.
  }
}

Status LogManager::Sync() { return Commit(last_lsn()); }

Status LogManager::SyncToLsn(uint64_t lsn) {
  Lsn target;
  {
    std::lock_guard<std::mutex> lk(append_mu_);
    // A page may carry a reserved stamp whose operation failed before its
    // record was appended; everything that exists below it still syncs.
    target = std::min<Lsn>(lsn, last_lsn_);
  }
  return Commit(target);
}

Lsn LogManager::last_lsn() const {
  std::lock_guard<std::mutex> lk(append_mu_);
  return last_lsn_;
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> lk(append_mu_);
  return next_lsn_;
}

Lsn LogManager::durable_lsn() const {
  std::lock_guard<std::mutex> lk(sync_mu_);
  return durable_lsn_;
}

Lsn LogManager::first_lsn() const { return CurrentView().file->first_lsn; }

uint64_t LogManager::size_bytes() const {
  std::lock_guard<std::mutex> lk(append_mu_);
  return file_bytes_.load(std::memory_order_relaxed) + pending_.size();
}

LogManager::View LogManager::CurrentView() const {
  std::lock_guard<std::mutex> lk(sync_mu_);
  return View{file_, durable_lsn_,
              file_bytes_.load(std::memory_order_relaxed)};
}

Result<std::vector<WalRecord>> LogManager::ReadAll() const {
  const View view = CurrentView();
  std::string data;
  INSIGHT_RETURN_NOT_OK(ReadWholeFile(view.file->fd, path_, &data));
  data.resize(std::min<size_t>(data.size(), view.bytes));
  return ScanValidPrefix(data, nullptr);
}

Result<LogManager::TailCursor> LogManager::SeekIn(const View& view,
                                                  Lsn lsn) const {
  if (lsn < view.file->first_lsn) {
    return Status::OutOfRange(
        "LSN " + std::to_string(lsn) +
        " is no longer in the log; the first retained LSN is " +
        std::to_string(view.file->first_lsn));
  }
  TailCursor cur;
  cur.next_lsn = view.file->first_lsn;
  cur.generation = view.file->generation;
  while (cur.next_lsn < lsn) {
    char header[kFrameHeaderBytes];
    INSIGHT_RETURN_NOT_OK(
        PreadExact(view.file->fd, path_, cur.offset, header, sizeof(header)));
    uint32_t len;
    std::memcpy(&len, header, 4);
    if (len < kBodyHeaderBytes || len > kMaxRecordBytes) {
      return Status::Corruption("bad record length below durable frontier");
    }
    cur.offset += kFrameHeaderBytes + len;
    ++cur.next_lsn;
  }
  return cur;
}

Result<LogManager::TailCursor> LogManager::SeekTo(Lsn first_lsn) const {
  if (first_lsn == kInvalidLsn) {
    return Status::InvalidArgument("cannot seek a tail cursor to LSN 0");
  }
  const View view = CurrentView();
  if (first_lsn > view.durable + 1) {
    return Status::OutOfRange(
        "tail cursor start " + std::to_string(first_lsn) +
        " is past the durable end " + std::to_string(view.durable));
  }
  return SeekIn(view, first_lsn);
}

Result<std::vector<WalRecord>> LogManager::ReadDurableFrom(
    TailCursor* cursor, size_t max_records, size_t max_bytes) const {
  const View view = CurrentView();
  if (cursor->generation != view.file->generation) {
    // The file the cursor points into was replaced: find its next
    // record again, by LSN, in the current one.
    INSIGHT_ASSIGN_OR_RETURN(*cursor, SeekIn(view, cursor->next_lsn));
  }
  std::vector<WalRecord> out;
  size_t bytes = 0;
  while (out.size() < max_records && bytes < max_bytes &&
         cursor->next_lsn <= view.durable) {
    char header[kFrameHeaderBytes];
    INSIGHT_RETURN_NOT_OK(PreadExact(view.file->fd, path_, cursor->offset,
                                     header, sizeof(header)));
    uint32_t len, crc;
    std::memcpy(&len, header, 4);
    std::memcpy(&crc, header + 4, 4);
    if (len < kBodyHeaderBytes || len > kMaxRecordBytes) {
      return Status::Corruption("bad record length below durable frontier");
    }
    std::string body(len, '\0');
    INSIGHT_RETURN_NOT_OK(
        PreadExact(view.file->fd, path_, cursor->offset + kFrameHeaderBytes,
                   body.data(), body.size()));
    if (Crc32(body) != crc) {
      return Status::Corruption("record checksum mismatch below durable "
                                "frontier");
    }
    SerdeReader reader(body);
    WalRecord record;
    uint8_t type;
    if (!reader.ReadU64(&record.lsn) || !reader.ReadU8(&type) ||
        type > static_cast<uint8_t>(WalRecordType::kTxnBegin) ||
        record.lsn != cursor->next_lsn) {
      return Status::Corruption("malformed record below durable frontier");
    }
    record.type = static_cast<WalRecordType>(type);
    record.payload.assign(body.substr(kBodyHeaderBytes));
    out.push_back(std::move(record));
    cursor->offset += kFrameHeaderBytes + len;
    bytes += kFrameHeaderBytes + len;
    ++cursor->next_lsn;
  }
  return out;
}

// ---- Rewrite ----

Status LogManager::RewriteWriter::Flush() {
  INSIGHT_RETURN_NOT_OK(PwriteFully(fd_, path_, flushed_, buf_));
  flushed_ += buf_.size();
  buf_.clear();
  return Status::OK();
}

Status LogManager::RewriteWriter::Append(WalRecordType type,
                                         std::string_view payload) {
  INSIGHT_RETURN_NOT_OK(BeginRecord(type));
  INSIGHT_RETURN_NOT_OK(AppendPayload(payload));
  return EndRecord();
}

Status LogManager::RewriteWriter::BeginRecord(WalRecordType type) {
  if (in_record_) return Status::Internal("log record already open");
  in_record_ = true;
  record_offset_ = end_offset();
  buf_.append(kFrameHeaderBytes, '\0');  // Patched by EndRecord.
  const size_t body_start = buf_.size();
  PutBodyHeader(&buf_, next_lsn_, type);
  record_crc_ = Crc32(std::string_view(buf_).substr(body_start));
  return Status::OK();
}

Status LogManager::RewriteWriter::AppendPayload(std::string_view bytes) {
  if (!in_record_) return Status::Internal("no log record open");
  record_crc_ = Crc32(bytes, record_crc_);
  buf_.append(bytes);
  if (buf_.size() >= kRewriteChunkBytes) return Flush();
  return Status::OK();
}

Status LogManager::RewriteWriter::EndRecord() {
  if (!in_record_) return Status::Internal("no log record open");
  in_record_ = false;
  const uint64_t len = end_offset() - record_offset_ - kFrameHeaderBytes;
  if (len > kMaxRecordBytes) {
    return Status::ResourceExhausted("log record of " + std::to_string(len) +
                                     " bytes exceeds the frame limit");
  }
  std::string header;
  PutU32(&header, static_cast<uint32_t>(len));
  PutU32(&header, record_crc_);
  if (record_offset_ >= flushed_) {
    buf_.replace(record_offset_ - flushed_, kFrameHeaderBytes, header);
  } else {
    INSIGHT_RETURN_NOT_OK(PwriteFully(fd_, path_, record_offset_, header));
  }
  ++next_lsn_;
  return Status::OK();
}

Status LogManager::Rewrite(
    Lsn keep_from, const std::function<Status(RewriteWriter*)>& fill) {
  {
    std::lock_guard<std::mutex> lk(append_mu_);
    if (rewriting_) return Status::Internal("log rewrite already running");
    rewriting_ = true;
  }
  struct ClearRewriting {
    LogManager* log;
    ~ClearRewriting() {
      std::lock_guard<std::mutex> lk(log->append_mu_);
      log->rewriting_ = false;
    }
  } clear_rewriting{this};

  // With appends refused, one sync leaves the current file complete and
  // durable: nothing changes it until the swap below.
  INSIGHT_RETURN_NOT_OK(Sync());
  const View old = CurrentView();
  const Lsn next = old.durable + 1;
  keep_from = std::clamp<Lsn>(keep_from, old.file->first_lsn, next);

  const std::string tmp = RewritePath(path_);
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IOErrorFor("open", tmp);
  bool renamed = false;
  Status st = [&]() -> Status {
    // Retained records move over verbatim, a chunk at a time.
    uint64_t copied = 0;
    if (keep_from < next) {
      INSIGHT_ASSIGN_OR_RETURN(TailCursor from, SeekIn(old, keep_from));
      std::string chunk;
      for (uint64_t pos = from.offset; pos < old.bytes;) {
        chunk.resize(std::min<uint64_t>(kRewriteChunkBytes, old.bytes - pos));
        INSIGHT_RETURN_NOT_OK(
            PreadExact(old.file->fd, path_, pos, chunk.data(), chunk.size()));
        INSIGHT_RETURN_NOT_OK(PwriteFully(fd, tmp, copied, chunk));
        pos += chunk.size();
        copied += chunk.size();
      }
    }
    RewriteWriter writer(fd, tmp, copied, next);
    if (fill) INSIGHT_RETURN_NOT_OK(fill(&writer));
    if (writer.in_record_) return Status::Internal("log record left open");
    INSIGHT_RETURN_NOT_OK(writer.Flush());
    if (writer.flushed_ == 0) {
      return Status::InvalidArgument("a rewritten log must keep a record");
    }
    if (::fsync(fd) != 0) return IOErrorFor("fsync", tmp);
    INSIGHT_CRASH_POINT("log_rewrite_before_rename");
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
      return IOErrorFor("rename " + tmp + " over", path_);
    }
    renamed = true;
    INSIGHT_CRASH_POINT("log_rewrite_after_rename");
    // The new file is the log from here on, whether or not the directory
    // sync below succeeds: install it unconditionally.
    const Lsn last = writer.next_lsn() - 1;
    {
      std::lock_guard<std::mutex> slk(sync_mu_);
      std::lock_guard<std::mutex> alk(append_mu_);
      file_ = std::make_shared<const LogFile>(
          fd, std::min(keep_from, next), old.file->generation + 1);
      file_bytes_.store(writer.flushed_, std::memory_order_relaxed);
      next_lsn_ = last + 1;
      last_lsn_ = last;
      durable_lsn_ = last;
    }
    EngineMetrics::Get().wal_log_bytes->Set(
        static_cast<int64_t>(writer.flushed_));
    return SyncContainingDirectory(path_);
  }();
  if (!renamed) {
    ::close(fd);
    ::unlink(tmp.c_str());
  }
  return st;
}

}  // namespace insight
