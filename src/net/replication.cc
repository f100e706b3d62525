#include "net/replication.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace insight {

// ---- ReplicationManager (primary side) ----

ReplicationManager::ReplicationManager(Database* db, Options options)
    : db_(db), options_(options) {}

ReplicationManager::~ReplicationManager() { Stop(); }

Status ReplicationManager::Start() {
  if (db_->wal() == nullptr) {
    return Status::InvalidArgument(
        "replication needs a journaled database (Open a directory)");
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) return Status::OK();
    started_ = true;
    stop_ = false;
    thread_ = std::thread([this] { ShipLoop(); });
  }
  // Checkpoints keep every record a subscriber has not acknowledged.
  db_->SetLogRetention([this] {
    std::lock_guard<std::mutex> lk(mu_);
    Lsn floor = std::numeric_limits<Lsn>::max();
    for (const auto& [session, sub] : subs_) {
      floor = std::min<Lsn>(floor, sub.acked + 1);
    }
    return floor;
  });
  return Status::OK();
}

void ReplicationManager::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
  }
  db_->SetLogRetention(nullptr);
  cv_.notify_all();
  thread_.join();
}

Status ReplicationManager::Subscribe(Session* session, uint64_t start_lsn) {
  INSIGHT_ASSIGN_OR_RETURN(LogManager::TailCursor cursor,
                           db_->wal()->SeekTo(start_lsn));
  std::lock_guard<std::mutex> lk(mu_);
  Subscriber& sub = subs_[session];
  sub.cursor = cursor;
  sub.acked = start_lsn - 1;  // Everything below its start is its own.
  EngineMetrics::Get().repl_subscribers->Set(
      static_cast<int64_t>(subs_.size()));
  INSIGHT_LOG(Info) << "replica subscribed from LSN " << start_lsn;
  return Status::OK();
}

void ReplicationManager::Unsubscribe(Session* session) {
  std::lock_guard<std::mutex> lk(mu_);
  if (subs_.erase(session) > 0) {
    EngineMetrics::Get().repl_subscribers->Set(
        static_cast<int64_t>(subs_.size()));
  }
}

void ReplicationManager::OnAck(Session* session, uint64_t applied_lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = subs_.find(session);
  if (it == subs_.end()) return;
  Subscriber& sub = it->second;
  const bool was_blocked = WindowFull(sub);
  if (applied_lsn > sub.acked) sub.acked = applied_lsn;
  INSIGHT_CRASH_POINT("repl_after_ack_read");
  // An ack that reopens a full window lets the shipper resume at once
  // instead of at its next poll.
  if (was_blocked && !WindowFull(sub)) {
    ack_reopened_ = true;
    cv_.notify_all();
  }
}

bool ReplicationManager::WindowFull(const Subscriber& sub) const {
  const uint64_t shipped = sub.cursor.next_lsn - 1;
  return shipped - std::min(shipped, sub.acked) >=
         options_.max_window_records;
}

size_t ReplicationManager::subscriber_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return subs_.size();
}

uint64_t ReplicationManager::min_acked_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t min_acked = 0;
  bool first = true;
  for (const auto& [session, sub] : subs_) {
    if (first || sub.acked < min_acked) min_acked = sub.acked;
    first = false;
  }
  return min_acked;
}

void ReplicationManager::ShipLoop() {
  EngineMetrics& m = EngineMetrics::Get();
  std::unique_lock<std::mutex> lk(mu_);
  // Set when a subscriber still has a durable backlog after its batch and
  // room in its window: ship the next batch without waiting a poll.
  bool backlog = false;
  while (!stop_) {
    if (backlog) {
      // Let acks and (un)subscribes in between back-to-back batches.
      lk.unlock();
      std::this_thread::yield();
      lk.lock();
    } else {
      cv_.wait_for(lk, std::chrono::milliseconds(options_.poll_interval_ms),
                   [this] { return stop_ || ack_reopened_; });
    }
    ack_reopened_ = false;
    backlog = false;
    if (stop_) break;
    const Lsn durable = db_->wal()->durable_lsn();
    uint64_t min_acked = 0;
    bool first = true;
    for (auto& [session, sub] : subs_) {
      if (first || sub.acked < min_acked) min_acked = sub.acked;
      first = false;
      const uint64_t shipped = sub.cursor.next_lsn - 1;
      if (shipped >= durable) continue;  // Caught up.
      if (WindowFull(sub)) continue;  // Backpressure: wait for acks.
      Result<std::vector<WalRecord>> batch = db_->wal()->ReadDurableFrom(
          &sub.cursor, options_.max_batch_records, options_.max_batch_bytes);
      if (!batch.ok()) {
        // A cursor that cannot read the durable log (or whose next
        // record a checkpoint dropped) will never recover; drop the
        // subscriber (its reconnect re-subscribes or learns it is gone).
        INSIGHT_LOG(Error) << "replication tail read failed: "
                           << batch.status().ToString();
        Session* s = session;
        s->loop()->QueueInLoop([s] {
          if (!s->closed()) s->Close("replication tail read failed");
        });
        continue;
      }
      if (batch->empty()) continue;
      INSIGHT_CRASH_POINT("repl_before_ship");
      std::string payload = EncodeLogFrame(*batch, 0, batch->size());
      m.repl_records_shipped->Add(batch->size());
      Session* s = session;
      s->loop()->QueueInLoop([s, payload = std::move(payload)] {
        if (!s->closed()) s->SendFrame(FrameType::kLogFrame, payload);
      });
      INSIGHT_CRASH_POINT("repl_after_ship");
      if (sub.cursor.next_lsn - 1 < durable && !WindowFull(sub)) {
        backlog = true;
      }
    }
    if (!first) {
      m.repl_ship_lag->Set(
          static_cast<int64_t>(durable - std::min<Lsn>(durable, min_acked)));
    }
  }
}

// ---- ReplicaFeed (replica side) ----

ReplicaFeed::ReplicaFeed(Database* db, std::string host, uint16_t port,
                         Options options)
    : db_(db), host_(std::move(host)), port_(port), options_(options) {}

ReplicaFeed::~ReplicaFeed() { Stop(); }

Status ReplicaFeed::Start() {
  INSIGHT_RETURN_NOT_OK(db_->EnterReplicaMode());
  if (started_) return Status::OK();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { FeedLoop(); });
  return Status::OK();
}

void ReplicaFeed::Stop() {
  if (!started_) return;
  started_ = false;
  stop_.store(true, std::memory_order_release);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // Unblocks the feed's read.
  thread_.join();
  if (fd >= 0) ::close(fd);
}

Status ReplicaFeed::Promote() {
  Stop();
  return db_->Promote();
}

std::string ReplicaFeed::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return last_error_;
}

void ReplicaFeed::FeedLoop() {
  int backoff_ms = options_.reconnect_initial_ms;
  while (!stop_.load(std::memory_order_acquire)) {
    Status st = RunOnce();
    if (stop_.load(std::memory_order_acquire)) break;
    if (!st.ok()) {
      std::lock_guard<std::mutex> lk(err_mu_);
      last_error_ = st.ToString();
    }
    EngineMetrics::Get().repl_reconnects->Add(1);
    INSIGHT_LOG(Info) << "replica feed disconnected (" << st.ToString()
                      << "); retrying in " << backoff_ms << "ms";
    // Sleep in small slices so Stop() stays responsive.
    for (int waited = 0;
         waited < backoff_ms && !stop_.load(std::memory_order_acquire);
         waited += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    backoff_ms = std::min(backoff_ms * 2, options_.reconnect_max_ms);
  }
}

Status ReplicaFeed::ReadFrame(int fd, Frame* out) {
  char header[kFrameHeaderBytes];
  INSIGHT_RETURN_NOT_OK(ReadFully(fd, header, sizeof(header)));
  uint32_t body_len, crc;
  std::memcpy(&body_len, header, 4);
  std::memcpy(&crc, header + 4, 4);
  if (body_len == 0 || body_len > kMaxFrameBytes) {
    return Status::Corruption("oversized frame from primary");
  }
  std::string body(body_len, '\0');
  INSIGHT_RETURN_NOT_OK(ReadFully(fd, body.data(), body.size()));
  if (Crc32(body) != crc) {
    return Status::Corruption("frame checksum mismatch from primary");
  }
  out->type = static_cast<FrameType>(static_cast<uint8_t>(body[0]));
  out->payload.assign(body.data() + 1, body.size() - 1);
  return Status::OK();
}

Status ReplicaFeed::RunOnce() {
  INSIGHT_ASSIGN_OR_RETURN(int fd, ConnectTo(host_, port_));
  fd_.store(fd, std::memory_order_release);
  // fd ownership: Stop() may exchange fd_ to -1 and close it; every
  // return path below re-checks the slot before closing.
  auto release_fd = [this] {
    const int cur = fd_.exchange(-1, std::memory_order_acq_rel);
    if (cur >= 0) ::close(cur);
  };
  const std::string subscribe = EncodeFrame(
      FrameType::kReplicateSubscribe,
      EncodeReplicateSubscribe(db_->wal()->next_lsn()));
  Status st = WriteFully(fd, subscribe.data(), subscribe.size());
  if (!st.ok()) {
    release_fd();
    return st;
  }
  EngineMetrics& m = EngineMetrics::Get();
  for (;;) {
    Frame frame;
    st = ReadFrame(fd, &frame);
    if (!st.ok()) break;
    if (frame.type == FrameType::kError) {
      st = DecodeError(frame.payload);
      break;
    }
    if (frame.type == FrameType::kGoodbye) {
      st = Status::IOError("primary said goodbye: " + frame.payload);
      break;
    }
    if (frame.type != FrameType::kLogFrame) {
      st = Status::Corruption("unexpected frame type " +
                              std::to_string(static_cast<int>(frame.type)) +
                              " on the replication stream");
      break;
    }
    std::vector<WalRecord> records;
    st = DecodeLogFrame(frame.payload, &records);
    if (!st.ok()) break;
    Lsn last = kInvalidLsn;
    for (const WalRecord& rec : records) {
      st = db_->ApplyReplicated(rec);
      if (!st.ok()) break;
      last = rec.lsn;
      m.repl_records_applied->Add(1);
    }
    if (!st.ok()) break;
    if (last == kInvalidLsn) continue;
    // Batch durability point: the verbatim copies are on disk before the
    // ack claims them, and before wait-for-lsn readers see the frontier.
    st = db_->WalSync();
    if (!st.ok()) break;
    db_->AdvanceAppliedLsn(last);
    m.repl_applied_lsn->Set(static_cast<int64_t>(last));
    const std::string ack =
        EncodeFrame(FrameType::kReplicaAck, EncodeReplicaAck(last));
    st = WriteFully(fd, ack.data(), ack.size());
    if (!st.ok()) break;
  }
  release_fd();
  return st;
}

}  // namespace insight
