#ifndef INSIGHTNOTES_NET_REPLICATION_H_
#define INSIGHTNOTES_NET_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "net/session.h"
#include "sql/database.h"

namespace insight {

/// Primary-side WAL shipping. Replicas subscribe over ordinary sessions
/// (ReplicateSubscribe names the first LSN they want); one shipper
/// thread tails the durable log with a byte-offset cursor per
/// subscriber and streams LogFrame batches through the subscriber's own
/// event loop. ReplicaAck frames advance a per-subscriber window so a
/// stalled replica cannot buffer the whole log into its socket.
///
/// Thread safety: the registry mutex orders the shipper against
/// Unsubscribe, which the server calls synchronously from
/// OnSessionClosed on the session's loop thread *before* queueing the
/// deferred session erase. Loop functors run FIFO, so any send functor
/// the shipper queued before Unsubscribe runs — and no-ops on the
/// closed session — before the erase destroys it.
class ReplicationManager {
 public:
  struct Options {
    int poll_interval_ms = 20;        // Shipper tail-poll cadence.
    size_t max_batch_records = 256;   // Records per LogFrame.
    size_t max_batch_bytes = 1u << 20;
    /// Shipped-but-unacked cap per subscriber; shipping pauses past it.
    uint64_t max_window_records = 8192;
  };

  explicit ReplicationManager(Database* db) : ReplicationManager(db, {}) {}
  ReplicationManager(Database* db, Options options);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Spawns the shipper thread.
  Status Start();
  /// Stops and joins it. Idempotent.
  void Stop();

  /// Registers `session` to receive the log from `start_lsn` on. Fails
  /// with OutOfRange when the LSN is past the durable end + 1 (the
  /// subscriber's log is not a prefix of ours — it is not our replica),
  /// or when a checkpoint already dropped it from the log (the message
  /// names the first retained LSN; the subscriber must be re-seeded).
  /// Until it acknowledges them, checkpoints keep the records it needs.
  Status Subscribe(Session* session, uint64_t start_lsn);

  /// Drops the subscriber; must complete before the session is
  /// destroyed (see the class comment's ordering contract).
  void Unsubscribe(Session* session);

  /// Flow control: the subscriber has durably applied through `lsn`.
  void OnAck(Session* session, uint64_t applied_lsn);

  size_t subscriber_count() const;
  /// Smallest acked LSN across subscribers (0 when none) — what a
  /// client that wants N-replica durability would wait on.
  uint64_t min_acked_lsn() const;

 private:
  struct Subscriber {
    LogManager::TailCursor cursor;
    uint64_t acked = 0;
  };

  /// True when `sub` has max_window_records shipped but unacked.
  bool WindowFull(const Subscriber& sub) const;
  /// Ships every subscriber's next durable batch, then waits a poll
  /// interval — unless some subscriber still has a backlog and window
  /// room, or an ack reopens a full window.
  void ShipLoop();

  Database* const db_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  bool ack_reopened_ = false;  // OnAck reopened a full window.
  std::map<Session*, Subscriber> subs_;
  std::thread thread_;
};

/// Replica-side feed: one thread that dials the primary, subscribes
/// from the local log's next LSN, applies every shipped record through
/// Database::ApplyReplicated, makes batches durable, and acks. Lost
/// connections reconnect with capped backoff — the subscription resumes
/// wherever the local log ends, so no record is lost or doubled.
class ReplicaFeed {
 public:
  struct Options {
    int reconnect_initial_ms = 100;
    int reconnect_max_ms = 2000;
  };

  ReplicaFeed(Database* db, std::string host, uint16_t port)
      : ReplicaFeed(db, std::move(host), port, {}) {}
  ReplicaFeed(Database* db, std::string host, uint16_t port, Options options);
  ~ReplicaFeed();

  ReplicaFeed(const ReplicaFeed&) = delete;
  ReplicaFeed& operator=(const ReplicaFeed&) = delete;

  /// Switches `db` into replica mode and spawns the feed thread.
  Status Start();

  /// Stops the feed (shutting the socket to unblock reads) and joins.
  /// Idempotent; the database stays a replica.
  void Stop();

  /// Failover: stops the feed and promotes the database to primary.
  Status Promote();

  uint64_t applied_lsn() const { return db_->applied_lsn(); }
  /// Last transport/apply error, for logs and tests ("" when none).
  std::string last_error() const;

 private:
  void FeedLoop();
  /// One connect + subscribe + stream cycle; returns why it ended.
  Status RunOnce();
  Status ReadFrame(int fd, Frame* out);

  Database* const db_;
  const std::string host_;
  const uint16_t port_;
  const Options options_;

  std::atomic<bool> stop_{false};
  std::atomic<int> fd_{-1};
  std::thread thread_;
  bool started_ = false;
  mutable std::mutex err_mu_;
  std::string last_error_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_NET_REPLICATION_H_
