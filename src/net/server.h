#ifndef INSIGHTNOTES_NET_SERVER_H_
#define INSIGHTNOTES_NET_SERVER_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/replication.h"
#include "net/session.h"
#include "sql/database.h"

namespace insight {

/// `insightd`'s serving core: a flamingo-style multi-reactor. One
/// acceptor EventLoop owns the listening socket; `io_threads` I/O loops
/// each own a share of the connections (round-robin assignment at accept
/// time). Statements execute on the connection's loop thread — readers
/// overlap across loops through the database's shared statement gate,
/// writers serialize on its exclusive side and batch into the WAL
/// group-commit path.
///
/// Lifecycle:
///   InsightServer server(db, options);
///   server.Start();               // binds, spawns threads, returns
///   server.WaitForShutdownRequest();  // Shutdown frame or Quit-like nudge
///   server.Shutdown();            // drain: stop accepting, finish
///                                 // in-flight statements, close, join
class InsightServer : public SessionHost {
 public:
  struct Options {
    uint16_t port = 8471;      // 0 = kernel-assigned ephemeral port.
    size_t io_threads = 4;     // Reactor loops serving connections.
    size_t max_connections = 256;
    int64_t idle_timeout_ms = 300'000;  // <=0 disables idle disconnect.
    size_t max_statement_bytes = 1u << 20;
    /// When set, the bound port is written here after Start() (the
    /// `--port 0` + `--port-file` contract used by parallel CI jobs).
    std::string port_file;
    /// Cap on how long a Query with wait_lsn may block for the replica's
    /// applied frontier to catch up before it fails.
    int64_t wait_lsn_timeout_ms = 10'000;
    /// Log shipping to subscribed replicas (journaled databases only).
    ReplicationManager::Options replication;
  };

  InsightServer(Database* db, Options options);
  ~InsightServer() override;

  InsightServer(const InsightServer&) = delete;
  InsightServer& operator=(const InsightServer&) = delete;

  /// Binds the listener and spawns the acceptor + I/O threads.
  Status Start();

  /// The bound port (resolves port 0). Valid after Start().
  uint16_t port() const { return port_; }

  /// Blocks until a client sends Shutdown or NudgeShutdown() is called
  /// (e.g. from a signal-watcher). Returns immediately if already asked.
  void WaitForShutdownRequest();

  /// Marks shutdown as requested; safe from any thread (not from signal
  /// handlers — those should set a flag and poll-nudge from a thread).
  void NudgeShutdown();

  /// Graceful drain: stops accepting, lets in-flight statements finish,
  /// sends Goodbye to lingering clients, closes every session, joins all
  /// threads. Idempotent.
  void Shutdown();

  size_t active_sessions() const { return manager_.active(); }

  /// Hands the server the replica feed that keeps `db` in sync, enabling
  /// the Promote frame. Call before Start(); the feed outlives the
  /// server. nullptr (the default) makes Promote an error.
  void SetReplicaFeed(ReplicaFeed* feed) { feed_ = feed; }

  /// The primary-side shipper (nullptr for in-memory databases). Every
  /// journaled node ships — a replica's log is a byte-equal window of
  /// its primary's, so chaining works unmodified.
  ReplicationManager* replication() { return repl_.get(); }

  // SessionHost:
  void HandleQuery(Session* session, const std::string& sql,
                   uint64_t wait_lsn) override;
  std::string MetricsText() override;
  void OnShutdownRequest() override;
  void OnSessionClosed(Session* session) override;
  void OnReplicateSubscribe(Session* session, uint64_t start_lsn) override;
  void OnReplicaAck(Session* session, uint64_t applied_lsn) override;
  void OnPromote(Session* session) override;

 private:
  /// One reactor thread plus the sessions it owns. Sessions are touched
  /// only on the shard's loop thread.
  struct LoopShard {
    EventLoop loop;
    std::thread thread;
    std::map<uint64_t, std::unique_ptr<Session>> sessions;
  };

  void AcceptReady();
  void AdoptConnection(int fd);

  Database* const db_;
  const Options options_;
  SessionManager manager_;
  std::unique_ptr<ReplicationManager> repl_;
  ReplicaFeed* feed_ = nullptr;

  uint16_t port_ = 0;
  int listen_fd_ = -1;
  EventLoop accept_loop_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  size_t next_shard_ = 0;  // Accept-loop thread only (round robin).

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace insight

#endif  // INSIGHTNOTES_NET_SERVER_H_
