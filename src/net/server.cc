#include "net/server.h"

#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace insight {

InsightServer::InsightServer(Database* db, Options options)
    : db_(db),
      options_(std::move(options)),
      manager_(SessionManager::Limits{options_.max_connections,
                                      options_.idle_timeout_ms,
                                      options_.max_statement_bytes}) {}

InsightServer::~InsightServer() { Shutdown(); }

Status InsightServer::Start() {
  INSIGHT_CHECK(!started_);
  INSIGHT_ASSIGN_OR_RETURN(listen_fd_, CreateListener(options_.port));
  INSIGHT_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_));
  if (!options_.port_file.empty()) {
    FILE* f = std::fopen(options_.port_file.c_str(), "w");
    if (f == nullptr) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("cannot write port file " + options_.port_file);
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(port_));
    std::fclose(f);
  }

  // Every journaled node can serve subscribers: a replica's log is a
  // byte-equal window of its primary's, so chained replication and
  // promote-then-serve both come for free. Started before any I/O
  // thread can accept a connection, since sessions read repl_ unlocked.
  if (db_->wal() != nullptr) {
    repl_ = std::make_unique<ReplicationManager>(db_, options_.replication);
    Status st = repl_->Start();
    if (!st.ok()) {
      repl_.reset();
      INSIGHT_LOG(Error) << "replication shipper failed to start: "
                         << st.ToString();
    }
  }

  const size_t n_shards = options_.io_threads == 0 ? 1 : options_.io_threads;
  for (size_t i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<LoopShard>();
    LoopShard* raw = shard.get();
    raw->loop.SetTickCallback([this, raw] {
      if (options_.idle_timeout_ms <= 0) return;
      const auto now = std::chrono::steady_clock::now();
      for (auto& [id, session] : raw->sessions) {
        if (!session->closed() && session->IdleExpired(now)) {
          EngineMetrics::Get().net_idle_disconnects->Add(1);
          session->SendFrame(FrameType::kGoodbye, "idle timeout");
          session->Close("idle timeout");  // Defer-erased via the host.
        }
      }
    });
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([loop = &shard->loop] { loop->Loop(); });
  }

  accept_loop_.QueueInLoop([this] {
    Status st = accept_loop_.AddFd(listen_fd_, EPOLLIN,
                                   [this](uint32_t) { AcceptReady(); });
    if (!st.ok()) {
      INSIGHT_LOG(Error) << "acceptor registration failed: " << st.ToString();
    }
  });
  accept_thread_ = std::thread([this] { accept_loop_.Loop(); });

  started_ = true;
  INSIGHT_LOG(Info) << "insightd listening on 127.0.0.1:" << port_ << " with "
                    << shards_.size() << " I/O threads";
  return Status::OK();
}

void InsightServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      INSIGHT_LOG(Error) << "accept: " << std::strerror(errno);
      return;
    }
    AdoptConnection(fd);
  }
}

void InsightServer::AdoptConnection(int fd) {
  EngineMetrics& m = EngineMetrics::Get();
  SetNoDelay(fd).ok();
  if (!manager_.TryAdmit()) {
    // Over max_connections: a best-effort Goodbye so the client sees an
    // admission rejection instead of a bare RST.
    m.net_connections_rejected->Add(1);
    const std::string frame =
        EncodeFrame(FrameType::kGoodbye, "server at max_connections");
    [[maybe_unused]] ssize_t n =
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
    return;
  }
  m.net_connections_opened->Add(1);
  m.net_active_connections->Set(static_cast<int64_t>(manager_.active()));

  LoopShard* shard = shards_[next_shard_].get();
  next_shard_ = (next_shard_ + 1) % shards_.size();
  Session* session =
      new Session(manager_.NextSessionId(), fd, &shard->loop, this,
                  manager_.limits());
  shard->loop.QueueInLoop([this, shard, session] {
    std::unique_ptr<Session> owned(session);
    Status st = owned->Register();
    if (!st.ok()) {
      INSIGHT_LOG(Error) << "session register failed: " << st.ToString();
      manager_.Release();
      return;  // ~Session closes the fd.
    }
    shard->sessions.emplace(owned->id(), std::move(owned));
  });
}

namespace {

/// First-keyword read detection, mirroring RoutedClient: statements that
/// never journal (and so never move the durable frontier) do not get a
/// commit LSN stamped on their ResultDone.
bool IsReadOnlySql(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() && !std::isalpha(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  std::string word;
  while (i < sql.size() && std::isalpha(static_cast<unsigned char>(sql[i]))) {
    word.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[i++]))));
  }
  return word == "SELECT" || word == "EXPLAIN" || word == "ZOOM";
}

}  // namespace

void InsightServer::HandleQuery(Session* session, const std::string& sql,
                                uint64_t wait_lsn) {
  EngineMetrics& m = EngineMetrics::Get();
  Stopwatch timer;
  session->CountStatement();
  if (wait_lsn > 0) {
    // Read-your-writes: hold the statement until replication has applied
    // the client's last acknowledged commit. Blocks this loop thread —
    // the same trade every synchronous statement already makes.
    m.repl_wait_lsn_waits->Add(1);
    if (!db_->WaitForAppliedLsn(
            wait_lsn,
            std::chrono::milliseconds(options_.wait_lsn_timeout_ms))) {
      m.net_request_errors->Add(1);
      session->SendFrame(
          FrameType::kError,
          EncodeError(Status::ResourceExhausted(
              "timed out waiting for LSN " + std::to_string(wait_lsn) +
              " to replicate (applied frontier is " +
              std::to_string(db_->applied_lsn()) + ")")));
      return;
    }
  }
  Result<QueryResult> executed = db_->Execute(sql, session->txn_handle());
  m.net_request_millis->Observe(timer.ElapsedMillis());
  if (!executed.ok()) {
    m.net_request_errors->Add(1);
    session->SendFrame(FrameType::kError, EncodeError(executed.status()));
    return;
  }
  // Serving-path kill point: the statement (and its WAL commit) is done
  // but the client has not been told. A crash here must recover to a
  // state containing every previously-acknowledged statement.
  INSIGHT_CRASH_POINT("net_before_reply");

  const QueryResult& result = *executed;
  std::vector<std::string> annotations;
  annotations.reserve(result.annotations.size());
  for (const Annotation& ann : result.annotations) {
    annotations.push_back("[" + std::to_string(ann.id) + "] " + ann.text);
  }
  std::vector<std::string> summaries;
  if (!result.summaries.empty()) {
    summaries.reserve(result.rows.size());
    for (size_t r = 0; r < result.rows.size(); ++r) {
      summaries.push_back(r < result.summaries.size() &&
                                  !result.summaries[r].empty()
                              ? result.summaries[r].ToString()
                              : std::string());
    }
  }
  session->SendFrame(
      FrameType::kResultHeader,
      EncodeResultHeader(result.schema, result.message, annotations));
  for (size_t begin = 0; begin < result.rows.size();
       begin += kWireRowsPerBatch) {
    session->SendFrame(
        FrameType::kRowBatch,
        EncodeRowBatch(result.rows, summaries, begin, kWireRowsPerBatch));
    if (session->closed()) return;
  }
  // Stamp writes with the durable frontier: the statement's commit hook
  // forced the log, so durable >= this statement's last LSN here, and a
  // replica that has applied through it has applied this write.
  uint64_t commit_lsn = 0;
  if (db_->wal() != nullptr && !IsReadOnlySql(sql)) {
    commit_lsn = db_->wal()->durable_lsn();
  }
  session->SendFrame(FrameType::kResultDone,
                     EncodeResultDone(result.rows.size(), commit_lsn));
}

void InsightServer::OnReplicateSubscribe(Session* session,
                                         uint64_t start_lsn) {
  if (repl_ == nullptr) {
    session->SendFrame(FrameType::kError,
                       EncodeError(Status::InvalidArgument(
                           "replication needs a journaled database")));
    return;
  }
  Status st = repl_->Subscribe(session, start_lsn);
  if (!st.ok()) {
    session->SendFrame(FrameType::kError, EncodeError(st));
  }
}

void InsightServer::OnReplicaAck(Session* session, uint64_t applied_lsn) {
  if (repl_ != nullptr) repl_->OnAck(session, applied_lsn);
}

void InsightServer::OnPromote(Session* session) {
  if (db_->role() == Database::Role::kPrimary) {
    session->SendFrame(FrameType::kPromoteAck, {});  // Idempotent.
    return;
  }
  if (feed_ == nullptr) {
    session->SendFrame(FrameType::kError,
                       EncodeError(Status::InvalidArgument(
                           "this replica has no feed to promote from")));
    return;
  }
  Status st = feed_->Promote();
  if (!st.ok()) {
    session->SendFrame(FrameType::kError, EncodeError(st));
    return;
  }
  INSIGHT_LOG(Info) << "promoted to primary at LSN "
                    << db_->wal()->durable_lsn();
  session->SendFrame(FrameType::kPromoteAck, {});
}

std::string InsightServer::MetricsText() { return db_->DumpMetrics(); }

void InsightServer::OnShutdownRequest() { NudgeShutdown(); }

void InsightServer::NudgeShutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void InsightServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lk(shutdown_mu_);
  shutdown_cv_.wait(lk, [this] { return shutdown_requested_; });
}

void InsightServer::OnSessionClosed(Session* session) {
  // Drop any replication subscription BEFORE queueing the deferred
  // erase: loop functors run FIFO, so a send the shipper queued earlier
  // no-ops on the closed session before the erase destroys it, and after
  // this line the shipper can never queue another.
  if (repl_ != nullptr) repl_->Unsubscribe(session);
  // A connection that drops mid-transaction must not leave its writes
  // pinned forever: roll the transaction back. The handle may already be
  // stale (conflict auto-abort), so a failure here is expected.
  if (session->open_txn() != 0) {
    db_->txn_manager()->Abort(session->open_txn()).ok();
    *session->txn_handle() = 0;
  }
  manager_.Release();
  EngineMetrics& m = EngineMetrics::Get();
  m.net_connections_closed->Add(1);
  m.net_active_connections->Set(static_cast<int64_t>(manager_.active()));
  // The close always happens on the session's own loop thread, possibly
  // inside its own event callback, so destruction is deferred to the next
  // loop iteration. Match the shard by loop pointer — other shards' maps
  // belong to other threads and must not be touched here.
  for (auto& shard : shards_) {
    if (&shard->loop != session->loop()) continue;
    LoopShard* raw = shard.get();
    const uint64_t id = session->id();
    raw->loop.QueueInLoop([raw, id] { raw->sessions.erase(id); });
    return;
  }
}

void InsightServer::Shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // 0. Stop the shipper first so it stops queueing sends onto loops
  // that are about to drain and quit.
  if (repl_ != nullptr) repl_->Stop();

  // 1. Stop accepting.
  accept_loop_.QueueInLoop([this] {
    accept_loop_.RemoveFd(listen_fd_).ok();
    ::close(listen_fd_);
    listen_fd_ = -1;
  });
  accept_loop_.Quit();
  accept_thread_.join();

  // 2. Drain each shard: any in-flight statement finishes before the
  // queued close runs (statements execute synchronously on the loop
  // thread), then lingering clients get a Goodbye and the loop exits.
  for (auto& shard : shards_) {
    LoopShard* raw = shard.get();
    raw->loop.QueueInLoop([raw] {
      for (auto& [id, session] : raw->sessions) {
        if (session->closed()) continue;
        session->SendFrame(FrameType::kGoodbye, "server shutting down");
        session->Close("drain");
      }
    });
    raw->loop.Quit();
  }
  for (auto& shard : shards_) {
    shard->thread.join();
    shard->sessions.clear();
  }
  INSIGHT_LOG(Info) << "insightd drained and stopped";
}

}  // namespace insight
