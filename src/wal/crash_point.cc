#include "wal/crash_point.h"

#include <unistd.h>

#include <atomic>
#include <mutex>
#include <set>

namespace insight {

namespace {
std::mutex g_mu;
std::set<std::string> g_armed;
// Fast path: DML and flush loops cross crash points constantly; skip the
// lock entirely while nothing is armed.
std::atomic<bool> g_any_armed{false};
}  // namespace

void ArmCrashPoint(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_mu);
  g_armed.insert(name);
  g_any_armed.store(true, std::memory_order_release);
}

void DisarmCrashPoints() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_armed.clear();
  g_any_armed.store(false, std::memory_order_release);
}

bool CrashPointArmed(const std::string& name) {
  if (!g_any_armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  return g_armed.count(name) > 0;
}

void HitCrashPoint(const char* name) {
  if (CrashPointArmed(name)) {
    // _Exit: no atexit handlers, no stream flushes, no destructors — the
    // process dies with whatever it managed to fsync, like a crash.
    ::_Exit(kCrashPointExitCode);
  }
}

const std::vector<std::string>& RegisteredCrashPoints() {
  static const std::vector<std::string> kPoints = {
      "wal_append",               // Logical record enters the log buffer.
      "wal_sync_begin",           // Group commit before any byte hits the file.
      "wal_sync_partial",         // Mid-batch: a torn record tail on disk.
      "wal_sync_before_fsync",    // Bytes written, durability not yet forced.
      "wal_sync_after_fsync",     // Batch durable, waiters not yet released.
      "bufferpool_flush_page",    // Checkpoint page writeback, per page.
      "pagestore_sync",           // Data-file fsync during checkpoint.
      "checkpoint_begin",         // Snapshot record written to the
                                  // replacement log, not yet synced.
      "checkpoint_after_flush",   // Pages flushed, end record not written.
      "log_rewrite_before_rename",  // Replacement log fsynced, the old log
                                    // still in place.
      "log_rewrite_after_rename",   // Replacement log renamed over the old
                                    // one, directory not yet fsynced.
      "checkpoint_end",           // Checkpoint sealed and durable.
      "sbtree_maintenance",       // Summary-BTree upkeep mid-flight.
      "txn_commit_appended",      // Commit record buffered, not yet durable:
                                  // recovery must drop the whole txn unless
                                  // the record reached the disk.
      "txn_commit_durable",       // Commit record fsynced, ack unsent: the
                                  // txn is committed and must survive.
      "txn_abort_mid",            // In-memory undo done, abort record not
                                  // yet appended; replay must still skip
                                  // every op of the unfinished txn.
      "zonemap_maintain",         // Mid zone-map re-derivation (checkpoint
                                  // runs it after sealing): zone maps are
                                  // derived state, recovery must rebuild
                                  // them with no false skips.
  };
  return kPoints;
}

const std::vector<std::string>& ServingCrashPoints() {
  static const std::vector<std::string> kPoints = {
      "net_before_reply",     // Statement executed + WAL-synced, reply unsent:
                              // the client sees a dropped connection for a
                              // change that recovery must preserve.
      "repl_before_ship",     // Commit durable on the primary, log frame not
                              // yet handed to any subscriber: replicas catch
                              // up from their own log after promotion.
      "repl_after_ship",      // Log frame queued to subscribers, client ack
                              // unsent: a promoted replica may hold commits
                              // the client never saw acknowledged.
      "repl_after_ack_read",  // Primary consumed a ReplicaAck, then died:
                              // acked state must survive on the replica.
  };
  return kPoints;
}

}  // namespace insight
