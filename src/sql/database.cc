#include "sql/database.h"

#include <dirent.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>

#include "common/serde.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace insight {

Database::Database(Options options)
    : options_(options),
      storage_(options.backend, options.directory),
      pool_(&storage_, options.buffer_pool_frames),
      catalog_(&storage_, &pool_),
      context_(&catalog_, &storage_, &pool_) {
  InstallWalHooks();
}

void Database::InstallWalHooks() {
  TransactionManager::WalHooks hooks;
  hooks.begin = [this](const Transaction& txn) -> Status {
    if (!WalEnabled()) return Status::OK();
    // Under the write gate, like every other append: a checkpoint must
    // see each open transaction's begin LSN (the log keeps the records
    // from there on), and the log refuses appends while it is replaced.
    std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
    INSIGHT_ASSIGN_OR_RETURN(
        Lsn lsn, wal_->Append(WalRecordType::kTxnBegin,
                              WalTxnBegin{txn.id()}.Encode()));
    open_txn_begin_lsns_[txn.id()] = lsn;
    return Status::OK();
  };
  hooks.commit = [this](const Transaction& txn, Ts) -> Status {
    if (!WalEnabled()) return Status::OK();
    open_txn_begin_lsns_.erase(txn.id());
    INSIGHT_ASSIGN_OR_RETURN(
        Lsn lsn, wal_->Append(WalRecordType::kTxnCommit,
                              WalTxnCommit{txn.id()}.Encode()));
    INSIGHT_CRASH_POINT("txn_commit_appended");
    // The commit record is THE durability point of the transaction: its
    // buffered kTxnOp records ride the same force. Only after this fsync
    // may the transaction's effects become visible. kNever (tests/benches
    // measuring non-durable throughput) opts out of the force, as it does
    // for plain records.
    if (options_.wal_sync != WalSyncMode::kNever) {
      INSIGHT_RETURN_NOT_OK(wal_->Commit(lsn));
    }
    INSIGHT_CRASH_POINT("txn_commit_durable");
    return Status::OK();
  };
  hooks.abort = [this](const Transaction& txn) -> Status {
    if (!WalEnabled()) return Status::OK();
    // Fires after the in-memory undo, before the abort record lands: a
    // crash here must recover to the same no-effects state (the kTxnOps
    // are in the log but no commit record ever will be).
    INSIGHT_CRASH_POINT("txn_abort_mid");
    open_txn_begin_lsns_.erase(txn.id());
    return wal_
        ->Append(WalRecordType::kTxnAbort, WalTxnAbort{txn.id()}.Encode())
        .status();
  };
  txn_mgr_.SetWalHooks(std::move(hooks));
}

namespace {

constexpr const char* kWalFileName = "wal.log";

/// Removes every regular file in `dir` except the log (a replacement log
/// a crashed checkpoint left behind goes too). Page files are
/// derived state: the catalog that maps them to tables is logical (it
/// lives in the log), so a restart rebuilds them from replay. Leftover
/// files from the previous incarnation would otherwise collide with the
/// fresh CreateFile calls replay issues.
Status RemoveStalePageFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir " + dir + ": " + std::strerror(errno));
  }
  Status st = Status::OK();
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == ".." || name == kWalFileName) continue;
    const std::string path = dir + "/" + name;
    struct stat info;
    if (::stat(path.c_str(), &info) != 0 || !S_ISREG(info.st_mode)) continue;
    if (::unlink(path.c_str()) != 0) {
      st = Status::IOError("unlink " + path + ": " + std::strerror(errno));
      break;
    }
  }
  ::closedir(d);
  return st;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& directory) {
  return Open(directory, Options{});
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& directory,
                                                 Options options) {
  if (directory.empty()) {
    return Status::InvalidArgument("Open needs a directory");
  }
  if (::mkdir(directory.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + directory + ": " +
                           std::strerror(errno));
  }
  options.directory = directory;
  if (options.backend == StorageManager::Backend::kFile) {
    INSIGHT_RETURN_NOT_OK(RemoveStalePageFiles(directory));
  }
  INSIGHT_ASSIGN_OR_RETURN(auto wal,
                           LogManager::Open(directory + "/" + kWalFileName));
  INSIGHT_ASSIGN_OR_RETURN(std::vector<WalRecord> records, wal->ReadAll());

  auto db = std::unique_ptr<Database>(new Database(options));
  db->replaying_ = true;
  Result<RecoveryManager::Stats> replayed =
      RecoveryManager::Replay(records, db.get());
  db->replaying_ = false;
  if (!replayed.ok()) return replayed.status();
  db->recovery_stats_ = *replayed;

  db->wal_ = std::move(wal);
  // WAL-before-data from here on: dirty pages force the log first.
  db->pool_.SetWalBridge(db->wal_.get());
  return db;
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  const size_t num_columns = schema.num_columns();
  StampNextLsn();
  INSIGHT_ASSIGN_OR_RETURN(Table * table,
                           catalog_.CreateTable(name, std::move(schema)));
  AnnotatedRelation rel;
  INSIGHT_ASSIGN_OR_RETURN(rel.store,
                           AnnotationStore::Create(&catalog_, table->name(),
                                                   num_columns));
  INSIGHT_ASSIGN_OR_RETURN(
      rel.mgr, SummaryManager::Create(&catalog_, table, rel.store.get()));
  INSIGHT_RETURN_NOT_OK(context_.RegisterRelation(table, rel.mgr.get()));
  // Online statistics ride along from the first write: the planner-facing
  // RelationInfo carries the sketch handle as its second estimator tier.
  TableSketches* sketches =
      stats_registry_.RegisterTable(table->name(), table->schema());
  if (auto info = context_.GetMutable(table->name()); info.ok()) {
    (*info)->sketches = sketches;
  }
  relations_[ToLower(name)] = std::move(rel);
  if (WalEnabled()) {
    WalCreateTable rec{table->name(), table->schema()};
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kCreateTable, rec.Encode()));
  }
  return table;
}

Result<Oid> Database::Insert(const std::string& table, Tuple tuple) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  StampNextLsn();
  INSIGHT_ASSIGN_OR_RETURN(Oid oid, t->Insert(tuple));
  if (stats_internal::Enabled()) {
    if (TableSketches* s = stats_registry_.Find(table)) s->OnInsert(tuple);
  }
  if (WalEnabled()) {
    WalInsert rec{t->name(), oid, std::move(tuple)};
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kInsert, rec.Encode()));
  }
  return oid;
}

Status Database::DeleteTuple(const std::string& table, Oid oid) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  StampNextLsn();
  INSIGHT_RETURN_NOT_OK(DeleteTupleImpl(table, oid));
  if (WalEnabled()) {
    WalDelete rec{t->name(), oid};
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kDelete, rec.Encode()));
  }
  return Status::OK();
}

Status Database::DeleteTupleImpl(const std::string& table, Oid oid) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  INSIGHT_ASSIGN_OR_RETURN(SummaryManager * mgr, GetManager(table));
  // Capture the doomed tuple first (it is invisible after Delete) so the
  // sketches can subtract its values once the delete has succeeded.
  TableSketches* sketches = nullptr;
  Tuple doomed;
  if (stats_internal::Enabled()) {
    sketches = stats_registry_.Find(table);
    if (sketches != nullptr) {
      Transaction* txn = CurrentTxn();
      auto old =
          t->Get(oid, txn != nullptr ? txn->snapshot() : Snapshot::Latest());
      if (old.ok()) {
        doomed = std::move(*old);
      } else {
        sketches = nullptr;
      }
    }
  }
  INSIGHT_RETURN_NOT_OK(mgr->OnTupleDeleted(oid));
  INSIGHT_RETURN_NOT_OK(t->Delete(oid));
  if (sketches != nullptr) sketches->OnDelete(doomed);
  return Status::OK();
}

Status Database::CreateColumnIndex(const std::string& table,
                                   const std::string& column) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  StampNextLsn();
  INSIGHT_RETURN_NOT_OK(t->CreateColumnIndex(column));
  if (WalEnabled()) {
    WalCreateIndex rec{t->name(), column};
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kCreateIndex, rec.Encode()));
  }
  return Status::OK();
}

Result<SummaryManager*> Database::GetManager(const std::string& table) {
  auto it = relations_.find(ToLower(table));
  if (it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  return it->second.mgr.get();
}

Result<const SummaryBTree*> Database::GetSummaryIndex(
    const std::string& table, const std::string& instance) {
  auto it = relations_.find(ToLower(table));
  if (it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  auto idx = it->second.indexes.find(ToLower(instance));
  if (idx == it->second.indexes.end()) {
    return Status::NotFound("no summary index on " + table + "." + instance);
  }
  return idx->second.get();
}

Result<const SnippetKeywordIndex*> Database::GetKeywordIndex(
    const std::string& table, const std::string& instance) {
  auto it = relations_.find(ToLower(table));
  if (it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  auto idx = it->second.keyword_indexes.find(ToLower(instance));
  if (idx == it->second.keyword_indexes.end()) {
    return Status::NotFound("no keyword index on " + table + "." + instance);
  }
  return idx->second.get();
}

Status Database::DefineInstance(SummaryInstance instance) {
  const std::string key = ToLower(instance.name());
  if (instance_defs_.count(key) > 0) {
    return Status::AlreadyExists("instance " + instance.name());
  }
  instance_defs_.emplace(key, std::move(instance));
  return Status::OK();
}

Status Database::DefineClassifier(
    const std::string& name, std::vector<std::string> labels,
    const std::vector<std::pair<std::string, std::string>>& training) {
  auto model = std::make_shared<NaiveBayesClassifier>(labels);
  for (const auto& [text, label] : training) {
    INSIGHT_RETURN_NOT_OK(model->Train(text, label));
  }
  WalInstanceDef def;
  def.kind = WalInstanceDef::Kind::kClassifier;
  def.name = name;
  def.labels = labels;
  def.training = training;
  INSIGHT_RETURN_NOT_OK(DefineInstance(
      SummaryInstance::Classifier(name, std::move(labels), std::move(model))));
  // Journal the *parameters*: retraining Naive Bayes from the same seed
  // pairs is deterministic, so replay re-derives an equivalent instance.
  instance_def_payloads_.emplace_back(ToLower(name), def.Encode());
  return LogOp(WalRecordType::kDefineInstance,
               instance_def_payloads_.back().second);
}

Status Database::DefineSnippet(const std::string& name,
                               SnippetSummarizer::Options options) {
  INSIGHT_RETURN_NOT_OK(
      DefineInstance(SummaryInstance::Snippet(name, options)));
  WalInstanceDef def;
  def.kind = WalInstanceDef::Kind::kSnippet;
  def.name = name;
  def.snippet_min_chars = options.min_chars;
  def.snippet_max_chars = options.max_snippet_chars;
  instance_def_payloads_.emplace_back(ToLower(name), def.Encode());
  return LogOp(WalRecordType::kDefineInstance,
               instance_def_payloads_.back().second);
}

Status Database::DefineCluster(const std::string& name,
                               double min_similarity) {
  INSIGHT_RETURN_NOT_OK(
      DefineInstance(SummaryInstance::Cluster(name, min_similarity)));
  WalInstanceDef def;
  def.kind = WalInstanceDef::Kind::kCluster;
  def.name = name;
  def.cluster_min_similarity = min_similarity;
  instance_def_payloads_.emplace_back(ToLower(name), def.Encode());
  return LogOp(WalRecordType::kDefineInstance,
               instance_def_payloads_.back().second);
}

Status Database::LinkInstance(const std::string& table,
                              const std::string& instance, bool indexable) {
  StampNextLsn();
  auto rel_it = relations_.find(ToLower(table));
  if (rel_it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  auto def_it = instance_defs_.find(ToLower(instance));
  if (def_it == instance_defs_.end()) {
    return Status::NotFound("no instance definition " + instance);
  }
  if (indexable && def_it->second.type() == SummaryType::kCluster) {
    // Checked before linking so a failed ALTER leaves no partial state.
    return Status::NotImplemented(
        "no indexing scheme for Cluster-type instances");
  }
  INSIGHT_RETURN_NOT_OK(rel_it->second.mgr->LinkInstance(def_it->second));
  // Per-label sketch maintenance subscribes alongside the indexes; the
  // same subscription replays at recovery, so a recovered or promoted
  // node keeps warm label sketches without extra machinery.
  stats_registry_.AttachInstance(table, rel_it->second.mgr.get(),
                                 def_it->second.id());
  if (indexable) {
    // INDEXABLE builds the index matching the instance family:
    // Summary-BTree for classifiers (Section 4), the inverted keyword
    // index for snippet instances (extension).
    if (def_it->second.type() == SummaryType::kClassifier) {
      INSIGHT_ASSIGN_OR_RETURN(
          auto index, SummaryBTree::Create(&storage_, &pool_,
                                           rel_it->second.mgr.get(),
                                           def_it->second.name(),
                                           SummaryBTree::Options{}));
      INSIGHT_RETURN_NOT_OK(context_.RegisterSummaryIndex(
          table, def_it->second.name(), index.get()));
      rel_it->second.indexes[ToLower(instance)] = std::move(index);
    } else if (def_it->second.type() == SummaryType::kSnippet) {
      INSIGHT_ASSIGN_OR_RETURN(
          auto index, SnippetKeywordIndex::Create(
                          &storage_, &pool_, rel_it->second.mgr.get(),
                          def_it->second.name(),
                          SnippetKeywordIndex::Options{}));
      INSIGHT_RETURN_NOT_OK(context_.RegisterKeywordIndex(
          table, def_it->second.name(), index.get()));
      rel_it->second.keyword_indexes[ToLower(instance)] = std::move(index);
    }
  }
  if (WalEnabled()) {
    WalLinkInstance rec{rel_it->second.mgr->base()->name(),
                        def_it->second.name(), indexable};
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kLinkInstance, rec.Encode()));
  }
  return Status::OK();
}

Status Database::UnlinkInstance(const std::string& table,
                                const std::string& instance) {
  StampNextLsn();
  auto rel_it = relations_.find(ToLower(table));
  if (rel_it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  // Resolve the instance id before the unlink destroys it; the sketch
  // subscription detaches *after* the unlink so the object-strip events
  // still reach the per-label sketches.
  uint32_t sketch_detach_id = 0;
  bool have_sketch_detach = false;
  if (auto inst = rel_it->second.mgr->FindInstance(instance); inst.ok()) {
    sketch_detach_id = (*inst)->id();
    have_sketch_detach = true;
  }
  INSIGHT_RETURN_NOT_OK(rel_it->second.mgr->UnlinkInstance(instance));
  if (have_sketch_detach) {
    stats_registry_.DetachInstance(table, sketch_detach_id);
  }
  // Tear down the instance's indexes: planner registrations first, then
  // the objects themselves (their destructors drop the maintenance
  // subscriptions).
  INSIGHT_RETURN_NOT_OK(context_.UnregisterInstanceIndexes(table, instance));
  const std::string key = ToLower(instance);
  rel_it->second.indexes.erase(key);
  rel_it->second.baseline_indexes.erase(key);
  rel_it->second.keyword_indexes.erase(key);
  if (WalEnabled()) {
    WalUnlinkInstance rec{rel_it->second.mgr->base()->name(), instance};
    INSIGHT_RETURN_NOT_OK(
        LogOp(WalRecordType::kUnlinkInstance, rec.Encode()));
  }
  return Status::OK();
}

Status Database::AddBaselineIndex(const std::string& table,
                                  const std::string& instance) {
  auto rel_it = relations_.find(ToLower(table));
  if (rel_it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  INSIGHT_ASSIGN_OR_RETURN(
      auto index,
      BaselineClassifierIndex::Create(&catalog_, rel_it->second.mgr.get(),
                                      instance,
                                      BaselineClassifierIndex::Options{}));
  INSIGHT_RETURN_NOT_OK(
      context_.RegisterBaselineIndex(table, instance, index.get()));
  rel_it->second.baseline_indexes[ToLower(instance)] = std::move(index);
  return Status::OK();
}

Result<AnnId> Database::Annotate(const std::string& table,
                                 const std::string& text,
                                 const std::vector<AnnotationTarget>& targets) {
  INSIGHT_ASSIGN_OR_RETURN(SummaryManager * mgr, GetManager(table));
  StampNextLsn();
  INSIGHT_ASSIGN_OR_RETURN(AnnId ann, mgr->AddAnnotation(text, targets));
  if (WalEnabled()) {
    WalAnnotate rec;
    rec.table = mgr->base()->name();
    rec.ann_id = ann;
    rec.text = text;
    for (const AnnotationTarget& t : targets) {
      rec.targets.emplace_back(t.oid, t.column_mask);
    }
    INSIGHT_RETURN_NOT_OK(LogOp(WalRecordType::kAnnotate, rec.Encode()));
  }
  return ann;
}

Status Database::RemoveAnnotation(const std::string& table, AnnId ann) {
  INSIGHT_ASSIGN_OR_RETURN(SummaryManager * mgr, GetManager(table));
  StampNextLsn();
  INSIGHT_RETURN_NOT_OK(mgr->RemoveAnnotation(ann));
  if (WalEnabled()) {
    WalRemoveAnnotation rec{mgr->base()->name(), ann};
    INSIGHT_RETURN_NOT_OK(
        LogOp(WalRecordType::kRemoveAnnotation, rec.Encode()));
  }
  return Status::OK();
}

Result<std::vector<Annotation>> Database::ZoomIn(const std::string& table,
                                                 Oid oid,
                                                 const std::string& instance,
                                                 const std::string& label,
                                                 int rep_index,
                                                 const Snapshot& snap) {
  auto rel_it = relations_.find(ToLower(table));
  if (rel_it == relations_.end()) {
    return Status::NotFound("no annotated relation " + table);
  }
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Annotation> all,
                           rel_it->second.store->ForTuple(oid, snap));
  if (instance.empty()) return all;
  // Restrict to the annotations contributing to one summary object,
  // optionally to one representative of it.
  INSIGHT_ASSIGN_OR_RETURN(SummarySet set,
                           rel_it->second.mgr->GetSummaries(oid, snap));
  const SummaryObject* obj = set.GetSummaryObject(instance);
  if (obj == nullptr) return std::vector<Annotation>{};
  std::set<AnnId> member_ids;
  for (size_t i = 0; i < obj->elements.size(); ++i) {
    if (rep_index >= 0 && i != static_cast<size_t>(rep_index)) continue;
    if (!label.empty() && !EqualsIgnoreCase(obj->reps[i].text, label)) {
      continue;
    }
    for (const ElementRef& e : obj->elements[i]) member_ids.insert(e.ann_id);
  }
  std::vector<Annotation> out;
  for (Annotation& ann : all) {
    if (member_ids.count(ann.id) > 0) out.push_back(std::move(ann));
  }
  return out;
}

Status Database::Analyze(const std::string& table) {
  return context_.Analyze(table);
}

// ---------- Durability ----------

Status Database::LogOp(WalRecordType type, std::string payload) {
  if (!WalEnabled()) return Status::OK();
  // Every append runs under the write gate (statements already hold it;
  // this covers the programmatic API): a checkpoint replacing the log
  // file refuses appends meanwhile.
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  if (Transaction* txn = CurrentTxn()) {
    // Transactional op: wrapped so recovery can tie it to its commit
    // record. No per-op force — durability comes from the commit record —
    // and no auto-checkpoint from inside the transaction (it is taken
    // after commit instead).
    WalTxnOp op{txn->id(), type, std::move(payload)};
    INSIGHT_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kTxnOp, op.Encode()).status());
    ++ops_since_checkpoint_;
    return Status::OK();
  }
  INSIGHT_ASSIGN_OR_RETURN(Lsn lsn, wal_->Append(type, std::move(payload)));
  if (options_.wal_sync == WalSyncMode::kEveryOp) {
    INSIGHT_RETURN_NOT_OK(wal_->Commit(lsn));
  }
  ++ops_since_checkpoint_;
  return MaybeAutoCheckpoint();
}

Status Database::MaybeAutoCheckpoint() {
  if (options_.checkpoint_every_ops == 0 || in_checkpoint_) {
    return Status::OK();
  }
  if (CurrentTxn() != nullptr) return Status::OK();
  if (ops_since_checkpoint_ < options_.checkpoint_every_ops) {
    return Status::OK();
  }
  return Checkpoint();
}

Status Database::WalSync() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status Database::BuildSnapshot(LogManager::RewriteWriter* out) {
  std::string bytes;
  PutU64(&bytes, PeekNextAnnId());
  INSIGHT_RETURN_NOT_OK(out->AppendPayload(bytes));
  auto emit = [&](WalRecordType type, std::string_view payload) {
    bytes.clear();
    PutSnapshotOp(&bytes, type, payload);
    return out->AppendPayload(bytes);
  };

  // Instance definitions first: links reference them.
  for (const auto& [name, payload] : instance_def_payloads_) {
    INSIGHT_RETURN_NOT_OK(emit(WalRecordType::kDefineInstance, payload));
  }

  for (const auto& [key, rel] : relations_) {
    Table* table = rel.mgr->base();
    const std::string& name = table->name();
    INSIGHT_RETURN_NOT_OK(
        emit(WalRecordType::kCreateTable,
             WalCreateTable{name, table->schema()}.Encode()));
    for (const std::string& column : table->IndexedColumns()) {
      INSIGHT_RETURN_NOT_OK(emit(WalRecordType::kCreateIndex,
                                 WalCreateIndex{name, column}.Encode()));
    }
    // Links before data: with the instances in place, restoring the
    // annotations below re-runs summarization and rebuilds summary
    // storage (annotations that historically predate a link get
    // summarized on restore — see DESIGN.md on this divergence).
    for (const SummaryInstance& inst : rel.mgr->instances()) {
      const std::string inst_key = ToLower(inst.name());
      const bool indexable = rel.indexes.count(inst_key) > 0 ||
                             rel.keyword_indexes.count(inst_key) > 0;
      INSIGHT_RETURN_NOT_OK(
          emit(WalRecordType::kLinkInstance,
               WalLinkInstance{name, inst.name(), indexable}.Encode()));
    }
    // Latest-committed snapshot: open transactions' uncommitted versions
    // carry txn stamps and are excluded; if they commit, their wrapped
    // ops are still in the log and replay after this checkpoint.
    Table::Iterator it = table->Scan();
    Oid oid;
    Tuple tuple;
    while (it.Next(&oid, &tuple)) {
      INSIGHT_RETURN_NOT_OK(emit(WalRecordType::kInsert,
                                 WalInsert{name, oid, tuple}.Encode()));
    }
    INSIGHT_RETURN_NOT_OK(
        rel.store->ForEachAnnotation([&](const Annotation& ann) {
          WalAnnotate rec;
          rec.table = name;
          rec.ann_id = ann.id;
          rec.text = ann.text;
          for (const AnnotationTarget& t : ann.targets) {
            rec.targets.emplace_back(t.oid, t.column_mask);
          }
          return emit(WalRecordType::kAnnotate, rec.Encode());
        }));
  }
  // Sketch image last: every table it names exists by now, and restoring
  // it after the inserts/annotations replayed above overwrites their
  // incremental updates with the exact checkpointed state (idempotent).
  return emit(WalRecordType::kStatsSketch,
              WalStatsSketch{stats_registry_.Serialize()}.Encode());
}

Lsn Database::LogRetentionFloor(Lsn txn_floor) const {
  return log_retention_ ? std::min(txn_floor, log_retention_()) : txn_floor;
}

void Database::SetLogRetention(std::function<Lsn()> floor) {
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  log_retention_ = std::move(floor);
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("checkpoint needs an attached WAL");
  }
  if (role() == Role::kReplica) {
    // Its log mirrors the primary's LSNs: it checkpoints when a shipped
    // kCheckpointEnd arrives (ApplyReplicated), never on its own.
    return Status::InvalidArgument("a replica cannot checkpoint on its own");
  }
  // Quiesce writers (recursive, so a writer-triggered auto-checkpoint
  // re-enters): no statement is mid-apply while state is serialized, and
  // no record is appended while the log file is replaced.
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  if (in_checkpoint_) return Status::OK();
  in_checkpoint_ = true;
  const auto start = std::chrono::steady_clock::now();
  const Lsn begin = wal_->next_lsn();
  Lsn txn_floor = begin;
  for (const auto& [txn_id, lsn] : open_txn_begin_lsns_) {
    txn_floor = std::min(txn_floor, lsn);
  }
  // The new log keeps what recovery needs past this checkpoint (records
  // of transactions open across it) and what subscribed replicas have
  // not acknowledged, then the snapshot, streamed in as it is built.
  Status result = wal_->Rewrite(
      LogRetentionFloor(txn_floor),
      [&](LogManager::RewriteWriter* out) -> Status {
        INSIGHT_RETURN_NOT_OK(
            out->BeginRecord(WalRecordType::kCheckpointBegin));
        INSIGHT_RETURN_NOT_OK(BuildSnapshot(out));
        INSIGHT_RETURN_NOT_OK(out->EndRecord());
        INSIGHT_CRASH_POINT("checkpoint_begin");
        // Page files are derived state (Open deletes them); flushing here
        // turns the dirty frames a checkpoint window accumulated into
        // clean ones while writers are quiesced anyway.
        INSIGHT_RETURN_NOT_OK(pool_.FlushAll());
        INSIGHT_RETURN_NOT_OK(storage_.SyncAll());
        INSIGHT_CRASH_POINT("checkpoint_after_flush");
        return out->Append(WalRecordType::kCheckpointEnd,
                           WalCheckpointEnd{begin, txn_floor}.Encode());
      });
  in_checkpoint_ = false;
  if (result.ok()) {
    INSIGHT_CRASH_POINT("checkpoint_end");
    ops_since_checkpoint_ = 0;
    EngineMetrics::Get().checkpoint_micros->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    // Writers are still quiesced: a natural window to tighten any zone
    // maps loosened by deletes/aborts since the last checkpoint. Purely
    // derived state, so a failure here does not void the checkpoint.
    result = MaintainZoneMaps();
  }
#if defined(__GLIBC__)
  // The snapshot streams through a bounded buffer, but building it still
  // allocates and frees a burst of small blocks (the link list, one
  // encoded op per row and annotation). glibc keeps freed heap it could
  // return, so the resident set would carry each checkpoint's peak by an
  // amount that depends on where its blocks landed. Hand it back.
  ::malloc_trim(0);
#endif
  return result;
}

Status Database::MaintainZoneMaps() {
  for (auto& [key, rel] : relations_) {
    INSIGHT_RETURN_NOT_OK(rel.mgr->base()->MaintainZoneMaps());
  }
  return Status::OK();
}

// ---------- Replication ----------

Status Database::EnterReplicaMode() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "replica mode needs a journaled database (Open a directory)");
  }
  if (role() == Role::kReplica) return Status::OK();
  // In-flight transactions of the primary may span this replica's local
  // log: recovery buffered-but-skipped their ops, so rebuild the same
  // buffers for the live stream to resume into.
  INSIGHT_ASSIGN_OR_RETURN(std::vector<WalRecord> records, wal_->ReadAll());
  streaming_replay_ = StreamingReplay();
  INSIGHT_RETURN_NOT_OK(streaming_replay_.Prime(records));
  // Suppress journaling: every shipped record is appended verbatim, and
  // the local-transaction wrappers around apply units must not re-log.
  replaying_ = true;
  AdvanceAppliedLsn(wal_->durable_lsn());
  role_.store(Role::kReplica, std::memory_order_release);
  return Status::OK();
}

Status Database::Promote() {
  if (role() == Role::kPrimary) return Status::OK();
  role_.store(Role::kPrimary, std::memory_order_release);
  replaying_ = false;
  // Drop buffered ops of transactions whose commit never shipped: the
  // local log holds their kTxnOp records but no commit record, so a
  // restart of this node discards them identically.
  streaming_replay_ = StreamingReplay();
  applied_cv_.notify_all();  // Release wait-for-lsn readers: we ARE the
                             // frontier now.
  return Status::OK();
}

Status Database::ApplyReplicated(const WalRecord& rec) {
  if (role() != Role::kReplica) {
    return Status::InvalidArgument("not a replica");
  }
  const Lsn expected = wal_->next_lsn();
  if (rec.lsn != expected) {
    return Status::Corruption(
        "replication stream out of order: got LSN " +
        std::to_string(rec.lsn) + ", local log expects " +
        std::to_string(expected));
  }
  // Verbatim append keeps the local log a byte-equal window of the
  // primary's, so restart recovery and later promotion need no special
  // cases. WAL-before-data still holds: pages dirtied by the apply below
  // are stamped with this LSN and force the log on flush.
  INSIGHT_RETURN_NOT_OK(wal_->Append(rec.type, rec.payload).status());
  if (rec.type == WalRecordType::kCheckpointEnd) {
    // The primary sealed a checkpoint: drop the log prefix it supersedes
    // the same way the primary did, keeping what this node's own
    // subscribers have not acknowledged.
    INSIGHT_ASSIGN_OR_RETURN(WalCheckpointEnd end,
                             WalCheckpointEnd::Decode(rec.payload));
    std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
    return wal_->Rewrite(LogRetentionFloor(end.txn_floor_lsn), nullptr);
  }
  pool_.SetCurrentLsn(rec.lsn);
  std::vector<StreamingReplay::Unit> units;
  INSIGHT_RETURN_NOT_OK(streaming_replay_.Feed(rec, &units));
  for (const StreamingReplay::Unit& unit : units) {
    INSIGHT_RETURN_NOT_OK(ApplyReplicatedUnit(unit));
  }
  return Status::OK();
}

Status Database::ApplyReplicatedUnit(const StreamingReplay::Unit& unit) {
  if (unit.ddl) {
    // DDL restructures catalog objects readers borrow pointers to: same
    // exclusive gate its primary-side original held.
    std::unique_lock<std::shared_mutex> ddl_gate(ddl_mu_);
    std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
    for (const StreamingReplay::Op& op : unit.ops) {
      INSIGHT_RETURN_NOT_OK(
          RecoveryManager::ApplyOne(op.type, op.payload, this));
    }
    return Status::OK();
  }
  // DML unit: wrap in a local transaction so every row/annotation/index
  // version carries one commit timestamp — concurrent replica readers
  // see the whole primary commit or none of it. replaying_ keeps the
  // transaction hooks from re-journaling.
  std::shared_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  INSIGHT_ASSIGN_OR_RETURN(Transaction * txn, txn_mgr_.Begin());
  const uint64_t txn_id = txn->id();
  Status applied = [&]() -> Status {
    TxnScope scope(txn);
    for (const StreamingReplay::Op& op : unit.ops) {
      INSIGHT_RETURN_NOT_OK(
          RecoveryManager::ApplyOne(op.type, op.payload, this));
    }
    return Status::OK();
  }();
  if (!applied.ok()) {
    txn_mgr_.Abort(txn_id).ok();  // Surface the apply error, not the undo's.
    return applied;
  }
  return txn_mgr_.Commit(txn_id);
}

void Database::AdvanceAppliedLsn(Lsn lsn) {
  {
    std::lock_guard<std::mutex> lk(applied_mu_);
    if (lsn <= applied_lsn_.load(std::memory_order_relaxed)) return;
    applied_lsn_.store(lsn, std::memory_order_release);
  }
  applied_cv_.notify_all();
}

bool Database::WaitForAppliedLsn(Lsn lsn,
                                 std::chrono::milliseconds timeout) {
  if (role() == Role::kPrimary) return true;  // Source of truth.
  if (applied_lsn() >= lsn) return true;
  std::unique_lock<std::mutex> lk(applied_mu_);
  return applied_cv_.wait_for(lk, timeout, [&] {
    return role() == Role::kPrimary ||
           applied_lsn_.load(std::memory_order_acquire) >= lsn;
  });
}

// ---------- ReplayTarget ----------

Status Database::ReplayAnnIdFloor(uint64_t next_ann_id) {
  EnsureAnnIdAtLeast(next_ann_id);
  return Status::OK();
}

Status Database::ReplayCreateTable(const WalCreateTable& op) {
  return CreateTable(op.table, op.schema).status();
}

Status Database::ReplayCreateIndex(const WalCreateIndex& op) {
  return CreateColumnIndex(op.table, op.column);
}

Status Database::ReplayInsert(const WalInsert& op) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(op.table));
  INSIGHT_RETURN_NOT_OK(t->InsertWithOid(op.oid, op.tuple));
  // Replay rebuilds the online statistics as derived state — recovery and
  // replica apply both route through here, so a recovered database and a
  // promoted replica plan with warm sketches.
  if (stats_internal::Enabled()) {
    if (TableSketches* s = stats_registry_.Find(op.table)) {
      s->OnInsert(op.tuple);
    }
  }
  return Status::OK();
}

Status Database::ReplayDelete(const WalDelete& op) {
  return DeleteTupleImpl(op.table, op.oid);
}

Status Database::ReplayDefineInstance(const WalInstanceDef& op) {
  switch (op.kind) {
    case WalInstanceDef::Kind::kClassifier:
      return DefineClassifier(op.name, op.labels, op.training);
    case WalInstanceDef::Kind::kSnippet: {
      SnippetSummarizer::Options options;
      options.min_chars = static_cast<size_t>(op.snippet_min_chars);
      options.max_snippet_chars = static_cast<size_t>(op.snippet_max_chars);
      return DefineSnippet(op.name, options);
    }
    case WalInstanceDef::Kind::kCluster:
      return DefineCluster(op.name, op.cluster_min_similarity);
  }
  return Status::Corruption("wal: unknown instance kind");
}

Status Database::ReplayLinkInstance(const WalLinkInstance& op) {
  return LinkInstance(op.table, op.instance, op.indexable);
}

Status Database::ReplayUnlinkInstance(const WalUnlinkInstance& op) {
  return UnlinkInstance(op.table, op.instance);
}

Status Database::ReplayAnnotate(const WalAnnotate& op) {
  INSIGHT_ASSIGN_OR_RETURN(SummaryManager * mgr, GetManager(op.table));
  std::vector<AnnotationTarget> targets;
  targets.reserve(op.targets.size());
  for (const auto& [oid, mask] : op.targets) {
    targets.push_back(AnnotationTarget{static_cast<Oid>(oid), mask});
  }
  return mgr->AddAnnotationWithId(op.ann_id, op.text, targets);
}

Status Database::ReplayRemoveAnnotation(const WalRemoveAnnotation& op) {
  INSIGHT_ASSIGN_OR_RETURN(SummaryManager * mgr, GetManager(op.table));
  return mgr->RemoveAnnotation(op.ann_id);
}

Status Database::ReplayStatsSketch(const WalStatsSketch& op) {
  return stats_registry_.Restore(op.image);
}

Result<std::vector<Row>> Database::Run(LogicalPtr plan) {
  INSIGHT_ASSIGN_OR_RETURN(OpPtr op, Plan(std::move(plan)));
  return CollectRows(op.get());
}

Result<OpPtr> Database::Plan(LogicalPtr plan) {
  Optimizer optimizer(&context_, optimizer_options_);
  return optimizer.Optimize(std::move(plan));
}

// ---------- Statement orchestration ----------

Status Database::CheckStatementSize(const std::string& sql) const {
  if (sql.size() > options_.max_statement_bytes) {
    return Status::ResourceExhausted(
        "statement of " + std::to_string(sql.size()) +
        " bytes exceeds max_statement_bytes=" +
        std::to_string(options_.max_statement_bytes));
  }
  return Status::OK();
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  // One embedded session: statements from concurrent one-arg callers
  // execute one at a time against the shared handle. Concurrency is the
  // two-arg API's job (each session owns its handle).
  std::lock_guard<std::mutex> lk(embedded_mu_);
  return Execute(sql, &embedded_txn_);
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      uint64_t* txn_handle) {
  INSIGHT_RETURN_NOT_OK(CheckStatementSize(sql));
  INSIGHT_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (role() == Role::kReplica &&
      stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain &&
      stmt.kind != Statement::Kind::kZoomIn) {
    // Redirect error: routed clients recognize kReadOnly and resend the
    // statement to the primary. BEGIN is rejected too — explicit
    // transactions exist to write.
    return Status::ReadOnly(
        "this node is a read-only replica; redirect writes to the primary");
  }
  switch (stmt.kind) {
    case Statement::Kind::kBegin:
      return ExecuteBegin(txn_handle);
    case Statement::Kind::kCommit:
      return ExecuteCommit(txn_handle);
    case Statement::Kind::kRollback:
      return ExecuteRollback(txn_handle);
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
    case Statement::Kind::kZoomIn:
      return ExecuteRead(stmt, sql,
                         stmt.kind == Statement::Kind::kExplain
                             ? SelectMode::kExplain
                             : SelectMode::kRun,
                         txn_handle);
    default:
      return ExecuteWrite(stmt, txn_handle);
  }
}

Result<QueryResult> Database::ExecuteBegin(uint64_t* txn_handle) {
  if (*txn_handle != 0) {
    if (txn_mgr_.Find(*txn_handle) != nullptr) {
      return Status::InvalidArgument(
          "transaction already open; COMMIT or ROLLBACK first");
    }
    *txn_handle = 0;  // Stale handle of an auto-aborted transaction.
  }
  INSIGHT_ASSIGN_OR_RETURN(Transaction * txn, txn_mgr_.Begin());
  *txn_handle = txn->id();
  QueryResult result;
  result.message = "Transaction " + std::to_string(txn->id()) + " started";
  return result;
}

Result<QueryResult> Database::ExecuteCommit(uint64_t* txn_handle) {
  if (*txn_handle == 0) {
    return Status::InvalidArgument("no open transaction");
  }
  const uint64_t id = *txn_handle;
  *txn_handle = 0;
  if (txn_mgr_.Find(id) == nullptr) {
    return Status::Aborted("transaction " + std::to_string(id) +
                           " was already aborted; retry from BEGIN");
  }
  std::shared_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  INSIGHT_RETURN_NOT_OK(txn_mgr_.Commit(id));
  INSIGHT_RETURN_NOT_OK(MaybeAutoCheckpoint());
  QueryResult result;
  result.message = "Transaction " + std::to_string(id) + " committed";
  return result;
}

Result<QueryResult> Database::ExecuteRollback(uint64_t* txn_handle) {
  if (*txn_handle == 0) {
    return Status::InvalidArgument("no open transaction");
  }
  const uint64_t id = *txn_handle;
  *txn_handle = 0;
  QueryResult result;
  result.message = "Transaction " + std::to_string(id) + " rolled back";
  if (txn_mgr_.Find(id) == nullptr) {
    // Already auto-aborted after a conflict: ROLLBACK acknowledges it.
    return result;
  }
  std::shared_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  INSIGHT_RETURN_NOT_OK(txn_mgr_.Abort(id));
  return result;
}

Result<QueryResult> Database::ExecuteRead(const Statement& stmt,
                                          const std::string& sql,
                                          SelectMode mode,
                                          uint64_t* txn_handle) {
  std::shared_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  if (stmt.kind != Statement::Kind::kZoomIn) {
    const auto& from = stmt.select->from;
    if (std::any_of(from.begin(), from.end(), [&](const auto& entry) {
          return context_.NeedsAnalyze(entry.table);
        })) {
      ddl_gate.unlock();
      INSIGHT_RETURN_NOT_OK(AnalyzeFlagged(*stmt.select));
      ddl_gate.lock();
    }
  }
  Snapshot snap;
  SnapshotLease lease;
  if (*txn_handle != 0) {
    Transaction* txn = txn_mgr_.Find(*txn_handle);
    if (txn == nullptr) {
      const uint64_t id = *txn_handle;
      *txn_handle = 0;
      return Status::Aborted("transaction " + std::to_string(id) +
                             " was aborted; retry from BEGIN");
    }
    snap = txn->snapshot();  // The transaction already holds a lease.
  } else {
    lease = txn_mgr_.BeginLease(&snap);
  }
  if (stmt.kind == Statement::Kind::kZoomIn) {
    QueryResult result;
    INSIGHT_ASSIGN_OR_RETURN(
        result.annotations,
        ZoomIn(stmt.table, stmt.tuple_oid, stmt.instance, stmt.zoom_label,
               stmt.zoom_rep_index, snap));
    return result;
  }
  // Planning reads the live statistics under their own shared lock, and
  // execution reads at `snap`: a read never waits for a writer.
  return executor_.ExecuteSelect(*stmt.select, mode, sql, snap);
}

Status Database::AnalyzeFlagged(const SelectStatement& select) {
  // Cardinality feedback flagged a table this statement reads: re-ANALYZE
  // it first, under the gates the ANALYZE statement takes.
  std::unique_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  for (const SelectStatement::FromTable& from : select.from) {
    INSIGHT_RETURN_NOT_OK(context_.AnalyzeFlagged(
        from.table, SketchPolicy{optimizer_options_.use_sketch_statistics}));
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteWrite(const Statement& stmt,
                                           uint64_t* txn_handle) {
  const bool is_dml = stmt.kind == Statement::Kind::kInsert ||
                      stmt.kind == Statement::Kind::kAnnotate;
  if (!is_dml) {
    // DDL restructures catalog objects concurrent statements borrow raw
    // pointers to: exclusive DDL gate, autocommit only, plain WAL records
    // (schema changes carry no row versions to roll back).
    if (*txn_handle != 0 && txn_mgr_.Find(*txn_handle) != nullptr) {
      return Status::InvalidArgument(
          "DDL statements are not allowed inside a transaction; COMMIT or "
          "ROLLBACK first");
    }
    std::unique_lock<std::shared_mutex> ddl_gate(ddl_mu_);
    std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
    return executor_.ExecuteMutation(stmt);
  }

  std::shared_lock<std::shared_mutex> ddl_gate(ddl_mu_);
  std::lock_guard<std::recursive_mutex> write_gate(txn_mgr_.write_mu());
  Transaction* txn = nullptr;
  const bool autocommit = (*txn_handle == 0);
  if (autocommit) {
    INSIGHT_ASSIGN_OR_RETURN(txn, txn_mgr_.Begin());
  } else {
    txn = txn_mgr_.Find(*txn_handle);
    if (txn == nullptr) {
      const uint64_t id = *txn_handle;
      *txn_handle = 0;
      return Status::Aborted("transaction " + std::to_string(id) +
                             " was aborted; retry from BEGIN");
    }
  }
  const uint64_t txn_id = txn->id();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    TxnScope scope(txn);
    return executor_.ExecuteMutation(stmt);
  }();
  if (!result.ok()) {
    // A failed statement poisons the transaction — partial row effects
    // must not commit — so roll the whole thing back, explicit or not.
    Status aborted = txn_mgr_.Abort(txn_id);
    *txn_handle = 0;
    if (!aborted.ok()) return aborted;
    return result.status();
  }
  if (autocommit) {
    INSIGHT_RETURN_NOT_OK(txn_mgr_.Commit(txn_id));
  }
  INSIGHT_RETURN_NOT_OK(MaybeAutoCheckpoint());
  return result;
}

Result<std::string> Database::Explain(const std::string& sql) {
  return ExplainRead(sql, SelectMode::kExplain);
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql) {
  return ExplainRead(sql, SelectMode::kExplainAnalyze);
}

Result<std::string> Database::ExplainRead(const std::string& sql,
                                          SelectMode mode) {
  INSIGHT_RETURN_NOT_OK(CheckStatementSize(sql));
  INSIGHT_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain) {
    return Status::InvalidArgument("can only explain SELECT statements");
  }
  uint64_t no_txn = 0;
  INSIGHT_ASSIGN_OR_RETURN(QueryResult result,
                           ExecuteRead(stmt, sql, mode, &no_txn));
  return std::move(result.message);
}

std::string Database::DumpMetrics() const {
  return MetricsRegistry::Global().ToPrometheus();
}

std::string Database::DumpMetricsJson() const {
  return MetricsRegistry::Global().ToJson();
}

}  // namespace insight
