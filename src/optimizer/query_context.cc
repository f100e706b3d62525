#include "optimizer/query_context.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace insight {

const SummaryBTree* RelationInfo::SummaryIndexFor(
    const std::string& instance) const {
  auto it = summary_indexes.find(ToLower(instance));
  return it == summary_indexes.end() ? nullptr : it->second;
}

const BaselineClassifierIndex* RelationInfo::BaselineIndexFor(
    const std::string& instance) const {
  auto it = baseline_indexes.find(ToLower(instance));
  return it == baseline_indexes.end() ? nullptr : it->second;
}

const SnippetKeywordIndex* RelationInfo::KeywordIndexFor(
    const std::string& instance) const {
  auto it = keyword_indexes.find(ToLower(instance));
  return it == keyword_indexes.end() ? nullptr : it->second;
}

bool RelationInfo::HasInstance(const std::string& instance) const {
  return mgr != nullptr && mgr->FindInstance(instance).ok();
}

bool RelationInfo::SketchTierActive(const SketchPolicy& policy) const {
  if (!policy.use_sketch_statistics || sketches == nullptr ||
      !StatsEnabled()) {
    return false;
  }
  if (!sketches->HasData()) return false;
  if (!stats.has_value()) return true;  // Sketches beat no statistics.
  return sketches->StaleSince(kSketchStalenessThreshold);
}

EstimateSource RelationInfo::Source(const SketchPolicy& policy) const {
  if (SketchTierActive(policy)) return EstimateSource::kSketch;
  if (stats.has_value()) {
    return stats->rebuilt_by_feedback ? EstimateSource::kFeedback
                                      : EstimateSource::kHistogram;
  }
  return EstimateSource::kNone;
}

double RelationInfo::EstimatedRows(const SketchPolicy& policy) const {
  if (SketchTierActive(policy)) {
    return static_cast<double>(std::max<int64_t>(0, sketches->rows()));
  }
  if (stats.has_value()) return static_cast<double>(stats->num_rows);
  return static_cast<double>(table->num_rows());
}

double RelationInfo::EstimatedPages(const SketchPolicy& policy,
                                    double fallback_pages) const {
  if (!stats.has_value()) return std::max(1.0, fallback_pages);
  double pages = static_cast<double>(stats->heap_pages);
  if (SketchTierActive(policy) && stats->num_rows > 0) {
    // Scale the analyzed page count by the row-count drift the sketches
    // observed since that ANALYZE.
    pages *= EstimatedRows(policy) / static_cast<double>(stats->num_rows);
  }
  return std::max(1.0, pages);
}

uint64_t RelationInfo::AnnotatedRows() const {
  return live_stats == nullptr ? 0 : live_stats->AnnotatedRows();
}

double RelationInfo::AnnotatedFraction(const SketchPolicy& policy,
                                       double fallback) const {
  if (SketchTierActive(policy) && mgr != nullptr) {
    const double rows = EstimatedRows(policy);
    if (rows <= 0) return 0.0;
    // Annotated rows ~ the largest per-instance live object count (one
    // object per annotated tuple per instance), as in the live statistics.
    int64_t annotated = 0;
    for (const SummaryInstance& inst : mgr->instances()) {
      annotated = std::max(annotated, sketches->InstanceObjects(inst.name()));
    }
    return std::min(1.0, static_cast<double>(annotated) / rows);
  }
  if (stats.has_value() && stats->num_rows > 0) {
    return std::min(1.0, static_cast<double>(AnnotatedRows()) /
                             static_cast<double>(stats->num_rows));
  }
  return fallback;
}

double RelationInfo::LabelSelectivity(const SketchPolicy& policy,
                                      const std::string& instance,
                                      const std::string& label, CompareOp op,
                                      int64_t constant,
                                      double fallback) const {
  const bool sketch = SketchTierActive(policy);
  if (stats.has_value()) {
    double sel = live_stats == nullptr
                     ? 0
                     : live_stats->EstimateLabelSelectivity(
                           instance, label, op, constant, stats->num_rows);
    if (sketch && stats->num_rows > 0) {
      // The numerator (matching rows) is live-maintained; only the row
      // denominator went stale. Re-divide by the fresh count.
      const double fresh_rows = EstimatedRows(policy);
      if (fresh_rows > 0) {
        sel = std::min(1.0, sel * static_cast<double>(stats->num_rows) /
                                fresh_rows);
      }
    }
    return sel;
  }
  if (sketch && op == CompareOp::kEq) {
    const double fresh_rows = EstimatedRows(policy);
    const int64_t hits = sketches->LabelFrequency(instance, label, constant);
    if (fresh_rows > 0 && hits >= 0) {
      return std::min(1.0, static_cast<double>(hits) / fresh_rows);
    }
  }
  return fallback;
}

double RelationInfo::KeywordSelectivity(const SketchPolicy& policy,
                                        const SummaryFuncExpr& func,
                                        double fallback) const {
  if (!stats.has_value()) return fallback;
  std::optional<double> sel = stats->EstimateKeywordSelectivity(
      func.instance(), func.kind() == SummaryFuncKind::kContainsSingle,
      func.keywords());
  if (!sel.has_value()) return fallback;
  const double fresh_rows = EstimatedRows(policy);
  if (SketchTierActive(policy) && stats->num_rows > 0 && fresh_rows > 0) {
    return std::min(1.0, *sel * static_cast<double>(stats->num_rows) /
                             fresh_rows);
  }
  return *sel;
}

double RelationInfo::ColumnSelectivity(const SketchPolicy& policy,
                                       const std::string& column,
                                       CompareOp op, const Value& constant,
                                       double fallback) const {
  const bool sketch = SketchTierActive(policy);
  if (sketch && op == CompareOp::kEq) {
    // Count-Min answers point frequencies directly and stays fresh on
    // every write — preferred over a stale histogram's uniformity guess.
    const double fresh_rows = EstimatedRows(policy);
    const int64_t hits = sketches->ColumnFrequency(column, constant);
    if (fresh_rows > 0 && hits >= 0) {
      return std::min(1.0, static_cast<double>(hits) / fresh_rows);
    }
  }
  if (stats.has_value()) {
    double sel = stats->EstimateColumnSelectivity(column, op, constant);
    if (sketch && stats->num_rows > 0) {
      const double fresh_rows = EstimatedRows(policy);
      if (fresh_rows > 0) {
        sel = std::min(1.0, sel * static_cast<double>(stats->num_rows) /
                                fresh_rows);
      }
    }
    return sel;
  }
  return fallback;
}

uint64_t RelationInfo::LabelDistinctEst(const SketchPolicy& policy,
                                        const std::string& instance,
                                        const std::string& label) const {
  if (SketchTierActive(policy)) {
    const double d = sketches->LabelDistinct(instance, label);
    if (d >= 1) return static_cast<uint64_t>(d);
  }
  if (stats.has_value() && live_stats != nullptr) {
    const std::optional<LabelStats> label_stats =
        live_stats->Label(instance, label);
    if (label_stats.has_value()) return label_stats->num_distinct;
  }
  return 1;
}

uint64_t RelationInfo::ColumnDistinctEst(const SketchPolicy& policy,
                                         const std::string& column) const {
  if (SketchTierActive(policy)) {
    const double d = sketches->ColumnDistinct(column);
    if (d >= 1) return static_cast<uint64_t>(d);
  }
  if (stats.has_value()) return stats->ColumnDistinct(column);
  return 1;
}

Status QueryContext::RegisterRelation(Table* table, SummaryManager* mgr) {
  const std::string key = ToLower(table->name());
  if (relations_.count(key) > 0) {
    return Status::AlreadyExists("relation " + table->name() +
                                 " already registered");
  }
  RelationInfo info;
  info.table = table;
  info.mgr = mgr;
  relations_[key] = std::move(info);
  return Status::OK();
}

Status QueryContext::RegisterSummaryIndex(const std::string& table,
                                          const std::string& instance,
                                          const SummaryBTree* index) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  info->summary_indexes[ToLower(instance)] = index;
  return Status::OK();
}

Status QueryContext::RegisterBaselineIndex(
    const std::string& table, const std::string& instance,
    const BaselineClassifierIndex* index) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  info->baseline_indexes[ToLower(instance)] = index;
  return Status::OK();
}

Status QueryContext::RegisterKeywordIndex(const std::string& table,
                                          const std::string& instance,
                                          const SnippetKeywordIndex* index) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  info->keyword_indexes[ToLower(instance)] = index;
  return Status::OK();
}

Status QueryContext::UnregisterInstanceIndexes(const std::string& table,
                                               const std::string& instance) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  const std::string key = ToLower(instance);
  info->summary_indexes.erase(key);
  info->baseline_indexes.erase(key);
  info->keyword_indexes.erase(key);
  return Status::OK();
}

Status QueryContext::Analyze(const std::string& table) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  // Rebuild the live statistics from the summary scan ANALYZE performs
  // anyway; the old ones unsubscribe when replaced.
  std::unique_ptr<LiveLabelStatistics> live;
  if (info->mgr != nullptr) {
    live = std::make_unique<LiveLabelStatistics>(info->mgr);
  }
  INSIGHT_ASSIGN_OR_RETURN(TableStats stats,
                           AnalyzeTable(info->table, info->mgr, live.get()));
  info->stats = std::move(stats);
  info->live_stats = std::move(live);
  if (info->sketches != nullptr) {
    info->sketches->NoteAnalyzed(info->stats->num_rows);
  }
  return Status::OK();
}

bool QueryContext::NeedsAnalyze(const std::string& table) const {
  Result<const RelationInfo*> info = Get(table);
  if (!info.ok()) return false;
  std::lock_guard<std::mutex> lock(feedback_mu_);
  return (*info)->needs_analyze && (*info)->stats.has_value();
}

Status QueryContext::AnalyzeFlagged(const std::string& table,
                                    const SketchPolicy& policy) {
  INSIGHT_ASSIGN_OR_RETURN(RelationInfo * info, GetMutable(table));
  {
    std::lock_guard<std::mutex> lock(feedback_mu_);
    if (!info->needs_analyze || !info->stats.has_value()) {
      return Status::OK();
    }
    info->needs_analyze = false;
  }
  // If the sketches report little churn since the last ANALYZE, the
  // rescan would rebuild near-identical histograms: the misestimate is a
  // model error, not staleness.
  const bool low_churn =
      policy.use_sketch_statistics && StatsEnabled() &&
      info->sketches != nullptr && info->sketches->HasData() &&
      !info->sketches->StaleSince(kSketchStalenessThreshold);
  if (low_churn) {
    EngineMetrics::Get().stats_rescans_skipped->Add(1);
    return Status::OK();
  }
  INSIGHT_RETURN_NOT_OK(Analyze(table));
  info->stats->rebuilt_by_feedback = true;
  return Status::OK();
}

void QueryContext::ReportCardinalityFeedback(const std::string& table,
                                             double qerror,
                                             double threshold) {
  Result<RelationInfo*> info = GetMutable(table);
  if (!info.ok()) return;
  std::lock_guard<std::mutex> lock(feedback_mu_);
  (*info)->worst_qerror = std::max((*info)->worst_qerror, qerror);
  if (threshold > 0 && qerror >= threshold) (*info)->needs_analyze = true;
}

Result<const RelationInfo*> QueryContext::Get(
    const std::string& table) const {
  auto it = relations_.find(ToLower(table));
  if (it == relations_.end()) {
    return Status::NotFound("relation " + table + " not registered");
  }
  return &it->second;
}

AnnotationResolver QueryContext::MakeResolver() const {
  const std::map<std::string, RelationInfo>* relations = &relations_;
  return [relations](AnnId id) -> Result<std::string> {
    for (const auto& [name, info] : *relations) {
      if (info.mgr == nullptr) continue;
      auto text = info.mgr->annotations()->GetText(id);
      if (text.ok()) return text;
    }
    return Status::NotFound("annotation " + std::to_string(id));
  };
}

Result<RelationInfo*> QueryContext::GetMutable(const std::string& table) {
  auto it = relations_.find(ToLower(table));
  if (it == relations_.end()) {
    return Status::NotFound("relation " + table + " not registered");
  }
  return &it->second;
}

}  // namespace insight
