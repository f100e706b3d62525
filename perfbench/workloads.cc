#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>

#include "storage/page.h"
#include "workload/birds_workload.h"

namespace perfbench {

using insight::Database;
using insight::Oid;
using insight::Result;
using insight::Rng;
using insight::Status;
using insight::Tuple;
using insight::Value;

namespace {

/// The Birds corpus is one fixed dataset, like a benchmark's reference
/// data: label-count distributions are discrete, so a corpus drawn per
/// seed would move the size of every "~1% selectivity" answer by tens of
/// percent. The seed draws the traffic: constants, rotation offsets,
/// annotation texts and target tuples.
constexpr uint64_t kCorpusSeed = 42;

const char* const kLabels[] = {"Disease", "Anatomy", "Behavior", "Other"};
constexpr size_t kNumLabels = 4;

/// Words of the generated annotation vocabulary for keyword predicates.
const char* const kKeywords[] = {"wingspan", "station",  "migration",
                                 "outbreak", "plumage",  "survey",
                                 "nesting",  "parasite", "feather"};

std::string Quote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

std::string LabelExpr(const std::string& label) {
  return "$.getSummaryObject('ClassBird1').getLabelValue('" + label + "')";
}

int64_t IntOf(const Value& v) {
  if (v.type() == insight::ValueType::kInt64) return v.AsInt();
  if (v.type() == insight::ValueType::kDouble) {
    return static_cast<int64_t>(v.AsDouble());
  }
  return -1;
}

/// Bytes of one tuple's values as a user supplied them.
double TupleBytes(const Tuple& tuple) {
  double bytes = 0;
  for (const Value& v : tuple.values()) {
    switch (v.type()) {
      case insight::ValueType::kString:
        bytes += static_cast<double>(v.AsString().size());
        break;
      case insight::ValueType::kNull:
        break;
      default:
        bytes += 8;
    }
  }
  return bytes;
}

/// Rows rendered and sorted, so replies compare as multisets.
std::vector<std::string> Canonical(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::string line;
    for (const Value& v : row.values()) {
      line += v.ToString();
      line += '\x1f';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonicalIds(const std::vector<int64_t>& ids) {
  std::vector<Tuple> rows;
  rows.reserve(ids.size());
  for (int64_t id : ids) rows.emplace_back(std::vector<Value>{Value::Int(id)});
  return Canonical(rows);
}

std::function<bool(const Reply&)> ExpectRows(
    std::vector<std::string> expected) {
  auto want = std::make_shared<const std::vector<std::string>>(
      std::move(expected));
  return [want](const Reply& r) { return Canonical(*r.rows) == *want; };
}

std::string NextAnnotationText(Rng* rng) {
  const insight::AnnotationTopic topic = insight::DrawTopic(rng);
  const size_t length =
      rng->NextBool(0.15) ? static_cast<size_t>(rng->Uniform(1001, 2000))
                          : static_cast<size_t>(rng->Uniform(150, 999));
  return insight::GenerateAnnotationText(topic, length, rng);
}

/// Per-tuple ClassBird1 label counts, read from the summary storage.
struct LabelCounts {
  std::map<Oid, std::array<int64_t, kNumLabels>> counts;
  std::map<Oid, int64_t> ids;  // oid -> Birds.id
};

Status ReadLabelCounts(Database* db, size_t num_birds, LabelCounts* out) {
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db->GetManager("Birds"));
  INSIGHT_ASSIGN_OR_RETURN(insight::Table * birds, db->GetTable("Birds"));
  for (Oid oid = 1; oid <= num_birds; ++oid) {
    INSIGHT_ASSIGN_OR_RETURN(Tuple row, birds->Get(oid));
    out->ids[oid] = IntOf(row.at(0));
    out->counts[oid].fill(0);
  }
  return mgr->ForEachSummaryRow(
      [&](Oid oid, const insight::SummarySet& set) {
        const insight::SummaryObject* obj = set.GetSummaryObject("ClassBird1");
        if (obj == nullptr) return Status::OK();
        for (size_t l = 0; l < kNumLabels; ++l) {
          auto v = obj->GetLabelValue(kLabels[l]);
          out->counts[oid][l] = v.ok() ? *v : 0;
        }
        return Status::OK();
      });
}

/// `values` at quantile q (nearest rank).
int64_t RankValue(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t i = std::min(values.size() - 1,
                            static_cast<size_t>(q * values.size()));
  return values[i];
}

// ---------------------------------------------------------------------------
// analytics: read-only summary-aware queries over a corpus that fits.

class Analytics : public Workload {
 public:
  using Workload::Workload;

  const char* name() const override { return "analytics"; }
  std::vector<std::string> classes() const override {
    return {"q_select", "q_range",   "q_topk",
            "q_join",   "q_keyword", "q_filter"};
  }
  std::vector<int> read_classes() const override { return {kSelect, kRange}; }
  size_t rate_window() const override { return kTemplates; }
  size_t clients() const override { return 1; }
  size_t inproc_threads() const override { return config_.thread_budget; }
  bool exceeds_pool() const override { return false; }
  std::string main_table() const override { return "Birds"; }
  size_t main_rows() const override { return kBirds; }
  std::string zoom_instance() const override { return "ClassBird1"; }

  std::string ConfigJson() const override {
    return "\"database\":\"in-memory\",\"birds\":" + std::to_string(kBirds) +
           ",\"annotations_per_bird\":" + std::to_string(kPerBird) +
           ",\"synonyms_per_bird\":" + std::to_string(kSynonyms) +
           ",\"buffer_pool_frames\":" + std::to_string(kFrames) +
           ",\"instances\":\"ClassBird1 (indexable), TextSummary1\""
           ",\"flush_policy\":\"none (no log)\"";
  }

  std::vector<insight::ClassifierProbe> SindexProbes() const override {
    return probes_;
  }


  Status Prepare() override {
    // Every round rebuilds the same fixed corpus, so the statements and
    // their expected answers from the first round hold for the others.
    if (variants_[kSelect].empty()) {
      INSIGHT_RETURN_NOT_OK(DeriveVariants());
    }
    return CountUserBytes("Birds");
  }

 protected:
  Status Build() override {
    Database::Options options;
    options.buffer_pool_frames = kFrames;
    db_ = std::make_unique<Database>(options);
    insight::BirdsWorkloadOptions opts;
    opts.seed = kCorpusSeed;
    opts.num_birds = kBirds;
    opts.annotations_per_bird = kPerBird;
    opts.synonyms_per_bird = kSynonyms;
    INSIGHT_RETURN_NOT_OK(
        insight::GenerateBirdsWorkload(db_.get(), opts).status());
    INSIGHT_RETURN_NOT_OK(db_->Execute("ANALYZE Birds").status());
    return db_->Execute("ANALYZE Synonyms").status();
  }

 private:
  /// The templates' statements from the seed, each with its reply check.
  Status DeriveVariants() {
    LabelCounts lc;
    INSIGHT_RETURN_NOT_OK(ReadLabelCounts(db_.get(), kBirds, &lc));
    Rng rng(config_.seed * 7919 + 17);

    std::array<std::vector<int64_t>, kNumLabels> per_label;
    for (const auto& [oid, c] : lc.counts) {
      for (size_t l = 0; l < kNumLabels; ++l) per_label[l].push_back(c[l]);
    }
    auto ids_where = [&](const std::function<bool(const std::array<int64_t,
                                                  kNumLabels>&)>& pred) {
      std::vector<int64_t> ids;
      for (const auto& [oid, c] : lc.counts) {
        if (pred(c)) ids.push_back(lc.ids[oid]);
      }
      return ids;
    };

    // A label's count values, nearest first to equality selectivity
    // `target`.
    auto nearest = [&](size_t l, double target) {
      std::map<int64_t, size_t> freq;
      for (int64_t v : per_label[l]) ++freq[v];
      std::vector<std::pair<double, int64_t>> by_gap;
      for (const auto& [value, n] : freq) {
        if (value < 1) continue;
        by_gap.emplace_back(std::abs(static_cast<double>(n) / kBirds - target),
                            value);
      }
      std::sort(by_gap.begin(), by_gap.end());
      std::vector<int64_t> values;
      for (const auto& [gap, value] : by_gap) values.push_back(value);
      return values;
    };

    // q_select: label equality at ~1% selectivity (Fig 10), one constant
    // per label: the count whose share of birds is nearest 1%.
    for (size_t l = 0; l < kNumLabels; ++l) {
      const std::vector<int64_t> values = nearest(l, 0.01);
      if (values.empty()) return Status::Internal("label never counted");
      const int64_t value = values.front();
      Op op = ReadOp(kSelect,
                     "SELECT id FROM Birds WHERE " + LabelExpr(kLabels[l]) +
                         " = " + std::to_string(value));
      op.check = ExpectRows(CanonicalIds(ids_where(
          [=](const auto& c) { return c[l] == value; })));
      variants_[kSelect].push_back(std::move(op));
      probes_.push_back(insight::ClassifierProbe::Equal(kLabels[l], value));
    }

    // q_range: two label predicates (Fig 11): a count range on one label
    // near 3% selectivity, answered by the Summary-BTree, and a residual
    // bound on another label at its median.
    for (size_t l1 = 0; l1 < kNumLabels; ++l1) {
      const size_t l2 = (l1 + 1 + static_cast<size_t>(rng.Uniform(0, 2))) %
                        kNumLabels;
      const std::vector<int64_t> values = nearest(l1, 0.015);
      if (values.empty()) return Status::Internal("label never counted");
      const int64_t a = values.front();
      const int64_t b = std::max<int64_t>(1, RankValue(per_label[l2], 0.5));
      Op op = ReadOp(kRange, "SELECT id FROM Birds WHERE " +
                                 LabelExpr(kLabels[l1]) + " >= " +
                                 std::to_string(a) + " AND " +
                                 LabelExpr(kLabels[l1]) + " <= " +
                                 std::to_string(a + 1) + " AND " +
                                 LabelExpr(kLabels[l2]) + " >= " +
                                 std::to_string(b));
      op.check = ExpectRows(CanonicalIds(ids_where([=](const auto& c) {
        return c[l1] >= a && c[l1] <= a + 1 && c[l2] >= b;
      })));
      variants_[kRange].push_back(std::move(op));
      probes_.push_back(insight::ClassifierProbe::Range(kLabels[l1], a, a + 1));
    }

    // q_topk: ORDER BY a label LIMIT 50 (Fig 16 Q1), checked by brute force:
    // the counts must be the 50 largest, in order, each on its own bird.
    for (size_t i = 0; i < kVariants; ++i) {
      const size_t l = static_cast<size_t>(rng.Uniform(0, kNumLabels - 1));
      Op op = ReadOp(kTopk, "SELECT id, " + LabelExpr(kLabels[l]) +
                                " AS c FROM Birds ORDER BY " +
                                LabelExpr(kLabels[l]) + " DESC LIMIT 50");
      auto by_id = std::make_shared<std::map<int64_t, int64_t>>();
      std::vector<int64_t> top;
      for (const auto& [oid, c] : lc.counts) {
        (*by_id)[lc.ids[oid]] = c[l];
        top.push_back(c[l]);
      }
      std::sort(top.rbegin(), top.rend());
      top.resize(std::min<size_t>(50, top.size()));
      op.check = [by_id, top](const Reply& r) {
        if (r.rows->size() != top.size()) return false;
        for (size_t k = 0; k < top.size(); ++k) {
          const Tuple& row = (*r.rows)[k];
          auto it = by_id->find(IntOf(row.at(0)));
          if (it == by_id->end() || IntOf(row.at(1)) != top[k] ||
              it->second != top[k]) {
            return false;
          }
        }
        return true;
      };
      variants_[kTopk].push_back(std::move(op));
    }

    // q_join: Example 4 / Fig 14. Rows checked against an in-process run,
    // order checked against the brute-force label counts.
    auto count_by_name =
        std::make_shared<std::array<std::map<std::string, int64_t>,
                                    kNumLabels>>();
    INSIGHT_ASSIGN_OR_RETURN(insight::Table * birds, db_->GetTable("Birds"));
    for (const auto& [oid, c] : lc.counts) {
      INSIGHT_ASSIGN_OR_RETURN(Tuple row, birds->Get(oid));
      for (size_t l = 0; l < kNumLabels; ++l) {
        (*count_by_name)[l][row.at(2).AsString()] = c[l];
      }
    }
    for (size_t i = 0; i < kVariants; ++i) {
      const size_t l = static_cast<size_t>(rng.Uniform(0, kNumLabels - 1));
      const int64_t t =
          RankValue(per_label[l], 0.95 + 0.03 * rng.NextDouble());
      const std::string sql =
          "SELECT common_name, synonym FROM Birds, Synonyms WHERE "
          "common_name = bird_name AND " +
          LabelExpr(kLabels[l]) + " > " + std::to_string(t) + " ORDER BY " +
          LabelExpr(kLabels[l]);
      INSIGHT_ASSIGN_OR_RETURN(Op op, ReferenceOp(kJoin, sql));
      auto rows_ok = op.check;
      op.check = [rows_ok, count_by_name, l](const Reply& r) {
        if (!rows_ok(r)) return false;
        int64_t prev = INT64_MIN;
        for (const Tuple& row : *r.rows) {
          auto it = (*count_by_name)[l].find(row.at(0).AsString());
          if (it == (*count_by_name)[l].end() || it->second < prev) {
            return false;
          }
          prev = it->second;
        }
        return true;
      };
      variants_[kJoin].push_back(std::move(op));
    }

    // q_keyword: the snippet instance's containsUnion (Fig 15's J).
    constexpr int64_t kNumKeywords =
        static_cast<int64_t>(sizeof(kKeywords) / sizeof(kKeywords[0]));
    for (size_t i = 0; i < kVariants; ++i) {
      const int64_t a = rng.Uniform(0, kNumKeywords - 1);
      const int64_t b = (a + 1 + rng.Uniform(0, kNumKeywords - 2)) %
                        kNumKeywords;
      INSIGHT_ASSIGN_OR_RETURN(
          Op op,
          ReferenceOp(kKeyword,
                      "SELECT id FROM Birds WHERE "
                      "$.getSummaryObject('TextSummary1').containsUnion(" +
                          Quote(kKeywords[a]) + ", " + Quote(kKeywords[b]) +
                          ")"));
      variants_[kKeyword].push_back(std::move(op));
    }

    // q_filter: a data-only predicate over the propagating scan.
    for (size_t i = 0; i < kVariants; ++i) {
      const double wingspan = 0.2 + 2.8 * (0.80 + 0.15 * rng.NextDouble());
      const double weight = 0.02 + 12.0 * (0.10 + 0.20 * rng.NextDouble());
      char sql[160];
      std::snprintf(sql, sizeof(sql),
                    "SELECT id, common_name FROM Birds WHERE wingspan > %.3f "
                    "AND weight < %.3f",
                    wingspan, weight);
      INSIGHT_ASSIGN_OR_RETURN(Op op, ReferenceOp(kFilter, sql));
      variants_[kFilter].push_back(std::move(op));
    }
    return Status::OK();
  }

  enum Template { kSelect, kRange, kTopk, kJoin, kKeyword, kFilter };
  static constexpr size_t kTemplates = 6;
  static constexpr size_t kBirds = 2000;
  static constexpr size_t kPerBird = 10;
  static constexpr size_t kSynonyms = 5;
  static constexpr size_t kFrames = 4096;
  static constexpr size_t kVariants = 8;

  /// Templates in rotation; each template cycles through its variants
  /// from the stream's seeded offset, so every run weighs them equally.
  Op Draw(Stream& s) override {
    const auto& pool = variants_[s.seq % kTemplates];
    return pool[(s.salt + s.seq / kTemplates) % pool.size()];
  }

  static Op ReadOp(int cls, std::string sql) {
    Op op;
    op.sql = std::move(sql);
    op.cls = cls;
    op.select = true;
    return op;
  }

  /// A read whose expected rows come from an in-process Execute.
  Result<Op> ReferenceOp(int cls, const std::string& sql) {
    INSIGHT_ASSIGN_OR_RETURN(insight::QueryResult ref, db_->Execute(sql));
    Op op = ReadOp(cls, sql);
    op.check = ExpectRows(Canonical(ref.rows));
    return op;
  }

  std::array<std::vector<Op>, kTemplates> variants_;
  std::vector<insight::ClassifierProbe> probes_;
};

// ---------------------------------------------------------------------------
// curation: annotation writes on a durable corpus larger than the pool.

class Curation : public Workload {
 public:
  using Workload::Workload;

  const char* name() const override { return "curation"; }
  std::vector<std::string> classes() const override {
    return {"annotate", "zoom", "label_select"};
  }
  // ZOOM IN, not the label select: a select's cost follows how many birds
  // share the count just written, which drifts as the round's writes pile
  // up, so its median moves with the write rate.
  std::vector<int> read_classes() const override { return {kZoom}; }
  size_t rate_window() const override { return 100; }
  size_t clients() const override { return 1; }
  size_t inproc_threads() const override { return 1; }
  bool exceeds_pool() const override { return true; }
  std::string main_table() const override { return "Birds"; }
  size_t main_rows() const override { return kBirds; }
  std::string zoom_instance() const override { return "ClassBird1"; }

  std::string ConfigJson() const override {
    return "\"database\":\"file backend + WAL\",\"birds\":" +
           std::to_string(kBirds) +
           ",\"annotations_per_bird\":" + std::to_string(kPerBird) +
           ",\"buffer_pool_frames\":" + std::to_string(kFrames) +
           ",\"checkpoint_every_ops\":" + std::to_string(kCheckpointOps) +
           ",\"instances\":\"ClassBird1 (indexable), TextSummary1, "
           "Cluster1\",\"mix\":\"80% ANNOTATE, 10% ZOOM IN, 10% label "
           "select\",\"flush_policy\":\"group commit, one forced sync per "
           "autocommit statement\"";
  }

  std::vector<insight::ClassifierProbe> SindexProbes() const override {
    std::vector<insight::ClassifierProbe> probes;
    for (size_t l = 0; l < kNumLabels; ++l) {
      for (int64_t c = 1; c <= 4; ++c) {
        probes.push_back(insight::ClassifierProbe::Equal(kLabels[l], c));
      }
    }
    return probes;
  }

  Status Prepare() override {
    LabelCounts lc;
    INSIGHT_RETURN_NOT_OK(ReadLabelCounts(db_.get(), kBirds, &lc));
    counts_ = std::move(lc.counts);
    ids_ = std::move(lc.ids);
    INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                             db_->GetManager("Birds"));
    INSIGHT_ASSIGN_OR_RETURN(const insight::SummaryInstance* inst,
                             mgr->FindInstance("ClassBird1"));
    classifier_ = inst->classifier();
    if (classifier_ == nullptr) return Status::Internal("no classifier");
    has_last_ = false;
    return CountUserBytes("Birds");
  }

  Op Draw(Stream& s) override {
    Rng* rng = &s.rng;
    Op op;
    const double r = rng->NextDouble();
    if (r < 0.8 || !has_last_) {
      const Oid oid = static_cast<Oid>(rng->Uniform(1, kBirds));
      const std::string text = NextAnnotationText(rng);
      const size_t label = classifier_->ClassifyIndex(text);
      op.cls = kAnnotate;
      op.write = true;
      op.sql = "ANNOTATE Birds TUPLE " + std::to_string(oid) + " WITH " +
               Quote(text);
      const double bytes = static_cast<double>(text.size());
      op.check = [this, oid, label, bytes](const Reply&) {
        ++counts_[oid][label];
        last_oid_ = oid;
        last_label_ = label;
        has_last_ = true;
        user_bytes_ += bytes;
        return true;
      };
    } else if (r < 0.9) {
      const Oid oid = static_cast<Oid>(rng->Uniform(1, kBirds));
      op.cls = kZoom;
      op.sql = "ZOOM IN ON Birds TUPLE " + std::to_string(oid) +
               " INSTANCE 'ClassBird1'";
      op.check = [this, oid](const Reply& r) {
        int64_t total = 0;
        for (int64_t c : counts_[oid]) total += c;
        return static_cast<int64_t>(r.annotations) == total;
      };
    } else {
      // SBTree selection on the label just written, at its new count.
      const size_t label = last_label_;
      const int64_t value = counts_[last_oid_][label];
      op.cls = kLabelSelect;
      op.select = true;
      op.sql = "SELECT id FROM Birds WHERE " + LabelExpr(kLabels[label]) +
               " = " + std::to_string(value);
      op.check = [this, label, value](const Reply& r) {
        std::vector<int64_t> ids;
        for (const auto& [oid, c] : counts_) {
          if (c[label] == value) ids.push_back(ids_[oid]);
        }
        return Canonical(*r.rows) == CanonicalIds(ids);
      };
    }
    return op;
  }

 protected:
  Status Build() override {
    Database::Options options;
    options.buffer_pool_frames = kFrames;
    options.wal_sync = Database::WalSyncMode::kGroupCommit;
    options.checkpoint_every_ops = kCheckpointOps;
    INSIGHT_RETURN_NOT_OK(OpenDurable(options));
    insight::BirdsWorkloadOptions opts;
    opts.seed = kCorpusSeed;
    opts.num_birds = kBirds;
    opts.annotations_per_bird = kPerBird;
    opts.synonyms_per_bird = 0;
    INSIGHT_RETURN_NOT_OK(
        insight::GenerateBirdsWorkload(db_.get(), opts).status());
    INSIGHT_RETURN_NOT_OK(db_->DefineCluster("Cluster1"));
    INSIGHT_RETURN_NOT_OK(db_->LinkInstance("Birds", "Cluster1", false));
    INSIGHT_RETURN_NOT_OK(db_->Execute("ANALYZE Birds").status());
    return db_->WalSync();
  }

 private:
  enum Class { kAnnotate, kZoom, kLabelSelect };
  static constexpr size_t kBirds = 1000;
  static constexpr size_t kPerBird = 10;
  static constexpr size_t kFrames = 512;
  static constexpr uint64_t kCheckpointOps = 700;

  const insight::NaiveBayesClassifier* classifier_ = nullptr;
  /// Mirror of every tuple's label counts, advanced by each acknowledged
  /// ANNOTATE. One client and one in-process thread keep it single-threaded.
  std::map<Oid, std::array<int64_t, kNumLabels>> counts_;
  std::map<Oid, int64_t> ids_;
  Oid last_oid_ = 1;
  size_t last_label_ = 0;
  bool has_last_ = false;
};

// ---------------------------------------------------------------------------
// served: short point statements from many clients, no summaries.

class Served : public Workload {
 public:
  using Workload::Workload;

  const char* name() const override { return "served"; }
  std::vector<std::string> classes() const override {
    return {"point_read", "insert"};
  }
  std::vector<int> read_classes() const override { return {kRead}; }
  size_t rate_window() const override { return 200; }
  size_t clients() const override { return config_.thread_budget; }
  bool exceeds_pool() const override { return false; }
  std::string main_table() const override { return "Obs"; }
  size_t main_rows() const override { return kRows; }

  std::string ConfigJson() const override {
    return "\"database\":\"file backend + WAL\",\"rows\":" +
           std::to_string(kRows) +
           ",\"buffer_pool_frames\":" + std::to_string(kFrames) +
           ",\"index\":\"Obs(n)\",\"instances\":\"none\""
           ",\"mix\":\"90% point SELECT, 10% single-row INSERT\""
           ",\"flush_policy\":\"group commit, one forced sync per "
           "autocommit statement\"";
  }

  Status Prepare() override {
    next_key_.assign(config_.thread_budget, 0);
    return CountUserBytes("Obs");
  }

  double user_bytes() const override {
    uint64_t inserted = 0;
    for (uint64_t n : next_key_) inserted += n;
    // Every inserted key has ten digits, so every inserted row is as long.
    const double row_bytes = 8.0 + static_cast<double>(NameOf(kInsertBase).size());
    return user_bytes_ + static_cast<double>(inserted) * row_bytes;
  }

  Op Draw(Stream& s) override {
    Rng* rng = &s.rng;
    const size_t client = s.client;
    Op op;
    if (rng->NextDouble() < 0.9) {
      const int64_t k = rng->Uniform(0, kRows - 1);
      op.cls = kRead;
      op.select = true;
      op.sql = "SELECT name FROM Obs WHERE n = " + std::to_string(k);
      op.check = [this, k](const Reply& r) {
        return r.rows->size() == 1 &&
               (*r.rows)[0].at(0).type() == insight::ValueType::kString &&
               (*r.rows)[0].at(0).AsString() == NameOf(k);
      };
    } else {
      // Disjoint per-client key ranges above the preloaded rows.
      const int64_t k = kInsertBase +
                        static_cast<int64_t>(client) * kInsertStride +
                        static_cast<int64_t>(next_key_[client]++);
      op.cls = kInsert;
      op.write = true;
      op.sql = "INSERT INTO Obs VALUES (" + std::to_string(k) + ", " +
               Quote(NameOf(k)) + ")";
      op.check = [](const Reply&) { return true; };
    }
    return op;
  }

 protected:
  Status Build() override {
    Database::Options options;
    options.buffer_pool_frames = kFrames;
    options.wal_sync = Database::WalSyncMode::kGroupCommit;
    INSIGHT_RETURN_NOT_OK(OpenDurable(options));
    INSIGHT_RETURN_NOT_OK(
        db_->Execute("CREATE TABLE Obs (n INT, name STRING)").status());
    constexpr int64_t kBatch = 500;
    for (int64_t i = 0; i < kRows; i += kBatch) {
      std::string sql = "INSERT INTO Obs VALUES ";
      for (int64_t k = i; k < std::min<int64_t>(kRows, i + kBatch); ++k) {
        if (k > i) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + Quote(NameOf(k)) + ")";
      }
      INSIGHT_RETURN_NOT_OK(db_->Execute(sql).status());
    }
    return db_->Execute("CREATE INDEX ON Obs (n)").status();
  }

 private:
  enum Class { kRead, kInsert };
  static constexpr int64_t kRows = 50000;
  static constexpr size_t kFrames = 4096;
  static constexpr int64_t kInsertBase = 1'000'000'000;
  static constexpr int64_t kInsertStride = 100'000'000;

  std::string NameOf(int64_t k) const {
    uint64_t h = (static_cast<uint64_t>(k) + 1) * 0x9E3779B97F4A7C15ULL ^
                 config_.seed;
    h ^= h >> 29;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "obs-%lld-%08llx",
                  static_cast<long long>(k),
                  static_cast<unsigned long long>(h & 0xffffffffULL));
    return buf;
  }

  std::vector<uint64_t> next_key_;  // Per client; touched by its thread.
};

}  // namespace

Workload::~Workload() { Teardown(); }

void Workload::Teardown() {
  db_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }
}

Status Workload::Setup() {
  Teardown();
  user_bytes_ = 0;
  return Build();
}

Status Workload::OpenDurable(Database::Options options) {
  dir_ = config_.data_dir + "/" + name() + "-" +
         std::to_string(static_cast<long long>(::getpid())) + "-" +
         std::to_string(++setups_);
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
  if (ec) return Status::IOError("cannot create " + dir_ + ": " + ec.message());
  options.backend = insight::StorageManager::Backend::kFile;
  options.directory = dir_;
  INSIGHT_ASSIGN_OR_RETURN(db_, Database::Open(dir_, options));
  return Status::OK();
}

Status Workload::CountUserBytes(const std::string& table) {
  INSIGHT_ASSIGN_OR_RETURN(insight::QueryResult all,
                           db_->Execute("SELECT * FROM " + table));
  double bytes = 0;
  for (const Tuple& row : all.rows) bytes += TupleBytes(row);
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db_->GetManager(table));
  INSIGHT_RETURN_NOT_OK(mgr->annotations()->ForEachAnnotation(
      [&](const insight::Annotation& ann) {
        bytes += static_cast<double>(ann.text.size());
        return Status::OK();
      }));
  user_bytes_ = bytes;
  return Status::OK();
}

double Workload::StoredBytes() const {
  if (dir_.empty()) {
    return static_cast<double>(PagesAllocated()) *
           static_cast<double>(insight::kPageSize);
  }
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

uint64_t Workload::PagesAllocated() const {
  uint64_t pages = 0;
  const size_t files = db_->storage()->num_files();
  for (size_t f = 0; f < files; ++f) {
    pages += db_->pool()->FileNumPages(static_cast<insight::FileId>(f));
  }
  return pages;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       WorkloadConfig config) {
  if (name == "analytics") return std::make_unique<Analytics>(config);
  if (name == "curation") return std::make_unique<Curation>(config);
  if (name == "served") return std::make_unique<Served>(config);
  return nullptr;
}

std::vector<std::string> GenerateTexts(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<std::string> texts;
  texts.reserve(count);
  for (size_t i = 0; i < count; ++i) texts.push_back(NextAnnotationText(&rng));
  return texts;
}

}  // namespace perfbench
