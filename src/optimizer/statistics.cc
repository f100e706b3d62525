#include "optimizer/statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "storage/page.h"

namespace insight {

namespace {

/// Inclusive-domain bucket width. Computed entirely in double: the integer
/// form `max - min + 1` is signed-overflow UB whenever the domain spans
/// more than half the int64 range (e.g. min = INT64_MIN, max = INT64_MAX
/// wraps to 0, giving width 0 and a division by zero below).
double BucketWidth(int64_t min, int64_t max) {
  const double span =
      static_cast<double>(max) - static_cast<double>(min) + 1.0;
  return span / EquiWidthHistogram::kNumBuckets;
}

/// v's bucket under `width`, clamped to [0, kNumBuckets): values at
/// exactly max_ land in the last bucket. The offset is computed in double
/// for the same overflow reason as BucketWidth.
size_t BucketIndex(int64_t v, int64_t min, double width) {
  const double offset =
      static_cast<double>(v) - static_cast<double>(min);
  const double b = offset / width;
  if (!(b > 0)) return 0;  // Also catches NaN defensively.
  if (b >= EquiWidthHistogram::kNumBuckets) {
    return EquiWidthHistogram::kNumBuckets - 1;
  }
  return static_cast<size_t>(b);
}

/// double -> int64 without the UB of a raw cast when the value is outside
/// the representable range (saturates; NaN maps to 0).
int64_t SaturatingCastToInt64(double v) {
  if (std::isnan(v)) return 0;
  if (v >= 9223372036854775808.0) {  // 2^63: raw cast would be UB.
    return std::numeric_limits<int64_t>::max();
  }
  if (v < -9223372036854775808.0) {
    return std::numeric_limits<int64_t>::min();
  }
  return static_cast<int64_t>(v);
}

/// Per-word object counts of one snippet instance while ANALYZE scans.
/// `last` is the last object counted, so a word repeated within one
/// object counts once.
struct WordCount {
  uint64_t objects = 0;
  uint64_t last = 0;
};
struct WordHash {
  using is_transparent = void;
  size_t operator()(std::string_view word) const {
    return std::hash<std::string_view>{}(word);
  }
};
using WordCounts =
    std::unordered_map<std::string, WordCount, WordHash, std::equal_to<>>;

/// Counts object number `object` (> 0) once for each distinct word of its
/// snippets (ForEachWord, the tokenizer ContainsWord agrees with); only a
/// word not seen before allocates.
void CountObjectWords(const SummaryObject& obj, uint64_t object,
                      WordCounts* counts) {
  for (const Representative& rep : obj.reps) {
    ForEachWord(rep.text, [&](std::string_view word) {
      auto it = counts->find(word);
      if (it == counts->end()) {
        it = counts->emplace(std::string(word), WordCount{}).first;
      }
      if (it->second.last != object) {
        it->second.last = object;
        ++it->second.objects;
      }
    });
  }
}

}  // namespace

EquiWidthHistogram EquiWidthHistogram::Build(
    const std::vector<int64_t>& values) {
  EquiWidthHistogram h;
  if (values.empty()) return h;
  h.min_ = *std::min_element(values.begin(), values.end());
  h.max_ = *std::max_element(values.begin(), values.end());
  h.total_ = values.size();
  h.buckets_.assign(kNumBuckets, 0);
  const double width = BucketWidth(h.min_, h.max_);
  for (int64_t v : values) {
    ++h.buckets_[BucketIndex(v, h.min_, width)];
  }
  return h;
}

EquiWidthHistogram EquiWidthHistogram::BuildFromCounts(
    const std::map<int64_t, uint64_t>& counts) {
  EquiWidthHistogram h;
  if (counts.empty()) return h;
  h.min_ = counts.begin()->first;
  h.max_ = counts.rbegin()->first;
  h.buckets_.assign(kNumBuckets, 0);
  const double width = BucketWidth(h.min_, h.max_);
  for (const auto& [value, freq] : counts) {
    h.buckets_[BucketIndex(value, h.min_, width)] += freq;
    h.total_ += freq;
  }
  return h;
}

double EquiWidthHistogram::EstimateRange(int64_t lo, int64_t hi) const {
  if (total_ == 0 || hi < lo || hi < min_ || lo > max_) return 0;
  lo = std::max(lo, min_);
  hi = std::min(hi, max_);
  const double width = BucketWidth(min_, max_);
  double estimate = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double b_lo = static_cast<double>(min_) + b * width;
    const double b_hi = b_lo + width;  // Exclusive.
    const double overlap_lo = std::max(b_lo, static_cast<double>(lo));
    const double overlap_hi =
        std::min(b_hi, static_cast<double>(hi) + 1.0);
    if (overlap_hi <= overlap_lo) continue;
    estimate += buckets_[b] * (overlap_hi - overlap_lo) / width;
  }
  return estimate;
}

double EquiWidthHistogram::EstimateEquals(int64_t v,
                                          uint64_t num_distinct) const {
  if (total_ == 0 || v < min_ || v > max_) return 0;
  if (num_distinct == 0) return 0;
  // Bucket-local uniformity: values in v's bucket spread over the
  // bucket's share of the distinct values.
  const double in_bucket = EstimateRange(v, v);
  return std::max(in_bucket, static_cast<double>(total_) / num_distinct /
                                 kNumBuckets);
}

RealHistogram RealHistogram::Build(const std::vector<double>& values) {
  RealHistogram h;
  if (values.empty()) return h;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  h.min_ = *lo;
  h.max_ = *hi;
  h.total_ = values.size();
  h.buckets_.assign(kNumBuckets, 0);
  const double width = (h.max_ - h.min_) / kNumBuckets;
  for (double v : values) {
    // Values at exactly max_ land in the last bucket.
    const double b = width > 0 ? (v - h.min_) / width : 0;
    ++h.buckets_[b >= kNumBuckets ? kNumBuckets - 1
                                  : static_cast<size_t>(std::max(0.0, b))];
  }
  return h;
}

double RealHistogram::EstimateRange(double lo, double hi) const {
  if (total_ == 0 || hi < lo || hi < min_ || lo > max_) return 0;
  const double width = (max_ - min_) / kNumBuckets;
  if (!(width > 0)) {  // One value: inside only strictly between.
    return lo < min_ && hi > max_ ? static_cast<double>(total_) : 0;
  }
  lo = std::max(lo, min_);
  hi = std::min(hi, max_);
  double estimate = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double b_lo = min_ + b * width;
    const double overlap =
        std::min(b_lo + width, hi) - std::max(b_lo, lo);
    if (overlap > 0) estimate += buckets_[b] * overlap / width;
  }
  return estimate;
}

double RealHistogram::EstimateEquals(double v, uint64_t num_distinct) const {
  if (total_ == 0 || num_distinct == 0 || v < min_ || v > max_) return 0;
  const double width = (max_ - min_) / kNumBuckets;
  if (!(width > 0)) return static_cast<double>(total_);
  const double b = (v - min_) / width;
  const uint64_t in_bucket =
      buckets_[b >= kNumBuckets ? kNumBuckets - 1 : static_cast<size_t>(b)];
  // Bucket-local uniformity: v's bucket holds its share of the distinct
  // values.
  return in_bucket / std::max(1.0, static_cast<double>(num_distinct) /
                                       kNumBuckets);
}

double LabelStats::EstimateMatching(CompareOp op, int64_t constant) const {
  const EquiWidthHistogram& h = histogram;
  switch (op) {
    case CompareOp::kEq:
      return h.EstimateEquals(constant, num_distinct);
    case CompareOp::kNe:
      return static_cast<double>(h.total()) -
             h.EstimateEquals(constant, num_distinct);
    case CompareOp::kLt:
      // Nothing is < INT64_MIN, and `constant - 1` would overflow.
      return constant == std::numeric_limits<int64_t>::min()
                 ? 0
                 : h.EstimateRange(min, constant - 1);
    case CompareOp::kLe:
      return h.EstimateRange(min, constant);
    case CompareOp::kGt:
      return constant == std::numeric_limits<int64_t>::max()
                 ? 0
                 : h.EstimateRange(constant + 1, max);
    case CompareOp::kGe:
      return h.EstimateRange(constant, max);
  }
  return 0;
}

std::optional<double> TableStats::EstimateKeywordSelectivity(
    const std::string& instance, bool single,
    const std::vector<std::string>& keywords) const {
  auto inst_it = instance_words.find(ToLower(instance));
  if (inst_it == instance_words.end()) return std::nullopt;
  if (num_rows == 0 || keywords.empty()) return 0.0;
  // Each keyword's share of the relation's tuples, rarest first.
  std::vector<double> shares;
  for (const std::string& keyword : keywords) {
    auto it = inst_it->second.find(ToLower(keyword));
    const double df = it == inst_it->second.end()
                          ? 0.0
                          : static_cast<double>(it->second);
    shares.push_back(std::min(1.0, df / static_cast<double>(num_rows)));
  }
  std::sort(shares.begin(), shares.end());
  if (single) return shares.front();
  // Every keyword must occur, and annotation words co-occur by topic, so
  // independence underestimates: exponential backoff weighs the rarest
  // word fully and each next one by a halved exponent.
  double sel = 1.0;
  double exponent = 1.0;
  for (double share : shares) {
    sel *= std::pow(share, exponent);
    exponent /= 2;
  }
  return sel;
}

double TableStats::EstimateColumnSelectivity(const std::string& column,
                                             CompareOp op,
                                             const Value& constant) const {
  if (num_rows == 0) return 0;
  auto it = columns.find(ToLower(column));
  if (it == columns.end()) return 1.0 / 3;
  const ColumnStats& stats = it->second;
  const bool numeric_constant = constant.type() == ValueType::kInt64 ||
                                constant.type() == ValueType::kDouble;
  if (stats.real && numeric_constant) {
    const RealHistogram& h = stats.real_histogram;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // NaN orders above every real number (Value::Compare).
    const double c =
        std::isnan(constant.AsDouble()) ? kInf : constant.AsDouble();
    // A range's interpolated mass gives `c` itself no weight; the
    // inclusive forms add its point mass (the rows equal to `c`, which
    // matter on a column of few distinct values).
    const double equal = h.EstimateEquals(c, stats.num_distinct);
    double matching = 0;
    switch (op) {
      case CompareOp::kEq:
        matching = equal;
        break;
      case CompareOp::kNe:
        matching = static_cast<double>(h.total()) - equal;
        break;
      case CompareOp::kLt:
        matching = h.EstimateRange(-kInf, c);
        break;
      case CompareOp::kLe:
        matching = h.EstimateRange(-kInf, c) + equal;
        break;
      case CompareOp::kGt:
        matching = h.EstimateRange(c, kInf);
        break;
      case CompareOp::kGe:
        matching = h.EstimateRange(c, kInf) + equal;
        break;
    }
    return std::min(1.0, matching / static_cast<double>(num_rows));
  }
  if (stats.numeric && numeric_constant) {
    // An INT column holds whole numbers, so a fractional constant bounds
    // `<`/`<=` at its floor and `>`/`>=` at its ceiling, equals no row
    // and differs from every non-NULL one.
    int64_t floor_c = 0;
    int64_t ceil_c = 0;
    bool whole = true;
    if (constant.type() == ValueType::kInt64) {
      floor_c = ceil_c = constant.AsInt();
    } else {
      // NaN orders above every real (Value::Compare).
      const double d = std::isnan(constant.AsDouble())
                           ? std::numeric_limits<double>::infinity()
                           : constant.AsDouble();
      whole = std::floor(d) == d;
      floor_c = SaturatingCastToInt64(std::floor(d));
      ceil_c = SaturatingCastToInt64(std::ceil(d));
    }
    const EquiWidthHistogram& h = stats.histogram;
    const double equal =
        whole ? h.EstimateEquals(floor_c, stats.num_distinct) : 0;
    double matching = 0;
    switch (op) {
      case CompareOp::kEq:
        matching = equal;
        break;
      case CompareOp::kNe:
        matching = static_cast<double>(h.total()) - equal;
        break;
      case CompareOp::kLt:
      case CompareOp::kLe:
        if (op == CompareOp::kLt && whole) {
          // `c - 1` overflows at INT64_MIN (and nothing is < it anyway).
          if (floor_c == std::numeric_limits<int64_t>::min()) break;
          --floor_c;
        }
        matching = h.EstimateRange(h.min(), floor_c);
        break;
      case CompareOp::kGt:
      case CompareOp::kGe:
        if (op == CompareOp::kGt && whole) {
          if (ceil_c == std::numeric_limits<int64_t>::max()) break;
          ++ceil_c;
        }
        matching = h.EstimateRange(ceil_c, h.max());
        break;
    }
    return std::min(1.0, matching / static_cast<double>(num_rows));
  }
  // String / fallback.
  if (op == CompareOp::kEq) {
    return stats.num_distinct == 0
               ? 0.0
               : 1.0 / static_cast<double>(stats.num_distinct);
  }
  return 1.0 / 3;
}

uint64_t TableStats::ColumnDistinct(const std::string& column) const {
  auto it = columns.find(ToLower(column));
  if (it == columns.end()) return 1;
  return std::max<uint64_t>(1, it->second.num_distinct);
}

Result<TableStats> AnalyzeTable(Table* table, SummaryManager* mgr,
                                LiveLabelStatistics* live) {
  TableStats stats;
  stats.num_rows = table->num_rows();
  stats.heap_pages = table->heap_bytes() / kPageSize;

  // Data columns: distinct counts and numeric histograms.
  const Schema& schema = table->schema();
  std::vector<std::set<std::string>> distinct(schema.num_columns());
  std::vector<std::vector<int64_t>> int_values(schema.num_columns());
  std::vector<std::vector<double>> real_values(schema.num_columns());
  auto it = table->Scan();
  Oid oid;
  Tuple tuple;
  while (it.Next(&oid, &tuple)) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const Value& v = tuple.at(c);
      distinct[c].insert(v.ToString());
      if (schema.column(c).type == ValueType::kDouble) {
        // NULLs hold for no comparison; NaN sorts above every real and is
        // left out of the buckets.
        if ((v.type() == ValueType::kDouble ||
             v.type() == ValueType::kInt64) &&
            !std::isnan(v.AsDouble())) {
          real_values[c].push_back(v.AsDouble());
        }
      } else if (v.type() == ValueType::kInt64) {
        int_values[c].push_back(v.AsInt());
      }
    }
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnStats col;
    col.num_distinct = distinct[c].size();
    if (!real_values[c].empty()) {
      col.numeric = true;
      col.real = true;
      col.real_histogram = RealHistogram::Build(real_values[c]);
    } else if (!int_values[c].empty()) {
      col.numeric = true;
      col.histogram = EquiWidthHistogram::Build(int_values[c]);
    }
    stats.columns[ToLower(schema.column(c).name)] = col;
  }

  if (mgr == nullptr) return stats;

  // Summary statistics: one pass over the de-normalized storage.
  std::map<std::string, WordCounts> word_counts;
  uint64_t annotated_rows = 0;
  uint64_t blob_bytes = 0;
  INSIGHT_RETURN_NOT_OK(mgr->ForEachSummaryRow(
      [&](Oid oid, const SummarySet& set) -> Status {
        ++annotated_rows;
        std::string blob;
        set.Serialize(&blob);
        blob_bytes += blob.size();
        for (const SummaryObject& obj : set.objects()) {
          if (live != nullptr) {
            INSIGHT_RETURN_NOT_OK(live->OnObjectChanged(oid, nullptr, &obj));
          }
          if (obj.type == SummaryType::kSnippet) {
            CountObjectWords(obj, annotated_rows,
                             &word_counts[ToLower(obj.instance_name)]);
          }
        }
        return Status::OK();
      }));
  if (annotated_rows > 0) {
    stats.avg_summary_blob_size =
        static_cast<double>(blob_bytes) / annotated_rows;
  }
  for (const auto& [inst_key, counts] : word_counts) {
    WordObjects& words = stats.instance_words[inst_key];
    for (const auto& [word, count] : counts) {
      words.emplace(word, count.objects);
    }
  }
  return stats;
}

LiveLabelStatistics::LiveLabelStatistics(SummaryManager* mgr) : mgr_(mgr) {
  for (const SummaryInstance& inst : mgr->instances()) {
    listener_ids_.push_back(
        mgr->AddListener(inst.id(),
                         [this](Oid oid, const SummaryObject* before,
                                const SummaryObject* after) {
                           return OnObjectChanged(oid, before, after);
                         }));
  }
}

LiveLabelStatistics::~LiveLabelStatistics() {
  for (SummaryManager::ListenerId id : listener_ids_) {
    mgr_->RemoveListener(id);
  }
}

void LiveLabelStatistics::Apply(const SummaryObject& obj, int64_t delta) {
  const std::string inst_key = ToLower(obj.instance_name);
  if (delta > 0) {
    object_counts_[inst_key] += 1;
  } else if (object_counts_[inst_key] > 0) {
    object_counts_[inst_key] -= 1;
  }
  std::string buf;
  obj.Serialize(&buf);
  object_bytes_[inst_key] += delta * static_cast<double>(buf.size());
  if (obj.type != SummaryType::kClassifier) return;
  auto& labels = freq_[inst_key];
  for (const Representative& rep : obj.reps) {
    auto& counts = labels[ToLower(rep.text)];
    if (delta > 0) {
      ++counts[rep.count];
    } else {
      auto it = counts.find(rep.count);
      if (it != counts.end() && --it->second == 0) counts.erase(it);
    }
  }
}

Status LiveLabelStatistics::OnObjectChanged(Oid, const SummaryObject* before,
                                            const SummaryObject* after) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (before != nullptr) Apply(*before, -1);
  if (after != nullptr) Apply(*after, +1);
  return Status::OK();
}

std::optional<LabelStats> LiveLabelStatistics::Label(
    const std::string& instance, const std::string& label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto inst_it = freq_.find(ToLower(instance));
  if (inst_it == freq_.end()) return std::nullopt;
  auto label_it = inst_it->second.find(ToLower(label));
  if (label_it == inst_it->second.end() || label_it->second.empty()) {
    return std::nullopt;
  }
  LabelStats stats;
  stats.histogram = EquiWidthHistogram::BuildFromCounts(label_it->second);
  stats.min = stats.histogram.min();
  stats.max = stats.histogram.max();
  stats.num_distinct = label_it->second.size();
  return stats;
}

double LiveLabelStatistics::EstimateLabelSelectivity(
    const std::string& instance, const std::string& label, CompareOp op,
    int64_t constant, uint64_t num_rows) const {
  if (num_rows == 0) return 0;
  const std::optional<LabelStats> stats = Label(instance, label);
  if (!stats.has_value()) return 0;
  return std::min(1.0, stats->EstimateMatching(op, constant) /
                           static_cast<double>(num_rows));
}

uint64_t LiveLabelStatistics::MaxLabelDistinct(
    const std::string& instance) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t most = 0;
  auto inst_it = freq_.find(ToLower(instance));
  if (inst_it == freq_.end()) return 0;
  for (const auto& [label, counts] : inst_it->second) {
    most = std::max<uint64_t>(most, counts.size());
  }
  return most;
}

uint64_t LiveLabelStatistics::AnnotatedRows() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t most = 0;
  for (const auto& [inst_key, count] : object_counts_) {
    most = std::max(most, count);
  }
  return most;
}

uint64_t LiveLabelStatistics::NumObjects(const std::string& instance) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = object_counts_.find(ToLower(instance));
  return it == object_counts_.end() ? 0 : it->second;
}

double LiveLabelStatistics::AvgObjectSize(const std::string& instance) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto count_it = object_counts_.find(ToLower(instance));
  auto bytes_it = object_bytes_.find(ToLower(instance));
  if (count_it == object_counts_.end() || count_it->second == 0 ||
      bytes_it == object_bytes_.end()) {
    return 0;
  }
  return bytes_it->second / static_cast<double>(count_it->second);
}

}  // namespace insight
