// Stored summary sets against decoded ones. A set attached from a
// storage row stays that row's bytes (SummarySet::FromStored) and the
// Section 3.1 functions read it in place; this suite checks, over seeded
// random sets, that every function, every rewrite and every rendering
// gives the same answer on the stored copy as on the decoded copy, that
// the functions agree with a brute-force reference over the decoded
// reps, and that FromStored rejects exactly the bytes Deserialize rejects.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/expression.h"
#include "summary/summary_algebra.h"

namespace insight {
namespace {

constexpr size_t kColumns = 6;  // Element masks cover six data columns.

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "swan", "goose", "Heron", "egg", "nest", "flu", "migration", "wing"};
  return words;
}

/// Seeded generator of valid summary sets over three instances: a
/// classifier with hierarchical, mixed-case labels, a snippet instance
/// and a cluster instance. Instance ids are fixed so two sets merge.
class SetGenerator {
 public:
  explicit SetGenerator(uint32_t seed) : rng_(seed) {}

  SummarySet Next() {
    std::vector<SummaryObject> objects;
    if (Chance(0.8)) objects.push_back(Classifier());
    if (Chance(0.7)) objects.push_back(Snippet());
    if (Chance(0.6)) objects.push_back(Cluster());
    std::shuffle(objects.begin(), objects.end(), rng_);
    return SummarySet(std::move(objects));
  }

 private:
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }
  size_t Uniform(size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng_);
  }

  std::vector<ElementRef> Elements(size_t n) {
    std::vector<ElementRef> elems;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t mask = Uniform(1, (size_t{1} << kColumns) - 1);
      elems.push_back(ElementRef{next_ann_++, mask});
    }
    return elems;
  }

  std::string Text(size_t words) {
    std::string out;
    for (size_t i = 0; i < words; ++i) {
      if (i > 0) out += Chance(0.2) ? ", " : " ";
      out += Words()[Uniform(0, Words().size() - 1)];
    }
    return out;
  }

  SummaryObject Header(uint32_t id, SummaryType type, const char* name) {
    SummaryObject obj;
    obj.obj_id = next_ann_;
    obj.instance_id = id;
    obj.tuple_id = Uniform(1, 1000);
    obj.type = type;
    obj.instance_name = name;
    return obj;
  }

  SummaryObject Classifier() {
    static const std::vector<std::string> labels = {
        "a/b", "A/c", "a/C/d", "Disease", "disease/viral", "Other"};
    SummaryObject obj = Header(1, SummaryType::kClassifier, "ClassBird1");
    const bool many = Chance(0.1);
    const size_t n = many ? 300 : labels.size();
    for (size_t i = 0; i < n; ++i) {
      const std::string label =
          i < labels.size() ? labels[i] : "x" + std::to_string(i) + "/y";
      obj.elements.push_back(Elements(Uniform(0, 3)));
      obj.reps.push_back(Representative{
          label, static_cast<int64_t>(obj.elements.back().size()), 0});
    }
    return obj;
  }

  SummaryObject Snippet() {
    SummaryObject obj = Header(2, SummaryType::kSnippet, "TextSummary1");
    const size_t n = Chance(0.1) ? 200 : Uniform(0, 4);
    for (size_t i = 0; i < n; ++i) {
      obj.elements.push_back(Elements(1));
      obj.reps.push_back(Representative{Text(Uniform(1, 6)), 0,
                                        obj.elements.back()[0].ann_id});
    }
    return obj;
  }

  SummaryObject Cluster() {
    SummaryObject obj = Header(3, SummaryType::kCluster, "SimCluster");
    const size_t n = Uniform(0, 4);
    for (size_t i = 0; i < n; ++i) {
      obj.elements.push_back(Elements(Uniform(1, 3)));
      const auto& group = obj.elements.back();
      obj.reps.push_back(Representative{
          Text(Uniform(1, 5)), static_cast<int64_t>(group.size()),
          group[Uniform(0, group.size() - 1)].ann_id});
    }
    return obj;
  }

  std::mt19937 rng_;
  AnnId next_ann_ = 1;
};

SummarySet Stored(const SummarySet& decoded) {
  std::string bytes;
  decoded.Serialize(&bytes);
  auto stored = SummarySet::FromStored(std::move(bytes));
  EXPECT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored->stored());
  return std::move(stored).ValueOrDie();
}

std::string Bytes(const SummarySet& set) {
  std::string out;
  set.Serialize(&out);
  return out;
}

/// Every SummaryFuncExpr the generated sets can exercise: all kinds, on
/// present, mixed-case and absent instances, leaf, inner and missing
/// labels, in- and out-of-range positions, present and missing words.
std::vector<ExprPtr> AllFunctions() {
  std::vector<ExprPtr> out;
  out.push_back(std::make_unique<SummaryFuncExpr>());
  const std::vector<std::string> instances = {
      "ClassBird1", "classbird1", "TextSummary1", "SIMCLUSTER", "Absent"};
  const std::vector<std::string> labels = {
      "a", "A/b", "a/c", "a/c/d", "A/C", "disease", "Disease/Viral",
      "other", "b", "x1", "missing", ""};
  const std::vector<std::vector<std::string>> keyword_lists = {
      {"swan"}, {"goose", "egg"}, {"heron", "wing", "nest"}, {"absentword"},
      {"swan", "absentword"}};
  for (const std::string& inst : instances) {
    out.push_back(
        std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kObjectSize, inst));
    out.push_back(
        std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kHasObject, inst));
    for (const std::string& label : labels) {
      out.push_back(std::make_unique<SummaryFuncExpr>(inst, label));
    }
    for (const auto& keywords : keyword_lists) {
      out.push_back(std::make_unique<SummaryFuncExpr>(
          SummaryFuncKind::kContainsSingle, inst, keywords));
      out.push_back(std::make_unique<SummaryFuncExpr>(
          SummaryFuncKind::kContainsUnion, inst, keywords));
    }
    for (size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{5}, size_t{7},
                     size_t{250}}) {
      for (SummaryFuncKind kind :
           {SummaryFuncKind::kLabelName, SummaryFuncKind::kLabelValueAt,
            SummaryFuncKind::kSnippetAt, SummaryFuncKind::kGroupSizeAt,
            SummaryFuncKind::kRepresentative}) {
        out.push_back(std::make_unique<SummaryFuncExpr>(kind, inst, i));
      }
    }
  }
  return out;
}

/// Same Value (type and content), or the same Status code.
void ExpectSameResult(const Result<Value>& a, const Result<Value>& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": "
                            << (a.ok() ? b.status() : a.status()).ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
    return;
  }
  EXPECT_EQ(a->type(), b->type()) << what;
  EXPECT_EQ(a->ToString(), b->ToString()) << what;
}

// ---- Brute-force reference over the decoded reps ----

const SummaryObject* RefObject(const SummarySet& set,
                               const std::string& name) {
  for (const SummaryObject& obj : set.objects()) {
    if (ToLower(obj.instance_name) == ToLower(name)) return &obj;
  }
  return nullptr;
}

Result<Value> RefLabelValue(const SummaryObject* obj,
                            const std::string& label) {
  if (obj == nullptr) return Value::Null();
  if (obj->type != SummaryType::kClassifier) {
    return Status::TypeError("getLabelValue");
  }
  for (const Representative& rep : obj->reps) {
    if (ToLower(rep.text) == ToLower(label)) return Value::Int(rep.count);
  }
  int64_t sum = 0;
  bool found = false;
  for (const Representative& rep : obj->reps) {
    if (StartsWith(ToLower(rep.text), ToLower(label) + "/")) {
      sum += rep.count;
      found = true;
    }
  }
  if (found) return Value::Int(sum);
  return Status::NotFound("label");
}

bool RefHasWord(const std::string& text, const std::string& word) {
  for (const std::string& token : TokenizeWords(text)) {
    if (token == ToLower(word)) return true;
  }
  return false;
}

Result<Value> RefContains(const SummaryObject* obj,
                          const std::vector<std::string>& keywords,
                          bool single) {
  if (obj == nullptr) return Value::Bool(false);
  if (single) {
    for (const Representative& rep : obj->reps) {
      bool all = true;
      for (const std::string& kw : keywords) {
        all = all && RefHasWord(rep.text, kw);
      }
      if (all) return Value::Bool(true);
    }
    return Value::Bool(false);
  }
  for (const std::string& kw : keywords) {
    bool any = false;
    for (const Representative& rep : obj->reps) {
      any = any || RefHasWord(rep.text, kw);
    }
    if (!any) return Value::Bool(false);
  }
  return Value::Bool(true);
}

/// The reference answer for the functions whose logic is not a plain
/// field read; nullopt for the others (the stored/decoded comparison
/// covers those).
std::optional<Result<Value>> Reference(const SummaryFuncExpr& f,
                                       const SummarySet& decoded) {
  const SummaryObject* obj = RefObject(decoded, f.instance());
  switch (f.kind()) {
    case SummaryFuncKind::kSetSize:
      return Result<Value>(
          Value::Int(static_cast<int64_t>(decoded.objects().size())));
    case SummaryFuncKind::kLabelValue:
      return RefLabelValue(obj, f.label());
    case SummaryFuncKind::kContainsSingle:
      return RefContains(obj, f.keywords(), /*single=*/true);
    case SummaryFuncKind::kContainsUnion:
      return RefContains(obj, f.keywords(), /*single=*/false);
    case SummaryFuncKind::kSnippetAt:
      if (obj == nullptr || obj->type != SummaryType::kSnippet) {
        return std::nullopt;
      }
      return Result<Value>(f.index() < obj->reps.size()
                               ? Value::String(obj->reps[f.index()].text)
                               : Value::Null());
    default:
      return std::nullopt;
  }
}

TEST(StoredSummaryDifferentialTest, EveryFunctionMatchesDecodedAndReference) {
  const std::vector<ExprPtr> functions = AllFunctions();
  SetGenerator gen(20241019);
  size_t checked_inner = 0;
  for (int round = 0; round < 150; ++round) {
    Row decoded_row;
    decoded_row.summaries = round == 0 ? SummarySet() : gen.Next();
    Row stored_row;
    stored_row.summaries = Stored(decoded_row.summaries);
    for (const ExprPtr& expr : functions) {
      const auto& f = static_cast<const SummaryFuncExpr&>(*expr);
      const std::string what =
          "round " + std::to_string(round) + ": " + f.ToString();
      const Result<Value> on_stored = f.Eval(stored_row);
      const Result<Value> on_decoded = f.Eval(decoded_row);
      ExpectSameResult(on_stored, on_decoded, what);
      if (auto ref = Reference(f, decoded_row.summaries)) {
        ExpectSameResult(on_decoded, *ref, what + " (reference)");
        if (f.kind() == SummaryFuncKind::kLabelValue && f.label() == "a" &&
            on_decoded.ok() && !on_decoded->is_null()) {
          ++checked_inner;
        }
      }
    }
    // Evaluation reads in place: the stored copy is still stored bytes.
    EXPECT_TRUE(stored_row.summaries.stored());
  }
  EXPECT_GT(checked_inner, 50u) << "too few inner-label lookups exercised";
}

TEST(StoredSummaryDifferentialTest, SerializeAndToStringMatch) {
  SetGenerator gen(7);
  for (int round = 0; round < 100; ++round) {
    const SummarySet decoded = round == 0 ? SummarySet() : gen.Next();
    const SummarySet stored = Stored(decoded);
    EXPECT_EQ(Bytes(stored), Bytes(decoded)) << "round " << round;
    EXPECT_EQ(stored.ToString(), decoded.ToString()) << "round " << round;
    EXPECT_EQ(stored.GetSize(), decoded.GetSize());
    EXPECT_EQ(stored.empty(), decoded.empty());
    // Rendering decoded the copy but left it the unmodified stored set.
    EXPECT_TRUE(stored.stored());
    EXPECT_EQ(Bytes(stored), Bytes(decoded));
  }
}

TEST(StoredSummaryDifferentialTest, MutationReencodes) {
  SetGenerator gen(11);
  for (int round = 0; round < 30; ++round) {
    SummarySet decoded = gen.Next();
    SummarySet stored = Stored(decoded);
    SummaryObject extra;
    extra.instance_id = 9;
    extra.type = SummaryType::kSnippet;
    extra.instance_name = "Extra";
    stored.Add(extra);
    decoded.Add(extra);
    EXPECT_FALSE(stored.stored());
    EXPECT_EQ(Bytes(stored), Bytes(decoded));
    EXPECT_EQ(stored.GetSize(), decoded.GetSize());
  }
}

TEST(StoredSummaryDifferentialTest, ProjectAndMergeMatch) {
  SetGenerator gen(23);
  std::mt19937 rng(5);
  for (int round = 0; round < 120; ++round) {
    const SummarySet left = gen.Next();
    const SummarySet right = gen.Next();
    std::vector<size_t> kept;
    for (size_t c = 0; c < kColumns; ++c) {
      if (rng() % 2 == 0) kept.push_back(c);
    }
    auto projected_stored =
        ProjectSummaries(Stored(left), kept, NullResolver());
    auto projected_decoded = ProjectSummaries(left, kept, NullResolver());
    ASSERT_EQ(projected_stored.ok(), projected_decoded.ok());
    if (projected_stored.ok()) {
      EXPECT_EQ(Bytes(*projected_stored), Bytes(*projected_decoded))
          << "round " << round;
    }
    for (size_t arity : {size_t{0}, kColumns}) {
      auto merged_stored = MergeSummaries(Stored(left), Stored(right), arity);
      auto merged_decoded = MergeSummaries(left, right, arity);
      ASSERT_EQ(merged_stored.ok(), merged_decoded.ok())
          << (merged_stored.ok() ? merged_decoded.status()
                                 : merged_stored.status())
                 .ToString();
      if (merged_stored.ok()) {
        EXPECT_EQ(Bytes(*merged_stored), Bytes(*merged_decoded))
            << "round " << round;
        EXPECT_EQ(merged_stored->ToString(), merged_decoded->ToString());
      }
    }
  }
}

void ExpectSameVerdict(std::string bytes, const std::string& what) {
  const auto decoded = SummarySet::Deserialize(bytes);
  const auto stored = SummarySet::FromStored(std::move(bytes));
  ASSERT_EQ(stored.ok(), decoded.ok()) << what;
  if (!stored.ok()) {
    EXPECT_EQ(stored.status().code(), decoded.status().code()) << what;
    EXPECT_EQ(stored.status().code(), StatusCode::kCorruption) << what;
  }
}

TEST(StoredSummaryDifferentialTest, FromStoredRejectsWhatDeserializeRejects) {
  SetGenerator gen(31);
  size_t rejected = 0;
  for (int round = 0; round < 12; ++round) {
    const std::string bytes = Bytes(gen.Next());
    for (size_t len = 0; len <= bytes.size(); ++len) {
      const std::string prefix = bytes.substr(0, len);
      ExpectSameVerdict(prefix, "prefix " + std::to_string(len) + "/" +
                                    std::to_string(bytes.size()));
      if (!SummarySet::Deserialize(prefix).ok()) ++rejected;
    }
    if (bytes.size() > 4) {
      // The first object's type byte follows the 4-byte object count.
      for (uint8_t bad : {uint8_t{0}, uint8_t{4}, uint8_t{255}}) {
        std::string corrupt = bytes;
        corrupt[4] = static_cast<char>(bad);
        ExpectSameVerdict(corrupt, "type byte " + std::to_string(bad));
        EXPECT_FALSE(SummarySet::FromStored(corrupt).ok());
      }
    }
  }
  EXPECT_GT(rejected, 100u);
  // An implausible object count, with and without objects behind it.
  for (uint32_t count : {(1u << 16) + 1, 0xffffffffu}) {
    std::string corrupt;
    PutU32(&corrupt, count);
    ExpectSameVerdict(corrupt, "count " + std::to_string(count));
    EXPECT_FALSE(SummarySet::FromStored(corrupt).ok());
  }
  // An implausible rep count inside an object.
  std::string corrupt;
  PutU32(&corrupt, 1);
  PutU8(&corrupt, static_cast<uint8_t>(SummaryType::kSnippet));
  PutU64(&corrupt, 1);
  PutU32(&corrupt, 2);
  PutU64(&corrupt, 3);
  PutString(&corrupt, "TextSummary1");
  PutU32(&corrupt, (1u << 20) + 1);
  ExpectSameVerdict(corrupt, "rep count");
  EXPECT_FALSE(SummarySet::FromStored(corrupt).ok());
}

}  // namespace
}  // namespace insight
