#include "workload/birds_workload.h"

#include <array>

namespace insight {

namespace {

// Topic vocabularies: the signal words the classifier keys on.
const std::vector<std::string>& TopicVocabulary(AnnotationTopic topic) {
  static const std::vector<std::string> kDisease = {
      "disease", "infection", "avian", "influenza", "virus",   "sick",
      "parasite", "outbreak",  "lesion", "symptom",  "illness", "pathogen"};
  static const std::vector<std::string> kAnatomy = {
      "wingspan", "beak",    "plumage", "feather", "anatomy", "skeletal",
      "weight",   "measure", "bone",    "wing",    "tail",    "crest"};
  static const std::vector<std::string> kBehavior = {
      "eating",    "foraging", "migration", "nesting", "behavior", "stonewort",
      "courtship", "feeding",  "flocking",  "singing", "diving",   "roosting"};
  static const std::vector<std::string> kOther = {
      "comment", "note",     "record", "provenance", "citation", "source",
      "remark",  "metadata", "survey", "sighting",   "misc",     "general"};
  switch (topic) {
    case AnnotationTopic::kDisease:
      return kDisease;
    case AnnotationTopic::kAnatomy:
      return kAnatomy;
    case AnnotationTopic::kBehavior:
      return kBehavior;
    case AnnotationTopic::kOther:
      return kOther;
  }
  return kOther;
}

const std::vector<std::string>& FillerVocabulary() {
  static const std::vector<std::string> kFiller = {
      "the",   "observed", "near",   "lake",   "during", "morning",
      "adult", "specimen", "was",    "seen",   "with",   "several",
      "group", "region",   "spring", "autumn", "field",  "station"};
  return kFiller;
}

const std::vector<std::string>& FamilyNames() {
  static const std::vector<std::string> kFamilies = {
      "Anatidae",   "Ardeidae",  "Gruidae",      "Passeridae", "Corvidae",
      "Laridae",    "Accipitridae", "Strigidae", "Picidae",    "Columbidae",
      "Trochilidae", "Falconidae"};
  return kFamilies;
}

const std::vector<std::string>& GenusNames() {
  static const std::vector<std::string> kGenera = {
      "Anser", "Cygnus", "Ardea", "Grus",  "Passer", "Corvus",
      "Larus", "Aquila", "Strix", "Picus", "Columba", "Falco"};
  return kGenera;
}

}  // namespace

const char* AnnotationTopicLabel(AnnotationTopic topic) {
  switch (topic) {
    case AnnotationTopic::kDisease:
      return "Disease";
    case AnnotationTopic::kAnatomy:
      return "Anatomy";
    case AnnotationTopic::kBehavior:
      return "Behavior";
    case AnnotationTopic::kOther:
      return "Other";
  }
  return "Other";
}

AnnotationTopic DrawTopic(Rng* rng) {
  const double d = rng->NextDouble();
  if (d < 0.20) return AnnotationTopic::kDisease;
  if (d < 0.45) return AnnotationTopic::kAnatomy;
  if (d < 0.80) return AnnotationTopic::kBehavior;
  return AnnotationTopic::kOther;
}

std::string GenerateAnnotationText(AnnotationTopic topic, size_t target_chars,
                                   Rng* rng) {
  const auto& vocab = TopicVocabulary(topic);
  const auto& filler = FillerVocabulary();
  std::string out;
  out.reserve(target_chars + 16);
  size_t words_in_sentence = 0;
  while (out.size() < target_chars) {
    // ~40% topical signal words, the rest filler.
    const std::string& word =
        rng->NextBool(0.4) ? rng->Pick(vocab) : rng->Pick(filler);
    if (!out.empty()) out += ' ';
    out += word;
    if (++words_in_sentence >= static_cast<size_t>(rng->Uniform(6, 14))) {
      out += '.';
      words_in_sentence = 0;
    }
  }
  if (out.empty() || out.back() != '.') out += '.';
  return out;
}

namespace {

Status DefineAndLinkInstances(Database* db, const BirdsWorkloadOptions& opts,
                              const std::string& table) {
  if (opts.link_classifier) {
    if (!db->GetManager(table).ValueOrDie()->FindInstance("ClassBird1").ok()) {
      // Define once per database (DefineClassifier rejects duplicates).
      Rng rng(7);
      std::vector<std::pair<std::string, std::string>> training;
      for (size_t topic = 0; topic < kNumTopics; ++topic) {
        for (int doc = 0; doc < 6; ++doc) {
          training.emplace_back(
              GenerateAnnotationText(static_cast<AnnotationTopic>(topic), 120,
                                     &rng),
              AnnotationTopicLabel(static_cast<AnnotationTopic>(topic)));
        }
      }
      Status defined = db->DefineClassifier(
          "ClassBird1", {"Disease", "Anatomy", "Behavior", "Other"},
          training);
      if (!defined.ok() && defined.code() != StatusCode::kAlreadyExists) {
        return defined;
      }
      INSIGHT_RETURN_NOT_OK(
          db->LinkInstance(table, "ClassBird1", opts.classifier_indexable));
    }
  }
  if (opts.link_snippet) {
    if (!db->GetManager(table).ValueOrDie()->FindInstance("TextSummary1")
             .ok()) {
      SnippetSummarizer::Options snippet;
      snippet.min_chars = 1000;       // Paper's thresholds.
      snippet.max_snippet_chars = 400;
      Status defined = db->DefineSnippet("TextSummary1", snippet);
      if (!defined.ok() && defined.code() != StatusCode::kAlreadyExists) {
        return defined;
      }
      INSIGHT_RETURN_NOT_OK(db->LinkInstance(table, "TextSummary1", false));
    }
  }
  if (opts.build_baseline_index && opts.link_classifier) {
    INSIGHT_RETURN_NOT_OK(db->AddBaselineIndex(table, "ClassBird1"));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<AnnId>> AddRandomAnnotations(
    Database* db, const std::string& table, size_t num_birds, size_t count,
    Rng* rng, const BirdsWorkloadOptions& opts) {
  INSIGHT_ASSIGN_OR_RETURN(Table * t, db->GetTable(table));
  const size_t num_columns = t->schema().num_columns();
  std::vector<AnnId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Oid oid =
        opts.placement_skew > 0
            ? static_cast<Oid>(
                  rng->Zipf(static_cast<int64_t>(num_birds),
                            opts.placement_skew))
            : static_cast<Oid>(rng->Uniform(1,
                                            static_cast<int64_t>(num_birds)));
    const AnnotationTopic topic = DrawTopic(rng);
    const size_t length =
        rng->NextBool(opts.long_annotation_fraction)
            ? static_cast<size_t>(rng->Uniform(
                  1001, static_cast<int64_t>(std::max<size_t>(
                            1100, opts.max_ann_chars))))
            : static_cast<size_t>(
                  rng->Uniform(static_cast<int64_t>(opts.min_ann_chars),
                               999));
    const std::string text = GenerateAnnotationText(topic, length, rng);
    // Attach to a random cell, a cell pair, or the whole row.
    uint64_t mask;
    const double kind = rng->NextDouble();
    if (kind < 0.6) {
      mask = CellMask(static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(num_columns) - 1)));
    } else if (kind < 0.8) {
      mask = CellMask(static_cast<size_t>(
                 rng->Uniform(0, static_cast<int64_t>(num_columns) - 1))) |
             CellMask(static_cast<size_t>(
                 rng->Uniform(0, static_cast<int64_t>(num_columns) - 1)));
    } else {
      mask = RowMask(num_columns);
    }
    INSIGHT_ASSIGN_OR_RETURN(AnnId id,
                             db->Annotate(table, text, {{oid, mask}}));
    ids.push_back(id);
  }
  return ids;
}

Result<BirdsWorkload> GenerateBirdsWorkload(Database* db,
                                            const BirdsWorkloadOptions& opts) {
  Rng rng(opts.seed);
  BirdsWorkload workload;
  workload.num_birds = opts.num_birds;

  // The paper's Birds table: 45,000 tuples x 12 attributes.
  Schema schema;
  schema.AddColumn({"id", ValueType::kInt64}).ok();
  schema.AddColumn({"sci_name", ValueType::kString}).ok();
  schema.AddColumn({"common_name", ValueType::kString}).ok();
  schema.AddColumn({"genus", ValueType::kString}).ok();
  schema.AddColumn({"family", ValueType::kString}).ok();
  schema.AddColumn({"order_name", ValueType::kString}).ok();
  schema.AddColumn({"habitat", ValueType::kString}).ok();
  schema.AddColumn({"description", ValueType::kString}).ok();
  schema.AddColumn({"region", ValueType::kString}).ok();
  schema.AddColumn({"status", ValueType::kString}).ok();
  schema.AddColumn({"wingspan", ValueType::kDouble}).ok();
  schema.AddColumn({"weight", ValueType::kDouble}).ok();
  INSIGHT_RETURN_NOT_OK(
      db->CreateTable(workload.birds_table, schema).status());

  INSIGHT_RETURN_NOT_OK(DefineAndLinkInstances(db, opts,
                                               workload.birds_table));

  static const char* kHabitats[] = {"lake", "forest", "coast", "wetland",
                                    "grassland", "mountain"};
  static const char* kRegions[] = {"nearctic", "palearctic", "neotropic",
                                   "afrotropic", "indomalaya", "oceania"};
  static const char* kStatuses[] = {"least-concern", "near-threatened",
                                    "vulnerable", "endangered"};
  for (size_t i = 0; i < opts.num_birds; ++i) {
    const std::string genus = rng.Pick(GenusNames());
    Tuple row({
        Value::Int(static_cast<int64_t>(i + 1)),
        Value::String(genus + " species" + std::to_string(i)),
        Value::String("bird" + std::to_string(i)),
        Value::String(genus),
        Value::String(rng.Pick(FamilyNames())),
        Value::String("Aves-order-" + std::to_string(rng.Uniform(0, 11))),
        Value::String(kHabitats[rng.Uniform(0, 5)]),
        Value::String(GenerateAnnotationText(AnnotationTopic::kOther, 80,
                                             &rng)),
        Value::String(kRegions[rng.Uniform(0, 5)]),
        Value::String(kStatuses[rng.Uniform(0, 3)]),
        Value::Double(0.2 + rng.NextDouble() * 2.8),
        Value::Double(0.02 + rng.NextDouble() * 12.0),
    });
    // Through the Database DML path (not Table::Insert) so journaling and
    // the online statistics sketches observe the load like any client.
    INSIGHT_RETURN_NOT_OK(
        db->Insert(workload.birds_table, std::move(row)).status());
  }

  const size_t total_annotations =
      opts.num_birds * opts.annotations_per_bird;
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<AnnId> ids,
      AddRandomAnnotations(db, workload.birds_table, opts.num_birds,
                           total_annotations, &rng, opts));
  workload.num_annotations = ids.size();

  if (opts.synonyms_per_bird > 0) {
    INSIGHT_ASSIGN_OR_RETURN(
        workload.num_synonyms,
        GenerateSynonyms(db, opts.num_birds, opts.synonyms_per_bird,
                         opts.seed + 1));
  }
  return workload;
}

Result<size_t> GenerateSynonyms(Database* db, size_t num_birds,
                                size_t per_bird, uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  schema.AddColumn({"bird_id", ValueType::kInt64}).ok();
  schema.AddColumn({"bird_name", ValueType::kString}).ok();
  schema.AddColumn({"synonym", ValueType::kString}).ok();
  INSIGHT_ASSIGN_OR_RETURN(Table * synonyms,
                           db->CreateTable("Synonyms", schema));
  size_t count = 0;
  for (size_t bird = 0; bird < num_birds; ++bird) {
    for (size_t s = 0; s < per_bird; ++s) {
      Tuple row({Value::Int(static_cast<int64_t>(bird + 1)),
                 Value::String("bird" + std::to_string(bird)),
                 Value::String("synonym" + std::to_string(bird) + "_" +
                               std::to_string(s) + "_" +
                               std::to_string(rng.Uniform(0, 999)))});
      INSIGHT_RETURN_NOT_OK(
          db->Insert("Synonyms", std::move(row)).status());
      ++count;
    }
  }
  INSIGHT_RETURN_NOT_OK(synonyms->CreateColumnIndex("bird_name"));
  INSIGHT_RETURN_NOT_OK(synonyms->CreateColumnIndex("bird_id"));
  return count;
}

}  // namespace insight
