#include "summary/summary_instance.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "mining/clustream.h"

namespace insight {

namespace {
std::atomic<uint32_t> g_next_instance_id{1};
}  // namespace

uint32_t SummaryInstance::NextId() { return g_next_instance_id.fetch_add(1); }

SummaryInstance::SummaryInstance(std::string name, SummaryType type)
    : id_(NextId()), name_(std::move(name)), type_(type) {}

SummaryInstance SummaryInstance::Classifier(
    std::string name, std::vector<std::string> labels,
    std::shared_ptr<NaiveBayesClassifier> model) {
  INSIGHT_CHECK(!labels.empty()) << "classifier instance without labels";
  SummaryInstance inst(std::move(name), SummaryType::kClassifier);
  inst.labels_ = std::move(labels);
  inst.classifier_ = std::move(model);
  return inst;
}

SummaryInstance SummaryInstance::Snippet(std::string name,
                                         SnippetSummarizer::Options options) {
  SummaryInstance inst(std::move(name), SummaryType::kSnippet);
  inst.summarizer_ = std::make_shared<SnippetSummarizer>(options);
  return inst;
}

SummaryInstance SummaryInstance::Cluster(std::string name,
                                         double min_similarity) {
  SummaryInstance inst(std::move(name), SummaryType::kCluster);
  inst.min_similarity_ = min_similarity;
  return inst;
}

SummaryObject SummaryInstance::NewObject(Oid tuple, uint64_t obj_id) const {
  SummaryObject obj;
  obj.obj_id = obj_id;
  obj.instance_id = id_;
  obj.tuple_id = tuple;
  obj.type = type_;
  obj.instance_name = name_;
  if (type_ == SummaryType::kClassifier) {
    obj.reps.reserve(labels_.size());
    obj.elements.resize(labels_.size());
    for (const std::string& label : labels_) {
      obj.reps.push_back(Representative{label, 0, 0});
    }
  }
  return obj;
}

Status SummaryInstance::ApplyAdd(SummaryObject* obj, AnnId ann,
                                 const std::string& text,
                                 uint64_t mask) const {
  if (obj->instance_id != id_) {
    return Status::InvalidArgument("object belongs to another instance");
  }
  switch (type_) {
    case SummaryType::kClassifier: {
      const size_t idx = classifier_ != nullptr
                             ? classifier_->ClassifyIndex(text)
                             : labels_.size() - 1;
      // Already-present annotation (attached to more cells): OR masks.
      for (ElementRef& e : obj->elements[idx]) {
        if (e.ann_id == ann) {
          e.column_mask |= mask;
          return Status::OK();
        }
      }
      obj->elements[idx].push_back(ElementRef{ann, mask});
      obj->reps[idx].count =
          static_cast<int64_t>(obj->elements[idx].size());
      return Status::OK();
    }
    case SummaryType::kSnippet: {
      if (!summarizer_->ShouldSummarize(text)) return Status::OK();
      for (auto& elems : obj->elements) {
        if (elems.front().ann_id == ann) {
          elems.front().column_mask |= mask;
          return Status::OK();
        }
      }
      Representative rep;
      rep.text = summarizer_->Summarize(text);
      rep.source_ann = ann;
      obj->reps.push_back(std::move(rep));
      obj->elements.push_back({ElementRef{ann, mask}});
      return Status::OK();
    }
    case SummaryType::kCluster: {
      for (size_t i = 0; i < obj->elements.size(); ++i) {
        for (ElementRef& e : obj->elements[i]) {
          if (e.ann_id == ann) {
            e.column_mask |= mask;
            return Status::OK();
          }
        }
      }
      const TextFeature feature = FeaturizeText(text);
      size_t best = obj->reps.size();
      double best_sim = min_similarity_;
      for (size_t i = 0; i < obj->reps.size(); ++i) {
        const double sim =
            CosineSimilarity(feature, FeaturizeText(obj->reps[i].text));
        if (sim >= best_sim) {
          best_sim = sim;
          best = i;
        }
      }
      if (best < obj->reps.size()) {
        obj->elements[best].push_back(ElementRef{ann, mask});
        obj->reps[best].count =
            static_cast<int64_t>(obj->elements[best].size());
      } else {
        Representative rep;
        rep.text = text.substr(0, kClusterRepMaxChars);
        rep.count = 1;
        rep.source_ann = ann;
        obj->reps.push_back(std::move(rep));
        obj->elements.push_back({ElementRef{ann, mask}});
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status SummaryInstance::ApplyRemove(SummaryObject* obj, AnnId ann,
                                    const AnnotationResolver& resolver) const {
  if (obj->instance_id != id_) {
    return Status::InvalidArgument("object belongs to another instance");
  }
  for (size_t i = 0; i < obj->elements.size(); ++i) {
    auto& elems = obj->elements[i];
    auto it = std::find_if(
        elems.begin(), elems.end(),
        [&](const ElementRef& e) { return e.ann_id == ann; });
    if (it == elems.end()) continue;
    elems.erase(it);
    switch (type_) {
      case SummaryType::kClassifier:
        obj->reps[i].count = static_cast<int64_t>(elems.size());
        break;
      case SummaryType::kSnippet:
        obj->reps.erase(obj->reps.begin() + i);
        obj->elements.erase(obj->elements.begin() + i);
        break;
      case SummaryType::kCluster:
        if (elems.empty()) {
          obj->reps.erase(obj->reps.begin() + i);
          obj->elements.erase(obj->elements.begin() + i);
        } else {
          obj->reps[i].count = static_cast<int64_t>(elems.size());
          if (obj->reps[i].source_ann == ann) {
            const AnnId elected = elems.front().ann_id;
            obj->reps[i].source_ann = elected;
            auto text = resolver(elected);
            std::string t = text.ok() ? std::move(text).ValueOrDie()
                                      : "(representative unavailable)";
            if (t.size() > kClusterRepMaxChars) t.resize(kClusterRepMaxChars);
            obj->reps[i].text = std::move(t);
          }
        }
        break;
    }
    return Status::OK();
  }
  return Status::NotFound("annotation " + std::to_string(ann) +
                          " not in object " + obj->instance_name);
}

}  // namespace insight
