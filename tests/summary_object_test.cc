#include <gtest/gtest.h>

#include "summary/summary_object.h"

namespace insight {
namespace {

SummaryObject MakeClassifier() {
  SummaryObject obj;
  obj.obj_id = 1;
  obj.instance_id = 10;
  obj.tuple_id = 5;
  obj.type = SummaryType::kClassifier;
  obj.instance_name = "ClassBird1";
  obj.reps = {{"Behavior", 2, 0}, {"Disease", 1, 0}, {"Other", 0, 0}};
  obj.elements = {{{101, 0x1}, {102, 0x2}}, {{103, 0x1}}, {}};
  return obj;
}

SummaryObject MakeSnippet() {
  SummaryObject obj;
  obj.obj_id = 2;
  obj.instance_id = 11;
  obj.tuple_id = 5;
  obj.type = SummaryType::kSnippet;
  obj.instance_name = "TextSummary1";
  obj.reps = {{"Experiment E on swan hormone levels", 0, 201},
              {"Wikipedia article about geese", 0, 202}};
  obj.elements = {{{201, 0x3}}, {{202, 0x1}}};
  return obj;
}

SummaryObject MakeCluster() {
  SummaryObject obj;
  obj.obj_id = 3;
  obj.instance_id = 12;
  obj.tuple_id = 5;
  obj.type = SummaryType::kCluster;
  obj.instance_name = "SimCluster";
  obj.reps = {{"Large one having size", 2, 301},
              {"Observed in region", 1, 303}};
  obj.elements = {{{301, 0x1}, {302, 0x2}}, {{303, 0x4}}};
  return obj;
}

TEST(SummaryObjectTest, CommonFunctions) {
  SummaryObject obj = MakeClassifier();
  EXPECT_EQ(obj.GetSummaryType(), SummaryType::kClassifier);
  EXPECT_EQ(obj.GetSummaryName(), "ClassBird1");
  EXPECT_EQ(obj.GetSize(), 3);
  EXPECT_EQ(obj.TotalAnnotations(), 3);
}

TEST(SummaryObjectTest, ClassifierFunctions) {
  SummaryObject obj = MakeClassifier();
  EXPECT_EQ(*obj.GetLabelName(0), "Behavior");
  EXPECT_EQ(*obj.GetLabelValue(0), 2);
  EXPECT_EQ(*obj.GetLabelValue("disease"), 1);  // Case-insensitive.
  EXPECT_EQ(*obj.GetLabelValue("Other"), 0);
  EXPECT_TRUE(obj.GetLabelValue("Provenance").status().IsNotFound());
  EXPECT_TRUE(obj.GetLabelValue(9).status().IsOutOfRange());
}

TEST(SummaryObjectTest, TypeErrorsOnWrongFamily) {
  SummaryObject snippet = MakeSnippet();
  EXPECT_TRUE(snippet.GetLabelValue("x").status().IsTypeError());
  EXPECT_TRUE(snippet.GetGroupSize(0).status().IsTypeError());
  SummaryObject classifier = MakeClassifier();
  EXPECT_TRUE(classifier.GetSnippet(0).status().IsTypeError());
  EXPECT_TRUE(classifier.GetRepresentative(0).status().IsTypeError());
}

TEST(SummaryObjectTest, SnippetFunctions) {
  SummaryObject obj = MakeSnippet();
  EXPECT_EQ(*obj.GetSnippet(1), "Wikipedia article about geese");
  // Both words in one snippet.
  EXPECT_TRUE(obj.ContainsSingle({"swan", "hormone"}));
  // Words split across snippets: single fails, union succeeds.
  EXPECT_FALSE(obj.ContainsSingle({"wikipedia", "hormone"}));
  EXPECT_TRUE(obj.ContainsUnion({"wikipedia", "hormone"}));
  EXPECT_FALSE(obj.ContainsUnion({"wikipedia", "penguin"}));
}

TEST(SummaryObjectTest, ClusterFunctions) {
  SummaryObject obj = MakeCluster();
  EXPECT_EQ(*obj.GetRepresentative(0), "Large one having size");
  EXPECT_EQ(*obj.GetGroupSize(0), 2);
  EXPECT_EQ(*obj.GetGroupSize(1), 1);
}

TEST(SummaryObjectTest, InvariantsDetectMismatch) {
  SummaryObject obj = MakeClassifier();
  EXPECT_TRUE(obj.CheckInvariants().ok());
  obj.reps[0].count = 99;
  EXPECT_FALSE(obj.CheckInvariants().ok());

  SummaryObject cluster = MakeCluster();
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  cluster.reps[0].source_ann = 999;  // Rep not in its group.
  EXPECT_FALSE(cluster.CheckInvariants().ok());
}

TEST(SummaryObjectTest, SerializationRoundTrip) {
  for (const SummaryObject& obj :
       {MakeClassifier(), MakeSnippet(), MakeCluster()}) {
    std::string buf;
    obj.Serialize(&buf);
    SerdeReader reader(buf);
    auto back = SummaryObject::Deserialize(&reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == obj) << obj.instance_name;
    EXPECT_EQ(back->instance_name, obj.instance_name);
    EXPECT_EQ(back->tuple_id, obj.tuple_id);
  }
}

TEST(SummaryObjectTest, DeserializeRejectsCorruption) {
  std::string buf;
  MakeClassifier().Serialize(&buf);
  buf.resize(buf.size() / 2);
  SerdeReader reader(buf);
  EXPECT_FALSE(SummaryObject::Deserialize(&reader).ok());

  SerdeReader bad_type("\x09garbage");
  EXPECT_FALSE(SummaryObject::Deserialize(&bad_type).ok());
}

TEST(SummarySetTest, AccessorsAndSerialization) {
  SummarySet set({MakeClassifier(), MakeSnippet(), MakeCluster()});
  EXPECT_EQ(set.GetSize(), 3);
  ASSERT_NE(set.GetSummaryObject("classbird1"), nullptr);
  EXPECT_EQ(set.GetSummaryObject("ClassBird1")->type,
            SummaryType::kClassifier);
  EXPECT_EQ(set.GetSummaryObject("nope"), nullptr);
  ASSERT_NE(set.GetSummaryObject(size_t{2}), nullptr);
  EXPECT_EQ(set.GetSummaryObject(size_t{2})->instance_name, "SimCluster");
  EXPECT_EQ(set.GetSummaryObject(size_t{3}), nullptr);

  std::string buf;
  set.Serialize(&buf);
  auto back = SummarySet::Deserialize(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetSize(), 3);
  EXPECT_TRUE(*back->GetSummaryObject("SimCluster") ==
              *set.GetSummaryObject("SimCluster"));
}

TEST(SummarySetTest, EmptySetSerialization) {
  SummarySet set;
  std::string buf;
  set.Serialize(&buf);
  auto back = SummarySet::Deserialize(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

}  // namespace
}  // namespace insight
