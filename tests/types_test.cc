#include <gtest/gtest.h>

#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace insight {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, RoundTripSerialization) {
  const Value values[] = {Value::Null(), Value::Bool(false), Value::Int(-7),
                          Value::Double(3.125), Value::String("swan goose")};
  for (const Value& v : values) {
    std::string buf;
    v.Serialize(&buf);
    SerdeReader reader(buf);
    auto back = Value::Deserialize(&reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(v.Compare(*back), 0) << v.ToString();
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(ValueTest, DeserializeRejectsTruncated) {
  std::string buf;
  Value::Int(99).Serialize(&buf);
  buf.resize(buf.size() - 1);
  SerdeReader reader(buf);
  EXPECT_FALSE(Value::Deserialize(&reader).ok());
}

TEST(ValueTest, EqualValuesHashEqually) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::String("a").Hash(), Value::String("a").Hash());
}

TEST(SchemaTest, IndexOfMatchesExactNamesOnly) {
  Schema s({{"r.a", ValueType::kInt64}, {"r.b", ValueType::kString}});
  EXPECT_EQ(*s.IndexOf("r.a"), 0u);
  EXPECT_EQ(*s.IndexOf("R.B"), 1u);
  EXPECT_TRUE(s.IndexOf("a").status().IsNotFound());
  EXPECT_TRUE(s.IndexOf("c").status().IsNotFound());
}

TEST(SchemaTest, UnqualifiedNameNeverMatchesQualifiedColumn) {
  Schema s({{"r.a", ValueType::kInt64}, {"s.a", ValueType::kInt64}});
  EXPECT_TRUE(s.IndexOf("a").status().IsNotFound());
  EXPECT_EQ(*s.IndexOf("s.a"), 1u);
}

TEST(SchemaTest, QualifiedPrefixesEveryColumn) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  Schema q = s.Qualified("x");
  EXPECT_EQ(q.column(0).name, "x.a");
  EXPECT_EQ(q.column(1).name, "x.b");
  EXPECT_EQ(q.column(1).type, ValueType::kString);
  EXPECT_EQ(s.Qualified(""), s);
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"x", ValueType::kInt64}).ok());
  EXPECT_EQ(s.AddColumn({"X", ValueType::kString}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ProjectAndConcat) {
  Schema s({{"a", ValueType::kInt64},
            {"b", ValueType::kString},
            {"c", ValueType::kDouble}});
  Schema p = s.Project({2, 0});
  ASSERT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "c");
  EXPECT_EQ(p.column(1).name, "a");

  Schema joined = Schema::Concat(s, p);
  EXPECT_EQ(joined.num_columns(), 5u);
}

TEST(TupleTest, ProjectConcatRoundTrip) {
  Tuple t({Value::Int(1), Value::String("two"), Value::Double(3.0)});
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.at(0).AsDouble(), 3.0);
  EXPECT_EQ(p.at(1).AsInt(), 1);

  Tuple c = Tuple::Concat(t, p);
  EXPECT_EQ(c.size(), 5u);

  std::string buf;
  c.Serialize(&buf);
  auto back = Tuple::DeserializeFrom(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == c);
}

TEST(TupleTest, EqualityComparesValues) {
  Tuple a({Value::Int(1), Value::String("x")});
  Tuple b({Value::Int(1), Value::String("x")});
  Tuple c({Value::Int(2), Value::String("x")});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(TupleTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Tuple::DeserializeFrom("junk").ok());
}

}  // namespace
}  // namespace insight
