#ifndef INSIGHTNOTES_TYPES_SCHEMA_H_
#define INSIGHTNOTES_TYPES_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace insight {

/// A named, typed column of a relation.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// Ordered set of columns describing a relation or an operator output.
/// Column names are unique case-insensitively within one schema; qualified
/// names ("r.a") are stored verbatim and looked up verbatim — the SQL
/// binder resolves every reference to the exact name an operator emits.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the first column named exactly `name` (case-insensitive);
  /// NotFound if absent.
  Result<size_t> IndexOf(const std::string& name) const;

  /// Appends a column; returns AlreadyExists on an exact duplicate name.
  Status AddColumn(Column col);

  /// Schema with only the listed columns (by position), in that order.
  Schema Project(const std::vector<size_t>& indices) const;

  /// The same columns named `rel.col`: how a scan exposes its relation
  /// under a FROM entry's name. Unchanged when `rel` is empty.
  Schema Qualified(const std::string& rel) const;

  /// Concatenation for join outputs. Collisions are allowed because join
  /// outputs keep qualified names.
  static Schema Concat(const Schema& left, const Schema& right);

  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_TYPES_SCHEMA_H_
