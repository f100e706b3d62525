#include "types/schema.h"

#include "common/string_util.h"

namespace insight {

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return Status::NotFound("no column named " + name);
}

Status Schema::AddColumn(Column col) {
  for (const Column& c : columns_) {
    if (EqualsIgnoreCase(c.name, col.name)) {
      return Status::AlreadyExists("duplicate column " + col.name);
    }
  }
  columns_.push_back(std::move(col));
  return Status::OK();
}

Schema Schema::Project(const std::vector<size_t>& indices) const {
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (size_t i : indices) cols.push_back(columns_[i]);
  return Schema(std::move(cols));
}

Schema Schema::Qualified(const std::string& rel) const {
  if (rel.empty()) return *this;
  std::vector<Column> cols = columns_;
  for (Column& col : cols) col.name = rel + "." + col.name;
  return Schema(std::move(cols));
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += ValueTypeToString(columns_[i].type);
  }
  out += ")";
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace insight
