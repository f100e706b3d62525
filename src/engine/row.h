#ifndef INSIGHTNOTES_ENGINE_ROW_H_
#define INSIGHTNOTES_ENGINE_ROW_H_

#include <string>

#include "summary/summary_object.h"
#include "types/tuple.h"

namespace insight {

/// The unit flowing through the query pipeline: a data tuple plus its
/// attached summary set (the paper's r = <a1..an, {s1..sk}>). `oid` is
/// the source tuple's identifier while the row is still base-table-shaped;
/// joins and aggregates clear it.
struct Row {
  Oid oid = kInvalidOid;
  Tuple data;
  SummarySet summaries;

  std::string ToString() const {
    std::string out = data.ToString();
    if (!summaries.empty()) {
      out += " $";
      out += summaries.ToString();
    }
    return out;
  }

  /// Serialized form for external-sort spill files.
  void Serialize(std::string* dst) const {
    PutU64(dst, oid);
    data.Serialize(dst);
    summaries.Serialize(dst);
  }

  static Result<Row> Deserialize(std::string_view buf) {
    SerdeReader reader(buf);
    Row row;
    uint64_t oid;
    if (!reader.ReadU64(&oid)) return Status::Corruption("row: oid");
    row.oid = oid;
    INSIGHT_ASSIGN_OR_RETURN(row.data, Tuple::Deserialize(&reader));
    // The rest of the buffer is the set's stored form.
    INSIGHT_ASSIGN_OR_RETURN(
        row.summaries,
        SummarySet::FromStored(std::string(buf.substr(reader.position()))));
    return row;
  }
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_ROW_H_
