#include "ir/batch.h"

#include <algorithm>

#include "common/logging.h"

namespace flex::ir {

namespace {

// Mirrors EntryHash in row.cc; keep the two in lockstep so GROUP/DEDUP
// keys hash identically whether a tuple lives in a column or a Row.
constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;

uint64_t VertexHash(vid_t vid) {
  return (static_cast<uint64_t>(vid) + 1) * kHashMul;
}

uint64_t EdgeHash(const EdgeRef& edge) {
  uint64_t h = (edge.eid + 1) * kHashMul;
  h ^= (static_cast<uint64_t>(edge.elabel) + 1) * kHashMul;
  h ^= h >> 31;
  return h;
}

}  // namespace

size_t Column::size() const {
  switch (kind_) {
    case Kind::kVertex:
      return vids_.size();
    case Kind::kEdge:
      return edges_.size();
    case Kind::kValue:
      return values_.size();
    case Kind::kBoxed:
      return boxed_.size();
  }
  return 0;
}

void Column::Reserve(size_t n) {
  switch (kind_) {
    case Kind::kVertex:
      vids_.reserve(n);
      break;
    case Kind::kEdge:
      edges_.reserve(n);
      break;
    case Kind::kValue:
      values_.reserve(n);
      break;
    case Kind::kBoxed:
      boxed_.reserve(n);
      break;
  }
}

void Column::BoxInPlace() {
  boxed_.reserve(size());
  switch (kind_) {
    case Kind::kVertex:
      for (vid_t v : vids_) boxed_.emplace_back(VertexRef{v});
      vids_.clear();
      vids_.shrink_to_fit();
      break;
    case Kind::kEdge:
      for (const EdgeRef& e : edges_) boxed_.emplace_back(e);
      edges_.clear();
      edges_.shrink_to_fit();
      break;
    case Kind::kValue:
      for (PropertyValue& v : values_) boxed_.emplace_back(std::move(v));
      values_.clear();
      values_.shrink_to_fit();
      break;
    case Kind::kBoxed:
      break;
  }
  kind_ = Kind::kBoxed;
  typed_ = true;
}

void Column::AppendVertex(vid_t v) {
  if (!typed_) {
    kind_ = Kind::kVertex;
    typed_ = true;
  }
  if (kind_ == Kind::kVertex) {
    vids_.push_back(v);
    return;
  }
  if (kind_ != Kind::kBoxed) BoxInPlace();
  boxed_.emplace_back(VertexRef{v});
}

void Column::AppendEdge(const EdgeRef& e) {
  if (!typed_) {
    kind_ = Kind::kEdge;
    typed_ = true;
  }
  if (kind_ == Kind::kEdge) {
    edges_.push_back(e);
    return;
  }
  if (kind_ != Kind::kBoxed) BoxInPlace();
  boxed_.emplace_back(e);
}

void Column::AppendValue(PropertyValue v) {
  if (!typed_) {
    kind_ = Kind::kValue;
    typed_ = true;
  }
  if (kind_ == Kind::kValue) {
    values_.push_back(std::move(v));
    return;
  }
  if (kind_ != Kind::kBoxed) BoxInPlace();
  boxed_.emplace_back(std::move(v));
}

void Column::AppendEntry(const Entry& e) {
  if (const auto* vertex = std::get_if<VertexRef>(&e)) {
    AppendVertex(vertex->vid);
    return;
  }
  if (const auto* edge = std::get_if<EdgeRef>(&e)) {
    AppendEdge(*edge);
    return;
  }
  AppendValue(std::get<PropertyValue>(e));
}

void Column::AppendFrom(const Column& src, size_t i) {
  switch (src.kind_) {
    case Kind::kVertex:
      AppendVertex(src.vids_[i]);
      return;
    case Kind::kEdge:
      AppendEdge(src.edges_[i]);
      return;
    case Kind::kValue:
      AppendValue(src.values_[i]);
      return;
    case Kind::kBoxed:
      AppendEntry(src.boxed_[i]);
      return;
  }
}

void Column::GatherFrom(const Column& src, std::span<const uint32_t> rows) {
  // Same-kind gathers (the overwhelmingly common case) copy straight
  // through the typed vectors; anything else falls back to per-row
  // appends with promotion.
  if (empty() && !typed_) {
    kind_ = src.kind_;
    typed_ = true;
  }
  if (kind_ == src.kind_) {
    switch (kind_) {
      case Kind::kVertex:
        vids_.reserve(vids_.size() + rows.size());
        for (uint32_t i : rows) vids_.push_back(src.vids_[i]);
        return;
      case Kind::kEdge:
        edges_.reserve(edges_.size() + rows.size());
        for (uint32_t i : rows) edges_.push_back(src.edges_[i]);
        return;
      case Kind::kValue:
        values_.reserve(values_.size() + rows.size());
        for (uint32_t i : rows) values_.push_back(src.values_[i]);
        return;
      case Kind::kBoxed:
        boxed_.reserve(boxed_.size() + rows.size());
        for (uint32_t i : rows) boxed_.push_back(src.boxed_[i]);
        return;
    }
  }
  for (uint32_t i : rows) AppendFrom(src, i);
}

bool Column::IsVertexAt(size_t i) const {
  if (kind_ == Kind::kVertex) return true;
  if (kind_ == Kind::kBoxed) return IsVertex(boxed_[i]);
  return false;
}

bool Column::IsEdgeAt(size_t i) const {
  if (kind_ == Kind::kEdge) return true;
  if (kind_ == Kind::kBoxed) return IsEdge(boxed_[i]);
  return false;
}

bool Column::IsValueAt(size_t i) const {
  if (kind_ == Kind::kValue) return true;
  if (kind_ == Kind::kBoxed) return IsValue(boxed_[i]);
  return false;
}

vid_t Column::VertexAt(size_t i) const {
  if (kind_ == Kind::kVertex) return vids_[i];
  return std::get<VertexRef>(boxed_[i]).vid;
}

const EdgeRef* Column::EdgeAt(size_t i) const {
  if (kind_ == Kind::kEdge) return &edges_[i];
  if (kind_ == Kind::kBoxed) return std::get_if<EdgeRef>(&boxed_[i]);
  return nullptr;
}

const PropertyValue& Column::ValueAt(size_t i) const {
  if (kind_ == Kind::kValue) return values_[i];
  return std::get<PropertyValue>(boxed_[i]);
}

Entry Column::EntryAt(size_t i) const {
  switch (kind_) {
    case Kind::kVertex:
      return VertexRef{vids_[i]};
    case Kind::kEdge:
      return edges_[i];
    case Kind::kValue:
      return values_[i];
    case Kind::kBoxed:
      return boxed_[i];
  }
  return PropertyValue();
}

uint64_t Column::HashAt(size_t i) const {
  switch (kind_) {
    case Kind::kVertex:
      return VertexHash(vids_[i]);
    case Kind::kEdge:
      return EdgeHash(edges_[i]);
    case Kind::kValue:
      return values_[i].Hash();
    case Kind::kBoxed:
      return EntryHash(boxed_[i]);
  }
  return 0;
}

std::string Column::ToStringAt(size_t i) const {
  switch (kind_) {
    case Kind::kVertex:
      return "v[" + std::to_string(vids_[i]) + "]";
    case Kind::kEdge:
      return "e[" + std::to_string(edges_[i].src) + "->" +
             std::to_string(edges_[i].dst) + "]";
    case Kind::kValue:
      return values_[i].ToString();
    case Kind::kBoxed:
      return EntryToString(boxed_[i]);
  }
  return "";
}

void Batch::AddColumn(Column c) {
  if (columns_.empty()) {
    num_rows_ = c.size();
  } else {
    FLEX_CHECK(c.size() == num_rows_);
  }
  columns_.push_back(std::move(c));
}

void Batch::SelectAll() {
  sel_.resize(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) sel_[i] = static_cast<uint32_t>(i);
}

void Batch::AppendRow(const Row& row) {
  if (num_rows_ == 0 && columns_.empty()) columns_.resize(row.size());
  FLEX_CHECK(row.size() == columns_.size());
  for (size_t c = 0; c < row.size(); ++c) columns_[c].AppendEntry(row[c]);
  sel_.push_back(static_cast<uint32_t>(num_rows_));
  ++num_rows_;
}

Row Batch::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.EntryAt(i));
  return row;
}

std::vector<Row> BatchesToRows(const std::vector<Batch>& batches) {
  std::vector<Row> rows;
  rows.reserve(TotalSelected(batches));
  for (const Batch& batch : batches) {
    for (uint32_t i : batch.selection()) rows.push_back(batch.RowAt(i));
  }
  return rows;
}

std::vector<Batch> RowsToBatches(const std::vector<Row>& rows) {
  std::vector<Batch> batches;
  batches.reserve((rows.size() + kBatchSize - 1) / kBatchSize);
  for (size_t start = 0; start < rows.size(); start += kBatchSize) {
    const size_t stop = std::min(rows.size(), start + kBatchSize);
    Batch batch;
    for (size_t i = start; i < stop; ++i) batch.AppendRow(rows[i]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

size_t TotalSelected(const std::vector<Batch>& batches) {
  size_t total = 0;
  for (const Batch& batch : batches) total += batch.NumSelected();
  return total;
}

}  // namespace flex::ir
