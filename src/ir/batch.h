#ifndef FLEX_IR_BATCH_H_
#define FLEX_IR_BATCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/row.h"

namespace flex::ir {

/// Target tuples per columnar chunk. Chosen so a vid column plus a
/// selection vector stay L1/L2-resident while amortizing per-batch
/// bookkeeping over ~1k tuples.
inline constexpr size_t kBatchSize = 1024;

/// One column of a Batch. Columns are typed: a column produced by SCAN /
/// EXPAND holds raw vids, an EXPAND_EDGE column holds EdgeRefs, a PROJECT
/// output holds PropertyValues. Mixing entry kinds in one column (possible
/// after bridging through the row representation) promotes the column to
/// the boxed form, which stores full `Entry` variants — the row path's
/// representation — so correctness never depends on a column staying typed.
class Column {
 public:
  enum class Kind : uint8_t { kVertex, kEdge, kValue, kBoxed };

  Kind kind() const { return kind_; }
  size_t size() const;
  bool empty() const { return size() == 0; }
  void Reserve(size_t n);

  // ---- builders (the first append fixes the kind; later mismatching
  // appends promote the column to kBoxed).
  void AppendVertex(vid_t v);
  void AppendEdge(const EdgeRef& e);
  void AppendValue(PropertyValue v);
  void AppendEntry(const Entry& e);
  /// Appends row `i` of `src` (any kinds).
  void AppendFrom(const Column& src, size_t i);
  /// Appends the given rows of `src` column-wise (the batched gather that
  /// replaces per-row `Row` copies).
  void GatherFrom(const Column& src, std::span<const uint32_t> rows);

  // ---- typed views (valid only for the matching non-boxed kind)
  std::span<const vid_t> vids() const { return vids_; }
  std::span<const EdgeRef> edges() const { return edges_; }

  // ---- per-row views that work for every kind
  bool IsVertexAt(size_t i) const;
  bool IsEdgeAt(size_t i) const;
  bool IsValueAt(size_t i) const;
  /// Precondition: IsVertexAt(i).
  vid_t VertexAt(size_t i) const;
  /// nullptr when row `i` is not an edge.
  const EdgeRef* EdgeAt(size_t i) const;
  /// Precondition: IsValueAt(i).
  const PropertyValue& ValueAt(size_t i) const;
  /// Boxes row `i` back into the row representation.
  Entry EntryAt(size_t i) const;
  /// Equals EntryHash(EntryAt(i)) without boxing.
  uint64_t HashAt(size_t i) const;
  /// Equals EntryToString(EntryAt(i)) without boxing.
  std::string ToStringAt(size_t i) const;

 private:
  void BoxInPlace();

  Kind kind_ = Kind::kValue;
  bool typed_ = false;  ///< False until the first append fixes the kind.
  std::vector<vid_t> vids_;
  std::vector<EdgeRef> edges_;
  std::vector<PropertyValue> values_;
  std::vector<Entry> boxed_;
};

/// A columnar chunk of tuples: one Column per plan column plus a shared
/// selection vector. Filters (SELECT, pushed-down predicates, EXPAND_INTO)
/// refine the selection in place instead of copying survivors; appending
/// operators gather the selected rows of their input column-wise into
/// compact output batches.
class Batch {
 public:
  Batch() = default;

  size_t num_columns() const { return columns_.size(); }
  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  void AddColumn(Column c);

  /// Physical rows (columns all share the count; tracked explicitly so a
  /// zero-column batch — the seed of a leading SCAN — still has rows).
  size_t NumRows() const { return num_rows_; }

  /// Live physical row indices, ascending. Operators iterate this.
  const std::vector<uint32_t>& selection() const { return sel_; }
  size_t NumSelected() const { return sel_.size(); }
  /// Replaces the selection (must be a subsequence of live rows).
  void SetSelection(std::vector<uint32_t> sel) { sel_ = std::move(sel); }
  /// Identity selection over all physical rows.
  void SelectAll();

  /// Appends one row to every column (row width must match; establishes
  /// the width on the first append to an empty batch). Extends the
  /// selection with the new physical row.
  void AppendRow(const Row& row);
  /// Boxes physical row `i` back into the row representation.
  Row RowAt(size_t i) const;

 private:
  std::vector<Column> columns_;
  std::vector<uint32_t> sel_;
  size_t num_rows_ = 0;
};

/// Boxes the selected rows of each batch, in batch-list order.
std::vector<Row> BatchesToRows(const std::vector<Batch>& batches);

/// Chunks rows into batches of kBatchSize with identity selections.
std::vector<Batch> RowsToBatches(const std::vector<Row>& rows);

/// Total selected rows across `batches`.
size_t TotalSelected(const std::vector<Batch>& batches);

}  // namespace flex::ir

#endif  // FLEX_IR_BATCH_H_
