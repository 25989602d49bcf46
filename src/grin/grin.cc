#include "grin/grin.h"

#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::grin {

bool MatchesCondition(const VertexCondition& condition,
                      const PropertyValue& value) {
  switch (condition.cmp) {
    case VertexCondition::Cmp::kEq:
      return value == condition.value;
    case VertexCondition::Cmp::kNe:
      return value != condition.value;
    case VertexCondition::Cmp::kLt:
      return value.Compare(condition.value) < 0;
    case VertexCondition::Cmp::kLe:
      return value.Compare(condition.value) <= 0;
    case VertexCondition::Cmp::kGt:
      return value.Compare(condition.value) > 0;
    case VertexCondition::Cmp::kGe:
      return value.Compare(condition.value) >= 0;
  }
  return false;
}

GrinGraph::~GrinGraph() = default;

Status GrinGraph::RequireTraits(uint32_t required) const {
  const uint32_t missing = required & ~capabilities();
  if (missing == 0) return Status::OK();
  return Status::CapabilityMissing("backend '" + backend_name() +
                                   "' lacks required GRIN traits (mask " +
                                   std::to_string(missing) + ")");
}

std::pair<vid_t, vid_t> GrinGraph::VertexRange(label_t label) const {
  return {0, 0};
}

namespace {

/// Adapts the scalar AdjVisitor to the batched one, tagging each chunk
/// with the source index and concrete direction.
struct BatchAdjForward {
  BatchAdjVisitor visitor;
  void* ctx;
  size_t src_index = 0;
  Direction dir = Direction::kOut;
};

bool ForwardChunk(void* raw, const AdjChunk& chunk) {
  auto* f = static_cast<BatchAdjForward*>(raw);
  return f->visitor(f->ctx, f->src_index, f->dir, chunk);
}

}  // namespace

bool GrinGraph::GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                  label_t edge_label, BatchAdjVisitor visitor,
                                  void* ctx) const {
  BatchAdjForward forward{visitor, ctx};
  for (size_t i = 0; i < vids.size(); ++i) {
    forward.src_index = i;
    // kBoth expands per source (out then in), matching the scalar call
    // order engines relied on before batching.
    if (dir != Direction::kIn) {
      forward.dir = Direction::kOut;
      if (!VisitAdj(vids[i], Direction::kOut, edge_label, ForwardChunk,
                    &forward)) {
        return false;
      }
    }
    if (dir != Direction::kOut) {
      forward.dir = Direction::kIn;
      if (!VisitAdj(vids[i], Direction::kIn, edge_label, ForwardChunk,
                    &forward)) {
        return false;
      }
    }
  }
  return true;
}

void GrinGraph::GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                                      PropertyValue* out) const {
  for (size_t i = 0; i < vids.size(); ++i) {
    out[i] = GetVertexProperty(vids[i], col);
  }
}

namespace {

/// Candidates buffered per chunk by the filtered entry points: enough to
/// amortise one GetVerticesProperties call per column, few enough that
/// the buffers stay cache-resident.
constexpr size_t kFilterChunk = 1024;

/// The one filtered path behind both entry points. Candidates (vertices
/// that passed the engine predicate or the destination-label check) buffer
/// in visit order, each with a caller tag. Flush evaluates the filter one
/// condition column at a time through GetVerticesProperties, narrowing the
/// candidate set as it goes, gathers the projection columns for the
/// survivors the same way, and delivers the survivors in visit order.
/// Buffers are reused across chunks.
class FilterChunker {
 public:
  FilterChunker(const GrinGraph& graph, const VertexFilter& filter,
                std::span<const size_t> project_cols)
      : graph_(graph), filter_(filter), project_cols_(project_cols) {}

  /// Nothing to evaluate or gather: callers deliver straight from the
  /// visit, buffering (and allocating) nothing.
  bool passthrough() const {
    return filter_.empty() && project_cols_.empty();
  }

  /// Buffers one candidate; true when the chunk is full and must flush.
  bool Add(vid_t v, size_t tag) {
    vids_.push_back(v);
    tags_.push_back(tag);
    return vids_.size() >= kFilterChunk;
  }

  /// Calls `deliver(tag, v, props)` for each buffered survivor in visit
  /// order and empties the buffer. Returns false as soon as `deliver`
  /// does; candidates after that one are neither delivered nor counted.
  /// Every pruned candidate before the stop bumps kFusedRowsPrunedTotal.
  template <typename Deliver>
  bool Flush(Deliver&& deliver) {
    const size_t n = vids_.size();
    keep_.resize(n);
    for (size_t i = 0; i < n; ++i) keep_[i] = i;
    for (const VertexCondition& condition : filter_.conditions) {
      if (keep_.empty()) break;
      if (condition.column == VertexCondition::kNoColumn) {
        // An unresolvable property reads as the empty value everywhere.
        if (!MatchesCondition(condition, PropertyValue())) keep_.clear();
        continue;
      }
      Fetch(condition.column);
      size_t kept = 0;
      for (size_t k = 0; k < keep_.size(); ++k) {
        if (MatchesCondition(condition, values_[k])) keep_[kept++] = keep_[k];
      }
      keep_.resize(kept);
    }
    const size_t width = project_cols_.size();
    props_.resize(keep_.size() * width);
    for (size_t p = 0; p < width && !keep_.empty(); ++p) {
      Fetch(project_cols_[p]);
      for (size_t k = 0; k < keep_.size(); ++k) {
        props_[k * width + p] = std::move(values_[k]);
      }
    }
    size_t pruned = 0;
    size_t next = 0;  // First candidate not yet delivered or pruned.
    bool go = true;
    for (size_t k = 0; k < keep_.size() && go; ++k) {
      const size_t i = keep_[k];
      pruned += i - next;
      next = i + 1;
      go = deliver(tags_[i], vids_[i],
                   std::span<const PropertyValue>(props_.data() + k * width,
                                                  width));
    }
    if (go) pruned += n - next;
    if (pruned > 0) FLEX_COUNTER_ADD(metrics::kFusedRowsPrunedTotal, pruned);
    vids_.clear();
    tags_.clear();
    return go;
  }

 private:
  /// values_[k] = column `col` of the k-th kept candidate.
  void Fetch(size_t col) {
    std::span<const vid_t> vids = vids_;
    if (keep_.size() < vids_.size()) {
      gather_.clear();
      for (const size_t i : keep_) gather_.push_back(vids_[i]);
      vids = gather_;
    }
    values_.resize(vids.size());
    graph_.GetVerticesProperties(vids, col, values_.data());
  }

  const GrinGraph& graph_;
  const VertexFilter& filter_;
  std::span<const size_t> project_cols_;
  std::vector<vid_t> vids_;    ///< Buffered candidates, visit order.
  std::vector<size_t> tags_;   ///< Caller tag per candidate.
  std::vector<size_t> keep_;   ///< Indices of candidates still passing.
  std::vector<vid_t> gather_;  ///< Kept vids, when fewer than all.
  std::vector<PropertyValue> values_;  ///< One fetched column.
  std::vector<PropertyValue> props_;   ///< Survivor-major projections.
};

}  // namespace

bool GrinGraph::VisitVerticesFiltered(label_t label, VertexPredicate pred,
                                      void* pred_ctx,
                                      const VertexFilter& filter,
                                      std::span<const size_t> project_cols,
                                      FilteredVertexVisitor visitor,
                                      void* visitor_ctx) const {
  struct Ctx {
    FilterChunker chunk;
    FilteredVertexVisitor visitor;
    void* visitor_ctx;
    bool stopped = false;

    bool Flush() {
      stopped = !chunk.Flush(
          [this](size_t, vid_t v, std::span<const PropertyValue> props) {
            return visitor(visitor_ctx, v, props);
          });
      return !stopped;
    }
  } ctx{{*this, filter, project_cols}, visitor, visitor_ctx};
  VisitVertices(
      label, pred, pred_ctx,
      [](void* raw, vid_t v) -> bool {
        auto* c = static_cast<Ctx*>(raw);
        if (c->chunk.passthrough()) {
          c->stopped = !c->visitor(c->visitor_ctx, v, {});
          return !c->stopped;
        }
        return !c->chunk.Add(v, 0) || c->Flush();
      },
      &ctx);
  return !ctx.stopped && ctx.Flush();
}

bool GrinGraph::GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                  label_t edge_label, label_t dst_label,
                                  const VertexFilter& filter,
                                  std::span<const size_t> project_cols,
                                  FilteredNeighborVisitor visitor,
                                  void* ctx) const {
  struct Ctx {
    const GrinGraph* graph;
    label_t dst_label;
    FilterChunker chunk;
    FilteredNeighborVisitor visitor;
    void* ctx;

    bool Flush() {
      return chunk.Flush([this](size_t src_index, vid_t nbr,
                                std::span<const PropertyValue> props) {
        return visitor(ctx, src_index, nbr, props);
      });
    }
  } c{this, dst_label, {*this, filter, project_cols}, visitor, ctx};
  const bool done = GetNeighborsBatch(
      vids, dir, edge_label,
      [](void* raw, size_t src_index, Direction, const AdjChunk& chunk)
          -> bool {
        auto* c = static_cast<Ctx*>(raw);
        for (const vid_t nbr : chunk.neighbors) {
          if (c->dst_label != kInvalidLabel &&
              c->graph->VertexLabelOf(nbr) != c->dst_label) {
            continue;
          }
          if (c->chunk.passthrough()) {
            if (!c->visitor(c->ctx, src_index, nbr, {})) return false;
          } else if (c->chunk.Add(nbr, src_index) && !c->Flush()) {
            return false;
          }
        }
        return true;
      },
      &c);
  return done && c.Flush();
}

std::span<const int64_t> GrinGraph::VertexInt64Column(label_t label,
                                                      size_t col) const {
  return {};
}

std::span<const double> GrinGraph::VertexDoubleColumn(label_t label,
                                                      size_t col) const {
  return {};
}

}  // namespace flex::grin
