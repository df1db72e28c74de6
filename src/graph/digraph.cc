#include "graph/digraph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace graph {

namespace {

// Backing for the zero-node graph: one offset entry of 0, no targets.
// Static so empty graphs need no allocation and no keepalive.
constexpr EdgeIdx kEmptyOffsets[1] = {0};

}  // namespace

struct DiGraph::VectorStorage {
  std::vector<EdgeIdx> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<EdgeIdx> in_offsets;
  std::vector<NodeId> in_targets;
};

DiGraph::DiGraph()
    : out_offsets_(kEmptyOffsets, 1), in_offsets_(kEmptyOffsets, 1) {}

DiGraph::DiGraph(std::vector<EdgeIdx> out_offsets,
                 std::vector<NodeId> out_targets,
                 std::vector<EdgeIdx> in_offsets,
                 std::vector<NodeId> in_targets) {
  auto storage = std::make_shared<VectorStorage>();
  storage->out_offsets = std::move(out_offsets);
  storage->out_targets = std::move(out_targets);
  storage->in_offsets = std::move(in_offsets);
  storage->in_targets = std::move(in_targets);
  out_offsets_ = storage->out_offsets;
  out_targets_ = storage->out_targets;
  in_offsets_ = storage->in_offsets;
  in_targets_ = storage->in_targets;
  keepalive_ = std::move(storage);
  EN_CHECK(!out_offsets_.empty());
  EN_CHECK(out_offsets_.size() == in_offsets_.size());
  EN_CHECK(out_offsets_.front() == 0);
  EN_CHECK(in_offsets_.front() == 0);
  EN_CHECK(out_offsets_.back() == out_targets_.size());
  EN_CHECK(in_offsets_.back() == in_targets_.size());
  EN_CHECK(out_targets_.size() == in_targets_.size());
}

DiGraph DiGraph::FromBorrowed(std::span<const EdgeIdx> out_offsets,
                              std::span<const NodeId> out_targets,
                              std::span<const EdgeIdx> in_offsets,
                              std::span<const NodeId> in_targets,
                              std::shared_ptr<const void> keepalive,
                              std::optional<uint64_t> checksum) {
  EN_CHECK(!out_offsets.empty());
  EN_CHECK(out_offsets.size() == in_offsets.size());
  EN_CHECK(out_offsets.front() == 0);
  EN_CHECK(in_offsets.front() == 0);
  EN_CHECK(out_offsets.back() == out_targets.size());
  EN_CHECK(in_offsets.back() == in_targets.size());
  EN_CHECK(out_targets.size() == in_targets.size());
  DiGraph g;
  g.out_offsets_ = out_offsets;
  g.out_targets_ = out_targets;
  g.in_offsets_ = in_offsets;
  g.in_targets_ = in_targets;
  g.keepalive_ = std::move(keepalive);
  g.borrowed_ = true;
  g.checksum_ = checksum;
  return g;
}

DiGraph::DiGraph(DiGraph&& other) noexcept
    : out_offsets_(other.out_offsets_),
      out_targets_(other.out_targets_),
      in_offsets_(other.in_offsets_),
      in_targets_(other.in_targets_),
      keepalive_(std::move(other.keepalive_)),
      borrowed_(other.borrowed_),
      checksum_(std::exchange(other.checksum_, std::nullopt)) {
  // Leave the source in the valid empty state rather than with views into
  // storage it no longer keeps alive.
  other.out_offsets_ = std::span<const EdgeIdx>(kEmptyOffsets, 1);
  other.in_offsets_ = std::span<const EdgeIdx>(kEmptyOffsets, 1);
  other.out_targets_ = {};
  other.in_targets_ = {};
  other.borrowed_ = false;
}

DiGraph& DiGraph::operator=(DiGraph&& other) noexcept {
  if (this != &other) {
    out_offsets_ = other.out_offsets_;
    out_targets_ = other.out_targets_;
    in_offsets_ = other.in_offsets_;
    in_targets_ = other.in_targets_;
    keepalive_ = std::move(other.keepalive_);
    borrowed_ = other.borrowed_;
    checksum_ = std::exchange(other.checksum_, std::nullopt);
    other.out_offsets_ = std::span<const EdgeIdx>(kEmptyOffsets, 1);
    other.in_offsets_ = std::span<const EdgeIdx>(kEmptyOffsets, 1);
    other.out_targets_ = {};
    other.in_targets_ = {};
    other.borrowed_ = false;
  }
  return *this;
}

bool DiGraph::operator==(const DiGraph& other) const {
  return std::equal(out_offsets_.begin(), out_offsets_.end(),
                    other.out_offsets_.begin(), other.out_offsets_.end()) &&
         std::equal(out_targets_.begin(), out_targets_.end(),
                    other.out_targets_.begin(), other.out_targets_.end()) &&
         std::equal(in_offsets_.begin(), in_offsets_.end(),
                    other.in_offsets_.begin(), other.in_offsets_.end()) &&
         std::equal(in_targets_.begin(), in_targets_.end(),
                    other.in_targets_.begin(), other.in_targets_.end());
}

bool DiGraph::HasEdge(NodeId u, NodeId v) const {
  const auto nbrs = OutNeighbors(u);
  if (nbrs.size() < kHasEdgeLinearThreshold) {
    for (NodeId w : nbrs) {
      if (w >= v) return w == v;  // rows are sorted ascending
    }
    return false;
  }
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double DiGraph::Density() const {
  const double n = static_cast<double>(num_nodes());
  if (n < 2.0) return 0.0;
  return static_cast<double>(num_edges()) / (n * (n - 1.0));
}

uint64_t DiGraph::CountIsolated() const {
  uint64_t isolated = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    if (OutDegree(u) == 0 && InDegree(u) == 0) ++isolated;
  }
  return isolated;
}

DiGraph DiGraph::Transpose() const {
  DiGraph t = FromBorrowed(in_offsets_, in_targets_, out_offsets_,
                           out_targets_, keepalive_, std::nullopt);
  t.borrowed_ = borrowed_;  // sharing owned vectors is not a file borrow
  return t;
}

DegreeRelabeling DiGraph::RelabelByDegree() const {
  ELITENET_SPAN("graph.relabel_by_degree");
  const NodeId n = num_nodes();
  DegreeRelabeling out;
  out.new_to_old.resize(n);
  std::iota(out.new_to_old.begin(), out.new_to_old.end(), NodeId{0});
  std::sort(out.new_to_old.begin(), out.new_to_old.end(),
            [this](NodeId a, NodeId b) {
              const uint64_t da =
                  static_cast<uint64_t>(OutDegree(a)) + InDegree(a);
              const uint64_t db =
                  static_cast<uint64_t>(OutDegree(b)) + InDegree(b);
              if (da != db) return da > db;
              return a < b;
            });
  out.old_to_new.resize(n);
  for (NodeId i = 0; i < n; ++i) out.old_to_new[out.new_to_old[i]] = i;

  std::vector<EdgeIdx> out_offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<EdgeIdx> in_offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    out_offsets[i + 1] = out_offsets[i] + OutDegree(out.new_to_old[i]);
    in_offsets[i + 1] = in_offsets[i] + InDegree(out.new_to_old[i]);
  }
  std::vector<NodeId> out_targets(num_edges());
  std::vector<NodeId> in_targets(num_edges());
  // Rows are independent: map each row's targets through the permutation
  // and re-sort it, in parallel (deterministic — no cross-row state).
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const NodeId old_u = out.new_to_old[i];
      EdgeIdx w = out_offsets[i];
      for (NodeId v : OutNeighbors(old_u)) {
        out_targets[w++] = out.old_to_new[v];
      }
      std::sort(out_targets.begin() + out_offsets[i],
                out_targets.begin() + w);
      w = in_offsets[i];
      for (NodeId v : InNeighbors(old_u)) {
        in_targets[w++] = out.old_to_new[v];
      }
      std::sort(in_targets.begin() + in_offsets[i], in_targets.begin() + w);
    }
  });
  out.graph = DiGraph(std::move(out_offsets), std::move(out_targets),
                      std::move(in_offsets), std::move(in_targets));
  return out;
}

}  // namespace graph
}  // namespace elitenet
