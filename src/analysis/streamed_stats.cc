#include "analysis/streamed_stats.h"

#include <cmath>
#include <limits>

namespace elitenet {
namespace analysis {

namespace {

using graph::DiGraph;
using graph::NodeId;

// Raw-moment accumulator for one assortativity flavour — the same five
// sums DegreeAssortativity keeps, updated in the same per-edge order.
struct Moments {
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;

  void Add(double x, double y) {
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }

  // Mirrors DegreeAssortativity's finalization exactly, including the
  // degenerate-variance guard.
  double Pearson(uint64_t m) const {
    if (m == 0) return 0.0;
    const double n = static_cast<double>(m);
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    if (vx <= 0.0 || vy <= 0.0) return 0.0;
    return cov / std::sqrt(vx * vy);
  }
};

}  // namespace

StreamedBasicStats ComputeStreamedBasicStats(const DiGraph& g) {
  StreamedBasicStats s;
  const NodeId n = g.num_nodes();
  s.reciprocity.total_edges = g.num_edges();
  if (n == 0) return s;

  s.degrees.min_out_degree = std::numeric_limits<uint32_t>::max();
  s.degrees.min_in_degree = std::numeric_limits<uint32_t>::max();
  uint64_t out_sum = 0, in_sum = 0;
  Moments out_in, out_out, in_in, in_out, total;

  for (NodeId u = 0; u < n; ++u) {
    const uint32_t od = g.OutDegree(u);
    const uint32_t id = g.InDegree(u);

    // -- degree tallies (ComputeDegreeStats' comparisons verbatim, so
    // argmax tie-breaking matches: first strict maximum wins).
    out_sum += od;
    in_sum += id;
    if (od < s.degrees.min_out_degree) s.degrees.min_out_degree = od;
    if (od > s.degrees.max_out_degree) {
      s.degrees.max_out_degree = od;
      s.degrees.argmax_out_degree = u;
    }
    if (id < s.degrees.min_in_degree) s.degrees.min_in_degree = id;
    if (id > s.degrees.max_in_degree) {
      s.degrees.max_in_degree = id;
      s.degrees.argmax_in_degree = u;
    }
    if (od == 0 && id == 0) ++s.degrees.isolated_nodes;
    if (od == 0 && id > 0) ++s.degrees.sink_nodes;
    if (id == 0 && od > 0) ++s.degrees.source_nodes;

    const auto outs = g.OutNeighbors(u);
    const auto ins = g.InNeighbors(u);

    // -- reciprocity: merge-count |out(u) ∩ in(u)|.
    {
      size_t i = 0, j = 0;
      while (i < outs.size() && j < ins.size()) {
        if (outs[i] < ins[j]) {
          ++i;
        } else if (outs[i] > ins[j]) {
          ++j;
        } else {
          ++s.reciprocity.reciprocated_edges;
          ++i;
          ++j;
        }
      }
    }

    // -- assortativity: all five flavours per edge, each flavour's
    // sums touched in the same order its standalone pass would.
    const double x_out = od;
    const double x_in = id;
    const double x_total = static_cast<double>(od) + id;
    for (NodeId v : outs) {
      const double y_out = g.OutDegree(v);
      const double y_in = g.InDegree(v);
      const double y_total = static_cast<double>(g.OutDegree(v)) +
                             g.InDegree(v);
      out_in.Add(x_out, y_in);
      out_out.Add(x_out, y_out);
      in_in.Add(x_in, y_in);
      in_out.Add(x_in, y_out);
      total.Add(x_total, y_total);
    }
  }

  s.degrees.avg_out_degree =
      static_cast<double>(out_sum) / static_cast<double>(n);
  s.degrees.avg_in_degree =
      static_cast<double>(in_sum) / static_cast<double>(n);
  s.degrees.density = g.Density();

  s.reciprocity.mutual_pairs = s.reciprocity.reciprocated_edges / 2;
  if (s.reciprocity.total_edges > 0) {
    s.reciprocity.rate =
        static_cast<double>(s.reciprocity.reciprocated_edges) /
        static_cast<double>(s.reciprocity.total_edges);
  }

  const uint64_t m = g.num_edges();
  s.assortativity.out_in = out_in.Pearson(m);
  s.assortativity.out_out = out_out.Pearson(m);
  s.assortativity.in_in = in_in.Pearson(m);
  s.assortativity.in_out = in_out.Pearson(m);
  s.assortativity.total = total.Pearson(m);
  return s;
}

}  // namespace analysis
}  // namespace elitenet
