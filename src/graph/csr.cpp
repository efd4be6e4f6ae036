#include "graph/csr.h"

#include "obs/registry.h"
#include "obs/span.h"
#include "util/error.h"

namespace lcg::graph {

namespace {

/// freeze() runs once per utility evaluation in the arena hot loop, so
/// its obs cost matters: one relaxed load disabled, a counter bump and a
/// histogram record enabled.
struct view_metrics {
  obs::counter& freeze;
  obs::histogram& freeze_seconds;
  static const view_metrics& get() {
    auto& reg = obs::registry::global();
    static const std::vector<double> bounds{1e-6, 1e-5, 1e-4, 1e-3,
                                            0.01, 0.1,  1,    10};
    static const view_metrics m{
        reg.get_counter("graph/freeze_view"),
        reg.get_histogram("graph/freeze_seconds", bounds),
    };
    return m;
  }
};

}  // namespace

csr_graph freeze(const digraph& g) {
  obs::scoped_timer timer(view_metrics::get().freeze_seconds);
  view_metrics::get().freeze.add();
  const std::size_t n = g.node_count();
  csr_graph c;
  c.node_count_ = n;
  c.edge_slots_ = g.edge_slots();
  c.row_.assign(n + 1, 0);
  const std::size_t m = g.edge_count();
  c.col_.reserve(m);
  c.src_.reserve(m);
  c.cap_.reserve(m);
  c.orig_.reserve(m);
  for (node_id v = 0; v < n; ++v) {
    // The digraph's active out-edge order IS the frozen order — the pin
    // every bitwise-equivalence guarantee in this module rests on.
    g.for_each_out(v, [&](edge_id e, const edge& ed) {
      c.col_.push_back(ed.dst);
      c.src_.push_back(v);
      c.cap_.push_back(ed.capacity);
      c.orig_.push_back(e);
    });
    c.row_[v + 1] = static_cast<csr_graph::packed_id>(c.col_.size());
  }
  LCG_ENSURES(c.col_.size() == m);
  return c;
}

}  // namespace lcg::graph
