#include "obs/critpath.hpp"

#include <algorithm>
#include <utility>

#include "obs/whatif.hpp"

namespace tc3i::obs {

const char* dep_kind_name(DepKind k) {
  switch (k) {
    case DepKind::kCompute: return "compute";
    case DepKind::kMemory: return "memory";
    case DepKind::kSync: return "sync";
    case DepKind::kSpawn: return "spawn";
  }
  return "unknown";
}

const char* dep_knob_label(DepKind k) {
  switch (k) {
    case DepKind::kCompute: return "compute";
    case DepKind::kMemory: return "memory_latency";
    case DepKind::kSync: return "sync_cost";
    case DepKind::kSpawn: return "spawn_cost";
  }
  return "unknown";
}

CritPathSummary summarize(const DepGraph& graph) {
  CritPathSummary s;
  if (graph.nodes.empty()) return s;
  s.present = true;
  s.unit = graph.unit;
  s.total = graph.total;
  s.nodes = graph.nodes.size();
  s.edges = graph.edges.size();

  const whatif::Projection identity = whatif::project(graph, {});
  s.path_length = identity.path;
  s.resource_bound = identity.bound;
  s.binding_resource = identity.binding_resource;
  s.coverage = graph.total > 0.0 ? identity.predicted / graph.total : 0.0;
  for (const DepResource& r : graph.resources)
    s.resources.push_back(CritPathResource{r.name, r.amount});

  // Walk the *recorded* critical path backwards from the end event: at each
  // node, the binding predecessor is the one whose recorded arrival is
  // latest. The step n.time - pred.time splits into the edge's scalable
  // weight (attributed to its kind), its fixed part (queueing), and the
  // node's slack behind the binding arrival (arbitration gap). The buckets
  // therefore sum to the recorded run length exactly.
  std::vector<double> region_weight(graph.region_names.size(), 0.0);
  std::uint32_t cur = graph.end_node;
  for (std::size_t steps = 0; steps <= graph.nodes.size(); ++steps) {
    const DepNode& n = graph.nodes[cur];
    if (n.num_edges == 0) {
      // A root that is not at time zero is unexplained lead-in slack.
      s.gap += std::max(0.0, n.time);
      break;
    }
    const std::uint32_t last = n.first_edge + n.num_edges;
    std::uint32_t best_j = n.first_edge;
    double best_arrive = -1.0;
    for (std::uint32_t j = n.first_edge; j < last; ++j) {
      const DepEdge& e = graph.edges[j];
      const double arrive = graph.nodes[e.pred].time +
                            static_cast<double>(e.fixed) +
                            static_cast<double>(e.weight);
      if (arrive > best_arrive) {
        best_arrive = arrive;
        best_j = j;
      }
    }
    const DepEdge& e = graph.edges[best_j];
    const double weight = static_cast<double>(e.weight);
    const double fixed = static_cast<double>(e.fixed);
    const double gap = std::max(0.0, n.time - best_arrive);
    switch (e.kind) {
      case DepKind::kCompute: s.compute += weight; break;
      case DepKind::kMemory: s.memory += weight; break;
      case DepKind::kSync: s.sync += weight; break;
      case DepKind::kSpawn: s.spawn += weight; break;
    }
    s.queue += fixed;
    s.gap += gap;
    if (n.region >= 0 &&
        static_cast<std::size_t>(n.region) < region_weight.size())
      region_weight[static_cast<std::size_t>(n.region)] +=
          weight + fixed + gap;
    cur = e.pred;
  }
  for (std::size_t i = 0; i < region_weight.size(); ++i)
    if (region_weight[i] > 0.0)
      s.regions.push_back(CritPathRegion{graph.region_names[i],
                                         region_weight[i]});

  s.projections = whatif::standard_projections(graph);
  return s;
}

void CritPathStore::add(DepGraph graph) {
  if (!retain_) return;
  std::lock_guard<std::mutex> lock(mu_);
  graphs_.push_back(std::move(graph));
}

std::vector<DepGraph> CritPathStore::graphs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_;
}

std::size_t CritPathStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

}  // namespace tc3i::obs
