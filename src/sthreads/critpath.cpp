#include "sthreads/critpath.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

namespace tc3i::sthreads::cap {

namespace detail {
std::atomic<void*> g_active{nullptr};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// The whole capture state. Allocated by begin(), torn down by end();
/// detail::g_active points at it while active.
struct HostCap {
  std::mutex mu;
  obs::DepGraph graph;
  std::vector<std::uint32_t> finished;  ///< final nodes of exited threads
  Clock::time_point t0;
  int threads = 0;
};

/// Monotonically increasing capture id; NodeRefs are tagged with it so a
/// handle stored in a primitive that outlives one capture is recognized as
/// stale in the next.
std::atomic<std::uint64_t> g_epoch{0};

/// The calling thread's chain: its last recorded event in the current
/// capture. epoch-mismatch means "first event this capture" and the chain
/// restarts from the root node.
struct Chain {
  std::uint64_t epoch = 0;
  std::uint32_t node = 0;
  double time = 0.0;
};
thread_local Chain t_chain;

HostCap* active_cap() {
  return static_cast<HostCap*>(detail::g_active.load(std::memory_order_acquire));
}

double now_seconds(const HostCap& cap) {
  return std::chrono::duration<double>(Clock::now() - cap.t0).count();
}

Chain& chain_for(std::uint64_t epoch) {
  if (t_chain.epoch != epoch) t_chain = Chain{epoch, 0, 0.0};
  return t_chain;
}

/// Core emitter: appends a node at wall-now with an own-chain edge of
/// `kind` carrying the elapsed time since the thread's last event, plus a
/// 0-weight `kind` edge from each valid predecessor. Must be called with
/// capture active.
NodeRef emit(HostCap& cap, obs::DepKind kind, const NodeRef* preds,
             std::size_t num_preds) {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  const double now = now_seconds(cap);
  std::lock_guard<std::mutex> lock(cap.mu);
  Chain& chain = chain_for(epoch);
  const std::uint32_t n = cap.graph.add_node(now);
  cap.graph.add_edge(chain.node, kind, kind, std::max(0.0, now - chain.time));
  for (std::size_t i = 0; i < num_preds; ++i) {
    if (preds[i].epoch == epoch && preds[i].node != obs::DepGraph::kNoNode &&
        preds[i].node != chain.node) {
      cap.graph.add_edge(preds[i].node, obs::DepKind::kSync,
                         obs::DepKind::kSync, 0.0);
    }
  }
  chain.node = n;
  chain.time = now;
  return NodeRef{epoch, n};
}

}  // namespace

void begin(std::string name, int threads) {
  if (obs::current_context().critpath == nullptr) return;
  if (active_cap() != nullptr) return;  // no nesting; keep the outer capture
  auto* cap = new HostCap;
  cap->graph.model = "sthreads";
  cap->graph.name = std::move(name);
  cap->graph.unit = "seconds";
  cap->graph.add_node(0.0);  // root: capture start
  cap->threads = threads;
  cap->t0 = Clock::now();
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  detail::g_active.store(cap, std::memory_order_release);
}

obs::RunRecord end() {
  obs::RunRecord rec;
  rec.model = "sthreads";
  HostCap* cap = active_cap();
  if (cap == nullptr) return rec;
  detail::g_active.store(nullptr, std::memory_order_release);
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  const double now = now_seconds(*cap);
  {
    // All worker threads are structured (joined before the driver reaches
    // end()), so no other thread can be emitting; the lock is belt and
    // braces against misuse.
    std::lock_guard<std::mutex> lock(cap->mu);
    Chain& chain = chain_for(epoch);
    const std::uint32_t end_node = cap->graph.add_node(now);
    cap->graph.add_edge(chain.node, obs::DepKind::kCompute,
                        obs::DepKind::kCompute,
                        std::max(0.0, now - chain.time));
    for (const std::uint32_t fin : cap->finished) {
      cap->graph.add_edge(fin, obs::DepKind::kCompute, obs::DepKind::kCompute,
                          0.0);
    }
    cap->graph.end_node = end_node;
    cap->graph.total = now;
  }

  double compute_seconds = 0.0;
  for (const obs::DepEdge& e : cap->graph.edges) {
    if (e.kind == obs::DepKind::kCompute) compute_seconds += e.weight;
  }

  rec.name = cap->graph.name;
  rec.processors = std::max(1, cap->threads);
  rec.threads = static_cast<std::uint64_t>(std::max(1, cap->threads));
  rec.elapsed_seconds = now;
  rec.utilization =
      now > 0.0 ? compute_seconds / (now * static_cast<double>(rec.processors))
                : 0.0;
  rec.critical_path = obs::summarize(cap->graph);

  const obs::Context& ctx = obs::current_context();
  if (ctx.critpath != nullptr) ctx.critpath->add(std::move(cap->graph));
  if (ctx.records != nullptr) ctx.records->add(rec);
  delete cap;
  return rec;
}

void wait_begin() {
  HostCap* cap = active_cap();
  if (cap == nullptr) return;
  (void)emit(*cap, obs::DepKind::kCompute, nullptr, 0);
}

NodeRef checkpoint() {
  HostCap* cap = active_cap();
  if (cap == nullptr) return NodeRef{};
  return emit(*cap, obs::DepKind::kCompute, nullptr, 0);
}

void sync_event(const NodeRef* pred, NodeRef* out) {
  HostCap* cap = active_cap();
  if (cap == nullptr) return;
  const NodeRef pred_copy = pred != nullptr ? *pred : NodeRef{};
  const NodeRef n =
      emit(*cap, obs::DepKind::kSync, &pred_copy, pred != nullptr ? 1 : 0);
  if (out != nullptr) *out = n;
}

void sync_event_multi(const NodeRef* preds, std::size_t num_preds,
                      NodeRef* out) {
  HostCap* cap = active_cap();
  if (cap == nullptr) return;
  const NodeRef n = emit(*cap, obs::DepKind::kSync, preds, num_preds);
  if (out != nullptr) *out = n;
}

std::shared_ptr<NodeRef> make_final_slot() {
  if (!enabled()) return nullptr;
  return std::make_shared<NodeRef>();
}

std::function<void()> wrap_thread(std::function<void()> fn,
                                  std::shared_ptr<NodeRef> final_slot) {
  if (final_slot == nullptr) return fn;
  // Spawn point: close the creator's compute segment now; the child's
  // first node hangs off it with the observed spawn latency as a kSpawn
  // edge (scalable by the spawn knob).
  const NodeRef parent = checkpoint();
  return [fn = std::move(fn), final_slot = std::move(final_slot), parent] {
    HostCap* cap = active_cap();
    if (cap != nullptr && parent.epoch == g_epoch.load(std::memory_order_relaxed)) {
      const double now = now_seconds(*cap);
      std::lock_guard<std::mutex> lock(cap->mu);
      Chain& chain = chain_for(parent.epoch);
      const double parent_time = cap->graph.nodes[parent.node].time;
      const std::uint32_t n = cap->graph.add_node(now);
      cap->graph.add_edge(parent.node, obs::DepKind::kSpawn,
                          obs::DepKind::kSpawn,
                          std::max(0.0, now - parent_time));
      chain.node = n;
      chain.time = now;
    }
    fn();
    if (active_cap() != nullptr) {
      const NodeRef fin = checkpoint();
      if (HostCap* c = active_cap();
          c != nullptr && fin.node != obs::DepGraph::kNoNode) {
        std::lock_guard<std::mutex> lock(c->mu);
        c->finished.push_back(fin.node);
      }
      *final_slot = fin;
    }
  };
}

void joined(const NodeRef& final_node) {
  sync_event(&final_node, nullptr);
}

}  // namespace tc3i::sthreads::cap
