// Stream-level simulator of the Tera MTA.
//
// Mechanisms modeled (the ones the paper's MTA results hinge on):
//   - each processor issues at most one instruction per cycle, chosen from
//     its ready streams (FIFO arbitration);
//   - a stream that issues cannot issue again for `issue_spacing_cycles`
//     (21 on the MTA-1: the paper's "one instruction every 21 cycles" for a
//     lone stream, i.e. ~5% utilization single-threaded);
//   - there is no cache: every memory operation takes
//     `memory_latency_cycles` and passes through a shared network modeled
//     as a serial queue with service rate `network_ops_per_cycle`
//     (the under-development network the paper blames for the 1.4-1.8x
//     two-processor speedups);
//   - full/empty bits provide one-cycle-issue synchronization; blocked
//     streams wait in memory, consuming no issue slots;
//   - hardware thread creation costs ~2 cycles; software (library) thread
//     creation costs 50-100 cycles;
//   - 128 hardware stream slots per processor; additional runtime-created
//     streams wait (virtualized, as the Tera runtime does) until a slot
//     frees.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "mta/processor.hpp"
#include "mta/stream_program.hpp"
#include "mta/sync_memory.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"

namespace tc3i::obs {
class TraceSink;
}

namespace tc3i::mta {

struct MtaConfig {
  std::string name = "Tera MTA";
  int num_processors = 1;
  double clock_hz = 255e6;
  int streams_per_processor = 128;
  int issue_spacing_cycles = 21;
  int memory_latency_cycles = 70;
  /// Aggregate memory-network service rate (operations per cycle, shared by
  /// all processors).
  double network_ops_per_cycle = 0.45;
  int hw_spawn_cycles = 2;
  int sw_spawn_cycles = 60;
  /// Explicit-dependence lookahead: how many memory operations a stream
  /// may leave outstanding while continuing to issue. The real MTA
  /// encoded a lookahead of up to 7 in each instruction; 0 models fully
  /// dependent code (each memory op stalls its stream), which is the
  /// conservative default all headline results use. See
  /// bench/ablate_mta_lookahead.
  int lookahead = 0;
  std::size_t memory_words = 1u << 20;
  /// Interleaved memory banks (the MTA-1 had 64-way interleaving). 0
  /// models ideal interleaving (every op hits a distinct bank; the only
  /// memory constraint is the network) — the headline-results default.
  /// When > 0, an op to bank b (selected by address, see hash_addresses)
  /// must wait for the bank's previous op to retire plus
  /// `bank_busy_cycles`.
  int memory_banks = 0;
  int bank_busy_cycles = 8;
  /// The real machine hashed addresses across banks so strided code would
  /// not pathologically conflict; disable to see why (ablation).
  bool hash_addresses = true;
  /// When nonzero, the run records issue-slot utilization per bucket of
  /// this many cycles (MtaRunResult::utilization_timeline) — used to
  /// visualize latency masking and barrier valleys.
  std::uint64_t timeline_bucket_cycles = 0;
  /// Runs the reference simulation loop (binary-heap wake queue, strictly
  /// one cycle at a time, no compute-run fast-forwarding). Slower but kept
  /// as the golden reference: the fast path must produce bit-identical
  /// cycles/instructions/memory_ops (see tests/mta_golden_test).
  bool slow_reference = false;

  [[nodiscard]] std::string validate() const;
};

struct MtaRunResult {
  std::uint64_t cycles = 0;
  Seconds seconds = 0.0;
  std::uint64_t instructions_issued = 0;
  std::uint64_t memory_ops = 0;
  std::uint64_t spawns = 0;
  std::uint64_t streams_completed = 0;
  std::uint64_t peak_live_streams = 0;
  /// Issue slots used / issue slots available over the run.
  double processor_utilization = 0.0;
  /// Fraction of the shared network's service capacity consumed.
  double network_utilization = 0.0;
  /// Per-bucket issue-slot utilization (empty unless
  /// MtaConfig::timeline_bucket_cycles is set).
  std::vector<double> utilization_timeline;
  /// Exhaustive, exclusive issue-slot account summed over processors:
  /// slots.total() == cycles x num_processors, always (both simulation
  /// paths produce bit-identical accounts; see docs/OBSERVABILITY.md).
  obs::IssueSlotAccount slots;
  /// The same account split per processor (each totals `cycles`).
  std::vector<obs::IssueSlotAccount> processor_slots;
};

class Machine {
 public:
  explicit Machine(MtaConfig config);

  [[nodiscard]] const MtaConfig& config() const { return config_; }
  [[nodiscard]] SyncMemory& memory() { return memory_; }
  [[nodiscard]] const SyncMemory& memory() const { return memory_; }

  /// Registers a stream to start at cycle 0 (assigned to the least-loaded
  /// processor). Call before run().
  void add_stream(StreamProgram* program);

  /// Runs until all streams have quit. Aborts (deadlock) if streams remain
  /// but none can ever become ready. `max_cycles` is a runaway guard. Call
  /// exactly once.
  MtaRunResult run(std::uint64_t max_cycles = (1ull << 62));

 private:
  /// Why a parked stream is not ready. Mirrors the stall categories of
  /// obs::IssueSlotAccount, so every idle issue slot can be attributed to
  /// exactly one category: the reference path keeps a per-stream reason
  /// (wait_reason) and a per-processor census (ProcAcct::waiting); the fast
  /// path reads its census off the issue queues' sizes.
  enum class StallReason : std::uint8_t {
    kSpacing = 0,  ///< inside the 21-cycle issue spacing / lookahead window
    kSpawn = 1,    ///< paying stream-creation cost
    kMemory = 2,   ///< waiting on the memory network past the spacing window
    kSync = 3,     ///< blocked on a full/empty bit (incl. post-hand-off trip)
  };
  static constexpr std::size_t kNumStallReasons = 4;
  /// Issue-queue lanes, one per stall reason that schedules a wake (kSync
  /// streams wait in memory with none), indexed by the reason's value.
  static constexpr std::size_t kNumWakeLanes = 3;
  /// Cycle reported for an empty wake queue.
  static constexpr std::uint64_t kNoWake = ~0ull;

  struct Stream {
    StreamProgram* program = nullptr;
    VectorProgram* vec = nullptr;  ///< program->as_vector(), fetch fast path
    int proc = -1;
    Instr cur;
    bool has_cur = false;
    bool dead = false;
    /// Valid while parked; read by the reference path only (and for the
    /// kSync census on both).
    StallReason wait_reason = StallReason::kSpacing;
    std::uint64_t issued = 0;     ///< instructions this stream issued
    std::uint64_t activated = 0;  ///< cycle activate() ran
  };

  /// Per-processor issue-slot account plus the reference path's census of
  /// parked streams by stall reason (the fast path keeps only kSync here).
  struct ProcAcct {
    obs::IssueSlotAccount acct;
    std::array<std::uint32_t, kNumStallReasons> waiting{};
  };

  /// Per-region tallies accumulated at stream completion (index = region
  /// id; names resolved through region_name() when published).
  struct RegionTally {
    std::uint64_t streams = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stream_cycles = 0;
  };

  /// Reference path: a wake in the binary heap.
  struct Wake {
    std::uint64_t cycle;
    StreamId stream;
    bool operator>(const Wake& o) const {
      return cycle != o.cycle ? cycle > o.cycle : stream > o.stream;
    }
  };

  /// Fast path: a parked stream in its processor's issue queue, ordered by
  /// (deliv, due, stream). `due` is the cycle its wake was scheduled for
  /// and `deliv` the first cycle it may issue: the cycle the reference
  /// loop would append it to the processor's ready ring, which is `due`
  /// except that a wake pushed while cycle c is scanned cannot be
  /// delivered before c + 1. The reference ring is therefore in key order,
  /// and its front is the smallest key with deliv <= now (see
  /// docs/PERFORMANCE.md, "Per-processor issue queues").
  struct Entry {
    std::uint64_t deliv;
    StreamId stream;
    /// deliv - due: 1 for a zero-cost spawn made while a cycle is scanned,
    /// else 0 (every wake is due no earlier than the cycle that pushes it).
    std::uint8_t lag;
    StallReason why;
    bool operator<(const Entry& o) const {
      if (deliv != o.deliv) return deliv < o.deliv;
      if (lag != o.lag) return lag > o.lag;  // the earlier due first
      return stream < o.stream;
    }
    bool operator>(const Entry& o) const { return o < *this; }
  };

  /// A FIFO ring of entries in ascending key order. A processor holds at
  /// most `capacity` live streams, each with at most one entry, so the ring
  /// never fills.
  class Lane {
   public:
    explicit Lane(std::size_t capacity)
        : ring_(std::bit_ceil(capacity)), mask_(ring_.size() - 1) {}
    [[nodiscard]] bool empty() const { return head_ == tail_; }
    [[nodiscard]] std::size_t size() const { return tail_ - head_; }
    [[nodiscard]] const Entry& front() const { return ring_[head_ & mask_]; }
    /// True when appending `e` keeps the lane in key order.
    [[nodiscard]] bool accepts(const Entry& e) const {
      return empty() || e.deliv > back_deliv_ ||
             (e.deliv == back_deliv_ && e.lag <= back_lag_);
    }
    /// Appends `e` (accepts(e) must hold), moving it ahead of the entries
    /// with its (deliv, due) and a larger stream id.
    void push(const Entry& e) {
      std::size_t i = tail_++;
      for (; i != head_; --i) {
        const Entry& prev = ring_[(i - 1) & mask_];
        if (prev.deliv != e.deliv || prev.lag != e.lag ||
            prev.stream < e.stream)
          break;
        ring_[i & mask_] = prev;
      }
      ring_[i & mask_] = e;
      back_deliv_ = e.deliv;
      back_lag_ = e.lag;
    }
    void pop() { ++head_; }
    /// Sum over entries of the cycles in [from, to) at or past their
    /// deliv. The lane is in deliv order, so only that prefix is visited.
    [[nodiscard]] std::uint64_t eligible_cycles(std::uint64_t from,
                                                std::uint64_t to) const {
      std::uint64_t sum = 0;
      for (std::size_t i = head_; i != tail_; ++i) {
        const std::uint64_t deliv = ring_[i & mask_].deliv;
        if (deliv >= to) break;
        sum += to - std::max(deliv, from);
      }
      return sum;
    }

   private:
    std::vector<Entry> ring_;  ///< power-of-two size
    std::size_t mask_;
    std::size_t head_ = 0;  ///< indices wrap modulo ring size; head <= tail
    std::size_t tail_ = 0;
    std::uint64_t back_deliv_ = 0;  ///< key of the last entry pushed
    std::uint8_t back_lag_ = 0;
  };

  /// Fast path: one processor's parked streams. Each stall reason's entries
  /// go to its lane while they arrive in key order, the rest to an overflow
  /// heap. The processor issues its smallest key once next_deliv() <= now.
  class IssueQueue {
   public:
    explicit IssueQueue(std::size_t capacity)
        : lanes_{{Lane(capacity), Lane(capacity), Lane(capacity)}} {}
    /// The smallest key's deliv (the first cycle anything here may issue),
    /// or kNoWake when empty.
    [[nodiscard]] std::uint64_t next_deliv() const {
      return head_deliv_[best_];
    }
    /// Streams parked here under `why`.
    [[nodiscard]] std::size_t parked(StallReason why) const {
      const auto r = static_cast<std::size_t>(why);
      return lanes_[r].size() + heap_parked_[r];
    }
    [[gnu::always_inline]] void push(const Entry& e) {
      std::size_t src = static_cast<std::size_t>(e.why);
      if (lanes_[src].accepts(e)) {
        lanes_[src].push(e);
      } else {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        ++heap_parked_[src];
        src = kHeap;
      }
      // `e` is now its source's head exactly when its key is below the old
      // head's (an accepted lane entry below the head has the lane's
      // (deliv, due) and moved to its front), and the queue's best source
      // when its key is below the old best.
      const std::uint64_t tie = tie_of(e);
      if (less(e.deliv, tie, head_deliv_[src], head_tie_[src])) {
        head_deliv_[src] = e.deliv;
        head_tie_[src] = tie;
        if (less(e.deliv, tie, head_deliv_[best_], head_tie_[best_]))
          best_ = src;
      }
    }
    /// Removes the smallest key and returns its stream.
    [[gnu::always_inline]] StreamId pop() {
      StreamId sid;
      const Entry* head = nullptr;
      if (best_ == kHeap) {
        sid = heap_.front().stream;
        --heap_parked_[static_cast<std::size_t>(heap_.front().why)];
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        if (!heap_.empty()) head = &heap_.front();
      } else {
        Lane& lane = lanes_[best_];
        sid = lane.front().stream;
        lane.pop();
        if (!lane.empty()) head = &lane.front();
      }
      head_deliv_[best_] = head != nullptr ? head->deliv : kNoWake;
      head_tie_[best_] = head != nullptr ? tie_of(*head) : kNoWake;
      // Which source leads is data-dependent, so select without branches.
      std::size_t best = 0;
      std::uint64_t deliv = head_deliv_[0];
      std::uint64_t tie = head_tie_[0];
      for (std::size_t src = 1; src < kSources; ++src) {
        const bool lt = less(head_deliv_[src], head_tie_[src], deliv, tie);
        best = lt ? src : best;
        deliv = lt ? head_deliv_[src] : deliv;
        tie = lt ? head_tie_[src] : tie;
      }
      best_ = best;
      return sid;
    }
    /// Sum over entries of the cycles in [from, to) at or past their deliv:
    /// how long they have sat in the reference loop's ready ring over that
    /// span (timeline sampling).
    [[nodiscard]] std::uint64_t eligible_cycles(std::uint64_t from,
                                                std::uint64_t to) const {
      if (next_deliv() >= to) return 0;
      std::uint64_t sum = 0;
      for (const Lane& lane : lanes_) sum += lane.eligible_cycles(from, to);
      for (const Entry& e : heap_)
        if (e.deliv < to) sum += to - std::max(e.deliv, from);
      return sum;
    }

   private:
    /// Sources: the lanes (indexed by StallReason), then the heap.
    static constexpr std::size_t kHeap = kNumWakeLanes;
    static constexpr std::size_t kSources = kNumWakeLanes + 1;
    /// The key after deliv as one integer: the earlier due, then the
    /// smaller stream id.
    static std::uint64_t tie_of(const Entry& e) {
      return (std::uint64_t{1u - e.lag} << 32) |
             static_cast<std::uint32_t>(e.stream);
    }
    static bool less(std::uint64_t deliv_a, std::uint64_t tie_a,
                     std::uint64_t deliv_b, std::uint64_t tie_b) {
      return (deliv_a < deliv_b) | ((deliv_a == deliv_b) & (tie_a < tie_b));
    }

    /// Each source's smallest key as (deliv, tie_of), kNoWake in both when
    /// the source is empty; side by side so pop() finds the next best
    /// source without touching the entries.
    std::array<std::uint64_t, kSources> head_deliv_{kNoWake, kNoWake, kNoWake,
                                                     kNoWake};
    std::array<std::uint64_t, kSources> head_tie_{kNoWake, kNoWake, kNoWake,
                                                   kNoWake};
    std::size_t best_ = 0;  ///< the source of the smallest key
    std::array<Lane, kNumWakeLanes> lanes_;
    std::vector<Entry> heap_;  ///< min-heap by key
    std::array<std::uint32_t, kNumWakeLanes> heap_parked_{};
  };

  struct PendingSpawn {
    StreamProgram* program;
    bool software;
  };

  /// Always-on counters ("mta." prefix) plus the optional trace sink, run
  /// record and timeline stores, all captured from obs::current_context()
  /// at construction.
  /// Per-instruction paths only bump plain tally members; the registry
  /// counters are published once at the end of run() so instrumentation
  /// costs nothing in the issue loop.
  struct Obs {
    obs::Counter* issue_total = nullptr;
    obs::Counter* issue_compute = nullptr;
    obs::Counter* issue_memory = nullptr;
    obs::Counter* issue_sync = nullptr;
    obs::Counter* issue_spawn = nullptr;
    obs::Counter* network_ops = nullptr;
    obs::Counter* sync_blocks = nullptr;
    obs::Counter* sync_handoffs = nullptr;
    obs::Counter* spawns_hw = nullptr;
    obs::Counter* spawns_sw = nullptr;
    obs::Counter* spawns_virtualized = nullptr;
    obs::Counter* streams_completed = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* slot_used = nullptr;
    obs::Counter* slot_no_stream = nullptr;
    obs::Counter* slot_spacing = nullptr;
    obs::Counter* slot_spawn = nullptr;
    obs::Counter* slot_memory = nullptr;
    obs::Counter* slot_sync = nullptr;
    obs::Gauge* peak_live = nullptr;
    obs::Histogram* run_utilization = nullptr;
    obs::Histogram* run_wall_seconds = nullptr;
    obs::Histogram* stream_instructions = nullptr;
    /// The registry the metric pointers above resolve into, kept so
    /// finish_run() publishes dynamically named per-region counters into
    /// the same (possibly thread-scoped) registry the run was built under.
    obs::CounterRegistry* registry = nullptr;
    obs::TraceSink* sink = nullptr;
    obs::RunRecordStore* records = nullptr;
    obs::TimelineStore* timeline = nullptr;
    std::uint32_t pid = 0;
  };

  /// Converts a machine cycle to trace microseconds.
  [[nodiscard]] double ts_us(std::uint64_t cycle) const {
    return static_cast<double>(cycle) / config_.clock_hz * 1e6;
  }

  /// O(1) least-loaded-processor selection: processors indexed by live
  /// stream count, lowest processor id breaking ties (matching the linear
  /// scan it replaced). Loads change by +-1 on activate/finish.
  class LoadTracker {
   public:
    void init(int num_procs, int max_load) {
      loads_.assign(static_cast<std::size_t>(num_procs), 0);
      by_load_.assign(static_cast<std::size_t>(max_load) + 1, {});
      for (int p = 0; p < num_procs; ++p) by_load_[0].insert(p);
      min_load_ = 0;
    }
    [[nodiscard]] int least_loaded() const {
      return *by_load_[static_cast<std::size_t>(min_load_)].begin();
    }
    void change(int proc, int delta) {
      int& load = loads_[static_cast<std::size_t>(proc)];
      by_load_[static_cast<std::size_t>(load)].erase(proc);
      load += delta;
      by_load_[static_cast<std::size_t>(load)].insert(proc);
      if (load < min_load_) {
        min_load_ = load;
      } else {
        while (by_load_[static_cast<std::size_t>(min_load_)].empty())
          ++min_load_;
      }
    }

   private:
    std::vector<int> loads_;
    std::vector<std::set<int>> by_load_;
    int min_load_ = 0;
  };

  /// Loads the stream's next instruction into `cur` (implicit Quit at end
  /// of program), dispatching directly when the program is a
  /// VectorProgram.
  void fetch_next(Stream& s) {
    const bool more = s.vec != nullptr ? s.vec->VectorProgram::next(s.cur)
                                       : s.program->next(s.cur);
    if (!more) {
      s.cur.op = Instr::Op::Quit;
      s.cur.count = 1;
    }
    s.has_cur = true;
  }

  void activate(StreamProgram* program, bool software, std::uint64_t now);
  /// Executes the current instruction of `sid` at cycle `now`.
  void issue(StreamId sid, std::uint64_t now);
  void finish_stream(StreamId sid, std::uint64_t now);
  std::uint64_t network_service(std::uint64_t now, Address addr);
  void complete_memory_op(StreamId sid, int proc, std::uint64_t now,
                          Address addr);
  void process_handoffs(std::uint64_t now);
  /// Parks `sid`, which runs on `proc`, until cycle `at` under `why`: on
  /// the fast path in `proc`'s issue queue, eligible from max(at, floor);
  /// on the reference path in the heap (census +1 under `why`).
  [[gnu::always_inline]] void push_wake(std::uint64_t at, StreamId sid,
                                        int proc, StallReason why,
                                        std::uint64_t floor = 0) {
    if (slow_) {
      streams_[static_cast<std::size_t>(sid)].wait_reason = why;
      ++acct_[static_cast<std::size_t>(proc)]
            .waiting[static_cast<std::size_t>(why)];
      heap_.push(Wake{at, sid});
      return;
    }
    const std::uint64_t deliv = std::max(at, floor);
    queues_[static_cast<std::size_t>(proc)].push(
        Entry{deliv, sid, static_cast<std::uint8_t>(deliv - at), why});
  }
  /// Parks `sid` with no wake: it waits in memory on a full/empty bit.
  void park_sync(StreamId sid);
  /// Reference path: appends a delivered wake to its processor's ring.
  void make_stream_ready(StreamId sid);
  /// Streams parked on `proc` under `why`, on either path.
  [[nodiscard]] std::size_t parked(int proc, StallReason why) const {
    if (slow_ || why == StallReason::kSync)
      return acct_[static_cast<std::size_t>(proc)]
          .waiting[static_cast<std::size_t>(why)];
    return queues_[static_cast<std::size_t>(proc)].parked(why);
  }
  /// Attributes `n` idle cycles of processor `proc` to one stall category:
  /// no_stream when the processor has no live streams, otherwise the
  /// highest-priority reason among its parked streams
  /// (sync > memory > spawn > spacing).
  void account_idle(int proc, std::uint64_t n);
  /// Timeline sampling (a timeline store set at construction): called per
  /// scanned cycle; emits every complete sample bucket ending at or before
  /// `now` from the deltas accumulated since the previous flush.
  void flush_samples(std::uint64_t now);
  /// Emits the trailing partial bucket and hands the run's timeline to the
  /// store.
  void finish_timeline(std::uint64_t now);
  /// Fast-forwards the machine while `sid`, just popped from processor
  /// `proc`'s queue at cycle `now`, is the only stream able to issue (see
  /// docs/PERFORMANCE.md for the legality argument). Returns the cycle the
  /// generic loop resumes at.
  std::uint64_t run_solo(std::uint64_t now, int proc, StreamId sid,
                         std::uint64_t max_cycles);
  /// The fast simulation loop: per-processor issue queues and solo
  /// fast-forwarding. Returns the cycle the run ended at.
  std::uint64_t run_fast_loop();
  /// The reference simulation loop (slow_ only): binary-heap wake queue,
  /// one cycle at a time. Returns the cycle the run ended at.
  std::uint64_t run_slow_loop();
  /// Finalizes a run that ended at cycle `now`: slot-account invariants,
  /// counter publication, RunRecord emission. `start_ns` is the host
  /// clock at run() entry (for mta.run.wall_seconds).
  MtaRunResult finish_run(std::uint64_t now, std::uint64_t start_ns);
  /// Trips the `max_cycles` runaway guard: dumps the cycle, live/pending
  /// stream totals, and the per-category parked-stream census to stderr
  /// (so a deadlocked large scenario is diagnosable from the abort alone),
  /// then aborts via contract_failure.
  [[noreturn]] void runaway_abort(std::uint64_t now) const;
  /// Per-bucket counter tracks for the trace sink (issue utilization and
  /// memory traffic); no-op without a sink.
  void emit_trace_buckets(std::uint64_t upto, bool final);

  /// Fixed-point cycle representation for the shared-network and bank
  /// service times (replaces double/ceil in the hottest path). 20
  /// fractional bits leave 44 integer bits of simulated cycles.
  static constexpr unsigned kFpBits = 20;
  static constexpr std::uint64_t kFpOne = 1ull << kFpBits;

  MtaConfig config_;
  bool slow_ = false;  ///< config_.slow_reference
  SyncMemory memory_;
  std::vector<Processor> procs_;
  std::vector<Stream> streams_;
  /// Fast path: one issue queue per processor.
  std::vector<IssueQueue> queues_;
  /// Completion cycles of each stream's outstanding memory ops, oldest
  /// first (lookahead > 0 only, else empty; indexed by StreamId; at most
  /// lookahead + 1 entries per stream).
  std::vector<std::vector<std::uint64_t>> outstanding_;
  /// Reference path: wake queue (every wake).
  std::priority_queue<Wake, std::vector<Wake>, std::greater<>> heap_;
  std::queue<PendingSpawn> pending_;
  std::uint64_t network_free_fp_ = 0;
  std::uint64_t service_fp_ = 0;  ///< kFpOne / network_ops_per_cycle
  std::vector<std::uint64_t> bank_free_fp_;  // sized memory_banks when enabled
  LoadTracker load_tracker_;
  int free_slots_ = 0;  ///< machine-wide free hardware stream slots
  std::uint64_t ready_count_ = 0;  ///< streams in ready rings, reference path

  std::vector<ProcAcct> acct_;  // sized num_processors
  std::vector<RegionTally> region_tallies_;

  // Timeline sampling state (sample_period_ == 0 when inactive). Samples
  // are a pure function of simulated cycles, so the exported series are
  // identical for the fast and slow paths and at any --jobs.
  std::uint64_t sample_period_ = 0;
  std::uint64_t sample_next_ = 0;
  std::uint64_t sample_ready_sum_ = 0;
  std::uint64_t sample_last_issues_ = 0;
  std::uint64_t sample_last_mem_ = 0;
  std::vector<obs::TimelinePoint> tl_util_;
  std::vector<obs::TimelinePoint> tl_ready_;
  std::vector<obs::TimelinePoint> tl_net_;

  Obs obs_;
  int live_streams_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t memory_ops_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_live_ = 0;
  // Plain per-class issue tallies, published to the registry at run() end.
  std::uint64_t issued_compute_ = 0;
  std::uint64_t issued_memory_ = 0;
  std::uint64_t issued_sync_ = 0;
  std::uint64_t issued_spawn_ = 0;
  std::uint64_t sync_blocks_ = 0;
  std::uint64_t sync_handoffs_ = 0;
  bool ran_ = false;

  std::uint64_t max_cycles_ = 0;  ///< run()'s runaway guard
  std::uint64_t trace_bucket_ = 0;
  std::uint64_t trace_next_ = 0;
  std::uint64_t trace_last_instr_ = 0;
  std::uint64_t trace_last_mem_ = 0;
  std::vector<std::uint64_t> bucket_issues_;  // timeline_bucket_cycles only
};

}  // namespace tc3i::mta
