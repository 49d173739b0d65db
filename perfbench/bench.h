// Shared pieces of the performance benchmark (see perfbench/PREDICTIONS.md):
// workload definitions and their seeded op streams, the value oracle every
// hit is checked against, the cache-aside step both the end-to-end run and
// the per-layer ladder replay, and the span tracer the ladder reads its
// per-layer times from.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kvs/api.h"
#include "kvs/cluster.h"
#include "kvs/store.h"
#include "trace/workloads.h"
#include "util/clock.h"

namespace perfbench {

using namespace camp;

// ---- clock ------------------------------------------------------------------

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The clock every store the benchmark builds runs on.
[[nodiscard]] const util::Clock& steady_clock();

// ---- workloads --------------------------------------------------------------

enum class OpKind : std::uint8_t { kGet, kSet, kDel };

/// One application request: a read of `key` (refilled on a miss), or a write
/// (a set of the key's value, or an invalidating delete).
struct Op {
  std::uint32_t key = 0;
  std::uint32_t size = 0;
  std::uint32_t cost = 0;
  OpKind kind = OpKind::kGet;
};

/// The systems a target can be: every workload runs in process; the
/// ladder's client, server and cluster rungs build the other two.
enum class Transport { kInproc, kTcp, kCluster };

/// Shards of every store a workload runs (a cluster node has one).
inline constexpr std::size_t kStoreShards = 4;

/// One closed-loop load thread drives an in-process store.
struct Workload {
  std::string name;
  /// The key population: every key's size, cost and popularity rank. It is
  /// part of the workload's definition, generated from a pinned seed.
  trace::WorkloadConfig trace;
  /// The run's seed: it draws the request sequence from the population.
  std::uint64_t seed = 1;
  double write_frac = 0.0;
  OpKind write_kind = OpKind::kSet;
  bool iq_gets = false;       // reads are iqget (the IQ lease path)
  std::size_t batch = 8;      // ops per step
  double budget_frac = 0.0;   // slab memory as a share of the key footprint
  bool preload = false;       // working set fits: warm-up loads every key
  bool compression = false;
  std::uint32_t slab_bytes = 256u << 10;
  std::size_t stream_ops = 0;        // ops generated
  std::uint64_t quality_ops = 0;     // the quality pass length
  std::uint64_t footprint = 0;       // sum of all keys' sizes (derived)
  std::uint64_t memory_bytes = 0;    // slab budget (derived)
};

/// The named workload at full or self-test ("tiny") size. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, bool tiny,
                                     std::uint64_t seed);

/// The op stream, a pure function of (workload, seed): Zipf ranks drawn
/// with the run's seed; rank r is key r. Sizes and costs hash the key id
/// with the population seed, so they are independent of popularity.
[[nodiscard]] std::vector<Op> make_stream(const Workload& w);

/// Order-sensitive hash of the stream (the self-test's "the trace changed").
[[nodiscard]] std::uint64_t fingerprint(const std::vector<Op>& stream);

[[nodiscard]] kvs::StoreConfig store_config(const Workload& w,
                                            std::uint64_t memory_bytes,
                                            std::size_t shards);
[[nodiscard]] kvs::PolicyFactory policy_factory();

// ---- values -----------------------------------------------------------------

/// A value's bytes are a pure function of its key and size: the key id
/// stamped into the first 8 bytes, then a key-chosen 256-byte-aligned slice
/// of a fixed pattern whose blocks alternate 128 pseudo-random bytes with 128
/// repeated bytes, so every value compresses to about half its size.
class Values {
 public:
  Values();
  void make(std::uint32_t key, std::uint32_t size, std::string& out) const;
  [[nodiscard]] bool check(std::uint32_t key, std::uint32_t size,
                           std::string_view got) const;

 private:
  [[nodiscard]] const char* base(std::uint32_t key) const;
  std::string pattern_;
};

[[nodiscard]] std::string_view key_name(std::uint32_t key, char (&buf)[16]);

// ---- the cache-aside step ---------------------------------------------------

/// What the load thread saw. Latencies are per batch, in ns, bucketed by the
/// measurement segment they started in; quality counters cover only steps
/// flagged as the quality pass.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // threw, or returned a wrong value
  std::uint64_t mismatched = 0;  // subset of failed: wrong bytes
  std::uint64_t noncold = 0;
  std::uint64_t noncold_misses = 0;
  std::uint64_t cost_total = 0;
  std::uint64_t cost_missed = 0;
  std::uint64_t batches = 0;
  std::uint64_t set_bytes = 0;   // raw value bytes sent in sets
  std::vector<std::vector<std::uint32_t>> get_ns, set_ns;
  std::vector<std::uint64_t> seg_ops;

  explicit Tally(std::size_t segments = 0)
      : get_ns(segments), set_ns(segments), seg_ops(segments) {}
};

/// Keys referenced so far (first reference = cold, the paper's rule).
class Seen {
 public:
  explicit Seen(std::size_t keys) : bits_(keys) {}
  /// Marks the key; true when this was its first reference.
  bool first(std::uint32_t key) {
    const bool was = bits_[key] != 0;
    bits_[key] = 1;
    return !was;
  }

 private:
  std::vector<std::uint8_t> bits_;
};

/// Sees every executed batch with its result and timing (the ladder's
/// protocol and server rungs hook in here).
using BatchObserver = std::function<void(
    const kvs::KvsBatch&, const kvs::KvsBatchResult&, std::uint64_t exec_ns)>;

struct StepContext {
  const Workload* w = nullptr;
  const Values* values = nullptr;
  Seen* seen = nullptr;
  std::uint32_t span_step = 0;  // tracer name ids; 0 = no span
  std::uint32_t span_get = 0;
  std::uint32_t span_set = 0;
  BatchObserver observer;
};

/// One cache-aside step: a get batch for the reads, then one mutation batch
/// with a refill set per miss and the writes. `segment` < 0 records no
/// latency. Every hit is checked byte for byte.
void run_step(const StepContext& ctx, kvs::KvsApi& api,
              std::span<const Op> ops, bool quality, int segment,
              Tally& tally);

/// A set of every key of the workload, in key order.
[[nodiscard]] std::vector<Op> every_key(const Workload& w);

/// Load every key of the workload (preload workloads) through `api`.
void preload_all(const StepContext& ctx, kvs::KvsApi& api, Tally& tally);

// ---- targets ----------------------------------------------------------------

/// A constructed system under test: the in-process store, the TCP server or
/// the cooperative cluster. connect() hands out a client.
class Target {
 public:
  virtual ~Target() = default;
  [[nodiscard]] virtual std::unique_ptr<kvs::KvsApi> connect() = 0;
  /// Policy evictions so far, summed over every store (warm-up waits for
  /// the first one).
  [[nodiscard]] virtual std::uint64_t evictions() = 0;
};

[[nodiscard]] std::unique_ptr<Target> make_target(const Workload& w,
                                                  Transport transport);
/// The cluster behind a cluster target (nullptr for the others).
[[nodiscard]] const kvs::CoopCluster* cluster_of(const Target& target);

/// Warm the target up from a fresh state through `api`: preload, or replay
/// the stream's steps until the budget is full — the values set add up to
/// the slab budget (twice it with compression on, which about halves them)
/// and the policy has evicted. Returns the stream position reached.
std::size_t warm_up(const StepContext& ctx, Target& target,
                    kvs::KvsApi& api, const std::vector<Op>& stream,
                    Tally& tally);

// ---- span tracer ------------------------------------------------------------

/// Spans recorded in memory (per thread, no locks on the hot path) and
/// written out at exit. Self time = duration minus the time covered by
/// child spans. Disabled spans cost one branch.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint32_t> durations;  // capped sample for percentiles
  };

  static Tracer& instance();
  std::uint32_t intern(std::string_view name);
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Per-name totals across threads; call while no span is open.
  [[nodiscard]] Stat stat(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  /// Write every kept span as TSV (thread, id, parent, name, start, end).
  void write(const std::string& path) const;

 private:
  friend class Span;
  struct Record {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };
  struct Open {
    std::uint32_t name;
    std::uint32_t record;  // index in records, or kNone
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  struct ThreadLog {
    std::vector<Open> stack;
    std::vector<Record> records;
    std::vector<Stat> stats;  // by name id
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kMaxRecords = 1u << 17;
  static constexpr std::size_t kMaxDurations = 1u << 21;

  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class Span {
 public:
  explicit Span(std::uint32_t name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(0); }
  /// Close the span, optionally renaming it now that the outcome is known
  /// (hit/miss). Returns its duration in ns (0 when tracing is off).
  std::uint64_t end(std::uint32_t rename);

 private:
  Tracer::ThreadLog* log_ = nullptr;
};

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]); sorts `v`. NaN when empty.
[[nodiscard]] double percentile(std::vector<std::uint32_t>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(note)});
  }
  void count(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    mismatched += t.mismatched;
  }
};

// ---- the two runs -----------------------------------------------------------

/// End-to-end run (tracing off) for `seconds`: every end-to-end metric.
void run_end_to_end(const Workload& w, const std::vector<Op>& stream,
                    double seconds, Report& report);

/// Traced run: the per-layer ladder over the same op stream, plus the
/// tracing overhead on the end-to-end loop.
void run_ladder(const Workload& w, const std::vector<Op>& stream,
                double seconds, Report& report);

/// The measured segments of one window, with the largest share of time the
/// hypervisor stole from any one vCPU during each. The load thread ran on
/// some of them, so it lost at most that share; a segment is disturbed when
/// the share reaches 5%.
struct Window {
  std::uint64_t seg_ns = 0;
  std::vector<double> stolen;
};

/// Closed-loop measurement shared by both runs: the load thread steps the
/// stream from `pos`, its latencies bucketed into `seconds / segments` long
/// segments, until the window ends and its quality pass is done. With
/// `skip_stolen` the window runs on past disturbed segments until
/// `segments` clean ones were measured, for at most 1.5 times its length.
/// `out` needs segments + segments / 2 + 1 segment slots.
void measure(const Workload& w, const StepContext& ctx, kvs::KvsApi& client,
             const std::vector<Op>& stream, std::size_t& pos, double seconds,
             std::size_t segments, bool skip_stolen,
             std::uint64_t quality_ops, Tally& out, Window& window);

}  // namespace perfbench
