// Multi-threaded trace replay against one thread-safe cache (the Section
// 4.1 deployment shape: many server threads performing caching decisions
// concurrently). The repository's thread-safe CAMP is kvs::ShardedCache
// over serial CAMP shards: the paper's hash-partitioned, independently
// locked queues.
//
// The trace is dealt round-robin to T worker threads which replay their
// shares concurrently against a single shared ICache. Per-thread metrics
// are kept lock-free-locally and merged at the end.
//
// Caveats inherent to concurrent replay:
//   * Request interleaving across threads is nondeterministic, so exact
//     hit counts vary run to run (aggregate rates are stable).
//   * Cold-request detection uses a pre-pass over the whole trace (the
//     first occurrence index of each key), so the cold/non-cold split stays
//     deterministic even though interleaving is not: the request with a
//     key's smallest trace index is the cold one regardless of which thread
//     executes it.
//
// Use sim::Simulator for the paper's single-threaded figures; this harness
// exists for the parallel-replay ablation and the sharded-CAMP soak test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "policy/cache_iface.h"
#include "sim/metrics.h"
#include "trace/record.h"

namespace camp::sim {

struct ParallelReplayResult {
  Metrics metrics;                 // merged over all threads
  std::vector<Metrics> per_thread;
  double wall_seconds = 0.0;
  /// Aggregate replay throughput (requests / wall_seconds).
  [[nodiscard]] double requests_per_second() const noexcept {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(metrics.requests) / wall_seconds;
  }
};

/// Replay `records` against `cache` with `threads` workers. The cache must
/// be thread-safe (e.g. kvs::ShardedCache).
/// `threads` == 1 degenerates to sequential replay (same totals as
/// sim::Simulator up to cold-accounting described above).
[[nodiscard]] ParallelReplayResult replay_parallel(
    policy::ICache& cache, std::span<const trace::TraceRecord> records,
    unsigned threads);

}  // namespace camp::sim
