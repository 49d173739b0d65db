// Ablation benches for the design choices called out in DESIGN.md:
//
//   1. Heap arity for CAMP's head heap (paper picks 8-ary per Larkin et al.)
//   2. Priority-queue implementation under GDS (implicit d-ary vs pairing)
//   3. Rounding scheme (MSY vs fixed-bit truncation) plugged into CAMP
//   4. Admission control on/off around CAMP (Section 6 future work)
//   5. Sharding (Section 4.1): multi-threaded hit throughput, 1..16 shards
//      (shards=1 is the one-big-lock baseline)
//   6. Allocator: slab vs buddy under a KVS-like size mix
//   7. Parallel trace replay (Section 4.1) against sharded CAMP
#include "bench_common.h"

#include <atomic>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/camp.h"
#include "heap/pairing_heap.h"
#include "sim/parallel_simulator.h"
#include "kvs/sharded_cache.h"
#include "kvs/store.h"
#include "policy/admission.h"
#include "policy/gds.h"
#include "policy/policy_factory.h"
#include "slab/buddy_allocator.h"
#include "slab/slab_allocator.h"
#include "util/rounding.h"

namespace {

using namespace camp;

// ---- 1. heap arity -----------------------------------------------------------

template <int Arity>
void run_camp_arity(benchmark::State& state) {
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  for (auto _ : state) {
    core::CampConfig config;
    config.capacity_bytes = cap;
    config.precision = 5;
    core::BasicCampCache<Arity> cache(config);
    sim::Simulator simulator(cache);
    simulator.run(bundle.records);
    state.counters["heap_node_visits"] =
        static_cast<double>(cache.introspect().heap.nodes_visited);
    state.counters["cost_miss_ratio"] =
        simulator.metrics().cost_miss_ratio();
  }
}

// ---- 2. GDS priority queue: implicit binary heap vs pairing heap --------------

void run_gds_pairing(benchmark::State& state) {
  // A GDS variant on a pairing heap, inlined here (the production GdsCache
  // uses the implicit binary heap).
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  struct Pri {
    std::uint64_t h;
    policy::Key key;
    bool operator>(const Pri& o) const { return h > o.h; }
  };
  struct PriLess {
    bool operator()(const Pri& a, const Pri& b) const { return a.h < b.h; }
  };
  for (auto _ : state) {
    heap::PairingHeap<Pri, PriLess> heap;
    std::unordered_map<policy::Key,
                       std::pair<heap::PairingHeap<Pri, PriLess>::Handle,
                                 std::pair<std::uint64_t, std::uint64_t>>>
        index;  // key -> (handle, (size, ratio))
    util::AdaptiveRatioScaler scaler;
    std::uint64_t used = 0, inflation = 0, visits_proxy = 0;
    std::unordered_set<policy::Key> seen;
    std::uint64_t noncold = 0, noncold_miss = 0;
    for (const trace::TraceRecord& r : bundle.records) {
      const bool cold = seen.insert(r.key).second;
      if (!cold) ++noncold;
      const auto it = index.find(r.key);
      if (it != index.end()) {
        // hit: L <- min over others; refresh priority
        heap.erase(it->second.first);
        if (!heap.empty()) inflation = std::max(inflation, heap.top().h);
        const std::uint64_t h = inflation + it->second.second.second;
        it->second.first = heap.push(Pri{h, r.key});
        continue;
      }
      if (!cold) ++noncold_miss;
      scaler.observe_size(r.size);
      const std::uint64_t ratio = scaler.scale(r.cost, r.size);
      while (used + r.size > cap && !heap.empty()) {
        const Pri top = heap.top();
        inflation = std::max(inflation, top.h);
        const auto vit = index.find(top.key);
        used -= vit->second.second.first;
        heap.pop();
        index.erase(vit);
      }
      const std::uint64_t h = inflation + ratio;
      index[r.key] = {heap.push(Pri{h, r.key}), {r.size, ratio}};
      used += r.size;
    }
    visits_proxy = heap.stats().nodes_visited;
    state.counters["heap_node_visits"] = static_cast<double>(visits_proxy);
    state.counters["miss_rate"] =
        noncold == 0 ? 0.0
                     : static_cast<double>(noncold_miss) /
                           static_cast<double>(noncold);
  }
}

void run_gds_implicit(benchmark::State& state) {
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  for (auto _ : state) {
    policy::GdsConfig config;
    config.capacity_bytes = cap;
    policy::GdsCache cache(config);
    sim::Simulator simulator(cache);
    simulator.run(bundle.records);
    state.counters["heap_node_visits"] =
        static_cast<double>(cache.heap_stats().nodes_visited);
    state.counters["miss_rate"] = simulator.metrics().miss_rate();
  }
}

// ---- 3. rounding scheme: MSY vs fixed truncation inside GDS priorities --------

void run_rounding_scheme(benchmark::State& state, bool msy) {
  // GDS with precision-5 MSY rounding vs GDS with fixed 5-bit truncation;
  // the MSY variant must not degrade cost-miss while truncation hurts small
  // ratios (Table 1's point at cache scale).
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  for (auto _ : state) {
    std::unordered_set<policy::Key> seen;
    std::uint64_t noncold_cost = 0, missed_cost = 0;
    policy::GdsConfig config;
    config.capacity_bytes = cap;
    config.precision = msy ? 5 : util::kPrecisionInfinity;
    policy::GdsCache cache(config);
    for (const trace::TraceRecord& r : bundle.records) {
      const bool cold = seen.insert(r.key).second;
      if (!cold) noncold_cost += r.cost;
      if (!cache.get(r.key)) {
        if (!cold) missed_cost += r.cost;
        // Truncation variant: pre-truncate the cost so the effective ratio
        // loses its low bits regardless of magnitude.
        const std::uint64_t cost =
            msy ? r.cost : std::max<std::uint64_t>(
                               1, util::truncate_low_bits(r.cost, 7));
        cache.put(r.key, r.size, cost);
      }
    }
    state.counters["cost_miss_ratio"] =
        noncold_cost == 0 ? 0.0
                          : static_cast<double>(missed_cost) /
                                static_cast<double>(noncold_cost);
  }
}

// ---- 4. admission control on/off ----------------------------------------------

void run_admission(benchmark::State& state, bool enabled) {
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.05, bundle.unique_bytes);
  for (auto _ : state) {
    std::unique_ptr<policy::ICache> cache = bench::camp_factory(5)(cap);
    if (enabled) {
      policy::AdmissionConfig config;  // doorkeeper + cost bypass defaults
      cache = std::make_unique<policy::AdmissionFilter>(std::move(cache),
                                                        config);
    }
    sim::Simulator simulator(*cache);
    simulator.run(bundle.records);
    state.counters["cost_miss_ratio"] =
        simulator.metrics().cost_miss_ratio();
    state.counters["miss_rate"] = simulator.metrics().miss_rate();
  }
}

// ---- 5. sharding: concurrent hit throughput ------------------------------------

void run_sharded(benchmark::State& state, std::size_t shards, int threads) {
  const std::uint64_t cap = 64u << 20;
  for (auto _ : state) {
    kvs::ShardedCache cache(cap, shards, [](std::uint64_t c) {
      core::CampConfig config;
      config.capacity_bytes = c;
      config.precision = 5;
      return core::make_camp(config);
    });
    std::atomic<std::uint64_t> ops{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&cache, &ops, t] {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
        std::uint64_t local = 0;
        for (int i = 0; i < 100'000; ++i) {
          const policy::Key k = rng.below(50'000);
          if (!cache.get(k)) {
            cache.put(k, 64 + rng.below(1024), 1 + rng.below(10'000));
          }
          ++local;
        }
        ops.fetch_add(local);
      });
    }
    for (auto& w : workers) w.join();
    state.SetItemsProcessed(static_cast<std::int64_t>(ops.load()));
  }
}

// ---- 8. CAMP-F precision sweep ---------------------------------------------------
// Figure 5a's question asked of the frequency-aware extension: does the
// rounding that bounds the queue count cost any decision quality when the
// ratio now carries a hit counter?

void run_campf_precision(benchmark::State& state, int precision) {
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  for (auto _ : state) {
    core::CampConfig config;
    config.capacity_bytes = cap;
    config.precision = precision;
    config.frequency_aware = true;
    core::CampCache cache(config);
    sim::Simulator simulator(cache);
    simulator.run(bundle.records);
    state.counters["cost_miss_ratio"] =
        simulator.metrics().cost_miss_ratio();
    state.counters["queues"] =
        static_cast<double>(cache.introspect().nonempty_queues);
  }
}

// ---- 7. parallel trace replay against sharded CAMP ------------------------------

void run_parallel_replay(benchmark::State& state, unsigned threads) {
  const auto& bundle = bench::default_trace();
  const std::uint64_t cap =
      sim::capacity_for_ratio(0.1, bundle.unique_bytes);
  for (auto _ : state) {
    kvs::ShardedCache cache(cap, kvs::StoreConfig{}.shards,
                            policy::make_policy_factory("camp:p=5"));
    const auto result =
        sim::replay_parallel(cache, bundle.records, threads);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(result.metrics.requests));
    state.counters["cost_miss_ratio"] = result.metrics.cost_miss_ratio();
    state.counters["miss_rate"] = result.metrics.miss_rate();
    state.counters["replay_mreq_s"] =
        result.requests_per_second() / 1e6;
  }
}

// ---- 6. allocator: slab vs buddy -----------------------------------------------

void run_slab_alloc(benchmark::State& state) {
  slab::SlabConfig config;
  config.memory_limit_bytes = 64u << 20;
  util::Xoshiro256 rng(5);
  for (auto _ : state) {
    slab::SlabAllocator alloc(config);
    std::vector<slab::Chunk> live;
    std::uint64_t failures = 0;
    for (int i = 0; i < 200'000; ++i) {
      if (rng.below(2) == 0 || live.empty()) {
        const auto size = 64 + rng.below(16'384);
        if (auto c = alloc.allocate(size)) {
          live.push_back(*c);
        } else {
          ++failures;
          if (!live.empty()) {
            alloc.free(live.back());
            live.pop_back();
          }
        }
      } else {
        const auto idx = static_cast<std::size_t>(rng.below(live.size()));
        alloc.free(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    state.counters["alloc_failures"] = static_cast<double>(failures);
  }
}

void run_buddy_alloc(benchmark::State& state) {
  slab::BuddyConfig config;
  config.arena_bytes = 64u << 20;
  util::Xoshiro256 rng(5);
  for (auto _ : state) {
    slab::BuddyAllocator alloc(config);
    std::vector<slab::BuddyBlock> live;
    std::uint64_t failures = 0;
    for (int i = 0; i < 200'000; ++i) {
      if (rng.below(2) == 0 || live.empty()) {
        const auto size = 64 + rng.below(16'384);
        if (auto b = alloc.allocate(size)) {
          live.push_back(*b);
        } else {
          ++failures;
          if (!live.empty()) {
            alloc.free(live.back());
            live.pop_back();
          }
        }
      } else {
        const auto idx = static_cast<std::size_t>(rng.below(live.size()));
        alloc.free(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    state.counters["alloc_failures"] = static_cast<double>(failures);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("ablation/arity/2", run_camp_arity<2>)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/arity/4", run_camp_arity<4>)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/arity/8", run_camp_arity<8>)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/arity/16", run_camp_arity<16>)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  benchmark::RegisterBenchmark("ablation/gds-pq/implicit-binary",
                               run_gds_implicit)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/gds-pq/pairing", run_gds_pairing)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  benchmark::RegisterBenchmark(
      "ablation/rounding/msy-p5",
      [](benchmark::State& st) { run_rounding_scheme(st, true); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "ablation/rounding/fixed-truncation",
      [](benchmark::State& st) { run_rounding_scheme(st, false); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  benchmark::RegisterBenchmark(
      "ablation/admission/off",
      [](benchmark::State& st) { run_admission(st, false); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "ablation/admission/on",
      [](benchmark::State& st) { run_admission(st, true); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  for (const std::size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    benchmark::RegisterBenchmark(
        ("ablation/sharding/shards=" + std::to_string(shards) + "/threads=8").c_str(),
        [shards](benchmark::State& st) {
          run_sharded(st, shards, 8);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }

  for (const int precision : {1, 3, 5, 10, 64}) {
    benchmark::RegisterBenchmark(
        ("ablation/campf-precision/p=" +
         (precision == 64 ? std::string("inf") : std::to_string(precision)))
            .c_str(),
        [precision](benchmark::State& st) {
          run_campf_precision(st, precision);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    benchmark::RegisterBenchmark(
        ("ablation/parallel-replay/sharded-camp/threads=" +
         std::to_string(threads))
            .c_str(),
        [threads](benchmark::State& st) {
          run_parallel_replay(st, threads);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }

  benchmark::RegisterBenchmark("ablation/allocator/slab", run_slab_alloc)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/allocator/buddy", run_buddy_alloc)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
