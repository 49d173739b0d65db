// The traced run: one workload's op stream replayed one layer at a time,
// with a span around every call the benchmark makes into a layer. Adjacent
// rungs (policy -> engine -> store -> in-process client -> TCP client, and
// store -> cluster) differ by one layer, so their difference says where the
// time went. See perfbench/PREDICTIONS.md for what each number should move.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#include "bench.h"
#include "core/camp.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/engine.h"
#include "kvs/protocol.h"
#include "policy/policy_factory.h"

namespace perfbench {

namespace {

std::uint32_t id(std::string_view name) {
  return Tracer::instance().intern(name);
}

/// Median duration of a span name, in ns (NaN when it never ran).
double span_p50(std::string_view name) {
  Tracer::Stat s = Tracer::instance().stat(name);
  return percentile(s.durations, 0.5);
}

std::uint64_t span_count(std::string_view name) {
  return Tracer::instance().stat(name).count;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Direct-call rungs (policy, engine, store) see the same warm start as the
/// end-to-end run: every key for preload workloads, else the stream prefix
/// the end-to-end warm-up consumed. Returns where the traced replay starts.
template <class Apply>
std::size_t warm_direct(const Workload& w, const std::vector<Op>& ops,
                        std::size_t warm, Apply&& apply) {
  if (!w.preload) {
    for (std::size_t i = 0; i < warm; ++i) apply(ops[i]);
    return warm;
  }
  for (const Op& op : every_key(w)) apply(op);
  return 0;
}

std::uint64_t after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

/// Traced replay from `pos` until `cap` ops ran or `seconds` passed.
template <class Apply>
std::uint64_t replay(const std::vector<Op>& ops, std::size_t pos,
                     std::uint64_t cap, double seconds, Apply&& apply) {
  const std::uint64_t deadline = after(seconds);
  Tracer::instance().set_enabled(true);
  std::uint64_t n = 0;
  while (n < cap && ((n & 255) != 0 || now_ns() < deadline)) {
    if (pos >= ops.size()) pos = 0;
    apply(ops[pos++]);
    ++n;
  }
  Tracer::instance().set_enabled(false);
  return n;
}

// ---- policy -----------------------------------------------------------------

/// The paper-claim rung: the stream through make_policy(spec) directly, a
/// FIXED op count so the counts repeat exactly at a fixed seed.
void policy_rung(const Workload& w, const std::vector<Op>& ops,
                 std::size_t warm, const std::string& spec,
                 const std::string& prefix, Report& report) {
  // The engine hands its policy this share of the slab budget.
  const auto capacity = static_cast<std::uint64_t>(
      kvs::EngineConfig{}.policy_fill_fraction *
      static_cast<double>(w.memory_bytes));
  auto cache = policy::make_policy(spec, capacity);
  const std::uint32_t get = id(prefix + ".get");
  const std::uint32_t hit = id(prefix + ".get_hit");
  const std::uint32_t miss = id(prefix + ".get_miss");
  const std::uint32_t put = id(prefix + ".put");
  auto apply = [&](const Op& op) {
    switch (op.kind) {
      case OpKind::kGet: {
        Span span(get);
        const bool h = cache->get(op.key);
        span.end(h ? hit : miss);
        if (!h) {
          Span p(put);
          cache->put(op.key, op.size, op.cost);
        }
        break;
      }
      case OpKind::kSet: {
        Span p(put);
        cache->put(op.key, op.size, op.cost);
        break;
      }
      case OpKind::kDel:
        cache->erase(op.key);
        break;
    }
  };
  const std::size_t start = warm_direct(w, ops, warm, apply);
  const policy::CacheStats before = cache->stats();
  const auto* camp = dynamic_cast<const core::CampCache*>(cache.get());
  const std::uint64_t visits0 =
      camp != nullptr ? camp->introspect().heap.nodes_visited : 0;
  const std::uint64_t n =
      replay(ops, start, w.quality_ops / 2, /*seconds=*/3600, apply);
  const policy::CacheStats& after = cache->stats();
  const double calls = static_cast<double>(after.gets - before.gets +
                                           after.puts - before.puts);
  report.add(prefix + ".get_hit_ns", span_p50(prefix + ".get_hit"), "ns",
             span_count(prefix + ".get_hit"), "p50 span");
  report.add(prefix + ".get_miss_ns", span_p50(prefix + ".get_miss"), "ns",
             span_count(prefix + ".get_miss"), "p50 span");
  report.add(prefix + ".put_ns", span_p50(prefix + ".put"), "ns",
             span_count(prefix + ".put"), "p50 span");
  if (camp != nullptr) {
    const core::CampIntrospection intro = camp->introspect();
    report.add(prefix + ".heap_visits_per_op",
               ratio(static_cast<double>(intro.heap.nodes_visited - visits0),
                     calls),
               "visits/op", n, "exact count");
    report.add(prefix + ".evictions_per_put",
               ratio(static_cast<double>(after.evictions - before.evictions),
                     static_cast<double>(after.puts - before.puts)),
               "evictions/put", n, "exact count");
    report.add(prefix + ".nonempty_queues",
               static_cast<double>(intro.nonempty_queues), "count", n,
               "exact count, at the end");
  }
}

// ---- engine and store -------------------------------------------------------

/// Replays the stream straight into a KvsEngine or a KvsStore (the same
/// get/set/del surface), checking every hit. Spans: `<prefix>.get` (renamed
/// `.get_hit` / `.get_miss` with `split_hits`) and `<prefix>.set`. `traced`
/// runs between the warm start and the traced replay. Returns the number
/// of traced ops.
template <class Kv>
std::uint64_t replay_kv(const Workload& w, const std::vector<Op>& ops,
                        std::size_t warm, Kv& kv, const std::string& prefix,
                        bool split_hits, double seconds, Report& report,
                        const std::function<void()>& traced = {}) {
  const Values values;
  const std::uint32_t get = id(prefix + ".get");
  const std::uint32_t hit = split_hits ? id(prefix + ".get_hit") : 0;
  const std::uint32_t miss = split_hits ? id(prefix + ".get_miss") : 0;
  const std::uint32_t set = id(prefix + ".set");
  Tally tally;
  std::string value;
  char buf[16];
  auto store = [&](const Op& op, std::string_view key) {
    values.make(op.key, op.size, value);
    Span span(set);
    if (!kv.set(key, value, 0, op.cost)) ++tally.failed;
  };
  auto apply = [&](const Op& op) {
    const std::string_view key = key_name(op.key, buf);
    ++tally.attempted;
    switch (op.kind) {
      case OpKind::kGet: {
        Span span(get);
        const kvs::GetResult g = kv.get(key);
        span.end(g.hit ? hit : miss);
        if (!g.hit) {
          store(op, key);
        } else if (!values.check(op.key, op.size, g.value)) {
          ++tally.failed;
          ++tally.mismatched;
        }
        break;
      }
      case OpKind::kSet:
        store(op, key);
        break;
      case OpKind::kDel:
        kv.del(key);
        break;
    }
  };
  const std::size_t start = warm_direct(w, ops, warm, apply);
  if (traced) traced();
  const std::uint64_t n = replay(ops, start, ~0ull, seconds, apply);
  report.count(tally);
  return n;
}

void engine_rung(const Workload& w, const std::vector<Op>& ops,
                 std::size_t warm, bool compressed, double seconds,
                 Report& report) {
  kvs::EngineConfig config = store_config(w, w.memory_bytes, 1).engine;
  config.compression.enabled = compressed;
  kvs::KvsEngine engine(config, policy_factory(), steady_clock());
  const std::string prefix = compressed ? "engine.compressed" : "engine";
  kvs::EngineStats before;
  const std::uint64_t n =
      replay_kv(w, ops, warm, engine, prefix, true, seconds, report,
                [&] { before = engine.stats(); });
  const kvs::EngineStats& st = engine.stats();
  if (compressed) {
    report.add("engine.get_compressed_ns", span_p50(prefix + ".get_hit"), "ns",
               span_count(prefix + ".get_hit"), "p50 span, hits");
    report.add("engine.set_compressed_ns", span_p50(prefix + ".set"), "ns",
               span_count(prefix + ".set"), "p50 span");
    report.add("engine.stored_per_raw_byte",
               ratio(static_cast<double>(st.stored_bytes),
                     static_cast<double>(st.value_bytes)),
               "ratio", st.items, "resident pairs at the end");
    report.add("engine.compress_bail_frac",
               ratio(static_cast<double>(st.compress_bails -
                                         before.compress_bails),
                     static_cast<double>(st.sets - before.sets)),
               "fraction", st.sets - before.sets, "traced sets");
  } else {
    report.add("engine.get_hit_ns", span_p50(prefix + ".get_hit"), "ns",
               span_count(prefix + ".get_hit"), "p50 span");
    report.add("engine.get_miss_ns", span_p50(prefix + ".get_miss"), "ns",
               span_count(prefix + ".get_miss"), "p50 span");
    report.add("engine.set_ns", span_p50(prefix + ".set"), "ns",
               span_count(prefix + ".set"), "p50 span");
  }
  // Slab churn under the workload's own codec setting.
  if (compressed == w.compression) {
    report.add("engine.slab_reassignments_per_kop",
               ratio(static_cast<double>(st.slab_reassignments -
                                         before.slab_reassignments),
                     static_cast<double>(n) / 1000.0),
               "count/kop", n, "traced ops");
  }
}

void store_rung(const Workload& w, const std::vector<Op>& ops,
                std::size_t warm, bool autotune, double seconds,
                Report& report) {
  kvs::StoreConfig config = store_config(w, w.memory_bytes, kStoreShards);
  if (autotune) config.autotune = core::AutoTunerConfig{};
  kvs::KvsStore kv(config, policy_factory(), steady_clock());
  const std::string prefix = autotune ? "store.autotune" : "store";
  replay_kv(w, ops, warm, kv, prefix, false, seconds, report);
  if (autotune) {
    report.add("store.autotune_get_ns", span_p50(prefix + ".get"), "ns",
               span_count(prefix + ".get"), "p50 span, autotune on");
  } else {
    report.add("store.get_ns", span_p50(prefix + ".get"), "ns",
               span_count(prefix + ".get"), "p50 span");
    report.add("store.set_ns", span_p50(prefix + ".set"), "ns",
               span_count(prefix + ".set"), "p50 span");
  }
}

// ---- rungs through a KvsApi transport ---------------------------------------

/// A target built for `transport`, one client, warmed up like the
/// end-to-end run, then stepped with a span around every execute for
/// `seconds`. The observer (if any) sees only the traced steps.
struct ApiRung {
  std::unique_ptr<Target> target;
  std::unique_ptr<kvs::KvsApi> client;
  std::unique_ptr<Seen> seen;
  StepContext ctx;
  Tally tally;
  std::size_t pos = 0;

  ApiRung(const Workload& w, const Values& values, Transport transport,
          const std::vector<Op>& ops)
      : target(make_target(w, transport)),
        client(target->connect()),
        seen(std::make_unique<Seen>(w.trace.num_keys)) {
    ctx.w = &w;
    ctx.values = &values;
    ctx.seen = seen.get();
    pos = warm_up(ctx, *target, *client, ops, tally);
  }
  ApiRung(const ApiRung&) = delete;
  ApiRung& operator=(const ApiRung&) = delete;
  ~ApiRung() { client.reset(); }

  void run(const std::vector<Op>& ops, std::uint32_t span, double seconds,
           BatchObserver observer) {
    const std::uint64_t deadline = after(seconds);
    ctx.span_get = ctx.span_set = span;
    ctx.observer = std::move(observer);
    Tracer::instance().set_enabled(true);
    const std::size_t batch = ctx.w->batch;
    do {
      if (pos + batch > ops.size()) pos = 0;
      run_step(ctx, *client, {ops.data() + pos, batch}, false, -1, tally);
      pos += batch;
    } while (now_ns() < deadline);
    Tracer::instance().set_enabled(false);
    ctx.observer = nullptr;
  }
};

std::size_t count_reads(const kvs::KvsBatch& batch) {
  return static_cast<std::size_t>(std::count_if(
      batch.ops().begin(), batch.ops().end(), [](const kvs::KvsOp& op) {
        return op.type == kvs::KvsOpType::kGet ||
               op.type == kvs::KvsOpType::kIqGet;
      }));
}

/// Decode a whole wire buffer with CommandDecoder, in 64 KiB reads; returns
/// the commands decoded (the time lands in protocol.decode spans).
std::uint64_t decode_all(std::string_view wire, std::uint32_t span) {
  kvs::CommandDecoder decoder;
  kvs::DecodedCommand dc;
  std::uint64_t commands = 0;
  for (std::size_t off = 0; off < wire.size(); off += 64u << 10) {
    Span s(span);
    decoder.feed(wire.substr(off, 64u << 10));
    while (decoder.next(dc) == kvs::CommandDecoder::Status::kCommand) {
      ++commands;
    }
  }
  return commands;
}

/// In-process client rung, with the protocol layer timed on the same
/// batches: encode_batch on every executed batch, CommandDecoder over the
/// resulting wire bytes, format_value on every hit.
void inproc_protocol_rung(const Workload& w, const std::vector<Op>& ops,
                          double seconds, Report& report) {
  const Values values;
  ApiRung rung(w, values, Transport::kInproc, ops);
  const std::uint32_t encode = id("protocol.encode");
  const std::uint32_t format = id("protocol.format_value");
  std::uint64_t exec_ns = 0, exec_ops = 0, enc_ns = 0, enc_ops = 0;
  std::string wire;
  constexpr std::size_t kMaxWire = 32u << 20;
  rung.run(ops, id("inproc.execute"), seconds,
           [&](const kvs::KvsBatch& batch, const kvs::KvsBatchResult& result,
               std::uint64_t ns) {
             exec_ns += ns;
             exec_ops += batch.size();
             Span span(encode);
             const kvs::BatchWire bw = kvs::encode_batch(batch);
             enc_ns += span.end(0);
             enc_ops += batch.size();
             if (wire.size() < kMaxWire) wire += bw.request;
             for (std::size_t i = 0; i < batch.size(); ++i) {
               if (!result[i].ok || result[i].value.empty()) continue;
               Span f(format);
               const std::string line = kvs::format_value(
                   batch[i].key, result[i].flags, result[i].value);
               (void)line;
             }
           });
  report.count(rung.tally);

  const std::uint32_t decode = id("protocol.decode");
  Tracer::instance().set_enabled(true);
  const std::uint64_t commands = decode_all(wire, decode);
  Tracer::instance().set_enabled(false);
  const Tracer::Stat dec = Tracer::instance().stat("protocol.decode");

  report.add("inproc.execute_ns_per_op",
             ratio(static_cast<double>(exec_ns), static_cast<double>(exec_ops)),
             "ns", exec_ops, "mean over batches");
  report.add("protocol.encode_ns_per_op",
             ratio(static_cast<double>(enc_ns), static_cast<double>(enc_ops)),
             "ns", enc_ops, "mean over batches");
  report.add("protocol.decode_mb_per_s",
             ratio(static_cast<double>(wire.size()) * 1e3,
                   static_cast<double>(dec.total_ns)),
             "MB/s", commands, "commands decoded");
  report.add("protocol.format_ns_per_value",
             span_p50("protocol.format_value"), "ns",
             span_count("protocol.format_value"), "p50 span");
}

/// TCP client rung against an in-process KvsServer, then the open-loop
/// probe on the same (warm) server.
void tcp_rung(const Workload& w, const std::vector<Op>& ops,
              double seconds, double probe_s, double store_get_ns,
              double store_set_ns, Report& report) {
  const Values values;
  ApiRung rung(w, values, Transport::kTcp, ops);
  auto* tcp = dynamic_cast<kvs::KvsClient*>(rung.client.get());
  const std::uint64_t writes0 = tcp->write_count();
  const std::uint64_t batches0 = rung.tally.batches;
  const std::uint32_t decode = id("server.decode_estimate");
  std::vector<double> self_us;
  rung.run(ops, id("client.execute"), seconds,
           [&](const kvs::KvsBatch& batch, const kvs::KvsBatchResult&,
               std::uint64_t ns) {
             // The server's own share: the round trip minus what the
             // lower rungs say encode, decode and the store cost for
             // this very batch.
             const std::uint64_t t0 = now_ns();
             const kvs::BatchWire bw = kvs::encode_batch(batch);
             const std::uint64_t t1 = now_ns();
             Span s(decode);
             decode_all(bw.request, 0);
             const double dec_ns = static_cast<double>(s.end(0));
             const double reads = static_cast<double>(count_reads(batch));
             const double store_ns =
                 reads * store_get_ns +
                 (static_cast<double>(batch.size()) - reads) * store_set_ns;
             self_us.push_back((static_cast<double>(ns) -
                                static_cast<double>(t1 - t0) - dec_ns -
                                store_ns) /
                               1e3);
           });
  const std::uint64_t batches = rung.tally.batches - batches0;
  report.add("client.execute_us_p50", span_p50("client.execute") / 1e3, "us",
             span_count("client.execute"), "p50 span");
  report.add("client.writes_per_batch",
             ratio(static_cast<double>(tcp->write_count() - writes0),
                   static_cast<double>(batches)),
             "writes/batch", batches, "KvsClient::write_count");
  report.add("server.self_us_p50", median(self_us), "us", self_us.size(),
             "execute minus encode, decode and store, per batch");

  // Open loop: get batches due on a fixed schedule, latency measured from
  // the due time (so a stall charges every request queued behind it).
  constexpr double kRate = 1000.0;  // batches per second
  const auto period = static_cast<std::uint64_t>(1e9 / kRate);
  const auto count = static_cast<std::uint64_t>(probe_s * kRate);
  std::vector<std::uint32_t> lat, late;
  kvs::KvsBatch batch;
  char buf[16];
  const std::uint64_t t0 = now_ns() + 1'000'000;
  for (std::uint64_t i = 0; i < count; ++i) {
    batch.clear();
    std::vector<const Op*> reads;
    while (batch.size() < w.batch) {
      if (rung.pos >= ops.size()) rung.pos = 0;
      const Op& op = ops[rung.pos++];
      if (op.kind != OpKind::kGet) continue;
      batch.add_get(key_name(op.key, buf));
      reads.push_back(&op);
    }
    // Sleep to just before the due time, then spin: a bare sleep wakes
    // hundreds of microseconds late on a VM, which would be the tail.
    const std::uint64_t due = t0 + i * period;
    constexpr std::uint64_t kSpinNs = 200'000;
    if (due > kSpinNs + now_ns()) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(due - kSpinNs))));
    }
    while (now_ns() < due) {
    }
    const std::uint64_t sent = now_ns();
    rung.tally.attempted += batch.size();
    try {
      const kvs::KvsBatchResult r = rung.client->execute(batch);
      const std::uint64_t done = now_ns();
      lat.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(done - due, 0xffffffffu)));
      late.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(sent > due ? sent - due : 0, 0xffffffffu)));
      for (std::size_t k = 0; k < reads.size(); ++k) {
        const Op& op = *reads[k];
        if (r[k].ok && !values.check(op.key, op.size, r[k].value)) {
          ++rung.tally.failed;
          ++rung.tally.mismatched;
        }
      }
    } catch (const std::exception&) {
      rung.tally.failed += batch.size();
    }
  }
  report.count(rung.tally);
  const std::uint64_t n = lat.size();
  report.add("probe.get_p50_us", percentile(lat, 0.50) / 1e3, "us", n,
             "open loop, from due time");
  report.add("probe.get_p99_us", percentile(lat, 0.99) / 1e3, "us", n,
             "open loop, from due time");
  report.add("probe.gen_late_p99_us", percentile(late, 0.99) / 1e3, "us", n,
             "send time minus due time");
}

void cluster_rung(const Workload& w, const std::vector<Op>& ops,
                  double seconds, Report& report) {
  const Values values;
  ApiRung rung(w, values, Transport::kCluster, ops);
  const kvs::CoopCluster& cluster = *cluster_of(*rung.target);
  const kvs::ClusterCounters c0 = cluster.counters();
  rung.run(ops, id("cluster.execute"), seconds, nullptr);
  const kvs::ClusterCounters c1 = cluster.counters();
  report.count(rung.tally);
  const double requests = static_cast<double>(c1.requests - c0.requests);
  const double noncold =
      requests - static_cast<double>(c1.cold_misses - c0.cold_misses);
  report.add("cluster.execute_us_p50", span_p50("cluster.execute") / 1e3, "us",
             span_count("cluster.execute"), "p50 span");
  report.add("cluster.local_hit_frac",
             ratio(static_cast<double>(c1.local_hits - c0.local_hits), noncold),
             "fraction", c1.requests - c0.requests, "non-cold cluster gets");
  report.add("cluster.remote_hit_frac",
             ratio(static_cast<double>(c1.remote_hits - c0.remote_hits),
                   noncold),
             "fraction", c1.requests - c0.requests, "non-cold cluster gets");
  report.add("cluster.replica_writes_per_set",
             ratio(static_cast<double>(c1.replica_writes - c0.replica_writes),
                   static_cast<double>(c1.sets - c0.sets)),
             "writes/set", c1.sets - c0.sets, "cluster sets");
  report.add("cluster.transfer_bytes_per_get",
             ratio(static_cast<double>(c1.transfer_bytes - c0.transfer_bytes),
                   requests),
             "B/get", c1.requests - c0.requests, "cluster gets");
}

// ---- tracing overhead -------------------------------------------------------

/// The end-to-end loop in alternating untraced/traced windows on one warm
/// target: overhead = 1 - traced ops/s over untraced ops/s.
void overhead_rung(const Workload& w, const std::vector<Op>& ops,
                   double window_s, Report& report) {
  const Values values;
  auto target = make_target(w, Transport::kInproc);
  auto client = target->connect();
  Seen seen(w.trace.num_keys);
  StepContext ctx;
  ctx.w = &w;
  ctx.values = &values;
  ctx.seen = &seen;
  Tally warm;
  std::size_t pos = warm_up(ctx, *target, *client, ops, warm);
  report.count(warm);
  double done[2] = {0, 0};
  for (int round = 0; round < 4; ++round) {
    const bool traced = round % 2 == 1;
    ctx.span_step = traced ? id("e2e.step") : 0;
    ctx.span_get = traced ? id("e2e.get_batch") : 0;
    ctx.span_set = traced ? id("e2e.set_batch") : 0;
    Tracer::instance().set_enabled(traced);
    Tally tally(3);
    Window window;
    measure(w, ctx, *client, ops, pos, window_s, 1, /*skip_stolen=*/false, 0,
            tally, window);
    Tracer::instance().set_enabled(false);
    report.count(tally);
    done[traced ? 1 : 0] += static_cast<double>(tally.seg_ops[0]);
  }
  client.reset();
  report.add("trace.overhead_frac", 1.0 - ratio(done[1], done[0]), "fraction",
             static_cast<std::uint64_t>(done[0] + done[1]),
             "1 - traced/untraced ops, alternating windows");
}

/// Cost of one span (open + close), measured on empty spans.
void span_cost(Report& report) {
  constexpr int kSpans = 200'000;
  const std::uint32_t name = id("trace.empty");
  Tracer::instance().set_enabled(true);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    Span s(name);
  }
  const std::uint64_t dt = now_ns() - t0;
  Tracer::instance().set_enabled(false);
  report.add("trace.span_ns", static_cast<double>(dt) / kSpans, "ns", kSpans,
             "mean, empty spans");
}

}  // namespace

void run_ladder(const Workload& w, const std::vector<Op>& ops, double seconds,
                Report& report) {
  const double s = seconds;

  span_cost(report);
  overhead_rung(w, ops, 0.08 * s, report);

  // The direct-call rungs start where the end-to-end warm-up stopped.
  std::size_t warm = 0;
  {
    const Values values;
    auto target = make_target(w, Transport::kInproc);
    auto client = target->connect();
    Seen seen(w.trace.num_keys);
    StepContext ctx;
    ctx.w = &w;
    ctx.values = &values;
    ctx.seen = &seen;
    Tally tally;
    warm = warm_up(ctx, *target, *client, ops, tally);
    report.count(tally);
  }

  policy_rung(w, ops, warm, "camp:p=5", "policy", report);
  policy_rung(w, ops, warm, "lru", "policy.lru", report);
  engine_rung(w, ops, warm, false, 0.07 * s, report);
  engine_rung(w, ops, warm, true, 0.07 * s, report);
  store_rung(w, ops, warm, false, 0.05 * s, report);
  store_rung(w, ops, warm, true, 0.05 * s, report);
  inproc_protocol_rung(w, ops, 0.08 * s, report);
  tcp_rung(w, ops, 0.12 * s, 0.08 * s, span_p50("store.get"),
           span_p50("store.set"), report);
  cluster_rung(w, ops, 0.10 * s, report);

  // Where the time went, by span name (self = minus child spans).
  Tracer& tracer = Tracer::instance();
  std::printf("%-32s %10s %10s %12s %12s\n", "span", "count", "p50_ns",
              "total_ms", "self_ms");
  for (const std::string& name : tracer.names()) {
    Tracer::Stat st = tracer.stat(name);
    if (st.count == 0) continue;
    const double p50 = percentile(st.durations, 0.5);
    std::printf("%-32s %10llu %10.0f %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), p50,
                static_cast<double>(st.total_ns) / 1e6,
                static_cast<double>(st.self_ns) / 1e6);
  }
}

}  // namespace perfbench
