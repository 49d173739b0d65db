// Workloads, op streams, values, targets, the cache-aside step, the span
// tracer and the end-to-end run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/cluster_client.h"
#include "kvs/inproc.h"
#include "kvs/server.h"
#include "policy/policy_factory.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

const util::Clock& steady_clock() {
  static const util::SteadyClock clock;
  return clock;
}

namespace {

std::uint32_t clamp_u32(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

std::uint64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace

// ---- workloads --------------------------------------------------------------

namespace {
// Pinning the population keeps per-key costs and sizes out of the run-to-run
// spread: with them re-drawn per seed, whether a handful of the hottest keys
// cost 1 or 10K alone moves cost_miss_ratio by several percent.
constexpr std::uint64_t kPopulationSeed = 42;
// The ladder's TCP rungs run a 2-worker server; its cluster is 3 nodes, R=2.
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kClusterNodes = 3;
constexpr std::uint32_t kReplication = 2;
}  // namespace

Workload make_workload(const std::string& name, bool tiny,
                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "embed-evict") {
    w.trace = trace::bg_default(50'000, 0, kPopulationSeed);
    w.trace.size_model.max_bytes = 8u << 10;
    w.iq_gets = true;
    w.batch = 8;
    w.budget_frac = 0.10;
    w.stream_ops = 3'000'000;
    w.quality_ops = 2'000'000;
  } else if (name == "embed-read-fit") {
    w.trace = trace::bg_default(20'000, 0, kPopulationSeed);
    w.trace.size_model = trace::SizeModel::fixed(512);
    // A cache-aside write updates the backing store and invalidates the
    // key; the next read misses and refills it.
    w.write_frac = 0.05;
    w.write_kind = OpKind::kDel;
    w.batch = 32;
    w.budget_frac = 4.0;
    w.preload = true;
    w.slab_bytes = 1u << 20;
    w.stream_ops = 2'000'000;
    w.quality_ops = 2'000'000;
  } else if (name == "embed-write-evict") {
    w.trace = trace::bg_default(60'000, 0, kPopulationSeed);
    w.trace.size_model = trace::SizeModel::log_normal(7.6, 1.0, 64, 16u << 10);
    w.trace.cost_model = trace::CostModel::log_normal(4.6, 1.0, 1, 1'000'000);
    w.write_frac = 0.5;
    w.write_kind = OpKind::kSet;
    w.batch = 8;
    w.budget_frac = 0.25;
    w.compression = true;
    w.stream_ops = 1'200'000;
    w.quality_ops = 1'000'000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    w.trace.num_keys /= 20;
    w.stream_ops /= 20;
    w.quality_ops /= 20;
  }
  w.footprint = trace::TraceGenerator(w.trace).unique_bytes();
  w.memory_bytes = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(w.budget_frac *
                                 static_cast<double>(w.footprint)),
      kStoreShards * 8ull * w.slab_bytes);
  return w;
}

std::vector<Op> make_stream(const Workload& w) {
  const trace::WorkloadConfig& c = w.trace;
  const trace::TraceGenerator population(c);
  const util::ZipfianGenerator zipf(
      c.num_keys, util::ZipfianGenerator::solve_exponent(
                      c.num_keys, c.top_fraction, c.top_mass));
  util::Xoshiro256 ranks(w.seed);
  util::Xoshiro256 kinds(util::mix64(w.seed ^ 0x6f70'6b69'6e64ull));
  std::vector<Op> stream;
  stream.reserve(w.stream_ops);
  for (std::size_t i = 0; i < w.stream_ops; ++i) {
    Op op;
    op.key = static_cast<std::uint32_t>(zipf.sample(ranks));
    op.size = population.size_of(op.key);
    op.cost = population.cost_of(op.key);
    op.kind = kinds.uniform() < w.write_frac ? w.write_kind : OpKind::kGet;
    stream.push_back(op);
  }
  return stream;
}

std::uint64_t fingerprint(const std::vector<Op>& stream) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const Op& op : stream) {
    h = util::mix64(h ^ (static_cast<std::uint64_t>(op.key) << 32 ^
                         static_cast<std::uint64_t>(op.size) << 8 ^
                         static_cast<std::uint64_t>(op.kind)));
    h = util::mix64(h ^ op.cost);
  }
  return h;
}

kvs::StoreConfig store_config(const Workload& w, std::uint64_t memory_bytes,
                              std::size_t shards) {
  kvs::StoreConfig config;
  config.shards = shards;
  config.engine.slab.memory_limit_bytes = memory_bytes;
  config.engine.slab.slab_size_bytes = w.slab_bytes;
  config.engine.compression.enabled = w.compression;
  return config;
}

kvs::PolicyFactory policy_factory() {
  return policy::make_policy_factory("camp:p=5");
}

// ---- values -----------------------------------------------------------------

namespace {
constexpr std::size_t kPatternBlocks = 2048;
constexpr std::size_t kMaxValueBytes = 64u << 10;
}  // namespace

Values::Values() : pattern_(kPatternBlocks * 256 + kMaxValueBytes, 'v') {
  util::Xoshiro256 rng(0xc0de);
  for (std::size_t block = 0; block < pattern_.size(); block += 256) {
    for (std::size_t i = 0; i < 128 && block + i < pattern_.size(); ++i) {
      pattern_[block + i] = static_cast<char>(rng.next() & 0xff);
    }
  }
}

const char* Values::base(std::uint32_t key) const {
  return pattern_.data() + (util::mix64(key) % kPatternBlocks) * 256;
}

void Values::make(std::uint32_t key, std::uint32_t size,
                  std::string& out) const {
  if (size > kMaxValueBytes) throw std::length_error("value too large");
  out.resize(size);
  const std::uint64_t stamp = key;
  std::memcpy(out.data(), &stamp, std::min<std::size_t>(8, size));
  if (size > 8) std::memcpy(out.data() + 8, base(key) + 8, size - 8);
}

bool Values::check(std::uint32_t key, std::uint32_t size,
                   std::string_view got) const {
  if (got.size() != size) return false;
  const std::uint64_t stamp = key;
  const std::size_t head = std::min<std::size_t>(8, size);
  return std::memcmp(got.data(), &stamp, head) == 0 &&
         std::memcmp(got.data() + head, base(key) + head, size - head) == 0;
}

std::string_view key_name(std::uint32_t key, char (&buf)[16]) {
  const int n = std::snprintf(buf, sizeof buf, "k%u", key);
  return {buf, static_cast<std::size_t>(n)};
}

// ---- the cache-aside step ---------------------------------------------------

namespace {

/// Execute one batch, timed, inside a span. False when the transport threw
/// or answered out of shape (every op of the batch then counts as failed).
bool execute(const StepContext& ctx, kvs::KvsApi& api,
             const kvs::KvsBatch& batch, std::uint32_t span_name,
             int segment, std::vector<std::vector<std::uint32_t>>& lat,
             kvs::KvsBatchResult& result, Tally& tally) {
  tally.attempted += batch.size();
  ++tally.batches;
  const std::uint64_t t0 = now_ns();
  bool ok = true;
  {
    Span span(span_name);
    try {
      result = api.execute(batch);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  const std::uint64_t dt = now_ns() - t0;
  if (!ok || result.size() != batch.size()) {
    tally.failed += batch.size();
    return false;
  }
  if (segment >= 0) {
    lat[static_cast<std::size_t>(segment)].push_back(clamp_u32(dt));
    tally.seg_ops[static_cast<std::size_t>(segment)] += batch.size();
  }
  if (ctx.observer) ctx.observer(batch, result, dt);
  return true;
}

}  // namespace

void run_step(const StepContext& ctx, kvs::KvsApi& api,
              std::span<const Op> ops, bool quality, int segment,
              Tally& tally) {
  thread_local kvs::KvsBatch gets, mutations;
  thread_local kvs::KvsBatchResult result;
  thread_local std::vector<const Op*> reads;
  thread_local std::string value;
  char buf[16];
  Span step(ctx.span_step);
  gets.clear();
  mutations.clear();
  reads.clear();
  for (const Op& op : ops) {
    if (op.kind != OpKind::kGet) continue;
    if (ctx.w->iq_gets) {
      gets.add_iqget(key_name(op.key, buf));
    } else {
      gets.add_get(key_name(op.key, buf));
    }
    reads.push_back(&op);
  }
  if (!gets.empty() && execute(ctx, api, gets, ctx.span_get, segment,
                               tally.get_ns, result, tally)) {
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const Op& op = *reads[i];
      const bool cold = ctx.seen->first(op.key);
      if (quality && !cold) {
        ++tally.noncold;
        tally.cost_total += op.cost;
      }
      if (result[i].ok) {
        if (!ctx.values->check(op.key, op.size, result[i].value)) {
          ++tally.failed;
          ++tally.mismatched;
        }
        continue;
      }
      if (quality && !cold) {
        ++tally.noncold_misses;
        tally.cost_missed += op.cost;
      }
      ctx.values->make(op.key, op.size, value);
      mutations.add_set(key_name(op.key, buf), value, 0, op.cost);
      tally.set_bytes += op.size;
    }
  }
  for (const Op& op : ops) {
    if (op.kind == OpKind::kGet) continue;
    ctx.seen->first(op.key);
    if (op.kind == OpKind::kDel) {
      mutations.add_del(key_name(op.key, buf));
    } else {
      ctx.values->make(op.key, op.size, value);
      mutations.add_set(key_name(op.key, buf), value, 0, op.cost);
      tally.set_bytes += op.size;
    }
  }
  if (!mutations.empty() && execute(ctx, api, mutations, ctx.span_set,
                                    segment, tally.set_ns, result, tally)) {
    // A set must be stored; a delete may find the key already evicted.
    for (std::size_t i = 0; i < mutations.size(); ++i) {
      if (mutations[i].type == kvs::KvsOpType::kSet && !result[i].ok) {
        ++tally.failed;
      }
    }
  }
}

std::vector<Op> every_key(const Workload& w) {
  const trace::TraceGenerator gen(w.trace);
  std::vector<Op> ops;
  for (std::uint64_t k = 0; k < w.trace.num_keys; ++k) {
    const auto key = static_cast<std::uint32_t>(k);
    ops.push_back({key, gen.size_of(k), gen.cost_of(k), OpKind::kSet});
  }
  return ops;
}

void preload_all(const StepContext& ctx, kvs::KvsApi& api, Tally& tally) {
  const std::vector<Op> ops = every_key(*ctx.w);
  for (std::size_t pos = 0; pos < ops.size(); pos += ctx.w->batch) {
    const std::size_t n = std::min(ctx.w->batch, ops.size() - pos);
    run_step(ctx, api, {ops.data() + pos, n}, false, -1, tally);
  }
}

// ---- targets ----------------------------------------------------------------

namespace {

class InprocTarget final : public Target {
 public:
  explicit InprocTarget(const Workload& w)
      : store_(store_config(w, w.memory_bytes, kStoreShards), policy_factory(),
               steady_clock()) {}
  std::unique_ptr<kvs::KvsApi> connect() override {
    return std::make_unique<kvs::InprocClient>(store_);
  }
  std::uint64_t evictions() override {
    return store_.aggregated_policy_stats().evictions;
  }

 private:
  kvs::KvsStore store_;
};

kvs::ServerConfig server_config(const Workload& w) {
  kvs::ServerConfig config;
  config.workers = kServerWorkers;
  config.compression = w.compression;
  config.store = store_config(w, w.memory_bytes, kStoreShards);
  return config;
}

class TcpTarget final : public Target {
 public:
  explicit TcpTarget(const Workload& w)
      : server_(server_config(w), policy_factory(), steady_clock()) {
    server_.start();
  }
  ~TcpTarget() override { server_.stop(); }
  TcpTarget(const TcpTarget&) = delete;
  TcpTarget& operator=(const TcpTarget&) = delete;
  std::unique_ptr<kvs::KvsApi> connect() override {
    return std::make_unique<kvs::KvsClient>("127.0.0.1", server_.port());
  }
  std::uint64_t evictions() override {
    return server_.store().aggregated_policy_stats().evictions;
  }

 private:
  kvs::KvsServer server_;
};

class ClusterTarget final : public Target {
 public:
  explicit ClusterTarget(const Workload& w) {
    // One shard per node: the budget split over the nodes and then over
    // kStoreShards shards would leave each shard only a few slabs.
    const kvs::StoreConfig node =
        store_config(w, w.memory_bytes / kClusterNodes, 1);
    kvs::ClusterConfig config;
    config.virtual_nodes = kVirtualNodes;
    config.replication = kReplication;
    config.preserve_last_replica = true;
    config.guard_capacity_bytes = node.engine.slab.memory_limit_bytes / 4;
    cluster_ = std::make_unique<kvs::CoopCluster>(config);
    for (std::size_t n = 0; n < kClusterNodes; ++n) {
      stores_.push_back(std::make_unique<kvs::KvsStore>(
          node, policy_factory(), steady_clock()));
      ids_.push_back(cluster_->join(*stores_.back()));
      nodes_.push_back(
          std::make_unique<kvs::CoopNodeClient>(*cluster_, ids_.back()));
    }
  }
  ~ClusterTarget() override {
    // The cluster unhooks itself from the stores, so it goes first.
    nodes_.clear();
    cluster_.reset();
  }
  ClusterTarget(const ClusterTarget&) = delete;
  ClusterTarget& operator=(const ClusterTarget&) = delete;
  std::unique_ptr<kvs::KvsApi> connect() override {
    auto client = std::make_unique<kvs::ClusterClient>(
        kVirtualNodes, /*parallel=*/true, kReplication);
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      client->add_node(ids_[n], *nodes_[n]);
    }
    return client;
  }
  std::uint64_t evictions() override {
    std::uint64_t n = 0;
    for (const auto& s : stores_) n += s->aggregated_policy_stats().evictions;
    return n;
  }
  const kvs::CoopCluster& cluster() const { return *cluster_; }

 private:
  static constexpr std::uint32_t kVirtualNodes = 64;
  std::vector<std::unique_ptr<kvs::KvsStore>> stores_;
  std::unique_ptr<kvs::CoopCluster> cluster_;
  std::vector<kvs::ClusterNodeId> ids_;
  std::vector<std::unique_ptr<kvs::CoopNodeClient>> nodes_;
};

}  // namespace

std::unique_ptr<Target> make_target(const Workload& w, Transport transport) {
  switch (transport) {
    case Transport::kInproc:
      return std::make_unique<InprocTarget>(w);
    case Transport::kTcp:
      return std::make_unique<TcpTarget>(w);
    case Transport::kCluster:
      return std::make_unique<ClusterTarget>(w);
  }
  throw std::logic_error("unknown transport");
}

const kvs::CoopCluster* cluster_of(const Target& target) {
  const auto* c = dynamic_cast<const ClusterTarget*>(&target);
  return c == nullptr ? nullptr : &c->cluster();
}

std::size_t warm_up(const StepContext& ctx, Target& target,
                    kvs::KvsApi& api, const std::vector<Op>& stream,
                    Tally& tally) {
  if (ctx.w->preload) {
    preload_all(ctx, api, tally);
    return 0;
  }
  const std::uint64_t fill =
      ctx.w->memory_bytes * (ctx.w->compression ? 2 : 1) + tally.set_bytes;
  std::size_t pos = 0;
  while ((tally.set_bytes < fill || target.evictions() == 0) &&
         pos + ctx.w->batch <= stream.size()) {
    run_step(ctx, api, {stream.data() + pos, ctx.w->batch}, false, -1, tally);
    pos += ctx.w->batch;
  }
  return pos;
}

// ---- span tracer ------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (names_.empty()) names_.emplace_back();  // id 0 = "no span"
  for (std::size_t i = 1; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->records.reserve(kMaxRecords);
  }
  return *log;
}

Tracer::Stat Tracer::stat(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stat out;
  for (std::size_t id = 1; id < names_.size(); ++id) {
    if (names_[id] != name) continue;
    for (const auto& log : logs_) {
      if (id >= log->stats.size()) continue;
      const Stat& s = log->stats[id];
      out.count += s.count;
      out.total_ns += s.total_ns;
      out.self_ns += s.self_ns;
      out.durations.insert(out.durations.end(), s.durations.begin(),
                           s.durations.end());
    }
  }
  return out;
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (names_.empty()) return {};
  return {names_.begin() + 1, names_.end()};
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "thread\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const auto& records = logs_[t]->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.end == 0) continue;
      out << t << '\t' << i << '\t'
          << (r.parent == kNone ? std::string("-") : std::to_string(r.parent))
          << '\t' << names_[r.name] << '\t' << r.start << '\t' << r.end
          << '\n';
    }
  }
}

Span::Span(std::uint32_t name) {
  Tracer& tracer = Tracer::instance();
  if (name == 0 || !tracer.enabled()) return;
  log_ = &tracer.local();
  const std::uint32_t parent =
      log_->stack.empty() ? Tracer::kNone : log_->stack.back().record;
  std::uint32_t record = Tracer::kNone;
  if (log_->records.size() < Tracer::kMaxRecords) {
    record = static_cast<std::uint32_t>(log_->records.size());
    log_->records.push_back({name, parent, 0, 0});
  }
  log_->stack.push_back({name, record, now_ns(), 0});
}

std::uint64_t Span::end(std::uint32_t rename) {
  if (log_ == nullptr) return 0;
  const std::uint64_t end = now_ns();
  const Tracer::Open open = log_->stack.back();
  log_->stack.pop_back();
  const std::uint64_t dur = end - open.start;
  const std::uint32_t name = rename != 0 ? rename : open.name;
  if (open.record != Tracer::kNone) {
    Tracer::Record& r = log_->records[open.record];
    r.name = name;
    r.start = open.start;
    r.end = end;
  }
  if (log_->stats.size() <= name) log_->stats.resize(name + 1);
  Tracer::Stat& s = log_->stats[name];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - std::min(dur, open.child_ns);
  if (s.durations.size() < Tracer::kMaxDurations) {
    s.durations.push_back(clamp_u32(dur));
  }
  if (!log_->stack.empty()) log_->stack.back().child_ns += dur;
  log_ = nullptr;
  return dur;
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  std::erase_if(v, [](double x) { return std::isnan(x); });
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- closed-loop measurement ------------------------------------------------

namespace {

constexpr double kStolenLimit = 0.05;
// The end-to-end window is cut into this many segments.
constexpr std::size_t kSegments = 20;
// The end-to-end run sets up until kSetupSpendS of set-up time were spent
// and kMinSetups set-ups were clean of steal; at most kMaxSetups times and
// for at most kSetupCapS.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupSpendS = 3.0;
constexpr double kSetupCapS = 6.0;

/// CPU time the hypervisor gave to other guests so far, in clock ticks, per
/// vCPU (the steal column of the cpuN lines of /proc/stat); empty when
/// unreadable.
std::vector<std::uint64_t> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    if (line.size() < 4 || line[3] < '0' || line[3] > '9') continue;
    std::istringstream fields(line);
    std::string cpu;
    std::uint64_t field[8] = {};
    fields >> cpu;
    for (std::uint64_t& f : field) fields >> f;
    out.push_back(fields ? field[7] : 0);
  }
  return out;
}

/// The largest share of `ns` nanoseconds any one vCPU lost to steal
/// between two steal_ticks() readings.
double stolen_share(const std::vector<std::uint64_t>& before,
                    const std::vector<std::uint64_t>& after, std::uint64_t ns) {
  static const double tick_s = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::uint64_t most = 0;
  for (std::size_t c = 0; c < before.size() && c < after.size(); ++c) {
    most = std::max(most, after[c] - std::min(after[c], before[c]));
  }
  return static_cast<double>(most) * tick_s /
         (static_cast<double>(std::max<std::uint64_t>(ns, 1)) / 1e9);
}

/// Indices of the `keep` entries the hypervisor stole least from, in order:
/// the clean ones first.
std::vector<std::size_t> least_stolen(const std::vector<double>& stolen,
                                      std::size_t keep) {
  std::vector<std::size_t> order(stolen.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return stolen[a] < stolen[b];
                   });
  order.resize(std::min(order.size(), keep));
  return order;
}

std::size_t count_clean(const std::vector<double>& stolen) {
  return static_cast<std::size_t>(std::count_if(
      stolen.begin(), stolen.end(),
      [](double f) { return f < kStolenLimit; }));
}

}  // namespace

void measure(const Workload& w, const StepContext& ctx, kvs::KvsApi& client,
             const std::vector<Op>& stream, std::size_t& pos, double seconds,
             std::size_t segments, bool skip_stolen,
             std::uint64_t quality_ops, Tally& out, Window& window) {
  window.seg_ns = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(seconds * 1e9) / segments);
  window.stolen.clear();
  // Extra segments replace ones the hypervisor disturbed, for at most half
  // the window again; slot `cap` collects steps that start after the last.
  const std::size_t cap = skip_stolen ? segments + segments / 2 : segments;
  std::exception_ptr error;
  std::atomic<std::uint64_t> start{0};
  std::atomic<bool> stop{false};

  // The load thread; this one watches the clock and the steal counters.
  std::thread load([&] {
    try {
      std::uint64_t t0 = 0;
      while ((t0 = start.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      std::uint64_t done = 0;
      for (;;) {
        const bool quality = done < quality_ops;
        const bool stopped = stop.load(std::memory_order_acquire);
        if (stopped && !quality) break;
        const int seg =
            stopped ? -1
                    : static_cast<int>(std::min<std::uint64_t>(
                          (now_ns() - t0) / window.seg_ns, cap));
        if (pos + w.batch > stream.size()) pos = 0;
        run_step(ctx, client, {stream.data() + pos, w.batch}, quality, seg,
                 out);
        pos += w.batch;
        done += w.batch;
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  const std::uint64_t t0 = now_ns();
  std::vector<std::uint64_t> stolen = steal_ticks();
  std::size_t clean = 0;
  start.store(t0, std::memory_order_release);
  while (window.stolen.size() < cap) {
    const std::uint64_t boundary =
        t0 + (window.stolen.size() + 1) * window.seg_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(boundary))));
    std::vector<std::uint64_t> now_stolen = steal_ticks();
    const double frac = stolen_share(stolen, now_stolen, window.seg_ns);
    stolen = std::move(now_stolen);
    window.stolen.push_back(frac);
    clean += frac < kStolenLimit ? 1 : 0;
    if (clean == segments ||
        (!skip_stolen && window.stolen.size() == segments)) {
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  load.join();
  if (error) std::rethrow_exception(error);
}

// ---- end-to-end run ---------------------------------------------------------

void run_end_to_end(const Workload& w, const std::vector<Op>& stream,
                    double seconds, Report& report) {
  const Values values;
  std::unique_ptr<Target> target;
  std::unique_ptr<kvs::KvsApi> client;
  std::unique_ptr<Seen> seen;
  StepContext ctx;
  ctx.w = &w;
  ctx.values = &values;
  Tally warm;
  std::vector<double> setup_s, setup_stolen;
  double rss_mb = 0.0;
  std::size_t warm_pos = 0;
  // Set up many times; the median of the clean set-ups is reported so
  // that work moved into set-up shows. Cheap set-ups repeat until
  // kSetupSpendS were spent, so their median is as steady as a slow one's.
  // The machine's speed drifts in phases of a second or so: half the
  // set-up time is spent before the window, keeping the last store for it,
  // and half after, so the median spans the run. RSS growth is taken on
  // the first set-up, in a process that has not yet allocated (and freed)
  // a store.
  double spent_s = 0.0;
  auto set_up = [&] {
    client.reset();
    target.reset();
    seen = std::make_unique<Seen>(w.trace.num_keys);
    ctx.seen = seen.get();
    const std::uint64_t rss0 = rss_bytes();
    const std::vector<std::uint64_t> stolen0 = steal_ticks();
    const std::uint64_t t0 = now_ns();
    target = make_target(w, Transport::kInproc);
    client = target->connect();
    warm_pos = warm_up(ctx, *target, *client, stream, warm);
    const std::uint64_t dt = now_ns() - t0;
    setup_s.push_back(static_cast<double>(dt) / 1e9);
    setup_stolen.push_back(stolen_share(stolen0, steal_ticks(), dt));
    spent_s += setup_s.back();
    if (setup_s.size() == 1) {
      const std::uint64_t rss1 = rss_bytes();
      rss_mb = static_cast<double>(rss1 - std::min(rss0, rss1)) / (1u << 20);
    }
  };
  auto enough = [&](double spend) {
    return setup_s.size() >= kMaxSetups || spent_s >= kSetupCapS ||
           (spent_s >= spend && count_clean(setup_stolen) >= kMinSetups);
  };
  do {
    set_up();
  } while (!enough(kSetupSpendS / 2));

  std::size_t pos = warm_pos;
  Tally tally(kSegments + kSegments / 2 + 1);
  Window window;
  measure(w, ctx, *client, stream, pos, seconds, kSegments,
          /*skip_stolen=*/true, w.quality_ops, tally, window);
  while (!enough(kSetupSpendS)) set_up();
  client.reset();
  target.reset();

  // Timings come from the kSegments segments the hypervisor stole least
  // from: the clean ones when it left enough alone.
  const std::size_t clean = count_clean(window.stolen);
  const std::vector<std::size_t> order =
      least_stolen(window.stolen, kSegments);
  const double seg_s = static_cast<double>(window.seg_ns) / 1e9;
  std::vector<double> ops, g50, g99, s50, s99;
  std::uint64_t get_n = 0, set_n = 0, ops_n = 0;
  for (const std::size_t s : order) {
    ops.push_back(static_cast<double>(tally.seg_ops[s]) / seg_s);
    ops_n += tally.seg_ops[s];
    get_n += tally.get_ns[s].size();
    set_n += tally.set_ns[s].size();
    g50.push_back(percentile(tally.get_ns[s], 0.50) / 1e3);
    g99.push_back(percentile(tally.get_ns[s], 0.99) / 1e3);
    s50.push_back(percentile(tally.set_ns[s], 0.50) / 1e3);
    s99.push_back(percentile(tally.set_ns[s], 0.99) / 1e3);
  }
  const std::string seg_note =
      "median of " + std::to_string(ops.size()) + " of " +
      std::to_string(window.stolen.size()) + " segments, " +
      std::to_string(window.stolen.size() - clean) + " disturbed by steal";
  report.add("ops_per_s", median(ops), "1/s", ops_n, seg_note + ", ops");
  const std::string gets = seg_note + ", get batches";
  const std::string sets = seg_note + ", set batches";
  report.add("get_p50_us", median(g50), "us", get_n, gets);
  report.add("get_p99_us", median(g99), "us", get_n, gets);
  report.add("set_p50_us", median(s50), "us", set_n, sets);
  report.add("set_p99_us", median(s99), "us", set_n, sets);
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<std::uint64_t>(1, whole));
  };
  report.add("cost_miss_ratio", share(tally.cost_missed, tally.cost_total),
             "ratio", tally.noncold, "non-cold reads of the quality pass");
  report.add("miss_rate", share(tally.noncold_misses, tally.noncold), "ratio",
             tally.noncold, "non-cold reads of the quality pass");
  // Set-up time: the clean set-ups, or the kMinSetups least stolen from.
  std::vector<double> kept;
  for (const std::size_t k : least_stolen(
           setup_stolen, std::max(kMinSetups, count_clean(setup_stolen)))) {
    kept.push_back(setup_s[k]);
  }
  report.add("setup_s", median(kept), "s", kept.size(),
             "median of the set-ups least disturbed by steal, of " +
                 std::to_string(setup_s.size()));
  report.add("store_rss_mb", rss_mb, "MB", 1, "first set-up");
  report.count(warm);
  report.count(tally);
  std::printf(
      "counts noncold=%llu noncold_misses=%llu cost_total=%llu "
      "cost_missed=%llu warm_pos=%zu\n",
      static_cast<unsigned long long>(tally.noncold),
      static_cast<unsigned long long>(tally.noncold_misses),
      static_cast<unsigned long long>(tally.cost_total),
      static_cast<unsigned long long>(tally.cost_missed), warm_pos);
  std::printf("setups");
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    std::printf(" %.4fs/%.3f", setup_s[k], setup_stolen[k]);
  }
  std::printf("  (seconds/largest vCPU steal share)\n");
}

}  // namespace perfbench
