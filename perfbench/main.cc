// camp_perfbench: the repository's benchmark program (perfbench/run.py builds
// and runs it).
//
//   camp_perfbench --workload embed-evict --seed 1 --seconds 20 --trace 0
//
// --trace 0 replays generated cache-aside traffic against the library's
// public entry points and prints every end-to-end metric; --trace 1 replays
// the same op stream one layer at a time with spans around every call and
// prints the per-layer metrics. Each metric is printed by name with its unit
// and sample count; the last line is one JSON object with "correct",
// "attempted", "failed" and "metrics". Every hit is checked byte for byte;
// a wrong value makes the exit code nonzero. --tiny shrinks the workload
// for the self-test; --spans-out writes the kept spans as TSV.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
  std::string source = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0|1");
      a.trace = v == "1";
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--spans-out") {
      a.spans_out = value();
    } else if (flag == "--source") {
      a.source = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

std::string number(double v) {
  if (v != v) return "NaN";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, r.ptr};
}

/// Refuse to report numbers from a Debug or sanitizer build.
void require_optimized_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  bool ok = type == "Release" || type == "RelWithDebInfo";
#ifndef NDEBUG
  ok = false;
#endif
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  if (!ok) {
    throw std::runtime_error("refusing to report numbers from a '" + type +
                             "' or sanitizer build; build Release");
  }
}

void print_env(const Args& a, const Workload& w, std::uint64_t fp) {
  std::printf(
      "env {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"source\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"trace\": %d, \"seconds\": %s, \"tiny\": %s, \"keys\": %llu, "
      "\"footprint_bytes\": %llu, \"memory_bytes\": %llu, "
      "\"batch\": %zu, \"write_frac\": %s, \"compression\": %s, "
      "\"shards\": %zu, \"stream_ops\": %zu, \"quality_ops\": %llu, "
      "\"population_seed\": %llu, \"trace_fingerprint\": \"%016llx\"}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, a.source.c_str(),
      static_cast<unsigned long long>(a.seed), w.name.c_str(),
      a.trace ? 1 : 0, number(a.seconds).c_str(), a.tiny ? "true" : "false",
      static_cast<unsigned long long>(w.trace.num_keys),
      static_cast<unsigned long long>(w.footprint),
      static_cast<unsigned long long>(w.memory_bytes), w.batch,
      number(w.write_frac).c_str(), w.compression ? "true" : "false",
      kStoreShards, w.stream_ops, static_cast<unsigned long long>(w.quality_ops),
      static_cast<unsigned long long>(w.trace.seed),
      static_cast<unsigned long long>(fp));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    require_optimized_build();
    const Workload w = make_workload(args.workload, args.tiny, args.seed);
    const std::vector<Op> stream = make_stream(w);
    print_env(args, w, fingerprint(stream));

    Report report;
    if (args.trace) {
      run_ladder(w, stream, args.seconds, report);
      if (!args.spans_out.empty()) Tracer::instance().write(args.spans_out);
    } else {
      run_end_to_end(w, stream, args.seconds, report);
    }

    for (const Metric& m : report.metrics) {
      std::printf("metric %-34s %14s %-14s n=%llu  (%s)\n", m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples), m.note.c_str());
    }
    std::printf("failed_frac %s (%llu of %llu ops; %llu wrong values)\n",
                number(static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted))
                    .c_str(),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.mismatched));

    bool finite = true;
    std::string json = "{";
    for (const Metric& m : report.metrics) {
      if (m.value != m.value) finite = false;
      if (json.size() > 1) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}";
    const bool correct =
        report.failed == 0 && report.attempted > 0 && finite;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(report.attempted),
        static_cast<unsigned long long>(report.failed), json.c_str());
    std::fflush(stdout);
    return report.mismatched == 0 && correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camp_perfbench: %s\n", e.what());
    return 2;
  }
}
