// The repository benchmark's driver (README.md).  One invocation runs one
// workload in this process, on this thread, without forking:
//
//   perfbench_driver --workload color-random|color-torus|fuzz|mc
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// It calls only the public functions of graph, scale, fuzz and modelcheck,
// checks every request it makes, and reports timings as medians over many
// short identical requests or batches, never as whole-run totals.  Every
// time is reported at a reference host speed: the driver runs fixed
// kernels of its own before every request or campaign and divides each
// time by their slowdown (class Reference).
//
// --trace 0 carries only the timers the end-to-end metrics need.
// --trace 1 alternates plain and traced requests: a traced request times
// every call the driver makes into a layer, from outside, as a span kept
// in memory and written once at exit (Chrome trace, via obs::TraceSink);
// the per-layer metrics come from those spans, and trace.overhead_share
// compares the two kinds of request.
//
// Output: a human summary line, `counts {...}` (exact per-seed counts, the
// same in both modes; run.py compares them with pinned.json), `diag {...}`
// (OS disturbance counters), and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "fuzz/campaign.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "modelcheck/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scale/batch_executor.hpp"
#include "scale/graph_gen.hpp"
#include "verify.hpp"

namespace {

using namespace ftcc;
using perfbench::Verdict;

// ---- Workload instances (README.md says why each was chosen) ----------

constexpr NodeId kColorNodes = NodeId{1} << 18;
constexpr NodeId kTorusSide = 512;  // 512 x 512 = kColorNodes
constexpr int kRandomDegree = 8;
constexpr std::uint64_t kMaxSteps = std::uint64_t{1} << 20;  // as bench_scale
constexpr std::uint64_t kColorRounds = 8;

constexpr std::uint64_t kFuzzTrials = 4000;
constexpr NodeId kFuzzNMin = 4;
constexpr NodeId kFuzzNMax = 48;

constexpr NodeId kMcNodes = 5;
constexpr std::uint64_t kMcOrderSeed = 2026;  // tools/mc's default instance

// The reference kernels (class Reference).  The nominal times are round
// figures near their fastest times on the development host, a 4-vCPU Xeon
// guest at 2.1 GHz with a 2 MiB L2 per core.
constexpr std::size_t kRefWords = std::size_t{1} << 21;  // 8 MiB: 4x the L2
constexpr int kRefLoads = 1 << 20;
constexpr int kRefHashes = 500'000;
constexpr int kRefFormats = 400;
constexpr std::array<double, 3> kRefNominalNs = {5.0e6, 4.0e6, 3.0e6};

// ---- Clocks, statistics, OS counters ----------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank q-quantile of the samples (copied; the input is kept).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, xs.size()) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}
double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

struct OsCounters {
  double minflt = 0;
  double nivcsw = 0;
  double steal_ms = 0;  // host-wide steal time; 0 where /proc/stat is absent
  double maxrss_mb = 0;
};

OsCounters read_os() {
  OsCounters c;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.minflt = static_cast<double>(ru.ru_minflt);
  c.nivcsw = static_cast<double>(ru.ru_nivcsw);
  c.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0, steal = 0;
  if (stat >> cpu && cpu == "cpu") {
    for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
    const long hz = sysconf(_SC_CLK_TCK);
    if (hz > 0)
      c.steal_ms = static_cast<double>(steal) * 1000.0 / static_cast<double>(hz);
  }
  return c;
}

/// The host-speed reference.  On a shared host every workload's speed
/// drifts with the neighbours' load, by up to 2x over minutes, while steal
/// time stays near zero (README.md, "Steadiness").  Kernels that are not
/// part of the program drift with it, so the driver samples them before
/// every request or campaign and reports each time divided by the run's
/// median slowdown.  A change to the program moves the request times and
/// not the kernels, so it moves the reported times one for one.
///
/// The workloads lean on different resources, so the slowdown is the
/// geometric mean of three kernels': random loads from a table larger than
/// L2 (memory), a hash chain with data-dependent branches over an L1 table
/// (core), and integer formatting into fresh strings and vectors
/// (allocator).  1 means the host ran at the nominal speed.
class Reference {
 public:
  Reference() : table_(kRefWords) {
    for (std::size_t i = 0; i < table_.size(); ++i)
      table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }

  void sample() {
    // An untimed pass first brings the table back into cache, so the
    // loads' time does not depend on how long the request before ran.
    std::uint64_t sum = 0;
    for (const std::uint32_t w : table_) sum += w;
    const std::uint64_t t0 = now_ns();
    sum += loads();
    const std::uint64_t t1 = now_ns();
    sum += hashes();
    const std::uint64_t t2 = now_ns();
    sum += formats();
    const std::uint64_t t3 = now_ns();
    sink_ = sum;
    slowdowns_.push_back(
        std::cbrt(static_cast<double>(t1 - t0) / kRefNominalNs[0] *
                  static_cast<double>(t2 - t1) / kRefNominalNs[1] *
                  static_cast<double>(t3 - t2) / kRefNominalNs[2]));
  }

  /// How much slower than the nominal speed the host ran (> 1: slower).
  [[nodiscard]] double slowdown() const { return median(slowdowns_); }

 private:
  std::uint64_t loads() const {
    std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
    for (int i = 0; i < kRefLoads; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table_[x & (table_.size() - 1)];
    }
    return sum;
  }

  static std::uint64_t hashes() {
    std::array<std::uint32_t, 1024> t{};
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    std::uint64_t h = 1;
    for (int i = 0; i < kRefHashes; ++i) {
      h = (h ^ t[h & 1023]) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
      if (h & 1) t[(h >> 10) & 1023] += static_cast<std::uint32_t>(h);
    }
    return h;
  }

  static std::uint64_t formats() {
    std::uint64_t sum = 0;
    for (int r = 0; r < kRefFormats; ++r) {
      std::ostringstream os;
      std::vector<std::uint32_t> v;
      for (int i = 0; i < 200; ++i) {
        os << i * r + 12345 << ' ';
        v.push_back(static_cast<std::uint32_t>(i ^ r));
      }
      sum += os.str().size() + v.size();
    }
    return sum;
  }

  std::vector<std::uint32_t> table_;
  std::vector<double> slowdowns_;
  volatile std::uint64_t sink_ = 0;  // keeps the kernels' work
};

/// FNV-1a over a report text: the fuzz workload's determinism digest.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- Spans --------------------------------------------------------------

/// In-memory span log of the traced run.  Spans of one request nest inside
/// that request's span (named "<kind> #<n>"); each layer call is a child.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  void add(const char* name, const char* cat, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint64_t request = kNoRequest) {
    spans_.push_back({name, cat, start_ns, end_ns, request});
  }

  /// Writes every span once, through the project's Chrome-trace sink.
  [[nodiscard]] bool write(const std::string& path) const {
    obs::TraceSink sink;
    for (const Span& s : spans_) {
      std::string name = s.name;
      if (s.request != kNoRequest) name += " #" + std::to_string(s.request);
      sink.complete(std::move(name), s.cat, (s.start_ns - origin_ns_) / 1000,
                    (s.end_ns - s.start_ns) / 1000);
    }
    return sink.write(path);
  }

  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

 private:
  struct Span {
    const char* name;
    const char* cat;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
  };
  std::uint64_t origin_ns_;
  std::vector<Span> spans_;
};

// ---- Metrics ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares (selftest.py checks the two
// agree).  A workload fills the ones it measures; a per-layer metric of a
// layer the workload never calls reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "op/s"},
    {"p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};
constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.ids_s", "s"},
    {"graph.bytes_per_node", "B"},
    {"graph.check_s", "s"},
    {"scale.alloc_s", "s"},
    {"scale.warm_s", "s"},
    {"scale.reset_s", "s"},
    {"scale.sweep_s", "s"},
    {"scale.sweep1_s", "s"},
    {"scale.materialize_s", "s"},
    {"scale.sweeps", "count"},
    {"scale.activations", "count"},
    {"scale.ns_per_activation", "ns"},
    {"scale.exec_bytes_per_node", "B"},
    {"fuzz.trials", "count"},
    {"fuzz.ok", "count"},
    {"fuzz.censored", "count"},
    {"fuzz.failures", "count"},
    {"fuzz.censored_time_share", "share"},
    {"fuzz.steps", "count"},
    {"fuzz.us_per_step", "us"},
    {"fuzz.report_bytes", "B"},
    {"modelcheck.ctor_s", "s"},
    {"modelcheck.configs", "count"},
    {"modelcheck.transitions", "count"},
    {"modelcheck.terminal", "count"},
    {"modelcheck.ns_per_transition", "ns"},
    {"modelcheck.store_entries", "count"},
    {"modelcheck.store_bytes", "B"},
    {"modelcheck.bytes_per_config", "B"},
    {"modelcheck.sym_hit_share", "share"},
    {"modelcheck.commute_skip_share", "share"},
    {"os.minflt", "count"},
    {"os.nivcsw", "count"},
    {"os.steal_ms", "ms"},
    {"request.p99_ms", "ms"},
    {"raw.p50_ms", "ms"},
    {"host.slowdown", "x"},
    {"trace.overhead_share", "share"},
};

/// What one workload run produced.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;  // name -> value
  /// Exact counts that repeat for a seed, e.g. {"scale.sweeps", "9"}.
  std::vector<std::pair<std::string, std::string>> counts;
  std::string summary;

  void set(const std::string& name, double value) {
    values.emplace_back(name, value);
  }
  void count(const std::string& name, std::uint64_t value) {
    counts.emplace_back(name, std::to_string(value));
  }
  /// Judge one request: a failed check counts it as failed.
  void judge(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Shortest decimal that round-trips the double (all its digits).
std::string num(double x) {
  if (!std::isfinite(x)) x = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

std::string json_metrics(const Report& r, const MetricDef* defs,
                         std::size_t count) {
  std::string out = "{";
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const auto& [name, v] : r.values)
      if (name == defs[i].name) value = v;
    out += (i ? ", \"" : "\"") + std::string(defs[i].name) +
           "\": {\"value\": " + num(value) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}";
}

// ---- color-*: Algorithm 4 on the batch engine ----------------------------

using Delta2 = BatchExecutor<DeltaSquaredColoring>;

/// color-random's chords make the gather miss L2; color-torus runs the
/// same kernel at the same n with neighbours at +-1 and +-512, so it is the
/// control for changes to locality (README.md, "Workloads").
enum class Shape { random, torus };

Graph make_color_graph(Shape shape, std::uint64_t seed) {
  return shape == Shape::random
             ? make_random_bounded_degree_csr(kColorNodes, kRandomDegree, seed)
             : make_torus_csr(kTorusSide, kTorusSide);
}

struct ColorInstance {
  std::optional<Graph> graph;
  IdAssignment ids;
  std::unique_ptr<Delta2> exec;
};

/// The exact work one colouring did; every colouring of a run repeats it.
struct ColorCounts {
  std::uint64_t sweeps = 0;
  std::uint64_t activations = 0;
  bool operator==(const ColorCounts&) const = default;
};

Report run_color(Shape shape, std::uint64_t seed, double seconds,
                 Reference& ref, SpanLog* spans) {
  Report rep;
  const char* cat = shape == Shape::random ? "color-random" : "color-torus";
  std::optional<ColorCounts> first;
  const auto judge = [&](const Graph& g,
                         const ExecutionResult<PairColor>& result) {
    const Verdict v = perfbench::check_colouring(g, result);
    const ColorCounts c{result.steps, result.total_activations()};
    if (!first) first = c;
    if (v != Verdict::ok)
      std::cerr << "colouring rejected: " << perfbench::verdict_name(v) << "\n";
    else if (c != *first)
      std::cerr << "colouring work drifted within the run\n";
    rep.judge(v == Verdict::ok && c == *first);
  };

  // The run is kColorRounds rounds, each a fresh set-up (build,
  // identifiers, executor, first colouring) followed by an equal share of
  // the requests, so set-up samples the same stretch of machine time as the
  // requests do.  Each set-up starts from memory handed back to the OS and
  // pays the first touch; setup_s is the median round.
  ColorInstance inst;
  std::vector<double> setup_ns, build_ns, ids_ns, alloc_ns, warm_ns;
  const auto set_up = [&](std::uint64_t round) {
    inst.exec.reset();
    inst.graph.reset();
    inst.ids = {};
    malloc_trim(0);
    ref.sample();
    const std::uint64_t t0 = now_ns();
    inst.graph.emplace(make_color_graph(shape, seed));
    const std::uint64_t t1 = now_ns();
    inst.ids = permutation_ids(kColorNodes, seed + 1);
    const std::uint64_t t2 = now_ns();
    inst.exec = std::make_unique<Delta2>(*inst.graph, inst.ids);
    const std::uint64_t t3 = now_ns();
    const auto warm = inst.exec->run(kMaxSteps);
    const std::uint64_t t4 = now_ns();
    judge(*inst.graph, warm);
    setup_ns.push_back(static_cast<double>(t4 - t0));
    if (spans == nullptr) return;
    build_ns.push_back(static_cast<double>(t1 - t0));
    ids_ns.push_back(static_cast<double>(t2 - t1));
    alloc_ns.push_back(static_cast<double>(t3 - t2));
    warm_ns.push_back(static_cast<double>(t4 - t3));
    spans->add("setup", cat, t0, t4, round);
    spans->add("graph.build", "graph", t0, t1);
    spans->add("graph.ids", "graph", t1, t2);
    spans->add("scale.alloc", "scale", t2, t3);
    spans->add("scale.warm", "scale", t3, t4);
  };

  // A request is reset() + run() on the reused executor; the verdict is
  // checked after the clock stops.  Traced requests drive the sweeps
  // themselves so that every call is a span.
  std::vector<double> plain_ns, traced_ns, reset_ns, sweep_ns, sweep1_ns,
      materialize_ns, check_ns;
  const auto plain_request = [&] {
    const std::uint64_t t0 = now_ns();
    inst.exec->reset(*inst.graph, inst.ids);
    const auto result = inst.exec->run(kMaxSteps);
    plain_ns.push_back(static_cast<double>(now_ns() - t0));
    judge(*inst.graph, result);
  };
  const auto traced_request = [&](std::uint64_t request) {
    Delta2& ex = *inst.exec;
    const std::uint64_t t0 = now_ns();
    ex.reset(*inst.graph, inst.ids);
    const std::uint64_t t1 = now_ns();
    spans->add("scale.reset", "scale", t0, t1);
    std::uint64_t sweep_start = t1, sweeps_total = 0;
    while (!ex.frontier_empty()) {
      (void)ex.sweep();
      const std::uint64_t t = now_ns();
      spans->add("scale.sweep", "scale", sweep_start, t);
      if (sweep_start == t1) sweep1_ns.push_back(static_cast<double>(t - t1));
      sweeps_total += t - sweep_start;
      sweep_start = t;
    }
    const auto result = ex.run(kMaxSteps);  // frontier empty: materializes
    const std::uint64_t t2 = now_ns();
    spans->add("scale.materialize", "scale", sweep_start, t2);
    judge(*inst.graph, result);
    const std::uint64_t t3 = now_ns();
    spans->add("graph.check", "graph", t2, t3);
    spans->add("request", cat, t0, t3, request);
    traced_ns.push_back(static_cast<double>(t2 - t0));
    reset_ns.push_back(static_cast<double>(t1 - t0));
    sweep_ns.push_back(static_cast<double>(sweeps_total));
    materialize_ns.push_back(static_cast<double>(t2 - sweep_start));
    check_ns.push_back(static_cast<double>(t3 - t2));
  };

  const auto round_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / kColorRounds);
  std::uint64_t request = 0;
  for (std::uint64_t round = 0; round < kColorRounds; ++round) {
    set_up(round);
    for (const std::uint64_t end = now_ns() + round_ns;
         now_ns() < end || request < 2; ++request) {
      ref.sample();
      if (spans != nullptr && request % 2 == 1)
        traced_request(request);
      else
        plain_request();
    }
  }
  const Graph& g = *inst.graph;

  // Times below are at the reference speed (class Reference).
  const double slow = ref.slowdown();
  const double n = static_cast<double>(g.node_count());
  const auto acts = static_cast<double>(first->activations);
  rep.count("scale.sweeps", first->sweeps);
  rep.count("scale.activations", first->activations);
  const double p50 = median(plain_ns) / slow;
  std::ostringstream summary;
  summary << cat << " n=" << g.node_count() << " max_deg=" << g.max_degree()
          << " sweeps=" << first->sweeps
          << " activations=" << first->activations << " p50_ms=" << p50 * 1e-6
          << " over " << plain_ns.size() << " requests (raw "
          << median(plain_ns) * 1e-6 << ", host slowdown " << slow << ")";
  if (spans == nullptr) {
    rep.set("setup_s", median(setup_ns) / slow * 1e-9);
    rep.set("ops_per_s", acts / (p50 * 1e-9));
    rep.set("p50_ms", p50 * 1e-6);
  } else {
    rep.set("request.p99_ms", quantile(plain_ns, 0.99) / slow * 1e-6);
    rep.set("raw.p50_ms", median(plain_ns) * 1e-6);
    rep.set("graph.build_s", median(build_ns) / slow * 1e-9);
    rep.set("graph.ids_s", median(ids_ns) / slow * 1e-9);
    rep.set("graph.bytes_per_node", static_cast<double>(g.heap_bytes()) / n);
    rep.set("graph.check_s", median(check_ns) / slow * 1e-9);
    rep.set("scale.alloc_s", median(alloc_ns) / slow * 1e-9);
    rep.set("scale.warm_s", median(warm_ns) / slow * 1e-9);
    rep.set("scale.reset_s", median(reset_ns) / slow * 1e-9);
    rep.set("scale.sweep_s", median(sweep_ns) / slow * 1e-9);
    rep.set("scale.sweep1_s", median(sweep1_ns) / slow * 1e-9);
    rep.set("scale.materialize_s", median(materialize_ns) / slow * 1e-9);
    rep.set("scale.sweeps", static_cast<double>(first->sweeps));
    rep.set("scale.activations", acts);
    rep.set("scale.ns_per_activation", median(sweep_ns) / slow / acts);
    rep.set("scale.exec_bytes_per_node",
            static_cast<double>(inst.exec->heap_bytes()) / n);
    rep.set("trace.overhead_share", median(traced_ns) / median(plain_ns) - 1);
  }
  rep.summary = summary.str();
  return rep;
}

// ---- fuzz: run_campaign over the sequential Executor ---------------------

/// Per-trial clock fed by CampaignOptions::on_progress (fired after every
/// trial): the gap between two callbacks is one trial's latency, and the
/// censored tally's delta says how that trial ended.
struct TrialClock {
  std::vector<double>* latencies = nullptr;
  std::uint64_t last_ns = 0;
  // Traced campaigns only:
  SpanLog* spans = nullptr;
  std::uint64_t first_request = 0;
  std::uint64_t last_censored = 0;
  double censored_ns = 0;
};

CampaignOptions fuzz_options(std::uint64_t seed, std::uint64_t trials) {
  CampaignOptions options;
  options.seed = seed;
  options.trials = trials;
  options.jobs = 1;
  options.n_min = kFuzzNMin;
  options.n_max = kFuzzNMax;
  return options;
}

Report run_fuzz(std::uint64_t seed, double seconds, Reference& ref,
                SpanLog* spans) {
  Report rep;
  TrialClock clock;
  CampaignOptions options = fuzz_options(seed, kFuzzTrials);
  options.progress_every = 1;
  options.on_progress = [&clock](const CampaignProgress& p) {
    const std::uint64_t t = now_ns();
    const std::uint64_t dt = t - clock.last_ns;
    clock.latencies->push_back(static_cast<double>(dt));
    if (clock.spans != nullptr) {
      clock.spans->add("fuzz.trial", "fuzz", clock.last_ns, t,
                       clock.first_request + p.done - 1);
      if (p.censored != clock.last_censored)
        clock.censored_ns += static_cast<double>(dt);
      clock.last_censored = p.censored;
    }
    clock.last_ns = t;
  };
  // A campaign's fixed cost (header, pool, tally, merge, summary) is what
  // a campaign of no trials does.
  const CampaignOptions bare = fuzz_options(seed, 0);

  // One campaign's trial latencies live in a reused buffer, and only its
  // median and p99 are kept, so memory (peak_rss_mb) does not grow with the
  // number of campaigns a fast run fits in.
  std::vector<double> lat;
  lat.reserve(kFuzzTrials);
  std::vector<double> setup_ns, steps_per_ns, plain_p50_ns, plain_p99_ns,
      traced_p50_ns, ns_per_step;
  std::optional<std::uint64_t> digest;
  CampaignReport last;
  std::uint64_t steps = 0;
  double traced_total_ns = 0, traced_censored_ns = 0;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t c = 0; now_ns() < end || c < 2; ++c) {
    ref.sample();
    const std::uint64_t s0 = now_ns();
    (void)run_campaign(bare);
    setup_ns.push_back(static_cast<double>(now_ns() - s0));

    // Every campaign counts its Executor steps (the fuzz.trial_steps
    // histogram), so ops_per_s is work per second over the whole campaign,
    // censored trials and the report merge included.
    const bool traced = spans != nullptr && c % 2 == 1;
    lat.clear();
    obs::Registry registry;
    options.metrics = &registry;
    clock = TrialClock{&lat, 0, traced ? spans : nullptr, c * kFuzzTrials};
    clock.last_ns = now_ns();
    const std::uint64_t t0 = clock.last_ns;
    last = run_campaign(options);
    const std::uint64_t t1 = now_ns();
    steps = 0;
    for (const obs::MetricSample& s : registry.snapshot())
      if (s.name == "fuzz.trial_steps") steps = s.sum;

    // Every trial must pass its monitors, and the campaign must reproduce
    // its report byte for byte: a digest change fails the whole batch.
    const std::uint64_t d = fnv1a(last.text);
    if (!digest) digest = d;
    const bool batch_ok = d == *digest && last.trials == kFuzzTrials &&
                          lat.size() == kFuzzTrials;
    if (!batch_ok) std::cerr << "fuzz campaign did not reproduce\n";
    for (const CampaignFailure& f : last.failures)
      std::cerr << "fuzz trial " << f.trial << " failed: " << f.violation
                << "\n";
    rep.attempted += kFuzzTrials;
    rep.failed += batch_ok ? last.failures.size() : kFuzzTrials;

    if (!traced) {
      steps_per_ns.push_back(static_cast<double>(steps) /
                             static_cast<double>(t1 - t0));
      plain_p50_ns.push_back(median(lat));
      plain_p99_ns.push_back(quantile(lat, 0.99));
    } else {
      traced_p50_ns.push_back(median(lat));
      spans->add("fuzz.run_campaign", "fuzz", t0, t1, c);
      double trials_ns = 0;
      for (const double ns : lat) trials_ns += ns;
      traced_total_ns += trials_ns;
      traced_censored_ns += clock.censored_ns;
      ns_per_step.push_back(trials_ns / static_cast<double>(steps));
    }
  }

  rep.counts.emplace_back("fuzz.digest", [&] {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(*digest));
    return std::string(hex);
  }());
  rep.count("fuzz.ok", last.ok);
  rep.count("fuzz.censored", last.censored);
  rep.count("fuzz.failures", last.failures.size());
  rep.count("fuzz.steps", steps);
  // Times below are at the reference speed (class Reference).  The trials
  // repeat every campaign, so the median of the campaigns' medians is the
  // median trial.
  const double slow = ref.slowdown();
  const double p50 = median(plain_p50_ns) / slow;
  std::ostringstream summary;
  summary << "fuzz trials/campaign=" << kFuzzTrials << " n=[" << kFuzzNMin
          << "," << kFuzzNMax << "] steps/campaign=" << steps
          << " ok=" << last.ok << " censored=" << last.censored
          << " p50_ms=" << p50 * 1e-6 << " over "
          << plain_p50_ns.size() * kFuzzTrials << " requests in "
          << plain_p50_ns.size() << " campaigns (raw "
          << median(plain_p50_ns) * 1e-6 << ", host slowdown " << slow << ")";
  if (spans == nullptr) {
    rep.set("setup_s", median(setup_ns) / slow * 1e-9);
    rep.set("ops_per_s", median(steps_per_ns) * slow * 1e9);
    rep.set("p50_ms", p50 * 1e-6);
  } else {
    rep.set("request.p99_ms", median(plain_p99_ns) / slow * 1e-6);
    rep.set("raw.p50_ms", median(plain_p50_ns) * 1e-6);
    rep.set("fuzz.trials", static_cast<double>(last.trials));
    rep.set("fuzz.ok", static_cast<double>(last.ok));
    rep.set("fuzz.censored", static_cast<double>(last.censored));
    rep.set("fuzz.failures", static_cast<double>(last.failures.size()));
    rep.set("fuzz.censored_time_share",
            traced_total_ns > 0 ? traced_censored_ns / traced_total_ns : 0.0);
    rep.set("fuzz.steps", static_cast<double>(steps));
    rep.set("fuzz.us_per_step", median(ns_per_step) / slow * 1e-3);
    rep.set("fuzz.report_bytes", static_cast<double>(last.text.size()));
    rep.set("trace.overhead_share",
            median(traced_p50_ns) / median(plain_p50_ns) - 1);
  }
  rep.summary = summary.str();
  return rep;
}

// ---- mc: the reduced model checker on C_5 --------------------------------

/// random_ids(5, 2026)'s order type filled with the seed's identifier
/// values.  Algorithm 1 only compares identifiers, so every seed certifies
/// a configuration graph of the same size (13 028 configurations).
IdAssignment mc_ids(std::uint64_t seed) {
  const IdAssignment order = random_ids(kMcNodes, kMcOrderSeed);
  IdAssignment values = random_ids(kMcNodes, seed);
  std::sort(values.begin(), values.end());
  IdAssignment ids(kMcNodes);
  for (NodeId v = 0; v < kMcNodes; ++v) {
    std::size_t rank = 0;
    for (const std::uint64_t x : order)
      if (x < order[v]) ++rank;
    ids[v] = values[rank];
  }
  return ids;
}

ModelCheckOptions<SixColoring> mc_options() {
  ModelCheckOptions<SixColoring> opt;
  opt.reductions.compress = true;
  opt.reductions.symmetry = true;
  opt.reductions.commute = true;
  return opt;
}

Report run_mc(std::uint64_t seed, double seconds, Reference& ref,
              SpanLog* spans) {
  Report rep;
  // A request sets up a fresh checker (graph, identifiers, construction;
  // setup_s is the median) and certifies C_5 with it.
  std::vector<double> setup_ns, build_ns, ids_ns, ctor_ns, plain_ns,
      traced_ns;
  std::size_t graph_bytes = 0;
  std::optional<ModelCheckResult> first;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; now_ns() < end || i < 2; ++i) {
    const bool traced = spans != nullptr && i % 2 == 1;
    ref.sample();
    const std::uint64_t t0 = now_ns();
    const Graph g = make_cycle(kMcNodes);
    const std::uint64_t t1 = now_ns();
    const IdAssignment ids = mc_ids(seed);
    const std::uint64_t t2 = now_ns();
    ModelChecker<SixColoring> mc(SixColoring{}, g, ids, mc_options());
    const std::uint64_t t3 = now_ns();
    const ModelCheckResult r = mc.run_reduced(1);
    const std::uint64_t t4 = now_ns();
    setup_ns.push_back(static_cast<double>(t3 - t0));
    (traced ? traced_ns : plain_ns).push_back(static_cast<double>(t4 - t3));
    graph_bytes = g.heap_bytes();
    if (!first) first = r;
    const bool ok = r.completed && r.wait_free && r.outputs_proper &&
                    !r.safety_violation && r.configs == first->configs &&
                    r.transitions == first->transitions;
    if (!ok) std::cerr << "C5 certification failed or drifted\n";
    rep.judge(ok);
    if (traced) {
      build_ns.push_back(static_cast<double>(t1 - t0));
      ids_ns.push_back(static_cast<double>(t2 - t1));
      ctor_ns.push_back(static_cast<double>(t3 - t2));
      spans->add("graph.build", "graph", t0, t1);
      spans->add("graph.ids", "graph", t1, t2);
      spans->add("modelcheck.ctor", "modelcheck", t2, t3);
      spans->add("modelcheck.run_reduced", "modelcheck", t3, t4);
      spans->add("request", "mc", t0, now_ns(), i);
    }
  }

  const auto configs = static_cast<double>(first->configs);
  const auto transitions = static_cast<double>(first->transitions);
  rep.count("modelcheck.configs", first->configs);
  rep.count("modelcheck.transitions", first->transitions);
  rep.count("modelcheck.terminal", first->terminal_configs);
  // Times below are at the reference speed (class Reference).
  const double slow = ref.slowdown();
  const double p50 = median(plain_ns) / slow;
  std::ostringstream summary;
  summary << "mc algo=six n=" << kMcNodes << " configs=" << first->configs
          << " transitions=" << first->transitions << " p50_ms=" << p50 * 1e-6
          << " over " << plain_ns.size() << " requests (raw "
          << median(plain_ns) * 1e-6 << ", host slowdown " << slow << ")";
  if (spans == nullptr) {
    rep.set("setup_s", median(setup_ns) / slow * 1e-9);
    rep.set("ops_per_s", configs / (p50 * 1e-9));
    rep.set("p50_ms", p50 * 1e-6);
  } else {
    rep.set("request.p99_ms", quantile(plain_ns, 0.99) / slow * 1e-6);
    rep.set("raw.p50_ms", median(plain_ns) * 1e-6);
    rep.set("graph.build_s", median(build_ns) / slow * 1e-9);
    rep.set("graph.ids_s", median(ids_ns) / slow * 1e-9);
    rep.set("graph.bytes_per_node",
            static_cast<double>(graph_bytes) / kMcNodes);
    rep.set("modelcheck.ctor_s", median(ctor_ns) / slow * 1e-9);
    rep.set("modelcheck.configs", configs);
    rep.set("modelcheck.transitions", transitions);
    rep.set("modelcheck.terminal",
            static_cast<double>(first->terminal_configs));
    rep.set("modelcheck.ns_per_transition",
            median(traced_ns) / slow / transitions);
    rep.set("modelcheck.store_entries",
            static_cast<double>(first->store_entries));
    rep.set("modelcheck.store_bytes", static_cast<double>(first->store_bytes));
    rep.set("modelcheck.bytes_per_config",
            static_cast<double>(first->store_bytes) / configs);
    rep.set("modelcheck.sym_hit_share",
            static_cast<double>(first->sym_hits) / transitions);
    rep.set("modelcheck.commute_skip_share",
            static_cast<double>(first->commute_skipped) /
                (static_cast<double>(first->commute_skipped) + transitions));
    rep.set("trace.overhead_share", median(traced_ns) / median(plain_ns) - 1);
  }
  rep.summary = summary.str();
  return rep;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "color-random|color-torus|fuzz|mc --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    try {
      if (key == "--workload") workload = value;
      else if (key == "--seed") seed = std::stoull(value);
      else if (key == "--seconds") seconds = std::stod(value);
      else if (key == "--trace") trace = std::stoi(value);
      else if (key == "--trace-out") trace_out = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0) || (trace != 0 && trace != 1) ||
      (trace == 1 && trace_out.empty()))
    return usage();

  const OsCounters os0 = read_os();
  const std::uint64_t origin = now_ns();
  std::optional<SpanLog> spans;
  if (trace == 1) spans.emplace(origin);
  SpanLog* log = spans ? &*spans : nullptr;

  Reference ref;
  Report rep;
  if (workload == "color-random")
    rep = run_color(Shape::random, seed, seconds, ref, log);
  else if (workload == "color-torus")
    rep = run_color(Shape::torus, seed, seconds, ref, log);
  else if (workload == "fuzz") rep = run_fuzz(seed, seconds, ref, log);
  else if (workload == "mc") rep = run_mc(seed, seconds, ref, log);
  else return usage();

  const OsCounters os1 = read_os();
  const double nivcsw = os1.nivcsw - os0.nivcsw;
  const double steal_ms = os1.steal_ms - os0.steal_ms;
  if (spans) {
    rep.set("os.minflt", os1.minflt);
    rep.set("os.nivcsw", nivcsw);
    rep.set("os.steal_ms", steal_ms);
    rep.set("host.slowdown", ref.slowdown());
    if (!spans->write(trace_out)) {
      std::cerr << "cannot write trace " << trace_out << "\n";
      return 1;
    }
    std::cout << "trace " << trace_out << "\n";
  } else {
    rep.set("peak_rss_mb", os1.maxrss_mb);
  }

  std::cout << rep.summary << "\n";
  std::cout << "counts {";
  for (std::size_t i = 0; i < rep.counts.size(); ++i) {
    const auto& [name, value] = rep.counts[i];
    const bool text = name == "fuzz.digest";
    std::cout << (i ? ", \"" : "\"") << name << "\": " << (text ? "\"" : "")
              << value << (text ? "\"" : "");
  }
  std::cout << "}\n";
  std::cout << "diag {\"os.minflt\": " << num(os1.minflt)
            << ", \"os.nivcsw\": " << num(nivcsw)
            << ", \"os.steal_ms\": " << num(steal_ms) << "}\n";
  std::cout << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": "
            << (spans ? json_metrics(rep, kPerLayer, std::size(kPerLayer))
                      : json_metrics(rep, kEndToEnd, std::size(kEndToEnd)))
            << "}" << std::endl;
  return 0;
}
