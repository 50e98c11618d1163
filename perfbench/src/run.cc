// Runners: drive a workload for the requested time, verify every answer
// against an oracle outside the timed windows, and turn timings, public
// stats and spans into the reported metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_set>

#include "analysis/optimality.h"
#include "analysis/range_sweep.h"
#include "core/query.h"
#include "hashing/query_key.h"
#include "net/backend_spec.h"
#include "net/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using fxdist::QueryResult;
using fxdist::Record;
using fxdist::StorageBackend;
using fxdist::ValueQuery;

namespace {

// -- Small statistics helpers -------------------------------------------

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Jobs of ingest_sweep are few: about 115 in a 45 s run, a quarter of
// them when the host steals CPU.  A percentile needs ten samples beyond it, so the
// gated job figures are medians and the 75th percentile is only printed.
constexpr double kJobTailQuantile = 0.75;

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Steal and total time of all CPUs so far (first line of /proc/stat):
/// time the hypervisor ran something else while this VM had work.
struct HostCpu {
  double steal = 0, total = 0;
};

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpu out;
  double field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {  // user .. steal
    out.total += field;
    if (i == 7) out.steal = field;
  }
  return out;
}

/// Share of CPU time stolen by the host between two readings.  Printed
/// beside the timings so a slow run can be told apart from a slow program.
double StealShare(const HostCpu& start, const HostCpu& end) {
  return Ratio(end.steal - start.steal, end.total - start.total);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Returns freed heap to the system and restarts the peak-RSS count
/// (VmHWM), so the peak covers what follows and not memory an earlier,
/// destroyed stack left fragmented.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last ResetPeakRss, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  return 0.0;
}

fxdist::HistogramSnapshot HistogramDelta(const fxdist::HistogramSnapshot& end,
                                         const fxdist::HistogramSnapshot& start) {
  fxdist::HistogramSnapshot d;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] = end.counts[i] - start.counts[i];
  }
  d.total = end.total - start.total;
  d.sum_micros = end.sum_micros - start.sum_micros;
  return d;
}

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-28s %14.4f %-10s %s\n", name, value, unit, note.c_str());
}

// -- Per-layer metric table ------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these; a layer the workload does not
// use reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"front.submit_us_p50", "us"},
    {"front.cache_hit_ratio", "ratio"},
    {"front.cache_evictions", "count"},
    {"front.max_queue_depth", "count"},
    {"front.shed", "count"},
    {"engine.batch_us_p50", "us"},
    {"engine.batch_us_p99", "us"},
    {"engine.queries_per_batch", "count"},
    {"engine.dup_collapse_ratio", "ratio"},
    {"engine.scan_share_ratio", "ratio"},
    {"engine.topology_retries", "count"},
    {"hashing.hash_query_us", "us"},
    {"core.qualified_buckets_per_query", "count"},
    {"core.largest_response_excess", "count"},
    {"core.strict_optimal_ratio", "ratio"},
    {"sim.scan_calls_per_query", "count"},
    {"sim.scan_buckets_per_query", "count"},
    {"sim.examined_per_match", "ratio"},
    {"sim.scan_us_per_query", "us"},
    {"sim.device_busy_skew", "ratio"},
    {"sim.insert_us_per_record", "us"},
    {"sim.insert_calls", "count"},
    {"net.rpc_per_query", "count"},
    {"net.scan_rpc_us_p50", "us"},
    {"net.scan_rpc_us_p99", "us"},
    {"net.insert_rpc_us_p50", "us"},
    {"net.analyze_rpc_us_p50", "us"},
    {"net.overhead_us_per_rpc", "us"},
    {"net.bytes_per_query", "B"},
    {"net.bytes_per_record", "B"},
    {"net.server_reads_paused", "count"},
    {"net.protocol_errors", "count"},
    {"dist.ingest_task_us_p50", "us"},
    {"dist.analyze_task_us_p50", "us"},
    {"dist.worker_busy_ratio", "ratio"},
    {"dist.retries", "count"},
    {"dist.fallback_tasks", "count"},
    {"analysis.range_ns_per_bucket", "ns"},
    {"unattributed_us_per_query", "us"},
    {"tracing_overhead_ratio", "ratio"},
};

class LayerReport {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  std::vector<Metric> Finish() const {
    std::vector<Metric> out;
    std::printf("per-layer metrics (traced run):\n");
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      PrintMetric(m.name, v, m.unit);
      out.push_back({m.name, v, m.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// -- Span analysis ---------------------------------------------------------

bool Is(const Span& s, SpanKind kind) {
  return s.kind == static_cast<std::uint16_t>(kind);
}

bool InWindow(const Span& s, std::int64_t w0, std::int64_t w1) {
  return s.start_ns >= w0 && s.end_ns <= w1;
}

std::uint32_t RpcOp(const Span& s) { return s.unit >> 16; }

bool IsScanOp(std::uint32_t op) {
  return op == static_cast<std::uint32_t>(fxdist::WireOp::kScanMany) ||
         op == static_cast<std::uint32_t>(fxdist::WireOp::kScanBucket);
}
bool IsInsertOp(std::uint32_t op) {
  return op == static_cast<std::uint32_t>(fxdist::WireOp::kInsertBatch) ||
         op == static_cast<std::uint32_t>(fxdist::WireOp::kInsert);
}
bool IsAnalyzeOp(std::uint32_t op) {
  return op == static_cast<std::uint32_t>(fxdist::WireOp::kAnalyzeRange);
}

/// Mean time per client query in [w0, w1] that no layer span (on any
/// thread) covers: the part of end-to-end latency the decorators cannot
/// charge to a layer.  Meant for a window in which one client runs alone,
/// so the layer spans that overlap a query are that query's own.
double UnattributedMicros(const std::vector<Span>& spans, std::int64_t w0,
                          std::int64_t w1) {
  std::vector<std::pair<std::int64_t, std::int64_t>> layer;
  std::vector<std::pair<std::int64_t, std::int64_t>> queries;
  for (const Span& s : spans) {
    if (Is(s, SpanKind::kClientQuery)) {
      if (InWindow(s, w0, w1)) queries.emplace_back(s.start_ns, s.end_ns);
    } else if (s.end_ns >= w0 && s.start_ns <= w1) {
      layer.emplace_back(s.start_ns, s.end_ns);
    }
  }
  if (queries.empty()) return 0.0;
  std::sort(layer.begin(), layer.end());
  // Union of layer spans as disjoint intervals with prefix lengths.
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& iv : layer) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  std::vector<std::int64_t> prefix(merged.size() + 1, 0);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    prefix[i + 1] = prefix[i] + (merged[i].second - merged[i].first);
  }
  // Covered length of [0, t): whole intervals before t plus the part of
  // the interval containing t.
  auto covered_before = [&](std::int64_t t) {
    const auto it = std::upper_bound(
        merged.begin(), merged.end(), t,
        [](std::int64_t v, const auto& iv) { return v < iv.first; });
    const auto idx = static_cast<std::size_t>(it - merged.begin());
    if (idx == 0) return std::int64_t{0};
    const auto& iv = merged[idx - 1];
    return prefix[idx - 1] + (std::min(t, iv.second) - iv.first);
  };
  double total_ns = 0.0;
  for (const auto& [s, e] : queries) {
    const std::int64_t covered = covered_before(e) - covered_before(s);
    total_ns += static_cast<double>((e - s) - covered);
  }
  return total_ns / static_cast<double>(queries.size()) / 1e3;
}

struct NetAgg {
  std::vector<double> scan_us, insert_us, analyze_us;
  double rpc_count = 0, rpc_bytes = 0;
  double insert_bytes = 0;
  double backed_rpc_us = 0, backed_rpc_count = 0;  // scan + insert RPCs
};

NetAgg AggregateRpcs(const std::vector<Span>& spans, std::int64_t w0,
                     std::int64_t w1) {
  NetAgg agg;
  for (const Span& s : spans) {
    if (!Is(s, SpanKind::kRpc)) continue;
    const std::uint32_t op = RpcOp(s);
    if (IsInsertOp(op)) {
      agg.insert_us.push_back(s.micros());
      agg.insert_bytes += static_cast<double>(s.arg);
    }
    if (!InWindow(s, w0, w1)) continue;
    agg.rpc_count += 1;
    agg.rpc_bytes += static_cast<double>(s.arg);
    if (IsScanOp(op)) agg.scan_us.push_back(s.micros());
    if (IsAnalyzeOp(op)) agg.analyze_us.push_back(s.micros());
    if (IsScanOp(op) || IsInsertOp(op)) {
      agg.backed_rpc_us += s.micros();
      agg.backed_rpc_count += 1;
    }
  }
  return agg;
}

/// Busy time per unit of the given span kind inside the window.
std::vector<double> BusyPerUnit(const std::vector<Span>& spans, SpanKind kind,
                                std::size_t units, std::int64_t w0,
                                std::int64_t w1) {
  std::vector<double> busy(units, 0.0);
  for (const Span& s : spans) {
    if (Is(s, kind) && InWindow(s, w0, w1) && (s.unit & 0xffff) < units) {
      busy[s.unit & 0xffff] += s.micros();
    }
  }
  return busy;
}

double Skew(const std::vector<double>& busy) {
  if (busy.empty()) return 0.0;
  const double mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) /
      static_cast<double>(busy.size());
  return Ratio(*std::max_element(busy.begin(), busy.end()), mean);
}

void WriteSpans(const RunOptions& options, const std::vector<Span>& spans) {
  if (options.span_dir.empty()) return;
  const std::string path = options.span_dir + "/" + options.workload + ".csv";
  if (Tracer::WriteCsv(path, spans)) {
    std::printf("spans: %zu written to %s (%llu dropped)\n", spans.size(),
                path.c_str(),
                static_cast<unsigned long long>(Tracer::dropped()));
  }
}

// -- Query workloads -----------------------------------------------------------

/// Latency histogram with 1% wide logarithmic buckets, so its memory
/// does not grow with the number of queries; quantiles interpolate by
/// rank inside the bucket.  (fxdist's LatencyHistogram uses a 1-2-5
/// ladder, too coarse to resolve a change within the benchmark's
/// bounds.)
class LogHistogram {
 public:
  LogHistogram() : counts_(kBuckets, 0) {}

  void Add(double micros) {
    const double x = std::max(micros, kMinMicros);
    const auto b = static_cast<std::size_t>(std::log(x / kMinMicros) * kInvLogRatio);
    ++counts_[std::min(b, kBuckets - 1)];
    ++total_;
  }

  void Merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }

  std::uint64_t total() const { return total_; }

  /// Nearest-rank quantile; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (seen + counts_[b] >= rank) {
        const double lo = kMinMicros * std::exp(static_cast<double>(b) / kInvLogRatio);
        const double hi = lo * kRatio;
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[b]);
        return lo + (hi - lo) * within;
      }
      seen += counts_[b];
    }
    return 0.0;
  }

 private:
  static constexpr double kMinMicros = 0.05;
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBuckets = 2000;  // up to ~22 s
  static inline const double kInvLogRatio = 1.0 / std::log(kRatio);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// One answer as the verifier needs it.
struct Answer {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  bool ok = false;

  friend bool operator==(const Answer& a, const Answer& b) {
    return a.ok == b.ok && a.count == b.count && a.digest == b.digest;
  }
};

/// Template streams repeat answers, so a client keeps the first answer
/// per template and counts later answers that agree or differ with it.
struct TemplateTally {
  Answer first;
  std::uint64_t same = 0;
  std::uint64_t differ = 0;
};

/// QueryStats of one of the first kCorePrefix answers of a client.
struct CoreSample {
  std::uint64_t qualified = 0;
  std::uint64_t excess = 0;
  bool strict_optimal = false;
};

constexpr std::size_t kCorePrefix = 1024;  // per client, for core.*

// Aligned so that one client's per-query writes never share a cache line
// with another client's.
struct alignas(64) Client {
  unsigned stream_id = 0;  ///< QueryStream client index
  QueryStream stream;
  std::uint64_t queries = 0;
  std::vector<Answer> answers;          ///< uniform streams: every query
  std::vector<TemplateTally> tallies;   ///< template streams: per template
  std::vector<CoreSample> core;
  /// Measured phase only: latencies by the slice the query ended in.
  std::vector<LogHistogram> slice_latency;
};

struct PhaseResult {
  std::uint64_t queries = 0;
  double elapsed_s = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Measured phase only: process CPU seconds spent in each slice, and
  /// the share of CPU time the host stole in it.
  std::vector<double> slice_cpu_s;
  std::vector<double> slice_steal;
};

// A measured phase is cut into slices of this length; the end-to-end
// timings are taken over the slices the host stole least from.
constexpr double kSliceSeconds = 0.5;

/// Indices of the quietest quarter of the samples: those whose host
/// steal share is at most the 25th percentile.  On a shared VM the
/// hypervisor takes CPU from the guest for minutes at a time; a path
/// that fans out over threads waits for its slowest one, so each percent
/// of steal costs local_zipf about 3.5% of its throughput (19% steal
/// halved it).  Timings are taken over these samples, so they measure
/// the program rather than its neighbours.  Every sample with no steal
/// is kept, so on a quiet host that is all of them.
std::vector<std::size_t> QuietSamples(const std::vector<double>& steal) {
  const double limit = Quantile(steal, 0.25);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= limit) keep.push_back(i);
  }
  return keep;
}

std::vector<Client> MakeClients(const QueryWorkload& w,
                                const std::vector<Record>& pool,
                                const std::vector<ValueQuery>& templates,
                                std::uint64_t seed, unsigned first,
                                unsigned count) {
  std::vector<Client> clients;
  for (unsigned c = first; c < first + count; ++c) {
    Client client{c, QueryStream(w, pool, templates, seed, c), 0, {}, {}, {},
                  {}};
    client.tallies.resize(templates.size());
    clients.push_back(std::move(client));
  }
  return clients;
}

void RecordAnswer(Client& client, std::size_t template_index,
                  const fxdist::Result<QueryResult>& result) {
  Answer answer;
  if (result.ok()) {
    answer = {result->records.size(), RecordsDigest(result->records), true};
    if (client.core.size() < kCorePrefix) {
      const fxdist::QueryStats& s = result->stats;
      client.core.push_back(
          {s.total_qualified,
           s.largest_response > s.optimal_bound
               ? s.largest_response - s.optimal_bound
               : 0,
           s.strict_optimal});
    }
  }
  if (client.tallies.empty()) {
    client.answers.push_back(answer);
    return;
  }
  TemplateTally& tally = client.tallies[template_index];
  if (tally.same + tally.differ == 0) {
    tally.first = answer;
    tally.same = 1;
  } else if (tally.first == answer) {
    ++tally.same;
  } else {
    ++tally.differ;
  }
}

// While tracing, a client records its own spans (client.query,
// front.submit) for one query in this many; the layers below record
// every call.  Keeps the span budget for seconds, not milliseconds, on
// the cache-hit path.
constexpr std::uint64_t kClientSpanEvery = 32;

/// Closed loop: each client submits its next query only after the
/// previous future is ready, until `seconds` have passed.  While tracing,
/// each client records its own spans for one query in `span_every`.
PhaseResult Drive(fxdist::Frontend& frontend, std::vector<Client>& clients,
                  double seconds, bool measure,
                  std::uint64_t span_every = kClientSpanEvery) {
  PhaseResult phase;
  std::uint64_t queries_before = 0;
  for (const Client& c : clients) queries_before += c.queries;
  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kSliceSeconds)));
  const auto slice_ns = static_cast<std::int64_t>(seconds * 1e9) /
                        static_cast<std::int64_t>(slices);
  if (measure) {
    for (Client& c : clients) c.slice_latency.assign(slices, LogHistogram());
  }
  phase.start_ns = NowNs();
  const std::int64_t deadline =
      phase.start_ns + slice_ns * static_cast<std::int64_t>(slices);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      const std::string id = "client" + std::to_string(c);
      const auto unit = static_cast<std::uint32_t>(c);
      while (NowNs() < deadline) {
        std::size_t template_index = 0;
        ValueQuery query = client.stream.Next(&template_index);
        const std::int64_t t0 = NowNs();
        const bool sampled =
            Tracer::enabled() && client.queries % span_every == 0;
        std::optional<fxdist::Result<QueryResult>> result;
        {
          std::optional<ScopedSpan> span;
          if (sampled) span.emplace(SpanKind::kClientQuery, unit);
          std::future<fxdist::Result<QueryResult>> future;
          {
            std::optional<ScopedSpan> submit;
            if (sampled) submit.emplace(SpanKind::kFrontSubmit, unit);
            future = frontend.Submit(id, fxdist::QueryPriority::kInteractive,
                                     std::move(query));
          }
          result.emplace(future.get());
        }
        const std::int64_t t1 = NowNs();
        RecordAnswer(client, template_index, *result);
        if (measure) {
          const auto k = std::min<std::size_t>(
              slices - 1,
              static_cast<std::size_t>((t1 - phase.start_ns) / slice_ns));
          client.slice_latency[k].Add(static_cast<double>(t1 - t0) / 1e3);
        }
        ++client.queries;
      }
    });
  }
  if (measure) {
    double cpu = CpuSeconds();
    HostCpu host = ReadHostCpu();
    for (std::size_t k = 1; k <= slices; ++k) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              phase.start_ns + slice_ns * static_cast<std::int64_t>(k))));
      const double now = CpuSeconds();
      const HostCpu host_now = ReadHostCpu();
      phase.slice_cpu_s.push_back(now - cpu);
      phase.slice_steal.push_back(StealShare(host, host_now));
      cpu = now;
      host = host_now;
    }
  }
  for (auto& t : threads) t.join();
  phase.end_ns = NowNs();
  phase.elapsed_s = Seconds(phase.end_ns - phase.start_ns);
  for (const Client& c : clients) phase.queries += c.queries;
  phase.queries -= queries_before;
  return phase;
}

/// End-to-end query timings of one measured phase: rate, median, tails
/// and CPU cost over the quietest slices (QuietSamples) pooled, plus the
/// same figures over the whole phase for comparison.
///
/// The gated tail is the 99th percentile.  On local_zipf it falls among
/// the cache misses (a few percent of the queries), so it times the
/// engine path; p90 is printed.
struct QueryTimings {
  std::size_t samples = 0;
  std::size_t slices = 0;
  std::size_t quiet_slices = 0;   ///< the slices the timings come from
  std::size_t quiet_samples = 0;  ///< queries that ended in them
  double qps = 0, p50 = 0, p90 = 0, p99 = 0, cpu_us = 0;
  double pooled_qps = 0, pooled_p50 = 0, pooled_p99 = 0;
};

QueryTimings SummarizeTimings(std::vector<Client>& clients,
                              const PhaseResult& phase) {
  QueryTimings t;
  t.slices = phase.slice_cpu_s.size();
  const double slice_s = phase.elapsed_s / static_cast<double>(t.slices);
  LogHistogram pooled, quiet_latency;
  double quiet_cpu_s = 0;
  const std::vector<std::size_t> quiet = QuietSamples(phase.slice_steal);
  t.quiet_slices = quiet.size();
  for (std::size_t k = 0; k < t.slices; ++k) {
    LogHistogram slice;
    for (const Client& c : clients) slice.Merge(c.slice_latency[k]);
    pooled.Merge(slice);
    if (std::binary_search(quiet.begin(), quiet.end(), k)) {
      quiet_latency.Merge(slice);
      quiet_cpu_s += phase.slice_cpu_s[k];
    }
  }
  for (Client& c : clients) c.slice_latency = {};
  t.samples = pooled.total();
  t.quiet_samples = quiet_latency.total();
  const auto n = static_cast<double>(quiet_latency.total());
  t.qps = Ratio(n, slice_s * static_cast<double>(quiet.size()));
  t.p50 = quiet_latency.Quantile(0.5);
  t.p90 = quiet_latency.Quantile(0.9);
  t.p99 = quiet_latency.Quantile(0.99);
  t.cpu_us = Ratio(quiet_cpu_s * 1e6, n);
  t.pooled_qps = Ratio(static_cast<double>(phase.queries), phase.elapsed_s);
  t.pooled_p50 = pooled.Quantile(0.5);
  t.pooled_p99 = pooled.Quantile(0.99);
  return t;
}

struct StreamProperties {
  std::uint64_t queries = 0;
  std::uint64_t distinct = 0;
  double specified_sum = 0.0;
  double distinct_result_bytes = 0.0;
  /// Queries submitted over the timed phase, and those of them the
  /// front-door cache did not answer (the engine had to).
  double timed_submitted = 0.0;
  double timed_engine = 0.0;
};

/// Approximate cache footprint of one answer: the key plus the records
/// (the entry header and stats are left out, so this is a lower bound).
double ResultBytes(const ValueQuery& query, const QueryResult& result) {
  double bytes =
      static_cast<double>(fxdist::CanonicalQueryKey(query).ApproxBytes());
  for (const Record& r : result.records) {
    bytes += static_cast<double>(fxdist::ApproxRecordBytes(r));
  }
  return bytes;
}

/// Checks every answer the clients got against the monolithic flat
/// oracle and measures the stream's properties; returns the number of
/// failed queries.  Runs after the serving stack is torn down.
std::uint64_t VerifyQueries(const QueryWorkload& w,
                            const std::vector<Record>& pool,
                            const std::vector<ValueQuery>& templates,
                            std::uint64_t seed,
                            const std::vector<Client>& clients,
                            const StorageBackend& oracle,
                            StreamProperties* props) {
  auto execute = [&oracle](const ValueQuery& query, double* bytes) {
    Answer answer;
    auto r = oracle.Execute(query);
    if (r.ok()) {
      answer = {r->records.size(), RecordsDigest(r->records), true};
      *bytes = ResultBytes(query, *r);
    }
    return answer;
  };
  std::uint64_t failed = 0;
  std::unordered_set<std::uint64_t> seen;  // canonical key hashes
  if (!templates.empty()) {
    std::vector<std::uint64_t> uses(templates.size(), 0);
    for (const Client& c : clients) {
      props->queries += c.queries;
      for (std::size_t t = 0; t < templates.size(); ++t) {
        uses[t] += c.tallies[t].same + c.tallies[t].differ;
      }
    }
    for (std::size_t t = 0; t < templates.size(); ++t) {
      if (uses[t] == 0) continue;
      double bytes = 0;
      const Answer expected = execute(templates[t], &bytes);
      props->specified_sum +=
          static_cast<double>(SpecifiedFields(templates[t]) * uses[t]);
      if (seen.insert(fxdist::CanonicalQueryKey(templates[t]).hash()).second) {
        props->distinct_result_bytes += bytes;
      }
      for (const Client& c : clients) {
        const TemplateTally& tally = c.tallies[t];
        failed += tally.differ;
        if (tally.same > 0 && !(expected.ok && tally.first == expected)) {
          failed += tally.same;
        }
      }
    }
    props->distinct = seen.size();
    return failed;
  }
  // Uniform streams: replay every client's stream, one thread each.
  struct Replayed {
    std::vector<std::uint64_t> key_hash;
    std::vector<double> bytes;
    double specified = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Replayed> replayed(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      QueryStream stream(w, pool, templates, seed, clients[c].stream_id);
      Replayed& out = replayed[c];
      for (const Answer& got : clients[c].answers) {
        std::size_t unused = 0;
        const ValueQuery query = stream.Next(&unused);
        out.key_hash.push_back(fxdist::CanonicalQueryKey(query).hash());
        out.specified += SpecifiedFields(query);
        double bytes = 0;
        const Answer expected = execute(query, &bytes);
        out.bytes.push_back(bytes);
        if (!expected.ok || !(got == expected)) ++out.failed;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Replayed& r : replayed) {
    failed += r.failed;
    props->specified_sum += r.specified;
    props->queries += r.key_hash.size();
    for (std::size_t i = 0; i < r.key_hash.size(); ++i) {
      if (seen.insert(r.key_hash[i]).second) {
        props->distinct_result_bytes += r.bytes[i];
      }
    }
  }
  props->distinct = seen.size();
  return failed;
}

std::unique_ptr<StorageBackend> BuildOracle(const QueryWorkload& w,
                                            const std::vector<Record>& pool) {
  auto oracle = fxdist::MakeChildBackend("flat", MakeSchema(w.field_sizes),
                                         w.devices, "fx-iu2", w.placement_seed)
                    .value();
  if (!oracle->InsertBatch(pool).ok()) return nullptr;
  return oracle;
}

void PrintSettings(const QueryWorkload& w) {
  std::printf("settings: M=%llu F={", static_cast<unsigned long long>(w.devices));
  for (std::size_t i = 0; i < w.field_sizes.size(); ++i) {
    std::printf("%s%llu", i ? "," : "",
                static_cast<unsigned long long>(w.field_sizes[i]));
  }
  std::printf(
      "} records=%llu domain=%llu p_spec=%.2f min_spec=%u templates=%zu "
      "zipf=%.2f clients=%u engine_threads=%u cache_bytes=%llu "
      "server_workers=%u mux_window=%zu\n",
      static_cast<unsigned long long>(w.records),
      static_cast<unsigned long long>(w.domain), w.specified_probability,
      w.min_specified, w.templates, w.zipf_theta, w.clients, w.engine_threads,
      static_cast<unsigned long long>(w.cache_bytes),
      w.remote ? w.server_workers : 0, w.remote ? w.mux_window : 0);
}

void SetEngineShare(const fxdist::FrontendStats& start,
                    const fxdist::FrontendStats& end, StreamProperties* p) {
  p->timed_submitted = static_cast<double>(end.submitted - start.submitted);
  p->timed_engine =
      p->timed_submitted -
      static_cast<double>(end.cache_served - start.cache_served);
}

void PrintProperties(const QueryWorkload& w, const StreamProperties& p) {
  std::uint64_t buckets = 1;
  for (auto f : w.field_sizes) buckets *= f;
  std::printf("workload properties:\n");
  PrintMetric("repeat_share",
              Ratio(static_cast<double>(p.queries - p.distinct),
                    static_cast<double>(p.queries)),
              "ratio", std::to_string(p.queries) + " queries");
  PrintMetric("mean_specified_fields",
              Ratio(p.specified_sum, static_cast<double>(p.queries)), "fields");
  PrintMetric("distinct_result_bytes", p.distinct_result_bytes, "B");
  PrintMetric("distinct_result_over_cache",
              Ratio(p.distinct_result_bytes, static_cast<double>(w.cache_bytes)),
              "ratio",
              "cache budget " + std::to_string(w.cache_bytes) + " B");
  PrintMetric("engine_query_share", Ratio(p.timed_engine, p.timed_submitted),
              "ratio", "timed queries the cache did not answer");
  PrintMetric("records_per_bucket",
              Ratio(static_cast<double>(w.records), static_cast<double>(buckets)),
              "records");
}

constexpr double kWarmupSeconds = 1.0;
// Set-up time comes in phases of the host several seconds long (about
// 0.25 s, then about 0.37 s on local_zipf, with no steal), so a run sets
// up many times: half before the timed phase and half after it.
constexpr int kSetupReps = 10;
// The traced run's single-client phase, for unattributed_us_per_query.
constexpr double kSoloSeconds = 1.0;
constexpr std::uint64_t kSoloSpanEvery = 4;

RunReport RunQueryWorkload(const QueryWorkload& w, const RunOptions& options) {
  RunReport report;
  PrintSettings(w);
  std::vector<Record> pool;
  std::vector<ValueQuery> templates;
  std::unique_ptr<ServingStack> stack;

  auto fail = [&](const std::string& what) {
    std::printf("ERROR: %s\n", what.c_str());
    report.correct = false;
    report.failed = std::max<std::uint64_t>(report.failed, 1);
    report.attempted = std::max(report.attempted, report.failed);
    return report;
  };

  // Set-up: record generation, backend build and insert, server start,
  // connect.  Repeated; the median is reported and the last stack kept.
  // Returns the set-up time, which leaves out tearing down the previous
  // stack; nullopt on failure.
  auto setup = [&](bool traced) -> std::optional<double> {
    stack.reset();
    pool = {};
    templates = {};
    ResetPeakRss();
    const std::int64_t t0 = NowNs();
    pool = MakeRecords(w, options.seed);
    templates = MakeTemplates(w, pool, options.seed);
    auto built = ServingStack::Build(w, pool, traced);
    if (!built.ok()) {
      std::printf("ERROR: stack build: %s\n",
                  built.status().ToString().c_str());
      return std::nullopt;
    }
    stack = *std::move(built);
    return Seconds(NowNs() - t0);
  };

  std::uint64_t attempted = 0, failed = 0;
  std::unique_ptr<StorageBackend> oracle;
  StreamProperties props;
  auto verify = [&](const std::vector<Client>& clients) {
    if (!oracle) oracle = BuildOracle(w, pool);
    if (!oracle) return false;
    for (const Client& c : clients) attempted += c.queries;
    failed += VerifyQueries(w, pool, templates, options.seed, clients, *oracle,
                            &props);
    return true;
  };

  if (!options.trace) {
    std::vector<double> setup_s, setup_steal;
    auto time_setups = [&](int reps) {
      for (int rep = 0; rep < reps; ++rep) {
        const HostCpu h0 = ReadHostCpu();
        const std::optional<double> seconds = setup(false);
        if (!seconds) return false;
        setup_s.push_back(*seconds);
        setup_steal.push_back(StealShare(h0, ReadHostCpu()));
      }
      return true;
    };
    if (!time_setups(kSetupReps / 2)) return fail("setup failed");
    std::vector<Client> clients =
        MakeClients(w, pool, templates, options.seed, 0, w.clients);
    Drive(stack->frontend(), clients, kWarmupSeconds, false);
    const fxdist::FrontendStats f0 = stack->frontend().Stats();
    const HostCpu host0 = ReadHostCpu();
    const PhaseResult phase =
        Drive(stack->frontend(), clients, options.seconds, true);
    const HostCpu host1 = ReadHostCpu();
    const fxdist::FrontendStats f1 = stack->frontend().Stats();
    SetEngineShare(f0, f1, &props);
    const double stored = static_cast<double>(stack->StoredBytes());
    const double rss = PeakRssMb();
    stack.reset();
    if (!verify(clients)) return fail("oracle build failed");

    const QueryTimings t = SummarizeTimings(clients, phase);
    // The clients' streams point into the pool that setup() replaces.
    clients.clear();
    oracle.reset();
    if (!time_setups(kSetupReps - kSetupReps / 2)) return fail("setup failed");
    stack.reset();
    std::vector<double> quiet_setup_s;
    for (std::size_t i : QuietSamples(setup_steal)) {
      quiet_setup_s.push_back(setup_s[i]);
    }
    const double setup_med = Quantile(quiet_setup_s, 0.5);
    const double bytes_per_record = Ratio(stored, static_cast<double>(w.records));
    PrintProperties(w, props);
    std::printf("end-to-end metrics (%llu timed queries over %.2f s, %u "
                "closed-loop clients):\n",
                static_cast<unsigned long long>(phase.queries), phase.elapsed_s,
                w.clients);
    PrintMetric("setup_s", setup_med, "s",
                "median of the " + std::to_string(quiet_setup_s.size()) +
                    " quietest of " + std::to_string(kSetupReps) + " set-ups");
    char slices_buf[96];
    std::snprintf(slices_buf, sizeof(slices_buf),
                  "%zu quietest of %zu slices of %g s", t.quiet_slices,
                  t.slices, kSliceSeconds);
    const std::string slices = slices_buf;
    const std::string n = "n=" + std::to_string(t.quiet_samples);
    PrintMetric("query_qps", t.qps, "queries/s", slices);
    PrintMetric("query_p50_us", t.p50, "us", slices + ", " + n);
    PrintMetric("query_p90_us", t.p90, "us", slices + ", " + n);
    PrintMetric("query_p99_us", t.p99, "us", slices + ", " + n);
    PrintMetric("cpu_us_per_query", t.cpu_us, "us",
                slices + ", user+sys, whole process");
    PrintMetric("pooled_query_qps", t.pooled_qps, "queries/s", "whole phase");
    const std::string all_n = "n=" + std::to_string(t.samples);
    PrintMetric("pooled_query_p50_us", t.pooled_p50, "us", all_n);
    PrintMetric("pooled_query_p99_us", t.pooled_p99, "us", all_n);
    PrintMetric("peak_rss_mb", rss, "MiB");
    PrintMetric("stored_bytes_per_record", bytes_per_record, "B");
    PrintMetric("host_steal_share", StealShare(host0, host1), "ratio",
                "timed phase, all CPUs");
    PrintMetric("failed_op_ratio",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio",
                std::to_string(failed) + "/" + std::to_string(attempted));
    report.metrics = {{"setup_s", setup_med, "s"},
                      {"ops_per_s", t.qps, "1/s"},
                      {"op_p50_us", t.p50, "us"},
                      {"op_tail_us", t.p99, "us"},
                      {"cpu_us_per_op", t.cpu_us, "us"},
                      {"peak_rss_mb", rss, "MiB"},
                      {"stored_bytes_per_record", bytes_per_record, "B"}};
  } else {
    const double half = options.seconds / 2.0;
    // Untraced reference for the tracing overhead.
    if (!setup(false)) return fail("setup failed");
    std::vector<Client> plain =
        MakeClients(w, pool, templates, options.seed, 0, w.clients);
    Drive(stack->frontend(), plain, kWarmupSeconds / 2.0, false);
    const PhaseResult plain_phase =
        Drive(stack->frontend(), plain, half, false);
    stack.reset();
    if (!verify(plain)) return fail("oracle build failed");

    // Traced run: decorators everywhere, spans on.
    // Spans cover the set-up (inserts), a single-client phase and the
    // timed window, not the warm-up.
    Tracer::Reset();
    Tracer::Enable(true);
    if (!setup(true)) return fail("traced setup failed");
    Tracer::Enable(false);
    std::vector<Client> clients =
        MakeClients(w, pool, templates, options.seed, 0, w.clients);
    Drive(stack->frontend(), clients, kWarmupSeconds / 2.0, false);
    // One client alone, so every layer span that overlaps one of its
    // queries belongs to that query: the residual it leaves uncovered is
    // the query's own, not hidden by other clients' spans.
    // Its stream is one the other clients do not send.
    std::vector<Client> solo =
        MakeClients(w, pool, templates, options.seed, w.clients, 1);
    Tracer::Enable(true);
    const PhaseResult solo_phase =
        Drive(stack->frontend(), solo, kSoloSeconds, false, kSoloSpanEvery);
    const fxdist::StatsSnapshot e0 = stack->engine().Snapshot();
    const fxdist::FrontendStats f0 = stack->frontend().Stats();
    const PhaseResult phase = Drive(stack->frontend(), clients, half, false);
    Tracer::Enable(false);
    const fxdist::StatsSnapshot e1 = stack->engine().Snapshot();
    const fxdist::FrontendStats f1 = stack->frontend().Stats();
    const fxdist::EventServerStats server = stack->ServerStats();
    stack.reset();  // joins every traced thread
    const std::vector<Span> spans = Tracer::Drain();
    WriteSpans(options, spans);
    if (!verify(solo)) return fail("oracle build failed");
    props = StreamProperties{};  // report the traced stream only
    if (!verify(clients)) return fail("oracle build failed");
    SetEngineShare(f0, f1, &props);
    PrintProperties(w, props);

    // Span-derived figures cover the timed window up to the point where
    // the span budget ran out (if it did); per-query figures divide by
    // the queries completed in that part of the window.
    const std::int64_t w0 = phase.start_ns;
    const std::int64_t w1 = Tracer::exhausted_ns() > 0
                                ? std::min(phase.end_ns, Tracer::exhausted_ns())
                                : phase.end_ns;
    const double q = static_cast<double>(phase.queries) *
                     Ratio(static_cast<double>(w1 - w0),
                           static_cast<double>(phase.end_ns - phase.start_ns));
    LayerReport layers;
    std::vector<double> submit_us, hash_us;
    double insert_us = 0, insert_records = 0, insert_calls = 0;
    double scan_calls = 0, scan_buckets = 0, scan_us = 0;
    const SpanKind storage_scan =
        w.remote ? SpanKind::kServerScan : SpanKind::kChildScan;
    const SpanKind storage_insert =
        w.remote ? SpanKind::kServerInsert : SpanKind::kChildInsert;
    double server_backed_us = 0;
    for (const Span& s : spans) {
      if (Is(s, storage_insert)) {
        insert_us += s.micros();
        insert_records += static_cast<double>(s.arg);
        insert_calls += 1;
      }
      if (!InWindow(s, w0, w1)) continue;
      if (Is(s, SpanKind::kFrontSubmit)) submit_us.push_back(s.micros());
      if (Is(s, SpanKind::kHashQuery)) hash_us.push_back(s.micros());
      if (Is(s, storage_scan)) {
        scan_calls += 1;
        scan_buckets += static_cast<double>(s.arg);
        scan_us += s.micros();
      }
      if (Is(s, SpanKind::kServerScan) || Is(s, SpanKind::kServerInsert)) {
        server_backed_us += s.micros();
      }
    }
    layers.Set("front.submit_us_p50", Quantile(submit_us, 0.5));
    const double hits = static_cast<double>(f1.cache.hits - f0.cache.hits);
    const double misses = static_cast<double>(f1.cache.misses - f0.cache.misses);
    layers.Set("front.cache_hit_ratio", Ratio(hits, hits + misses));
    layers.Set("front.cache_evictions",
               static_cast<double>(f1.cache.evictions - f0.cache.evictions));
    layers.Set("front.max_queue_depth", static_cast<double>(f1.max_queue_depth));
    layers.Set("front.shed",
               static_cast<double>(f1.shed_admission + f1.shed_overflow));
    const fxdist::HistogramSnapshot batch =
        HistogramDelta(e1.batch_latency, e0.batch_latency);
    layers.Set("engine.batch_us_p50", batch.PercentileMicros(0.5));
    layers.Set("engine.batch_us_p99", batch.PercentileMicros(0.99));
    const double completed =
        static_cast<double>(e1.queries_completed - e0.queries_completed);
    layers.Set("engine.queries_per_batch",
               Ratio(completed, static_cast<double>(e1.batches_executed -
                                                    e0.batches_executed)));
    layers.Set("engine.dup_collapse_ratio",
               Ratio(static_cast<double>(e1.duplicates_collapsed -
                                         e0.duplicates_collapsed),
                     completed));
    layers.Set("engine.scan_share_ratio",
               Ratio(static_cast<double>(e1.bucket_scans_performed -
                                         e0.bucket_scans_performed),
                     static_cast<double>(e1.bucket_scans_requested -
                                         e0.bucket_scans_requested)));
    layers.Set("engine.topology_retries",
               static_cast<double>(e1.topology_retries));
    layers.Set("hashing.hash_query_us",
               hash_us.empty()
                   ? 0.0
                   : std::accumulate(hash_us.begin(), hash_us.end(), 0.0) /
                         static_cast<double>(hash_us.size()));
    // core.*: the first kCorePrefix answers of every client stream, so
    // the figures repeat exactly for a seed.
    double core_n = 0, qualified = 0, excess = 0, strict = 0;
    for (const Client& c : clients) {
      for (const CoreSample& sample : c.core) {
        core_n += 1;
        qualified += static_cast<double>(sample.qualified);
        excess += static_cast<double>(sample.excess);
        strict += sample.strict_optimal ? 1 : 0;
      }
    }
    layers.Set("core.qualified_buckets_per_query", Ratio(qualified, core_n));
    layers.Set("core.largest_response_excess", Ratio(excess, core_n));
    layers.Set("core.strict_optimal_ratio", Ratio(strict, core_n));
    layers.Set("sim.scan_calls_per_query", Ratio(scan_calls, q));
    layers.Set("sim.scan_buckets_per_query", Ratio(scan_buckets, q));
    layers.Set("sim.examined_per_match",
               Ratio(static_cast<double>(e1.records_examined - e0.records_examined),
                     static_cast<double>(e1.records_matched - e0.records_matched)));
    layers.Set("sim.scan_us_per_query", Ratio(scan_us, q));
    layers.Set("sim.device_busy_skew",
               Skew(BusyPerUnit(spans, storage_scan, w.devices, w0, w1)));
    layers.Set("sim.insert_us_per_record", Ratio(insert_us, insert_records));
    layers.Set("sim.insert_calls", insert_calls);
    if (w.remote) {
      const NetAgg net = AggregateRpcs(spans, w0, w1);
      layers.Set("net.rpc_per_query", Ratio(net.rpc_count, q));
      layers.Set("net.scan_rpc_us_p50", Quantile(net.scan_us, 0.5));
      layers.Set("net.scan_rpc_us_p99", Quantile(net.scan_us, 0.99));
      layers.Set("net.insert_rpc_us_p50", Quantile(net.insert_us, 0.5));
      layers.Set("net.overhead_us_per_rpc",
                 Ratio(net.backed_rpc_us - server_backed_us,
                       net.backed_rpc_count));
      layers.Set("net.bytes_per_query", Ratio(net.rpc_bytes, q));
      layers.Set("net.bytes_per_record",
                 Ratio(net.insert_bytes, insert_records));
      layers.Set("net.server_reads_paused",
                 static_cast<double>(server.reads_paused));
      layers.Set("net.protocol_errors",
                 static_cast<double>(server.protocol_errors));
    }
    const std::int64_t solo_end =
        Tracer::exhausted_ns() > 0
            ? std::min(solo_phase.end_ns, Tracer::exhausted_ns())
            : solo_phase.end_ns;
    layers.Set("unattributed_us_per_query",
               UnattributedMicros(spans, solo_phase.start_ns, solo_end));
    const double plain_qps =
        Ratio(static_cast<double>(plain_phase.queries), plain_phase.elapsed_s);
    const double traced_qps =
        Ratio(static_cast<double>(phase.queries), phase.elapsed_s);
    layers.Set("tracing_overhead_ratio", Ratio(plain_qps, traced_qps));
    std::printf("traced: %.0f queries/s vs untraced %.0f queries/s\n",
                traced_qps, plain_qps);
    report.metrics = layers.Finish();
  }
  report.attempted = attempted;
  report.failed = failed;
  report.correct = failed == 0 && attempted > 0;
  return report;
}

// -- ingest_sweep ---------------------------------------------------------------

struct SweepOracle {
  std::vector<fxdist::ResponseVector> response;  // by mask
  std::vector<std::uint64_t> bound;
  std::uint64_t cells = 0;  // (mask, bucket) pairs of one full sweep
};

SweepOracle ComputeSweepOracle(const fxdist::DeviceMap& map) {
  SweepOracle oracle;
  const fxdist::FieldSpec& spec = map.spec();
  const std::uint64_t masks = std::uint64_t{1} << spec.num_fields();
  for (std::uint64_t mask = 0; mask < masks; ++mask) {
    auto query = fxdist::PartialMatchQuery::FromUnspecifiedMaskZero(spec, mask);
    oracle.response.push_back(fxdist::ComputeResponseVector(map, *query));
    oracle.bound.push_back(fxdist::StrictOptimalBound(spec, *query));
  }
  oracle.cells = masks * spec.TotalBuckets();
  return oracle;
}

bool SweepMatches(const SweepOracle& oracle, const fxdist::SweepReport& report) {
  if (report.masks.size() != oracle.response.size()) return false;
  std::uint64_t optimal = 0;
  for (std::size_t m = 0; m < report.masks.size(); ++m) {
    const fxdist::MaskSweepStats& stats = report.masks[m];
    const fxdist::ResponseVector& serial = oracle.response[m];
    if (stats.unspecified_mask != m ||
        stats.response.per_device != serial.per_device ||
        stats.qualified != serial.Total() || stats.bound != oracle.bound[m] ||
        stats.strict_optimal != (serial.Max() <= oracle.bound[m])) {
      return false;
    }
    optimal += stats.strict_optimal ? 1 : 0;
  }
  return report.probability.optimal_masks == optimal &&
         report.probability.total_masks == report.masks.size() &&
         report.fallback_tasks == 0;
}

struct Job {
  double setup_s = 0, ingest_s = 0, sweep_s = 0, cpu_s = 0;
  double steal = 0;  ///< host steal share over the whole job
  double stored_bytes = 0;
  double peak_rss_mb = 0;  ///< peak of this job alone
  std::uint64_t retries = 0, fallback = 0;
  fxdist::EventServerStats server;
  bool ok = false;
};

Job RunJob(const IngestWorkload& w, const SweepOracle& oracle,
           std::uint64_t seed, bool traced) {
  Job job;
  ResetPeakRss();
  const HostCpu host0 = ReadHostCpu();
  const std::int64_t t0 = NowNs();
  auto fleet = IngestFleet::Start(w, traced);
  if (!fleet.ok()) {
    std::printf("ERROR: fleet start: %s\n", fleet.status().ToString().c_str());
    return job;
  }
  const std::int64_t t1 = NowNs();
  const double cpu0 = CpuSeconds();
  const fxdist::IngestSpec spec = MakeIngestSpec(w, seed);
  auto load = (*fleet)->coordinator().BulkLoad(spec);
  const std::int64_t t2 = NowNs();
  auto sweep = (*fleet)->coordinator().Sweep();
  const std::int64_t t3 = NowNs();
  job.cpu_s = CpuSeconds() - cpu0;
  job.steal = StealShare(host0, ReadHostCpu());
  job.setup_s = Seconds(t1 - t0);
  job.ingest_s = Seconds(t2 - t1);
  job.sweep_s = Seconds(t3 - t2);
  job.stored_bytes = static_cast<double>((*fleet)->StoredBytes());
  job.server = (*fleet)->ServerStats();
  job.peak_rss_mb = PeakRssMb();
  bool ok = load.ok() && sweep.ok();
  if (!load.ok()) std::printf("ERROR: BulkLoad: %s\n", load.status().ToString().c_str());
  if (!sweep.ok()) std::printf("ERROR: Sweep: %s\n", sweep.status().ToString().c_str());
  if (ok) {
    std::uint64_t per_worker = 0;
    for (const auto& [name, count] : load->records_per_worker) per_worker += count;
    std::uint64_t stored = 0;
    for (const auto& counts : (*fleet)->ServerRecordCounts()) {
      stored += std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    }
    const bool load_ok = load->records_sent == spec.total_records &&
                         per_worker == spec.total_records &&
                         stored == spec.total_records &&
                         load->fenced_workers.empty();
    const bool sweep_ok = SweepMatches(oracle, *sweep);
    if (!load_ok) std::printf("ERROR: ingest counts do not add up\n");
    if (!sweep_ok) std::printf("ERROR: merged sweep differs from the serial oracle\n");
    ok = load_ok && sweep_ok;
    job.retries = load->retries + sweep->retries;
    job.fallback = sweep->fallback_tasks;
  }
  job.ok = ok;
  return job;
}

constexpr std::size_t kMinJobs = 3;

RunReport RunIngestWorkload(const IngestWorkload& w, const RunOptions& options) {
  RunReport report;
  const fxdist::Schema schema = MakeSchema(w.field_sizes);
  auto placement = fxdist::MakeChildBackend("flat", schema, w.devices,
                                            "fx-iu2", w.placement_seed)
                       .value();
  const fxdist::DeviceMap& map = placement->device_map();
  const SweepOracle oracle = ComputeSweepOracle(map);
  std::printf("settings: M=%llu F={", static_cast<unsigned long long>(w.devices));
  for (std::size_t i = 0; i < w.field_sizes.size(); ++i) {
    std::printf("%s%llu", i ? "," : "",
                static_cast<unsigned long long>(w.field_sizes[i]));
  }
  std::printf("} records_per_job=%llu domain=%llu workers=%u "
              "records_per_task=%llu buckets_per_task=%llu server_workers=%u "
              "sweep_cells=%llu\n",
              static_cast<unsigned long long>(w.records_per_job),
              static_cast<unsigned long long>(w.domain), w.workers,
              static_cast<unsigned long long>(w.records_per_task),
              static_cast<unsigned long long>(w.buckets_per_task),
              w.server_workers, static_cast<unsigned long long>(oracle.cells));

  std::uint64_t job_index = 0;
  auto run_jobs = [&](double seconds, bool traced) {
    std::vector<Job> jobs;
    const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (jobs.size() < kMinJobs || NowNs() < deadline) {
      jobs.push_back(RunJob(w, oracle, options.seed * 1000003 + job_index++, traced));
      if (!jobs.back().ok) break;
    }
    return jobs;
  };
  auto count_failed = [](const std::vector<Job>& jobs) {
    std::uint64_t failed = 0;
    for (const Job& j : jobs) failed += j.ok ? 0 : 1;
    return failed;
  };
  // Jobs run one after another, so the job rate is the inverse of the
  // job time; the median keeps one disturbed job from moving it.
  auto job_rate = [](const std::vector<Job>& jobs) {
    std::vector<double> seconds;
    for (const Job& j : jobs) seconds.push_back(j.ingest_s + j.sweep_s);
    return Ratio(1.0, Quantile(seconds, 0.5));
  };

  if (!options.trace) {
    const HostCpu host0 = ReadHostCpu();
    const std::vector<Job> jobs = run_jobs(options.seconds, false);
    const HostCpu host1 = ReadHostCpu();
    std::vector<double> stored, rss_mb, steal;
    double ingest_s = 0, sweep_s = 0;
    for (const Job& j : jobs) {
      stored.push_back(j.stored_bytes);
      rss_mb.push_back(j.peak_rss_mb);
      steal.push_back(j.steal);
      ingest_s += j.ingest_s;
      sweep_s += j.sweep_s;
    }
    // Job timings: over the quarter of the jobs the host stole least from.
    std::vector<double> setup_s, job_us, cpu_us_per_job;
    std::vector<double> ingest_rate;  // records/s of each job's BulkLoad
    std::vector<double> sweep_us;     // each job's Sweep
    const std::vector<std::size_t> quiet = QuietSamples(steal);
    for (std::size_t i : quiet) {
      const Job& j = jobs[i];
      setup_s.push_back(j.setup_s);
      ingest_rate.push_back(
          Ratio(static_cast<double>(w.records_per_job), j.ingest_s));
      sweep_us.push_back(j.sweep_s * 1e6);
      job_us.push_back((j.ingest_s + j.sweep_s) * 1e6);
      cpu_us_per_job.push_back(j.cpu_s * 1e6);
    }
    const std::string quiet_note = std::to_string(quiet.size()) +
                                   " quietest of " + std::to_string(jobs.size()) +
                                   " jobs";
    const double n = static_cast<double>(jobs.size());
    const double tail_q = kJobTailQuantile;
    const double rss = Quantile(rss_mb, 0.5);
    report.attempted = jobs.size();
    report.failed = count_failed(jobs);
    const double setup_med = Quantile(setup_s, 0.5);
    const double p50 = Quantile(job_us, 0.5);
    const double ingest_med = Quantile(ingest_rate, 0.5);
    const double sweep_med = Quantile(sweep_us, 0.5);
    const double tail = Quantile(job_us, tail_q);
    const double cpu_us = Quantile(cpu_us_per_job, 0.5);
    const double bytes = Ratio(Quantile(stored, 0.5),
                               static_cast<double>(w.records_per_job));
    std::printf("end-to-end metrics (%zu jobs; one job = BulkLoad of %llu "
                "records into a fresh fleet, then the full sweep):\n",
                jobs.size(), static_cast<unsigned long long>(w.records_per_job));
    PrintMetric("setup_s", setup_med, "s",
                "median over " + quiet_note + ", fleet start");
    PrintMetric("ingest_records_per_s", ingest_med, "records/s",
                "median over " + quiet_note + ", BulkLoad only");
    PrintMetric("pooled_ingest_records_per_s",
                Ratio(n * static_cast<double>(w.records_per_job), ingest_s),
                "records/s", "all jobs");
    PrintMetric("sweep_buckets_per_s",
                Ratio(n * static_cast<double>(oracle.cells), sweep_s),
                "(mask,bucket)/s", "all jobs");
    PrintMetric("sweep_p50_us", sweep_med, "us",
                "median over " + quiet_note + ", Sweep only");
    PrintMetric("jobs_per_s", Ratio(1e6, p50), "1/s", "1 / median job time");
    PrintMetric("job_p50_us", p50, "us", quiet_note);
    PrintMetric("job_tail_us", tail, "us",
                "p" + std::to_string(static_cast<int>(tail_q * 100)) + ", " +
                    quiet_note);
    PrintMetric("cpu_us_per_job", cpu_us, "us",
                "median over " + quiet_note + ", user+sys, whole process");
    PrintMetric("peak_rss_mb", rss, "MiB", "median over jobs");
    PrintMetric("stored_bytes_per_record", bytes, "B");
    PrintMetric("host_steal_share", StealShare(host0, host1), "ratio",
                "all jobs, all CPUs");
    PrintMetric("failed_op_ratio",
                Ratio(static_cast<double>(report.failed), n), "ratio");
    // The BulkLoad and the Sweep each have a gate of their own, so a
    // change to either is not halved by the other; the median job time
    // gates both together.
    report.metrics = {{"setup_s", setup_med, "s"},
                      {"ops_per_s", ingest_med, "1/s"},
                      {"op_p50_us", sweep_med, "us"},
                      {"op_tail_us", p50, "us"},
                      {"cpu_us_per_op", cpu_us, "us"},
                      {"peak_rss_mb", rss, "MiB"},
                      {"stored_bytes_per_record", bytes, "B"}};
  } else {
    const std::vector<Job> plain = run_jobs(options.seconds / 2.0, false);
    Tracer::Reset();
    Tracer::Enable(true);
    const std::int64_t w0 = NowNs();
    const std::vector<Job> jobs = run_jobs(options.seconds / 2.0, true);
    const std::int64_t w1 = Tracer::exhausted_ns() > 0
                                ? std::min(NowNs(), Tracer::exhausted_ns())
                                : NowNs();
    Tracer::Enable(false);
    const std::vector<Span> spans = Tracer::Drain();
    WriteSpans(options, spans);
    report.attempted = plain.size() + jobs.size();
    report.failed = count_failed(plain) + count_failed(jobs);

    LayerReport layers;
    std::vector<double> ingest_task_us, analyze_task_us;
    double task_us = 0, insert_us = 0, insert_records = 0, insert_calls = 0;
    double server_backed_us = 0;
    for (const Span& s : spans) {
      if (Is(s, SpanKind::kDistIngest)) ingest_task_us.push_back(s.micros());
      if (Is(s, SpanKind::kDistAnalyze)) analyze_task_us.push_back(s.micros());
      if (Is(s, SpanKind::kDistIngest) || Is(s, SpanKind::kDistAnalyze)) {
        task_us += s.micros();
      }
      if (Is(s, SpanKind::kServerInsert)) {
        insert_us += s.micros();
        insert_records += static_cast<double>(s.arg);
        insert_calls += 1;
      }
      if (Is(s, SpanKind::kServerScan) || Is(s, SpanKind::kServerInsert)) {
        server_backed_us += s.micros();
      }
    }
    double phase_s = 0;
    std::uint64_t retries = 0, fallback = 0, paused = 0, protocol = 0;
    for (const Job& j : jobs) {
      phase_s += j.ingest_s + j.sweep_s;
      retries += j.retries;
      fallback += j.fallback;
      paused += j.server.reads_paused;
      protocol += j.server.protocol_errors;
    }
    layers.Set("sim.insert_us_per_record", Ratio(insert_us, insert_records));
    layers.Set("sim.insert_calls", insert_calls);
    const NetAgg net = AggregateRpcs(spans, w0, w1);
    layers.Set("net.insert_rpc_us_p50", Quantile(net.insert_us, 0.5));
    layers.Set("net.analyze_rpc_us_p50", Quantile(net.analyze_us, 0.5));
    layers.Set("net.overhead_us_per_rpc",
               Ratio(net.backed_rpc_us - server_backed_us, net.backed_rpc_count));
    layers.Set("net.bytes_per_record", Ratio(net.insert_bytes, insert_records));
    layers.Set("net.server_reads_paused", static_cast<double>(paused));
    layers.Set("net.protocol_errors", static_cast<double>(protocol));
    layers.Set("dist.ingest_task_us_p50", Quantile(ingest_task_us, 0.5));
    layers.Set("dist.analyze_task_us_p50", Quantile(analyze_task_us, 0.5));
    layers.Set("dist.worker_busy_ratio",
               Ratio(task_us / 1e6, static_cast<double>(w.workers) * phase_s));
    layers.Set("dist.retries", static_cast<double>(retries));
    layers.Set("dist.fallback_tasks", static_cast<double>(fallback));
    // One task-sized range of the same placement, timed directly.
    std::vector<double> ns_per_bucket;
    const std::uint64_t end =
        std::min(w.buckets_per_task, map.spec().TotalBuckets());
    for (std::uint64_t mask = 0; mask < oracle.response.size(); mask += 9) {
      const std::int64_t t0 = NowNs();
      auto part = fxdist::AnalyzeBucketRange(map, mask, 0, end);
      const std::int64_t t1 = NowNs();
      if (part.ok()) {
        ns_per_bucket.push_back(static_cast<double>(t1 - t0) /
                                static_cast<double>(end));
      }
    }
    layers.Set("analysis.range_ns_per_bucket", Quantile(ns_per_bucket, 0.5));
    const double plain_rate = job_rate(plain);
    const double traced_rate = job_rate(jobs);
    layers.Set("tracing_overhead_ratio", Ratio(plain_rate, traced_rate));
    std::printf("traced: %.3f jobs/s vs untraced %.3f jobs/s\n", traced_rate,
                plain_rate);
    report.metrics = layers.Finish();
  }
  report.correct = report.failed == 0 && report.attempted > 0;
  return report;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "local_zipf" || name == "remote_uniform" ||
         name == "ingest_sweep";
}

RunReport RunWorkload(const RunOptions& options) {
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.workload == "local_zipf") {
    return RunQueryWorkload(LocalZipf(), options);
  }
  if (options.workload == "remote_uniform") {
    return RunQueryWorkload(RemoteUniform(), options);
  }
  return RunIngestWorkload(IngestSweep(), options);
}

}  // namespace perfbench
