#include "common.h"

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/distance.h"
#include "common/signature.h"
#include "obs/percentile.h"

namespace perfbench {

using sgtree::QueryType;

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void Outcome::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  errors.push_back(what);
}

uint32_t Tracer::Begin(const char* name) {
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back({name, open_.empty() ? 0 : open_.back(), now, -1});
  const auto handle = static_cast<uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::End(uint32_t handle) {
  spans_[handle - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

double Tracer::TotalUs(const char* name, uint64_t* count) const {
  const std::string wanted(name);
  double total = 0;
  uint64_t n = 0;
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || wanted != span.name) continue;
    total += static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

double Tracer::MeanUs(const char* name) const {
  uint64_t n = 0;
  const double total = TotalUs(name, &n);
  return n == 0 ? 0 : total / static_cast<double>(n);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}%s\n",
                 i + 1, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

double MeasureSpanNs() {
  constexpr int kSpans = 200'000;
  Tracer tracer(true);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(tracer, "trace.calibration");
  }
  return 1000.0 * MicrosBetween(start, Clock::now()) / kSpans;
}

const char* TypeName(QueryType type) {
  switch (type) {
    case QueryType::kKnn:
      return "knn";
    case QueryType::kBestFirstKnn:
      return "bf_knn";
    case QueryType::kRange:
      return "range";
    case QueryType::kContainment:
      return "contain";
    case QueryType::kExact:
      return "exact";
    case QueryType::kSubset:
      return "subset";
  }
  return "unknown";
}

double Percentile(std::vector<double> samples, double p) {
  return sgtree::obs::SortAndPercentile(samples, p);
}

uint32_t WindowOf(Clock::time_point start, Clock::time_point at) {
  return static_cast<uint32_t>(SecondsBetween(start, at) / kTailWindowSeconds);
}

double WindowedPercentile(const Samples& samples, double p) {
  std::map<uint32_t, std::vector<double>> windows;
  for (size_t i = 0; i < samples.us.size(); ++i) {
    windows[samples.window[i]].push_back(samples.us[i]);
  }
  size_t fullest = 0;
  for (const auto& [w, values] : windows) {
    fullest = std::max(fullest, values.size());
  }
  std::vector<double> tails;
  for (auto& [w, values] : windows) {
    if (2 * values.size() >= fullest) tails.push_back(Percentile(values, p));
  }
  return tails.empty() ? 0 : Percentile(tails, 50);
}

void CostBook::Emit(Metrics* metrics) const {
  for (int t = 0; t < kNumTypes; ++t) {
    const std::string suffix =
        std::string(".") + TypeName(static_cast<QueryType>(t));
    const double n = queries[t] == 0 ? 1 : static_cast<double>(queries[t]);
    const sgtree::QueryTrace& s = sum[t];
    metrics->Set("sgtree.nodes_visited_per_query" + suffix,
                 static_cast<double>(s.nodes_visited()) / n, "count");
    metrics->Set("sgtree.signatures_tested_per_query" + suffix,
                 static_cast<double>(s.signatures_tested) / n, "count");
    metrics->Set("sgtree.candidates_verified_per_query" + suffix,
                 static_cast<double>(s.candidates_verified) / n, "count");
    metrics->Set("storage.random_ios_per_query" + suffix,
                 static_cast<double>(s.buffer_misses) / n, "count");
  }
}

namespace {

// Keeps the kernel results observable so the timing loops are not folded.
volatile uint64_t g_sink = 0;

template <typename Fn>
double NsPerWord(const std::vector<sgtree::Signature>& sigs, uint32_t words,
                 Fn&& fn) {
  constexpr int kPasses = 64;
  const size_t n = sigs.size();
  uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i + 1 < n; ++i) acc += fn(sigs[i], sigs[i + 1]);
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                             start)
                        .count();
  g_sink = g_sink + acc;
  return ns / (static_cast<double>(kPasses) * static_cast<double>(n - 1) *
               words);
}

}  // namespace

void MeasureKernels(const std::vector<sgtree::Transaction>& sample,
                    uint32_t num_bits, uint32_t fixed_dimensionality,
                    Metrics* metrics) {
  using sgtree::Signature;
  std::vector<Signature> sigs;
  sigs.reserve(sample.size());
  for (const sgtree::Transaction& txn : sample) {
    sigs.push_back(Signature::FromItems(txn.items, num_bits));
  }
  // Directory-like entries: unions of 16 consecutive signatures.
  std::vector<Signature> unions;
  for (size_t i = 0; i + 16 <= sigs.size(); i += 16) {
    Signature u(num_bits);
    for (size_t j = i; j < i + 16; ++j) u.UnionWith(sigs[j]);
    unions.push_back(u);
    unions.push_back(sigs[i]);
  }
  const uint32_t words = sgtree::WordsForBits(num_bits);
  metrics->Set("common.xor_count_ns_per_word",
               NsPerWord(sigs, words,
                         [](const Signature& a, const Signature& b) {
                           return uint64_t{Signature::XorCount(a, b)};
                         }),
               "ns");
  metrics->Set("common.contains_ns_per_word",
               NsPerWord(unions, words,
                         [](const Signature& a, const Signature& b) {
                           return uint64_t{a.Contains(b)};
                         }),
               "ns");
  metrics->Set("common.enlargement_ns_per_word",
               NsPerWord(unions, words,
                         [](const Signature& a, const Signature& b) {
                           const Signature::BoundAndArea r =
                               Signature::EnlargementAndArea(a, b);
                           return uint64_t{r.enlargement} + r.area;
                         }),
               "ns");
  metrics->Set(
      "common.mindist_ns_per_word",
      NsPerWord(unions, words,
                [fixed_dimensionality](const Signature& q,
                                       const Signature& e) {
                  return static_cast<uint64_t>(sgtree::MinDistBound(
                      q, e, sgtree::Metric::kHamming, fixed_dimensionality));
                }),
      "ns");
}

CpuPin::CpuPin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuPin::Pin() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_.back(), &set);
  if (sched_setaffinity(0, sizeof(set), &set) == 0) pinned_ = true;
}

void CpuPin::Restore() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  pinned_ = false;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

bool FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec) && !ec;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void DeclarePerLayer(Metrics* m) {
  for (const char* name :
       {"common.xor_count_ns_per_word", "common.mindist_ns_per_word",
        "common.contains_ns_per_word", "common.enlargement_ns_per_word"}) {
    m->Set(name, 0, "ns");
  }
  m->Set("static.ns_per_signature_tested", 0, "ns");
  m->Set("static.knn_us", 0, "us");
  m->Set("static.range_us", 0, "us");
  m->Set("static.contain_us", 0, "us");
  m->Set("static.build_ms", 0, "ms");
  m->Set("static.open_ms", 0, "ms");
  m->Set("sgtree.ns_per_signature_tested", 0, "ns");
  m->Set("sgtree.insert_us", 0, "us");
  m->Set("sgtree.bulk_load_ms", 0, "ms");
  CostBook().Emit(m);
  m->Set("exec.dispatch_efficiency", 0, "ratio");
  m->Set("shard.router_overhead_us_per_query", 0, "us");
  m->Set("durability.insert_us_per_txn", 0, "us");
  m->Set("durability.fsyncs_per_insert", 0, "count");
  m->Set("durability.wal_bytes_per_insert", 0, "bytes");
  m->Set("durability.checkpoint_ms", 0, "ms");
  m->Set("durability.recovery_records_replayed", 0, "count");
  m->Set("server.request_us_p50", 0, "us");
  m->Set("server.exec_us_p50", 0, "us");
  m->Set("server.run_us_p50", 0, "us");
  m->Set("server.request_us_mean", 0, "us");
  m->Set("server.exec_us_mean", 0, "us");
  m->Set("server.run_us_mean", 0, "us");
  m->Set("server.cache_hit_ratio", 0, "ratio");
  m->Set("server.batch_size_mean", 0, "count");
  m->Set("net.client_overhead_us", 0, "us");
  m->Set("trace.overhead_us_per_op", 0, "us");
  m->Set("trace.span_ns", 0, "ns");
}

}  // namespace perfbench
