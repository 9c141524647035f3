// Shared plumbing of the end-to-end benchmark: run arguments, the metric
// sink that becomes the final JSON line, the in-memory span recorder of
// traced runs, latency and cost-measure books, and kernel timing.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/transaction.h"
#include "exec/query_api.h"
#include "obs/query_trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where scratch files (images, durable directories) and span dumps go.
  std::string out_dir = ".bench_out";
  /// Wall-clock instant main() started: the origin of setup_s.
  Clock::time_point process_start;
};

/// Named metrics in insertion order, printed as the "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// What a workload hands back to main(): the answer-check verdict, the
/// operation counts, and both metric sets (main prints the one the run's
/// --trace selects).
struct Outcome {
  /// Set once the workload ran to its end; main prints no result without.
  bool finished = false;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> errors;

  /// Records a failed check; the first few are echoed to stderr.
  void Fail(const std::string& what);
};

/// Span recorder for traced runs: (name, start, end, parent) tuples kept in
/// memory and written out once at the end. Disabled recorders do nothing,
/// so untraced runs pay one predictable branch per instrumented call.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t parent;  // Index + 1 of the enclosing span; 0 = none.
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its handle.
  uint32_t Begin(const char* name);
  void End(uint32_t handle);

  /// Sum and count of closed spans named `name` (µs).
  double TotalUs(const char* name, uint64_t* count = nullptr) const;
  double MeanUs(const char* name) const;

  /// Writes every span as one JSON array to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer),
        handle_(tracer.enabled() ? tracer.Begin(name) : 0) {}
  ~ScopedSpan() {
    if (handle_ != 0) tracer_.End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t handle_;
};

/// Cost of one span (Begin + End) in a tight loop, in ns.
double MeasureSpanNs();

/// Tracing overhead, as traced minus untraced time per operation. Traced
/// runs alternate tracing on and off round by round, so both halves see
/// the same machine state.
struct OverheadProbe {
  double us[2] = {};
  uint64_t ops[2] = {};
  void Add(bool traced, double round_us, uint64_t round_ops) {
    us[traced ? 1 : 0] += round_us;
    ops[traced ? 1 : 0] += round_ops;
  }
  double PerOpUs() const {
    if (ops[0] == 0 || ops[1] == 0) return 0;
    return us[1] / static_cast<double>(ops[1]) -
           us[0] / static_cast<double>(ops[0]);
  }
};

/// One benchmark query: the request the program sees plus the raw sorted
/// item set the checker recomputes answers from.
struct Query {
  sgtree::QueryRequest request;
  std::vector<sgtree::ItemId> items;
};

/// Short stable name of a query type, used in metric names.
const char* TypeName(sgtree::QueryType type);
inline constexpr int kNumTypes = 6;

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> samples, double p);

/// Length of the windows tail percentiles are taken in. On a shared VM,
/// single-thread speed can move between levels in stretches of seconds,
/// and a whole-run p90/p99 is then set by how much of the run fell in the
/// slow ones; per-window tails compare like with like.
inline constexpr double kTailWindowSeconds = 3;

/// Index of the kTailWindowSeconds window, counted from `start`, that
/// `at` falls in.
uint32_t WindowOf(Clock::time_point start, Clock::time_point at);

/// Latency samples (µs) in the order taken, each tagged with its window.
struct Samples {
  std::vector<double> us;
  std::vector<uint32_t> window;
  void Add(double value, uint32_t w) {
    us.push_back(value);
    window.push_back(w);
  }
};

/// Nearest-rank percentile over every sample of the run.
inline double Percentile(const Samples& samples, double p) {
  return Percentile(samples.us, p);
}

/// Tail percentile: the nearest-rank percentile `p` of each window, then
/// the median over windows. Windows with fewer than half the samples of
/// the fullest one (the run's last, cut short) are left out.
double WindowedPercentile(const Samples& samples, double p);

/// Latency samples per query type plus the all-types pool.
struct LatencyBook {
  Samples by_type[kNumTypes];
  Samples all;
  void Add(sgtree::QueryType type, double us, uint32_t window) {
    by_type[static_cast<int>(type)].Add(us, window);
    all.Add(us, window);
  }
  const Samples& of(sgtree::QueryType type) const {
    return by_type[static_cast<int>(type)];
  }
};

/// Per-type sums of the paper's cost measures over a fixed query sample.
struct CostBook {
  sgtree::QueryTrace sum[kNumTypes];
  uint64_t queries[kNumTypes] = {};
  void Add(sgtree::QueryType type, const sgtree::QueryTrace& trace) {
    sum[static_cast<int>(type)] += trace;
    ++queries[static_cast<int>(type)];
  }
  /// Emits sgtree.{nodes_visited,signatures_tested,candidates_verified}
  /// _per_query.<type> and storage.random_ios_per_query.<type>.
  void Emit(Metrics* metrics) const;
};

/// Times the four signature kernels on pairs of the workload's own
/// signatures and emits common.*_ns_per_word.
void MeasureKernels(const std::vector<sgtree::Transaction>& sample,
                    uint32_t num_bits, uint32_t fixed_dimensionality,
                    Metrics* metrics);

/// Pins the calling thread, and with it every thread it starts while
/// pinned, to one CPU: the highest of the set it may run on. The destructor
/// (or Restore) gives back the CPU set the thread had at construction.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin() { Restore(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  void Pin();
  void Restore();

 private:
  std::vector<int> cpus_;  // Ascending.
  bool pinned_ = false;
};

/// Bytes of a regular file, or 0 when it cannot be read.
uint64_t FileBytes(const std::string& path);

/// Creates `dir` (and parents) fresh: anything already there is removed.
bool FreshDir(const std::string& dir);
void RemoveTree(const std::string& dir);

/// The per-layer metrics every workload prints, in a fixed order. A
/// workload fills the ones whose layer it runs; the rest stay 0 (that
/// layer did no work in this workload).
void DeclarePerLayer(Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
