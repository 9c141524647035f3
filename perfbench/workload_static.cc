// basket_static_read: a fixed, seeded mix of all six query types through
// QueryRouter over the 2-shard static Quest image, one query per call, one
// executor lane.
#include <unistd.h>

#include <map>

#include "basket.h"
#include "checker.h"
#include "common.h"
#include "exec/query_executor.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sgtree::QueryType;

constexpr uint32_t kPoolSize = 12'000;    // 2000 queries of each type.
constexpr size_t kRound = 12;             // Two queries of each type.
constexpr size_t kCheckedPerType = 5;     // Brute-forced every run.
constexpr double kWarmupSeconds = 2;      // Untimed rounds before measuring.

// One pass of whole rounds over the pool, from pool[0], until `seconds`
// have passed. With `alternate`, odd rounds are traced and even ones not.
struct Pass {
  LatencyBook latency;
  uint64_t queries = 0;
  uint64_t rounds = 0;
  double busy_us = 0;
  OverheadProbe overhead;
};

Pass RunPass(const BasketInput& input, sgtree::QueryRouter& router,
             double seconds, bool alternate, Tracer& tracer,
             const std::map<size_t, sgtree::QueryResult>& checked,
             Outcome* out) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  size_t cursor = 0;
  while (Clock::now() < deadline) {
    const bool traced = alternate && pass.rounds % 2 == 1;
    if (alternate) tracer.set_enabled(traced);
    const double busy_before = pass.busy_us;
    for (size_t j = 0; j < kRound; ++j) {
      const size_t index = cursor;
      const Query& q = input.pool[index];
      cursor = (cursor + 1) % input.pool.size();
      sgtree::QueryResult r;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "shard.QueryRouter::RunOne");
        r = router.RunOne(q.request);
      }
      const Clock::time_point t1 = Clock::now();
      const double us = MicrosBetween(t0, t1);
      pass.latency.Add(q.request.type, us, WindowOf(start, t1));
      pass.busy_us += us;
      ++pass.queries;
      const std::string bad = CheckProperties(input.corpus, q, r);
      if (!bad.empty()) out->Fail(bad);
      const auto known = checked.find(index);
      if (known != checked.end() && !SameAnswer(known->second, r)) {
        out->Fail(std::string("repeated ") + TypeName(q.request.type) +
                  " query changed its answer");
      }
    }
    pass.overhead.Add(traced, pass.busy_us - busy_before, kRound);
    ++pass.rounds;
  }
  return pass;
}

}  // namespace

Outcome RunBasketStaticRead(const Args& args) {
  Outcome out;
  Tracer tracer(args.trace);
  DeclarePerLayer(&out.per_layer);

  const Clock::time_point gen_start = Clock::now();
  const BasketInput input = MakeBasketInput(args.seed, kPoolSize);
  const double gen_s = SecondsBetween(gen_start, Clock::now());

  const std::string dir = args.out_dir + "/basket_static_read-" +
                          std::to_string(::getpid());
  if (!FreshDir(dir)) {
    out.Fail("cannot create " + dir);
    return out;
  }
  BasketIndex index;
  std::string error;
  if (!BuildBasketIndex(input, dir, tracer, &index, &error)) {
    out.Fail("set-up: " + error);
    RemoveTree(dir);
    return out;
  }
  sgtree::QueryExecutorOptions exec_options;
  exec_options.num_threads = 1;
  sgtree::QueryExecutor executor(exec_options);
  sgtree::QueryRouter router(*index.image, &executor, BasketRouterOptions());
  const double setup_s =
      SecondsBetween(args.process_start, Clock::now()) - gen_s;

  // Brute-force sample (also the warm-up): the first kCheckedPerType
  // queries of every type, plus the checker's self-test on real answers.
  std::map<size_t, sgtree::QueryResult> checked;
  bool self_tested[kNumTypes] = {};
  for (size_t i = 0; i < kCheckedPerType * kNumTypes; ++i) {
    const Query& q = input.pool[i];
    const sgtree::QueryResult r = router.RunOne(q.request);
    ++out.attempted;
    for (const std::string& bad : {CheckProperties(input.corpus, q, r),
                                   CheckBruteForce(input.corpus, q, r)}) {
      if (!bad.empty()) out.Fail(bad);
    }
    const auto t = static_cast<int>(q.request.type);
    if (!self_tested[t] && (!r.neighbors.empty() || !r.ids.empty())) {
      const std::string bad = SelfTest(input.corpus, q, r);
      if (!bad.empty()) out.Fail(bad);
      self_tested[t] = true;
    }
    checked.emplace(i, r);
  }

  const Pass warmup =
      RunPass(input, router, kWarmupSeconds, false, tracer, checked, &out);
  out.attempted += warmup.queries;
  if (!args.trace) {
    const Pass pass =
        RunPass(input, router, args.seconds, false, tracer, checked, &out);
    out.attempted += pass.queries;
    std::string reopen_error;
    const double recover_s = MedianReopenSeconds(index, 9, &reopen_error);
    if (!reopen_error.empty()) out.Fail("reopen: " + reopen_error);
    ++out.attempted;

    Metrics& m = out.end_to_end;
    m.Set("setup_s", setup_s, "s");
    m.Set("query_qps", 1e6 * static_cast<double>(pass.queries) / pass.busy_us,
          "1/s");
    m.Set("request_p50_us", Percentile(pass.latency.all, 50), "us");
    m.Set("request_p99_us", WindowedPercentile(pass.latency.all, 99), "us");
    m.Set("knn_p50_us", Percentile(pass.latency.of(QueryType::kKnn), 50),
          "us");
    m.Set("knn_p90_us",
          WindowedPercentile(pass.latency.of(QueryType::kKnn), 90), "us");
    m.Set("range_p50_us",
          Percentile(pass.latency.of(QueryType::kRange), 50), "us");
    m.Set("contain_p50_us",
          Percentile(pass.latency.of(QueryType::kContainment), 50), "us");
    m.Set("image_bytes", static_cast<double>(index.image_bytes), "bytes");
    m.Set("recover_s", recover_s, "s");
  } else {
    const Pass pass =
        RunPass(input, router, args.seconds, true, tracer, checked, &out);
    tracer.set_enabled(true);
    out.attempted += pass.queries;
    out.per_layer.Set("trace.overhead_us_per_op", pass.overhead.PerOpUs(),
                      "us");
    MeasureBasketLayers(input, index, tracer, &out.per_layer);
    MeasureKernels({input.dataset.transactions.begin(),
                    input.dataset.transactions.begin() + 4096},
                   kBasketItems, 0, &out.per_layer);
    tracer.Write(args.out_dir + "/spans-basket_static_read-" +
                 std::to_string(args.seed) + ".json");
  }
  RemoveTree(dir);
  out.finished = true;
  return out;
}

}  // namespace perfbench
