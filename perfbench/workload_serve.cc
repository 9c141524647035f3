// basket_serve_zipf: an in-process sgtree_serve Server over loopback TCP
// on the 2-shard static Quest image, one replica, driven closed-loop by one
// connection sending Zipf(0.9)-skewed requests of all six types drawn from
// a pool twice the result cache's size.
#include <unistd.h>

#include <map>
#include <thread>

#include "basket.h"
#include "checker.h"
#include "common.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sgtree::QueryType;
namespace serve = sgtree::serve;

constexpr uint32_t kPoolSize = 4096;
// The served pool is the same in every run and --seed draws the request
// sequence: a cache hit costs what its answer's size costs, so a per-seed
// pool would give each seed the hit latency of its own few hottest keys.
constexpr uint64_t kPoolSeed = 1;
// LRU over Zipf(0.9) keys: about 0.83 of requests hit, so the median is a
// hit and the tail is made of misses, with no run near a 50/50 split.
constexpr size_t kCacheEntries = 2048;
constexpr double kZipfTheta = 0.9;
constexpr uint32_t kConnections = 1;
constexpr uint32_t kRound = 64;  // Requests per connection per round.
constexpr size_t kCheckedPerType = 5;
constexpr double kWarmupSeconds = 2;  // Fills the cache before measuring.

// What one connection measured.
struct ConnResult {
  LatencyBook latency;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  double busy_us = 0;
  OverheadProbe overhead;
  std::vector<std::string> errors;
};

// Closed loop of whole rounds on one connection until `seconds` pass from
// `start`; with `alternate`, odd rounds are traced. Each answer is
// property-checked the first time its key is seen and must repeat exactly
// afterwards.
void RunConnection(uint16_t port, const BasketInput& input, uint64_t seed,
                   Clock::time_point start, double seconds, bool alternate,
                   Tracer* tracer,
                   std::map<size_t, sgtree::QueryResult>* seen,
                   ConnResult* result) {
  serve::Client client;
  if (!client.Connect("127.0.0.1", port, 10000)) {
    result->errors.push_back("connect: " + client.error());
    result->failed += 1;
    return;
  }
  sgtree::Rng rng(seed);
  const sgtree::ZipfSampler zipf(static_cast<uint32_t>(input.pool.size()),
                                 kZipfTheta);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    const bool traced = alternate && result->rounds % 2 == 1;
    if (alternate) tracer->set_enabled(traced);
    const double busy_before = result->busy_us;
    const uint64_t sent_before = result->sent;
    for (uint32_t i = 0; i < kRound; ++i) {
      const size_t key = zipf.Sample(rng);
      const Query& q = input.pool[key];
      sgtree::QueryResult r;
      const Clock::time_point t0 = Clock::now();
      serve::Client::Status status;
      {
        ScopedSpan span(*tracer, "server.Client::Query");
        status = client.Query(q.request, &r);
      }
      const Clock::time_point t1 = Clock::now();
      const double us = MicrosBetween(t0, t1);
      ++result->sent;
      if (status != serve::Client::Status::kOk) {
        ++result->failed;
        if (result->errors.size() < 4) {
          result->errors.push_back("request failed: " + client.error());
        }
        if (status == serve::Client::Status::kTransport ||
            status == serve::Client::Status::kServerError) {
          return;  // The connection is gone.
        }
        continue;
      }
      result->latency.Add(q.request.type, us, WindowOf(start, t1));
      result->busy_us += us;
      const auto known = seen->find(key);
      if (known == seen->end()) {
        const std::string bad = CheckProperties(input.corpus, q, r);
        if (!bad.empty() && result->errors.size() < 4) {
          result->errors.push_back(bad);
        }
        seen->emplace(key, std::move(r));
      } else if (!SameAnswer(known->second, r)) {
        result->errors.push_back(std::string("served ") +
                                 TypeName(q.request.type) +
                                 " answer changed for a repeated key");
      }
    }
    result->overhead.Add(traced, result->busy_us - busy_before,
                         result->sent - sent_before);
    ++result->rounds;
  }
}

struct LoadResult {
  ConnResult merged;
  double wall_s = 0;
};

// `phase` gives each load phase of a run its own key sequences.
LoadResult RunLoad(uint16_t port, const BasketInput& input, uint64_t seed,
                   uint64_t phase, double seconds, bool alternate,
                   std::vector<Tracer>* tracers,
                   std::vector<std::map<size_t, sgtree::QueryResult>>* seen,
                   Outcome* out) {
  std::vector<ConnResult> results(kConnections);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      RunConnection(port, input, (seed * 1000003ULL + phase) * 64 + c,
                    start, seconds, alternate,
                    &(*tracers)[c], &(*seen)[c], &results[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult load;
  load.wall_s = SecondsBetween(start, Clock::now());
  for (uint32_t c = 0; c < kConnections; ++c) {
    ConnResult& r = results[c];
    for (int traced = 0; traced < 2; ++traced) {
      load.merged.overhead.Add(traced == 1, r.overhead.us[traced],
                               r.overhead.ops[traced]);
    }
    for (int t = 0; t < kNumTypes; ++t) {
      const auto type = static_cast<QueryType>(t);
      const Samples& samples = r.latency.of(type);
      for (size_t i = 0; i < samples.us.size(); ++i) {
        load.merged.latency.Add(type, samples.us[i], samples.window[i]);
      }
    }
    load.merged.sent += r.sent;
    load.merged.failed += r.failed;
    load.merged.busy_us += r.busy_us;
    for (const std::string& e : r.errors) out->Fail(e);
  }
  return load;
}

double HistogramMean(sgtree::obs::MetricsRegistry& registry,
                     const char* name) {
  const sgtree::obs::Histogram* h = registry.GetHistogram(name);
  return h->Count() == 0 ? 0 : h->Sum() / static_cast<double>(h->Count());
}

}  // namespace

Outcome RunBasketServeZipf(const Args& args) {
  Outcome out;
  Tracer tracer(args.trace);
  DeclarePerLayer(&out.per_layer);

  const Clock::time_point gen_start = Clock::now();
  const BasketInput input = MakeBasketInput(kPoolSeed, kPoolSize);
  const double gen_s = SecondsBetween(gen_start, Clock::now());

  const std::string dir = args.out_dir + "/basket_serve_zipf-" +
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
  sgtree::obs::MetricsRegistry registry;
  serve::ServerOptions options;
  options.max_inflight = 64;
  options.cache_entries = kCacheEntries;
  // A fixed zero linger and no hedging: no timing-adaptive mechanism
  // decides what a request waits for.
  options.batcher.min_linger_us = 0;
  options.batcher.max_linger_us = 0;
  options.batcher.num_dispatchers = 1;
  options.replicas.num_replicas = 1;
  options.replicas.executor_threads = 1;
  options.replicas.enable_hedging = false;
  options.replicas.router = BasketRouterOptions();
  options.metrics = &registry;
  // The server's threads (the one-lane executor runs on the dispatcher)
  // and the client thread all share one CPU. That CPU never idles under
  // load, so a request is a hand-off between threads on it, and not a
  // wake-up of an idle CPU, whose cost on a VM moves between runs (the
  // cache-hit median read about 25 us in some sets of runs and 40 us in
  // others).
  CpuPin pin;
  pin.Pin();
  std::unique_ptr<serve::Server> server;
  {
    ScopedSpan span(tracer, "server.Server::Start");
    server = serve::Server::Create(index.image.get(), options, &error);
    if (server == nullptr || !server->Start(&error)) {
      out.Fail("set-up: " + error);
      RemoveTree(dir);
      return out;
    }
  }
  const double setup_s =
      SecondsBetween(args.process_start, Clock::now()) - gen_s;

  // Brute-force sample over the wire, with the checker's self-test.
  {
    serve::Client client;
    if (!client.Connect("127.0.0.1", server->port(), 10000)) {
      out.Fail("connect: " + client.error());
    }
    bool self_tested[kNumTypes] = {};
    for (size_t i = 0; i < kCheckedPerType * kNumTypes && client.connected();
         ++i) {
      const Query& q = input.pool[i];
      sgtree::QueryResult r;
      ++out.attempted;
      if (client.Query(q.request, &r) != serve::Client::Status::kOk) {
        ++out.failed;
        out.Fail("sample request failed: " + client.error());
        continue;
      }
      for (const std::string& bad : {CheckProperties(input.corpus, q, r),
                                     CheckBruteForce(input.corpus, q, r)}) {
        if (!bad.empty()) out.Fail("served " + bad);
      }
      const auto t = static_cast<int>(q.request.type);
      if (!self_tested[t] && (!r.neighbors.empty() || !r.ids.empty())) {
        const std::string bad = SelfTest(input.corpus, q, r);
        if (!bad.empty()) out.Fail(bad);
        self_tested[t] = true;
      }
    }
  }
  std::vector<Tracer> tracers(kConnections, Tracer(false));
  std::vector<std::map<size_t, sgtree::QueryResult>> seen(kConnections);
  const LoadResult warmup = RunLoad(server->port(), input, args.seed, 1,
                                    kWarmupSeconds, false, &tracers, &seen,
                                    &out);
  out.attempted += warmup.merged.sent;
  out.failed += warmup.merged.failed;
  // Server counters from here on cover exactly the measured load.
  registry.Reset();

  const LoadResult load = RunLoad(server->port(), input, args.seed, 2,
                                  args.seconds, args.trace, &tracers, &seen,
                                  &out);
  out.attempted += load.merged.sent;
  out.failed += load.merged.failed;

  const uint64_t hits = registry.GetCounter("serve.cache.hits")->Value();
  const uint64_t misses = registry.GetCounter("serve.cache.misses")->Value();
  const uint64_t shed = registry.GetCounter("serve.shed")->Value();
  if (hits + misses != load.merged.sent) {
    out.Fail("server counted " + std::to_string(hits + misses) +
             " cache probes for " + std::to_string(load.merged.sent) +
             " requests sent");
  }
  if (shed != 0) out.Fail("server shed " + std::to_string(shed) + " requests");

  if (!args.trace) {
    pin.Restore();  // Load opens the shards on threads of their own.
    std::string reopen_error;
    const double recover_s = MedianReopenSeconds(index, 9, &reopen_error);
    if (!reopen_error.empty()) out.Fail("reopen: " + reopen_error);
    ++out.attempted;
    const ConnResult& r = load.merged;
    Metrics& m = out.end_to_end;
    m.Set("setup_s", setup_s, "s");
    m.Set("query_qps", static_cast<double>(r.sent) / load.wall_s, "1/s");
    m.Set("request_p50_us", Percentile(r.latency.all, 50), "us");
    m.Set("request_p99_us", WindowedPercentile(r.latency.all, 99), "us");
    m.Set("knn_p50_us", Percentile(r.latency.of(QueryType::kKnn), 50), "us");
    m.Set("knn_p90_us", WindowedPercentile(r.latency.of(QueryType::kKnn), 90),
          "us");
    m.Set("range_p50_us", Percentile(r.latency.of(QueryType::kRange), 50),
          "us");
    m.Set("contain_p50_us",
          Percentile(r.latency.of(QueryType::kContainment), 50), "us");
    m.Set("image_bytes", static_cast<double>(index.image_bytes), "bytes");
    m.Set("recover_s", recover_s, "s");
  } else {
    Metrics& m = out.per_layer;
    const auto p50 = [&](const char* name) {
      return registry.GetHistogram(name)->Percentile(50);
    };
    m.Set("server.request_us_p50", p50("serve.request_us"), "us");
    m.Set("server.exec_us_p50", p50("serve.exec_us"), "us");
    m.Set("server.run_us_p50", p50("serve.run_us"), "us");
    m.Set("server.request_us_mean", HistogramMean(registry, "serve.request_us"),
          "us");
    m.Set("server.exec_us_mean", HistogramMean(registry, "serve.exec_us"),
          "us");
    m.Set("server.run_us_mean", HistogramMean(registry, "serve.run_us"), "us");
    m.Set("server.cache_hit_ratio",
          static_cast<double>(hits) / static_cast<double>(hits + misses),
          "ratio");
    m.Set("server.batch_size_mean", HistogramMean(registry, "serve.batch_size"),
          "count");
    m.Set("net.client_overhead_us",
          load.merged.busy_us / static_cast<double>(load.merged.sent) -
              HistogramMean(registry, "serve.request_us"),
          "us");
    m.Set("trace.overhead_us_per_op", load.merged.overhead.PerOpUs(), "us");
  }
  server->Stop();
  server.reset();

  if (args.trace) {
    MeasureBasketLayers(input, index, tracer, &out.per_layer);
    MeasureKernels({input.dataset.transactions.begin(),
                    input.dataset.transactions.begin() + 4096},
                   kBasketItems, 0, &out.per_layer);
    const std::string prefix = args.out_dir + "/spans-basket_serve_zipf-" +
                               std::to_string(args.seed);
    tracer.Write(prefix + ".json");
    for (uint32_t c = 0; c < kConnections; ++c) {
      tracers[c].Write(prefix + "-conn" + std::to_string(c) + ".json");
    }
  }
  RemoveTree(dir);
  out.finished = true;
  return out;
}

}  // namespace perfbench
