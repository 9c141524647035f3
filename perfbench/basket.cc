#include "basket.h"

#include <algorithm>

#include "common/rng.h"
#include "common/signature.h"
#include "data/quest_generator.h"
#include "exec/query_executor.h"
#include "static/static_tree_backend.h"
#include "storage/buffer_pool.h"

namespace perfbench {

using sgtree::ItemId;
using sgtree::QueryType;
using sgtree::Transaction;

BasketInput MakeBasketInput(uint64_t seed, uint32_t pool_size) {
  // The indexed baskets are one fixed Quest file; --seed draws the query
  // pool from a fixed stream of candidates. A per-seed file gives each seed
  // its own tree, and with it query costs up to 20% apart.
  constexpr uint64_t kDataSeed = 7;
  constexpr uint32_t kCandidatesPerQuery = 4;
  sgtree::QuestOptions options;
  options.num_transactions = kBasketTransactions;
  options.avg_transaction_size = 10;
  options.avg_itemset_size = 6;
  options.num_items = kBasketItems;
  options.num_patterns = 2000;
  options.seed = kDataSeed;
  sgtree::QuestGenerator gen(options);

  BasketInput input;
  input.dataset = gen.Generate();
  for (const Transaction& txn : input.dataset.transactions) {
    input.corpus.Put(txn);
  }

  // Query transactions come from the generator's own query stream (the
  // paper draws queries from the same patterns as the data), taken in a
  // seeded order.
  std::vector<Transaction> raw =
      gen.GenerateQueries(kCandidatesPerQuery * pool_size);
  sgtree::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (size_t i = raw.size(); i > 1; --i) {
    std::swap(raw[i - 1], raw[rng.UniformInt(i)]);
  }
  size_t next = 0;
  auto take = [&](size_t min_items) {
    while (true) {
      const std::vector<ItemId>& items = raw[next].items;
      next = (next + 1) % raw.size();
      if (items.size() >= min_items) return items;
    }
  };
  const size_t n = input.dataset.transactions.size();
  input.pool.reserve(pool_size);
  for (uint32_t i = 0; i < pool_size; ++i) {
    Query q;
    q.request.type = static_cast<QueryType>(i % kNumTypes);
    q.request.k = kBasketK;
    q.request.epsilon = kBasketEpsilon;
    switch (q.request.type) {
      case QueryType::kKnn:
      case QueryType::kBestFirstKnn:
      case QueryType::kRange:
        q.items = take(1);
        break;
      case QueryType::kContainment: {
        // Three items of one basket: "which baskets hold all three?".
        std::vector<ItemId> basket = take(3);
        for (int pick = 0; pick < 3; ++pick) {
          const size_t at = pick + rng.UniformInt(basket.size() - pick);
          std::swap(basket[pick], basket[at]);
          q.items.push_back(basket[pick]);
        }
        std::sort(q.items.begin(), q.items.end());
        break;
      }
      case QueryType::kExact:
        // An indexed basket, so at least one row matches.
        while (q.items.empty()) {
          q.items = input.dataset.transactions[rng.UniformInt(n)].items;
        }
        break;
      case QueryType::kSubset: {
        // Baskets made only of items from two query baskets.
        const std::vector<ItemId> a = take(1);
        const std::vector<ItemId> b = take(1);
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(q.items));
        break;
      }
    }
    q.request.query = sgtree::Signature::FromItems(q.items, kBasketItems);
    input.pool.push_back(std::move(q));
  }
  return input;
}

bool BuildBasketIndex(const BasketInput& input, const std::string& dir,
                      Tracer& tracer, BasketIndex* out, std::string* error) {
  out->options.num_shards = kBasketShards;
  out->options.tree.num_bits = kBasketItems;
  out->options.tree.buffer_pages = kBufferFrames;
  out->dynamic = std::make_unique<sgtree::ShardedIndex>(out->options);

  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan build(tracer, "sgtree.build_by_insertion");
    for (const Transaction& txn : input.dataset.transactions) {
      ScopedSpan span(tracer, "shard.ShardedIndex::Insert");
      if (!out->dynamic->Insert(txn)) {
        *error = "in-memory insert refused tid " + std::to_string(txn.tid);
        return false;
      }
    }
  }
  out->insert_s = SecondsBetween(t0, Clock::now());

  out->manifest = dir + "/basket.sgt";
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "shard.ShardedIndex::SaveStatic");
    if (!out->dynamic->SaveStatic(out->manifest, error)) return false;
  }
  out->write_s = SecondsBetween(t0, Clock::now());
  out->image_bytes = FileBytes(out->manifest);
  for (uint32_t i = 0; i < kBasketShards; ++i) {
    out->image_bytes += FileBytes(
        sgtree::ShardedIndex::ShardSnapshotPath(out->manifest, i));
  }

  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "shard.ShardedIndex::Load");
    out->image =
        sgtree::ShardedIndex::Load(out->manifest, out->options, error);
  }
  out->open_s = SecondsBetween(t0, Clock::now());
  if (out->image == nullptr) return false;
  if (!out->image->static_mode() || out->image->size() != out->dynamic->size()) {
    *error = "reopened image is not the static index that was written";
    return false;
  }
  return true;
}

double MedianReopenSeconds(const BasketIndex& index, int n,
                           std::string* error) {
  std::vector<double> seconds;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<sgtree::ShardedIndex> reopened =
        sgtree::ShardedIndex::Load(index.manifest, index.options, error);
    seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (reopened == nullptr || reopened->size() != index.image->size()) {
      if (error->empty()) *error = "reopen returned a different index";
      return 0;
    }
  }
  return Percentile(seconds, 50);
}

sgtree::QueryRouterOptions BasketRouterOptions() {
  sgtree::QueryRouterOptions options;
  options.buffer_pages = kBufferFrames;
  options.cold_per_subquery = true;
  options.shared_knn_bound = true;
  return options;
}

namespace {

// Span names of the per-shard Execute calls, per backend and query type.
const char* const kStaticSpan[kNumTypes] = {
    "static.Execute.knn",     "static.Execute.bf_knn",
    "static.Execute.range",   "static.Execute.contain",
    "static.Execute.exact",   "static.Execute.subset"};
const char* const kDynamicSpan[kNumTypes] = {
    "sgtree.Execute.knn",     "sgtree.Execute.bf_knn",
    "sgtree.Execute.range",   "sgtree.Execute.contain",
    "sgtree.Execute.exact",   "sgtree.Execute.subset"};

// Runs every sample query on every shard through `make_backend(shard)`,
// cold pool per call, and returns ns per signature tested.
template <typename MakeBackend>
double TimeShardExecutes(const std::vector<const Query*>& sample,
                         uint32_t shards, const char* const* span_names,
                         Tracer& tracer, MakeBackend&& make_backend) {
  sgtree::BufferPool pool(kBufferFrames);
  uint64_t tested = 0;
  double total_us = 0;
  for (uint32_t si = 0; si < shards; ++si) {
    const auto backend = make_backend(si);
    for (const Query* q : sample) {
      pool.Clear();
      const auto type = static_cast<int>(q->request.type);
      const Clock::time_point t0 = Clock::now();
      sgtree::QueryResult r;
      {
        ScopedSpan span(tracer, span_names[type]);
        r = sgtree::Execute(backend, q->request, &pool);
      }
      total_us += MicrosBetween(t0, Clock::now());
      tested += r.trace.signatures_tested;
    }
  }
  return tested == 0 ? 0 : 1000.0 * total_us / static_cast<double>(tested);
}

}  // namespace

void MeasureBasketLayers(const BasketInput& input, const BasketIndex& index,
                         Tracer& tracer, Metrics* per_layer) {
  constexpr size_t kSamplePerType = 40;
  std::vector<const Query*> sample;
  for (size_t i = 0; i < input.pool.size() &&
                     sample.size() < kSamplePerType * kNumTypes;
       ++i) {
    sample.push_back(&input.pool[i]);
  }

  sgtree::QueryExecutorOptions exec_options;
  exec_options.num_threads = 1;
  sgtree::QueryExecutor executor(exec_options);
  sgtree::QueryRouter router(*index.image, &executor, BasketRouterOptions());
  CostBook costs;
  double task_us = 0;
  double wall_us = 0;
  for (const Query* q : sample) {
    sgtree::QueryResult r;
    {
      ScopedSpan span(tracer, "shard.QueryRouter::RunOne");
      r = router.RunOne(q->request);
    }
    const sgtree::BatchReport& report = router.last_batch_report();
    task_us += report.task_us;
    wall_us += report.wall_ms * 1000.0;
    costs.Add(q->request.type, r.trace);
  }
  costs.Emit(per_layer);
  per_layer->Set("exec.dispatch_efficiency",
                 task_us / (wall_us * executor.num_threads()), "ratio");
  per_layer->Set("shard.router_overhead_us_per_query",
                 (wall_us - task_us) / static_cast<double>(sample.size()),
                 "us");

  per_layer->Set(
      "static.ns_per_signature_tested",
      TimeShardExecutes(sample, kBasketShards, kStaticSpan, tracer,
                        [&](uint32_t si) {
                          return sgtree::StaticTreeBackend(
                              index.image->static_shard(si));
                        }),
      "ns");
  per_layer->Set("static.knn_us", tracer.MeanUs(kStaticSpan[0]), "us");
  per_layer->Set("static.range_us", tracer.MeanUs(kStaticSpan[2]), "us");
  per_layer->Set("static.contain_us", tracer.MeanUs(kStaticSpan[3]), "us");
  per_layer->Set(
      "sgtree.ns_per_signature_tested",
      TimeShardExecutes(sample, kBasketShards, kDynamicSpan, tracer,
                        [&](uint32_t si) {
                          return sgtree::SgTreeBackend(
                              index.dynamic->shard(si));
                        }),
      "ns");
  per_layer->Set("static.build_ms", index.write_s * 1000.0, "ms");
  per_layer->Set("static.open_ms", index.open_s * 1000.0, "ms");
  per_layer->Set("sgtree.insert_us",
                 tracer.MeanUs("shard.ShardedIndex::Insert"), "us");
}

}  // namespace perfbench
