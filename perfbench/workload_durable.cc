// census_durable_rw: 36-attribute categorical tuples bulk-adopted into a
// DurableTree, then one seeded stream of group-committed InsertBatches,
// erases, periodic Checkpoints and k-NN / range / containment queries on
// the dynamic tree. Every round ends by closing the tree and reopening it
// in place, which runs recovery over that round's log.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "checker.h"
#include "common.h"
#include "common/rng.h"
#include "common/signature.h"
#include "data/census_generator.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "exec/index_backend.h"
#include "obs/metrics.h"
#include "sgtree/bulk_load.h"
#include "storage/buffer_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sgtree::QueryType;
using sgtree::Transaction;

// The indexed population is one fixed census file, like the paper's real
// CENSUS data; --seed draws the stream on top of it (which tuples arrive,
// which are erased, which queries are asked).
constexpr uint64_t kDataSeed = 7;
constexpr uint32_t kTuples = 100'000;
constexpr uint32_t kInsertPool = 50'000;  // Cycled with fresh tids.
constexpr uint32_t kQueryPool = 6'000;
constexpr uint32_t kK = 10;
constexpr double kEpsilon = 16;            // Up to 8 differing attributes.
constexpr uint32_t kContainValues = 4;     // Attribute values per query.
constexpr uint32_t kBufferFrames = 64;
// One round: a checkpoint, then kBatches x (one InsertBatch of kBatch
// tuples, kBatch erases of random live tuples plus one Sync, and
// kQueriesPerBatch queries). Inserts and erases balance, so the tree keeps
// its size and every round costs the same.
constexpr uint32_t kBatches = 4;
constexpr uint32_t kBatch = 32;
constexpr uint32_t kQueriesPerBatch = 12;
constexpr size_t kCheckedPerType = 5;
constexpr double kWarmupSeconds = 2;  // Untimed rounds before measuring.

// The query types this workload runs. Exact and subset queries are left
// out: on fixed-dimensional data they can only match exact duplicates.
constexpr QueryType kTypes[] = {QueryType::kKnn, QueryType::kRange,
                                QueryType::kContainment};

struct Input {
  sgtree::Dataset dataset;
  std::vector<Transaction> insert_pool;
  std::vector<Query> queries;  // queries[i] has type kTypes[i % 3].
  Corpus corpus;
};

Input MakeInput(uint64_t seed) {
  sgtree::CensusOptions options;
  options.num_tuples = kTuples;
  options.seed = kDataSeed;
  sgtree::CensusGenerator gen(options);
  Input input;
  input.dataset = gen.Generate();
  for (const Transaction& txn : input.dataset.transactions) {
    input.corpus.Put(txn);
  }
  // Arrivals and query tuples: a seeded shuffle of held-out tuples from the
  // same distribution.
  std::vector<Transaction> held_out = gen.GenerateQueries(kInsertPool + kQueryPool);
  sgtree::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  for (size_t i = held_out.size(); i > 1; --i) {
    std::swap(held_out[i - 1], held_out[rng.UniformInt(i)]);
  }
  input.insert_pool.assign(held_out.begin(),
                           held_out.begin() + kInsertPool);
  const std::vector<Transaction> raw(held_out.begin() + kInsertPool,
                                     held_out.begin() + kInsertPool +
                                         kQueryPool);
  for (uint32_t i = 0; i < kQueryPool; ++i) {
    Query q;
    q.request.type = kTypes[i % 3];
    q.request.k = kK;
    q.request.epsilon = kEpsilon;
    q.items = raw[i].items;
    if (q.request.type == QueryType::kContainment) {
      // A partial tuple: "which people have these attribute values?".
      std::vector<sgtree::ItemId> values = q.items;
      q.items.clear();
      for (uint32_t pick = 0; pick < kContainValues; ++pick) {
        const size_t at = pick + rng.UniformInt(values.size() - pick);
        std::swap(values[pick], values[at]);
        q.items.push_back(values[pick]);
      }
      std::sort(q.items.begin(), q.items.end());
    }
    q.request.query =
        sgtree::Signature::FromItems(q.items, input.dataset.num_items);
    input.queries.push_back(std::move(q));
  }
  return input;
}

const char* const kExecuteSpan[kNumTypes] = {
    "sgtree.Execute.knn",     "sgtree.Execute.bf_knn",
    "sgtree.Execute.range",   "sgtree.Execute.contain",
    "sgtree.Execute.exact",   "sgtree.Execute.subset"};

// The live stream: state carried across rounds.
struct Stream {
  Stream(sgtree::Rng r, uint64_t first_tid) : rng(r), next_tid(first_tid) {}
  sgtree::Rng rng;
  uint64_t next_tid;
  size_t next_insert = 0;
  size_t next_query = 0;
  std::vector<uint64_t> live;  // Live tids, for uniform erase picks.
  std::vector<uint64_t> inserted;
  uint64_t rounds = 0;
  // Measurements since the last reset.
  struct Stats {
    Clock::time_point start = Clock::now();  // Origin of the tail windows.
    LatencyBook latency;           // Queries, by type.
    Samples requests;              // Every operation, writes included.
    std::vector<double> recover_s;  // Each round's reopen.
    double query_us = 0;
    uint64_t queries = 0;
    double insert_us = 0;
    uint64_t inserts = 0;
    uint64_t insert_wal_bytes = 0;
    uint64_t insert_fsyncs = 0;
    double op_us = 0;  // Sum of `requests`.
    uint64_t ops = 0;
    void Request(double us) {
      requests.Add(us, WindowOf(start, Clock::now()));
      op_us += us;
      ++ops;
    }
  } stats;
};

class DurableRun {
 public:
  DurableRun(const Args& args, Outcome* out)
      : args_(args), out_(out), tracer_(args.trace) {}

  void Run();

 private:
  sgtree::SgTreeOptions TreeOptions() const {
    sgtree::SgTreeOptions options;
    options.num_bits = input_.dataset.num_items;
    options.fixed_dimensionality = input_.dataset.fixed_dimensionality;
    options.buffer_pages = kBufferFrames;
    return options;
  }
  sgtree::DurableTree::Options DurableOptions() {
    sgtree::DurableTree::Options options;
    options.tree = TreeOptions();
    options.sync_each_op = false;  // InsertBatch and Sync group-commit.
    options.metrics = &registry_;
    return options;
  }
  bool SetUp();
  void Round();
  sgtree::QueryResult Query(const perfbench::Query& q, Tracer* tracer);
  void CheckSample(const char* when);
  void CheckSize(const char* when);
  double Restart();
  void Reopen();
  void MeasureQueryLayers();
  void MeasureWriteLayers();

  const Args& args_;
  Outcome* out_;
  Tracer tracer_;
  Input input_;
  std::string dir_;
  sgtree::obs::MetricsRegistry registry_;
  std::unique_ptr<sgtree::DurableTree> durable_;
  sgtree::BufferPool pool_{kBufferFrames};
  std::unique_ptr<Stream> stream_;
  double gen_s_ = 0;
  double bulk_load_ms_ = 0;
  double setup_s_ = 0;
  uint64_t records_replayed_ = 0;
  uint64_t disk_bytes_ = 0;
};

bool DurableRun::SetUp() {
  const Clock::time_point gen_start = Clock::now();
  input_ = MakeInput(args_.seed);
  gen_s_ = SecondsBetween(gen_start, Clock::now());
  stream_ = std::make_unique<Stream>(
      sgtree::Rng(args_.seed * 0x2545f4914f6cdd1dULL + 3),
      input_.dataset.size());
  for (const Transaction& txn : input_.dataset.transactions) {
    stream_->live.push_back(txn.tid);
  }

  dir_ = args_.out_dir + "/census_durable_rw-" + std::to_string(::getpid());
  if (!FreshDir(dir_)) {
    out_->Fail("cannot create " + dir_);
    return false;
  }
  std::string error;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<sgtree::SgTree> loaded;
  {
    ScopedSpan span(tracer_, "sgtree.BulkLoad");
    loaded = sgtree::BulkLoad(input_.dataset, TreeOptions());
  }
  bulk_load_ms_ = 1000.0 * SecondsBetween(t0, Clock::now());
  {
    ScopedSpan span(tracer_, "durability.DurableTree::Open");
    durable_ = sgtree::DurableTree::Open(sgtree::Env::Posix(), dir_,
                                         DurableOptions(), &error);
  }
  if (durable_ == nullptr) {
    out_->Fail("set-up: " + error);
    return false;
  }
  {
    ScopedSpan span(tracer_, "durability.DurableTree::AdoptBulkLoaded");
    if (!durable_->AdoptBulkLoaded(std::move(loaded), &error)) {
      out_->Fail("set-up: " + error);
      return false;
    }
  }
  setup_s_ = SecondsBetween(args_.process_start, Clock::now()) - gen_s_;
  return true;
}

sgtree::QueryResult DurableRun::Query(const perfbench::Query& q,
                                      Tracer* tracer) {
  pool_.Clear();
  ScopedSpan span(*tracer, kExecuteSpan[static_cast<int>(q.request.type)]);
  return sgtree::Execute(sgtree::SgTreeBackend(durable_->tree()), q.request,
                         &pool_);
}

void DurableRun::Round() {
  Stream& s = *stream_;
  Stream::Stats& st = s.stats;
  sgtree::obs::Counter* wal_bytes = registry_.GetCounter("wal.bytes");
  sgtree::obs::Counter* wal_fsyncs = registry_.GetCounter("wal.fsyncs");
  std::string error;

  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer_, "durability.DurableTree::Checkpoint");
    if (!durable_->Checkpoint(&error)) out_->Fail("checkpoint: " + error);
  }
  st.Request(MicrosBetween(t0, Clock::now()));

  for (uint32_t b = 0; b < kBatches; ++b) {
    std::vector<Transaction> batch;
    for (uint32_t i = 0; i < kBatch; ++i) {
      Transaction txn = input_.insert_pool[s.next_insert];
      s.next_insert = (s.next_insert + 1) % input_.insert_pool.size();
      txn.tid = s.next_tid++;
      batch.push_back(std::move(txn));
    }
    const uint64_t bytes_before = wal_bytes->Value();
    const uint64_t fsyncs_before = wal_fsyncs->Value();
    t0 = Clock::now();
    size_t acked = 0;
    {
      ScopedSpan span(tracer_, "durability.DurableTree::InsertBatch");
      acked = durable_->InsertBatch(batch);
    }
    const double us = MicrosBetween(t0, Clock::now());
    st.Request(us);
    st.insert_us += us;
    st.insert_wal_bytes += wal_bytes->Value() - bytes_before;
    st.insert_fsyncs += wal_fsyncs->Value() - fsyncs_before;
    if (acked != batch.size()) {
      out_->Fail("InsertBatch acknowledged " + std::to_string(acked) +
                 " of " + std::to_string(batch.size()));
    }
    for (size_t i = 0; i < acked; ++i) {
      input_.corpus.Put(batch[i]);
      s.live.push_back(batch[i].tid);
      s.inserted.push_back(batch[i].tid);
    }
    st.inserts += acked;

    for (uint32_t i = 0; i < kBatch; ++i) {
      const size_t at = s.rng.UniformInt(s.live.size());
      const uint64_t tid = s.live[at];
      s.live[at] = s.live.back();
      s.live.pop_back();
      const Transaction victim{tid, input_.corpus.items(tid)};
      bool erased = false;
      t0 = Clock::now();
      {
        ScopedSpan span(tracer_, "durability.DurableTree::Erase");
        erased = durable_->Erase(victim);
      }
      st.Request(MicrosBetween(t0, Clock::now()));
      if (!erased) out_->Fail("erase of live tid " + std::to_string(tid));
      input_.corpus.Erase(tid);
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "durability.DurableTree::Sync");
      if (!durable_->Sync()) out_->Fail("sync after erases failed");
    }
    st.Request(MicrosBetween(t0, Clock::now()));

    for (uint32_t i = 0; i < kQueriesPerBatch; ++i) {
      const perfbench::Query& q = input_.queries[s.next_query];
      s.next_query = (s.next_query + 1) % input_.queries.size();
      t0 = Clock::now();
      const sgtree::QueryResult r = Query(q, &tracer_);
      const double qus = MicrosBetween(t0, Clock::now());
      st.Request(qus);
      st.latency.Add(q.request.type, qus, WindowOf(st.start, Clock::now()));
      st.query_us += qus;
      ++st.queries;
      const std::string bad = CheckProperties(input_.corpus, q, r);
      if (!bad.empty()) out_->Fail(bad);
    }
  }
  // A restart is timed on its own: as a request it would put two
  // slowest operations in every round, right where p99 falls.
  st.recover_s.push_back(Restart());
  ++s.rounds;
}

void DurableRun::CheckSample(const char* when) {
  bool self_tested[kNumTypes] = {};
  for (size_t i = 0; i < kCheckedPerType * 3; ++i) {
    const perfbench::Query& q = input_.queries[i];
    Tracer off(false);
    const sgtree::QueryResult r = Query(q, &off);
    ++out_->attempted;
    for (const std::string& bad : {CheckProperties(input_.corpus, q, r),
                                   CheckBruteForce(input_.corpus, q, r)}) {
      if (!bad.empty()) out_->Fail(std::string(when) + ": " + bad);
    }
    const auto t = static_cast<int>(q.request.type);
    if (!self_tested[t] && (!r.neighbors.empty() || !r.ids.empty())) {
      const std::string bad = SelfTest(input_.corpus, q, r);
      if (!bad.empty()) out_->Fail(bad);
      self_tested[t] = true;
    }
  }
}

void DurableRun::CheckSize(const char* when) {
  if (durable_->tree().size() != input_.corpus.live_count()) {
    out_->Fail(std::string(when) + ": tree size " +
               std::to_string(durable_->tree().size()) + " != model " +
               std::to_string(input_.corpus.live_count()));
  }
}

double DurableRun::Restart() {
  CheckSize("before close");
  durable_.reset();
  disk_bytes_ = FileBytes(sgtree::DurableTree::PagePathFor(dir_)) +
                FileBytes(sgtree::DurableTree::WalPathFor(dir_));
  std::string error;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer_, "durability.DurableTree::Open(recover)");
    durable_ = sgtree::DurableTree::Open(sgtree::Env::Posix(), dir_,
                                         DurableOptions(), &error);
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  ++out_->attempted;
  if (durable_ == nullptr) {
    // Nothing is left to run the stream on.
    std::fprintf(stderr, "perfbench: recovery failed: %s\n", error.c_str());
    RemoveTree(dir_);
    std::exit(1);
  }
  records_replayed_ = durable_->recovery_report().records_replayed;
  CheckSize("after recovery");
  return seconds;
}

void DurableRun::Reopen() {
  Restart();
  // Every acknowledged insert is found again by an exact-match query,
  // unless the stream erased it since.
  Tracer off(false);
  for (const uint64_t tid : stream_->inserted) {
    perfbench::Query q;
    q.request.type = QueryType::kExact;
    q.items = input_.corpus.items(tid);
    q.request.query =
        sgtree::Signature::FromItems(q.items, input_.dataset.num_items);
    const sgtree::QueryResult r = Query(q, &off);
    ++out_->attempted;
    const bool found = std::binary_search(r.ids.begin(), r.ids.end(), tid);
    if (found != input_.corpus.live(tid)) {
      out_->Fail("after recovery: acknowledged insert " + std::to_string(tid) +
                 (found ? " found although erased" : " lost"));
    }
  }
  CheckSample("after recovery");
  durable_.reset();
}

void DurableRun::MeasureQueryLayers() {
  Metrics& m = out_->per_layer;
  // Cost measures on a fixed sample of the bulk-adopted tree (before the
  // stream), so the counts repeat exactly between runs of one seed.
  CostBook costs;
  uint64_t tested = 0;
  double exec_us = 0;
  for (size_t i = 0; i < 40 * 3; ++i) {
    const perfbench::Query& q = input_.queries[i];
    const Clock::time_point t0 = Clock::now();
    const sgtree::QueryResult r = Query(q, &tracer_);
    exec_us += MicrosBetween(t0, Clock::now());
    tested += r.trace.signatures_tested;
    costs.Add(q.request.type, r.trace);
  }
  costs.Emit(&m);
  m.Set("sgtree.ns_per_signature_tested",
        1000.0 * exec_us / static_cast<double>(tested), "ns");
  m.Set("sgtree.bulk_load_ms", bulk_load_ms_, "ms");
  std::vector<Transaction> sample(input_.dataset.transactions.begin(),
                                  input_.dataset.transactions.begin() + 4096);
  MeasureKernels(sample, input_.dataset.num_items,
                 input_.dataset.fixed_dimensionality, &m);
}

void DurableRun::MeasureWriteLayers() {
  Metrics& m = out_->per_layer;
  const Stream& s = *stream_;
  // Plain in-memory inserts of the same tuples the stream inserts.
  std::unique_ptr<sgtree::SgTree> plain =
      sgtree::BulkLoad(input_.dataset, TreeOptions());
  uint64_t tid = input_.dataset.size();
  for (size_t i = 0; i < 4096; ++i) {
    Transaction txn = input_.insert_pool[i % input_.insert_pool.size()];
    txn.tid = tid++;
    ScopedSpan span(tracer_, "sgtree.SgTree::Insert");
    plain->Insert(txn);
  }
  m.Set("sgtree.insert_us", tracer_.MeanUs("sgtree.SgTree::Insert"), "us");

  const double inserts = static_cast<double>(s.stats.inserts);
  m.Set("durability.insert_us_per_txn", s.stats.insert_us / inserts, "us");
  m.Set("durability.fsyncs_per_insert",
        static_cast<double>(s.stats.insert_fsyncs) / inserts, "count");
  m.Set("durability.wal_bytes_per_insert",
        static_cast<double>(s.stats.insert_wal_bytes) / inserts, "bytes");
  m.Set("durability.checkpoint_ms",
        tracer_.MeanUs("durability.DurableTree::Checkpoint") / 1000.0, "ms");
  m.Set("durability.recovery_records_replayed",
        static_cast<double>(records_replayed_), "count");
}

void DurableRun::Run() {
  DeclarePerLayer(&out_->per_layer);
  if (!SetUp()) {
    RemoveTree(dir_);
    return;
  }
  CheckSample("after bulk adoption");
  if (args_.trace) MeasureQueryLayers();

  Stream& s = *stream_;
  const auto run_for = [&](double seconds) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) Round();
    out_->attempted += s.stats.ops;
  };
  run_for(kWarmupSeconds);
  s.stats = {};
  if (!args_.trace) {
    run_for(args_.seconds);
  } else {
    OverheadProbe overhead;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    for (uint64_t round = 0; Clock::now() < deadline; ++round) {
      const bool traced = round % 2 == 1;
      tracer_.set_enabled(traced);
      const double us_before = s.stats.op_us;
      const uint64_t ops_before = s.stats.ops;
      Round();
      overhead.Add(traced, s.stats.op_us - us_before,
                   s.stats.ops - ops_before);
    }
    tracer_.set_enabled(true);
    out_->attempted += s.stats.ops;
    out_->per_layer.Set("trace.overhead_us_per_op", overhead.PerOpUs(), "us");
  }
  Reopen();

  if (args_.trace) {
    MeasureWriteLayers();
    tracer_.Write(args_.out_dir + "/spans-census_durable_rw-" +
                  std::to_string(args_.seed) + ".json");
  } else {
    const Stream::Stats& st = s.stats;
    Metrics& m = out_->end_to_end;
    m.Set("setup_s", setup_s_, "s");
    m.Set("query_qps", 1e6 * static_cast<double>(st.queries) / st.query_us,
          "1/s");
    // Requests here are every operation of the stream, writes included.
    m.Set("request_p50_us", Percentile(st.requests, 50), "us");
    m.Set("request_p99_us", WindowedPercentile(st.requests, 99), "us");
    m.Set("knn_p50_us", Percentile(st.latency.of(QueryType::kKnn), 50), "us");
    m.Set("knn_p90_us", WindowedPercentile(st.latency.of(QueryType::kKnn), 90),
          "us");
    m.Set("range_p50_us", Percentile(st.latency.of(QueryType::kRange), 50),
          "us");
    m.Set("contain_p50_us",
          Percentile(st.latency.of(QueryType::kContainment), 50), "us");
    m.Set("image_bytes", static_cast<double>(disk_bytes_), "bytes");
    m.Set("recover_s", Percentile(st.recover_s, 50), "s");
  }
  RemoveTree(dir_);
  out_->finished = true;
}

}  // namespace

Outcome RunCensusDurableRw(const Args& args) {
  Outcome out;
  DurableRun run(args, &out);
  run.Run();
  return out;
}

}  // namespace perfbench
