// The market-basket input shared by basket_static_read and
// basket_serve_zipf: Quest T10.I6.D200K (paper §5.1) built by insertion
// into a 2-shard index, written as a static image and reopened through
// StaticTreeView, plus the seeded pool of queries of all six types.
#ifndef PERFBENCH_BASKET_H_
#define PERFBENCH_BASKET_H_

#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "common.h"
#include "data/transaction.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"

namespace perfbench {

inline constexpr uint32_t kBasketTransactions = 200'000;
inline constexpr uint32_t kBasketItems = 1000;
inline constexpr uint32_t kBasketShards = 2;
inline constexpr uint32_t kBasketK = 10;
inline constexpr double kBasketEpsilon = 6;
/// Frames of each executor lane's buffer pool (the paper's random-I/O
/// accounting); the image has about 10k nodes, so most node reads miss.
inline constexpr uint32_t kBufferFrames = 64;

/// Generated inputs (not timed as set-up): one fixed Quest file, and a
/// pool of queries drawn with `seed`.
struct BasketInput {
  sgtree::Dataset dataset;
  /// pool[i] has type i % 6; see MakeBasketInput for how each is drawn.
  std::vector<Query> pool;
  Corpus corpus;
};
BasketInput MakeBasketInput(uint64_t seed, uint32_t pool_size);

/// The program-side set-up: dynamic build, static image, open.
struct BasketIndex {
  std::unique_ptr<sgtree::ShardedIndex> dynamic;  // Built by insertion.
  std::unique_ptr<sgtree::ShardedIndex> image;    // Static, mmap'ed.
  sgtree::ShardedIndexOptions options;
  std::string manifest;
  uint64_t image_bytes = 0;
  double insert_s = 0;  // Wall time of the insertion build.
  double write_s = 0;   // SaveStatic.
  double open_s = 0;    // First Load of the manifest.
};
bool BuildBasketIndex(const BasketInput& input, const std::string& dir,
                      Tracer& tracer, BasketIndex* out, std::string* error);

/// Median wall time of `n` cold reopens of the static manifest (each one
/// maps and CRC-verifies every shard image).
double MedianReopenSeconds(const BasketIndex& index, int n,
                           std::string* error);

/// Router settings every basket workload uses: one executor lane, private
/// pools cleared per (query, shard) sub-query (the paper's cold-cache
/// protocol), shared k-NN bound on. With one lane the shards of a query run
/// in a fixed order, so the shared bound and every per-query counter are
/// deterministic.
sgtree::QueryRouterOptions BasketRouterOptions();

/// The traced part shared by both basket workloads, run on a fixed query
/// sample so its counts repeat exactly: router cost measures per type,
/// BatchReport dispatch figures, and per-shard Execute timings on the
/// static and the dynamic backends. Fills the static.*, sgtree.*,
/// storage.*, exec.* and shard.* per-layer metrics.
void MeasureBasketLayers(const BasketInput& input, const BasketIndex& index,
                         Tracer& tracer, Metrics* per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_BASKET_H_
