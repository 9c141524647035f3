#include "checker.h"

#include <algorithm>
#include <tuple>

namespace perfbench {

using sgtree::ItemId;
using sgtree::Neighbor;
using sgtree::QueryResult;
using sgtree::QueryType;

void Corpus::Put(const sgtree::Transaction& txn) {
  if (txn.tid >= items_.size()) {
    items_.resize(txn.tid + 1);
    live_.resize(txn.tid + 1, 0);
  }
  items_[txn.tid] = txn.items;
  if (!live_[txn.tid]) ++live_count_;
  live_[txn.tid] = 1;
}

void Corpus::Erase(uint64_t tid) {
  if (live(tid)) {
    live_[tid] = 0;
    --live_count_;
  }
}

namespace {

uint32_t IntersectionSize(const std::vector<ItemId>& a,
                          const std::vector<ItemId>& b) {
  uint32_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

// True iff every item of `small` is in `big`.
bool Includes(const std::vector<ItemId>& big,
              const std::vector<ItemId>& small) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

bool IsDistanceQuery(QueryType type) {
  return type == QueryType::kKnn || type == QueryType::kBestFirstKnn ||
         type == QueryType::kRange;
}

// The predicate of a set query, evaluated on raw item sets.
bool Matches(QueryType type, const std::vector<ItemId>& txn,
             const std::vector<ItemId>& query) {
  switch (type) {
    case QueryType::kContainment:
      return Includes(txn, query);
    case QueryType::kExact:
      return txn == query;
    case QueryType::kSubset:
      return !txn.empty() && Includes(query, txn);
    default:
      return false;
  }
}

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return std::tie(a.distance, a.tid) < std::tie(b.distance, b.tid);
}

std::string Describe(const Query& query) {
  return std::string(TypeName(query.request.type)) + " query of " +
         std::to_string(query.items.size()) + " items";
}

}  // namespace

uint32_t HammingDistance(const std::vector<ItemId>& a,
                         const std::vector<ItemId>& b) {
  return static_cast<uint32_t>(a.size() + b.size()) -
         2 * IntersectionSize(a, b);
}

std::string CheckProperties(const Corpus& corpus, const Query& query,
                            const QueryResult& result) {
  const QueryType type = query.request.type;
  if (!result.ok()) return Describe(query) + ": error " + result.error;
  if (IsDistanceQuery(type)) {
    if (!result.ids.empty()) return Describe(query) + ": ids on a distance query";
    const std::vector<Neighbor>& rows = result.neighbors;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!corpus.live(rows[i].tid)) {
        return Describe(query) + ": unknown or erased tid " +
               std::to_string(rows[i].tid);
      }
      const double d =
          HammingDistance(query.items, corpus.items(rows[i].tid));
      if (rows[i].distance != d) {
        return Describe(query) + ": tid " + std::to_string(rows[i].tid) +
               " reported at distance " + std::to_string(rows[i].distance) +
               ", recomputed " + std::to_string(d);
      }
      if (i > 0 && !NeighborLess(rows[i - 1], rows[i])) {
        return Describe(query) + ": rows not strictly ordered by (distance, "
                                 "tid) at row " +
               std::to_string(i);
      }
      if (type == QueryType::kRange && d > query.request.epsilon) {
        return Describe(query) + ": row beyond epsilon";
      }
    }
    if (type != QueryType::kRange) {
      const uint64_t want =
          std::min<uint64_t>(query.request.k, corpus.live_count());
      if (rows.size() != want) {
        return Describe(query) + ": " + std::to_string(rows.size()) +
               " neighbors, expected " + std::to_string(want);
      }
    }
    return "";
  }
  if (!result.neighbors.empty()) {
    return Describe(query) + ": neighbors on a predicate query";
  }
  for (size_t i = 0; i < result.ids.size(); ++i) {
    const uint64_t tid = result.ids[i];
    if (!corpus.live(tid)) {
      return Describe(query) + ": unknown or erased tid " +
             std::to_string(tid);
    }
    if (i > 0 && result.ids[i - 1] >= tid) {
      return Describe(query) + ": ids not strictly ascending";
    }
    if (!Matches(type, corpus.items(tid), query.items)) {
      return Describe(query) + ": tid " + std::to_string(tid) +
             " fails the predicate";
    }
  }
  return "";
}

std::string CheckBruteForce(const Corpus& corpus, const Query& query,
                            const QueryResult& result) {
  const QueryType type = query.request.type;
  if (IsDistanceQuery(type)) {
    std::vector<Neighbor> want;
    for (uint64_t tid = 0; tid < corpus.tid_end(); ++tid) {
      if (!corpus.live(tid)) continue;
      const double d = HammingDistance(query.items, corpus.items(tid));
      if (type == QueryType::kRange && d > query.request.epsilon) continue;
      want.push_back({tid, d});
    }
    if (type == QueryType::kRange) {
      std::sort(want.begin(), want.end(), NeighborLess);
    } else {
      const size_t k = std::min<size_t>(query.request.k, want.size());
      std::partial_sort(want.begin(), want.begin() + static_cast<long>(k),
                        want.end(), NeighborLess);
      want.resize(k);
    }
    if (want != result.neighbors) {
      return Describe(query) + ": " + std::to_string(result.neighbors.size()) +
             " rows differ from the brute-force scan's " +
             std::to_string(want.size());
    }
    return "";
  }
  std::vector<uint64_t> want;
  for (uint64_t tid = 0; tid < corpus.tid_end(); ++tid) {
    if (corpus.live(tid) && Matches(type, corpus.items(tid), query.items)) {
      want.push_back(tid);
    }
  }
  if (want != result.ids) {
    return Describe(query) + ": " + std::to_string(result.ids.size()) +
           " ids differ from the brute-force scan's " +
           std::to_string(want.size());
  }
  return "";
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.neighbors == b.neighbors && a.ids == b.ids && a.error == b.error;
}

std::string SelfTest(const Corpus& corpus, const Query& query,
                     const QueryResult& correct) {
  if (!CheckProperties(corpus, query, correct).empty() ||
      !CheckBruteForce(corpus, query, correct).empty()) {
    return "self-test: the correct answer was rejected";
  }
  QueryResult altered = correct;
  QueryResult dropped = correct;
  if (!correct.neighbors.empty()) {
    altered.neighbors.front().distance += 1;
    dropped.neighbors.pop_back();
  } else if (!correct.ids.empty()) {
    // A tid that is live but not in the answer: it fails the predicate.
    uint64_t stranger = 0;
    while (stranger < corpus.tid_end() &&
           (!corpus.live(stranger) ||
            std::binary_search(correct.ids.begin(), correct.ids.end(),
                               stranger))) {
      ++stranger;
    }
    altered.ids.front() = stranger;
    std::sort(altered.ids.begin(), altered.ids.end());
    dropped.ids.pop_back();
  } else {
    return "self-test: needs a non-empty answer";
  }
  if (CheckProperties(corpus, query, altered).empty() ||
      CheckBruteForce(corpus, query, altered).empty()) {
    return "self-test: an altered answer was accepted";
  }
  if (CheckBruteForce(corpus, query, dropped).empty()) {
    return "self-test: an answer with a dropped row was accepted";
  }
  return "";
}

}  // namespace perfbench
