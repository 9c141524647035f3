// Answer checks that share no code with the program under test: every
// distance and predicate is recomputed from the raw sorted item sets the
// benchmark generated, never from sgtree::Signature or the LinearScan
// baseline.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data/transaction.h"
#include "exec/query_api.h"

namespace perfbench {

/// The benchmark's own model of the indexed collection: item sets by tid
/// (tids are dense from 0) and which tids are live.
class Corpus {
 public:
  void Put(const sgtree::Transaction& txn);
  void Erase(uint64_t tid);
  bool live(uint64_t tid) const { return tid < live_.size() && live_[tid]; }
  const std::vector<sgtree::ItemId>& items(uint64_t tid) const {
    return items_[tid];
  }
  uint64_t live_count() const { return live_count_; }
  /// One past the largest tid ever stored.
  uint64_t tid_end() const { return items_.size(); }

 private:
  std::vector<std::vector<sgtree::ItemId>> items_;
  std::vector<uint8_t> live_;
  uint64_t live_count_ = 0;
};

/// |a XOR b| of two sorted item sets.
uint32_t HammingDistance(const std::vector<sgtree::ItemId>& a,
                         const std::vector<sgtree::ItemId>& b);

/// Property checks of one answer: recomputed distances, (distance, tid)
/// order, k-NN length, range bound, predicate of every id, no unknown or
/// dead tid. Returns "" when the answer passes, else the first violation.
std::string CheckProperties(const Corpus& corpus, const Query& query,
                            const sgtree::QueryResult& result);

/// Exact comparison with a brute-force scan over every live tid: the
/// (distance, tid) list for k-NN and range, the id set for predicates.
std::string CheckBruteForce(const Corpus& corpus, const Query& query,
                            const sgtree::QueryResult& result);

/// Same answer, element for element (used for repeated pool keys).
bool SameAnswer(const sgtree::QueryResult& a, const sgtree::QueryResult& b);

/// Feeds the two checks a correct answer, the same answer with one value
/// altered, and the same answer with one row dropped. Returns "" when the
/// correct answer passes and both damaged ones are rejected.
std::string SelfTest(const Corpus& corpus, const Query& query,
                     const sgtree::QueryResult& correct);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
