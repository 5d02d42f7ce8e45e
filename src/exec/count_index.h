// Exact columnar COUNT(*) oracle for labeling single-table workloads.
//
// Built once per table (GenerateWorkload builds one per call and frees
// it on return). For every column it keeps the row permutation that
// sorts the column by value (NaN cells last) and, in one row-major
// matrix, each row's position in every column's permutation (its rank).
// A predicate [lo, hi] on a column then maps, by two binary searches
// through the permutation, to a contiguous rank range whose width is the
// predicate's exact count. A multi-predicate query walks the rows of its
// narrowest range and tests the other predicates on those rows' ranks:
// O(log n) per predicate plus O(min count) per query, instead of a full
// scan per predicate.
//
// Memory: 8 bytes per cell (a uint32 permutation entry and a uint32
// rank), no copy of the values. Counts equal CountMatches (exec/scan.h)
// bit for bit, including NaN cells and bounds (NaN never matches), empty
// ranges (lo > hi) and infinite bounds.
#ifndef CONFCARD_EXEC_COUNT_INDEX_H_
#define CONFCARD_EXEC_COUNT_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

class CountIndex {
 public:
  /// Builds the index over `table`, one column per ParallelFor task.
  /// `table` must outlive the index.
  explicit CountIndex(const Table& table);

  /// Exact COUNT(*) of `query`; equal to CountMatches(table, query).
  uint64_t Count(const Query& query) const;

  /// Counts `queries[0..n)` into the pre-sized `out[0..n)` under
  /// ParallelFor. Results do not depend on the thread count.
  void CountBatch(const Query* queries, size_t n, uint64_t* out) const;

 private:
  // A predicate's matches as a half-open range of ranks in its column.
  struct Term {
    uint32_t column;
    uint32_t begin;
    uint32_t end;
  };

  Term Resolve(const Predicate& p) const;
  uint64_t Count(const Query& query, std::vector<Term>* terms) const;

  const Table& table_;
  size_t rows_ = 0;
  size_t cols_ = 0;
  // Column-major: order_[c * rows_ + i] is the row holding column c's
  // i-th smallest value; non-NaN values fill the first non_nan_[c] slots.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> non_nan_;
  // Row-major: rank_[r * cols_ + c] is row r's position in column c's
  // order, so one row's ranks share a cache line.
  std::vector<uint32_t> rank_;
};

}  // namespace confcard

#endif  // CONFCARD_EXEC_COUNT_INDEX_H_
