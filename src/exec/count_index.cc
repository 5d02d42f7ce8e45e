#include "exec/count_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace confcard {
namespace {

// Stable counting sort of a categorical column's rows by code. Returns
// false, leaving `order` untouched, if a cell is not a code in
// [0, domain) or the domain outnumbers the rows.
bool CountingSortCodes(const Column& col, uint32_t* order) {
  const std::vector<double>& data = col.data();
  const int64_t domain = col.domain_size();
  if (!col.is_categorical() || domain <= 0 ||
      static_cast<size_t>(domain) > data.size()) {
    return false;
  }
  std::vector<uint32_t> start(static_cast<size_t>(domain) + 1, 0);
  for (double v : data) {
    if (!(v >= 0.0 && v < static_cast<double>(domain)) || v != std::floor(v)) {
      return false;
    }
    ++start[static_cast<size_t>(v) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  for (size_t r = 0; r < data.size(); ++r) {
    order[start[static_cast<size_t>(data[r])]++] = static_cast<uint32_t>(r);
  }
  return true;
}

// Fills `order` with the column's rows in one total order: by value with
// NaN last, ties by ascending row. The rows of one value then ascend, so
// walking them reads the rank matrix front to back.
void SortRows(const Column& col, uint32_t* order) {
  if (CountingSortCodes(col, order)) return;
  const double* data = col.data().data();
  const size_t rows = col.size();
  std::iota(order, order + rows, 0u);
  std::sort(order, order + rows, [data](uint32_t a, uint32_t b) {
    const double x = data[a], y = data[b];
    const bool x_nan = std::isnan(x), y_nan = std::isnan(y);
    if (x_nan != y_nan) return y_nan;
    if (x_nan || x == y) return a < b;
    return x < y;
  });
}

}  // namespace

CountIndex::CountIndex(const Table& table)
    : table_(table), rows_(table.num_rows()), cols_(table.num_columns()) {
  CONFCARD_CHECK(rows_ < std::numeric_limits<uint32_t>::max());
  Stopwatch watch;
  order_.resize(rows_ * cols_);
  rank_.resize(rows_ * cols_);
  non_nan_.resize(cols_);
  ParallelFor(cols_, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const double* data = table_.column(c).data().data();
      uint32_t* order = order_.data() + c * rows_;
      SortRows(table_.column(c), order);
      const uint32_t* nan_begin = std::partition_point(
          order, order + rows_,
          [data](uint32_t r) { return !std::isnan(data[r]); });
      non_nan_[c] = static_cast<uint32_t>(nan_begin - order);
      for (size_t i = 0; i < rows_; ++i) {
        rank_[order[i] * cols_ + c] = static_cast<uint32_t>(i);
      }
    }
  });
  static obs::Histogram& build_us =
      obs::Metrics().GetHistogram("exec.count_index.build_us");
  build_us.Record(watch.ElapsedMicros());
}

CountIndex::Term CountIndex::Resolve(const Predicate& p) const {
  CONFCARD_DCHECK(p.column >= 0 && static_cast<size_t>(p.column) < cols_);
  const uint32_t c = static_cast<uint32_t>(p.column);
  // Also rejects NaN bounds, which match no cell.
  if (!(p.lo <= p.hi)) return Term{c, 0, 0};
  const double* data = table_.column(c).data().data();
  const uint32_t* order = order_.data() + c * rows_;
  const uint32_t* last = order + non_nan_[c];
  const double lo = p.lo, hi = p.hi;
  const uint32_t* first_in = std::partition_point(
      order, last, [&](uint32_t r) { return data[r] < lo; });
  const uint32_t* first_above = std::partition_point(
      first_in, last, [&](uint32_t r) { return data[r] <= hi; });
  return Term{c, static_cast<uint32_t>(first_in - order),
              static_cast<uint32_t>(first_above - order)};
}

uint64_t CountIndex::Count(const Query& query) const {
  std::vector<Term> terms;
  return Count(query, &terms);
}

uint64_t CountIndex::Count(const Query& query,
                           std::vector<Term>* terms) const {
  if (query.predicates.empty()) return rows_;
  terms->clear();
  for (const Predicate& p : query.predicates) {
    terms->push_back(Resolve(p));
    if (terms->back().begin >= terms->back().end) return 0;
  }
  // Walk the narrowest range; test the rest on each row's ranks.
  auto narrowest = std::min_element(
      terms->begin(), terms->end(), [](const Term& a, const Term& b) {
        return a.end - a.begin < b.end - b.begin;
      });
  std::iter_swap(terms->begin(), narrowest);
  const Term drive = terms->front();
  if (terms->size() == 1) return drive.end - drive.begin;
  const uint32_t* order = order_.data() + drive.column * rows_;
  const Term* rest = terms->data() + 1;
  const size_t num_rest = terms->size() - 1;
  constexpr uint32_t kPrefetch = 16;
  uint64_t count = 0;
  for (uint32_t i = drive.begin; i < drive.end; ++i) {
    // The walk's rank rows are scattered; fetch a few rows ahead.
    if (i + kPrefetch < drive.end) {
      __builtin_prefetch(rank_.data() +
                         static_cast<size_t>(order[i + kPrefetch]) * cols_);
    }
    const uint32_t* ranks =
        rank_.data() + static_cast<size_t>(order[i]) * cols_;
    uint32_t match = 1;
    for (size_t k = 0; k < num_rest; ++k) {
      // Unsigned wrap-around folds begin <= rank < end into one compare.
      match &= (ranks[rest[k].column] - rest[k].begin) <
               (rest[k].end - rest[k].begin);
    }
    count += match;
  }
  return count;
}

void CountIndex::CountBatch(const Query* queries, size_t n,
                            uint64_t* out) const {
  ParallelFor(n, 0, [&](size_t begin, size_t end) {
    std::vector<Term> terms;
    for (size_t i = begin; i < end; ++i) out[i] = Count(queries[i], &terms);
  });
}

}  // namespace confcard
