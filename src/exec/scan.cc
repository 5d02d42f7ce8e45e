#include "exec/scan.h"

#include "common/check.h"

namespace confcard {
namespace {

// Applies one predicate over the full column, collecting survivors.
void ScanFull(const Column& col, const Predicate& p,
              std::vector<uint32_t>& out) {
  const std::vector<double>& data = col.data();
  const double lo = p.lo, hi = p.hi;
  for (size_t i = 0; i < data.size(); ++i) {
    double v = data[i];
    if (v >= lo && v <= hi) out.push_back(static_cast<uint32_t>(i));
  }
}

// Applies one predicate over previous survivors.
void ScanSelected(const Column& col, const Predicate& p,
                  const std::vector<uint32_t>& in,
                  std::vector<uint32_t>& out) {
  const std::vector<double>& data = col.data();
  const double lo = p.lo, hi = p.hi;
  for (uint32_t idx : in) {
    double v = data[idx];
    if (v >= lo && v <= hi) out.push_back(idx);
  }
}

// Rows per block of the count-only kernel.
constexpr size_t kCountBlock = 256;

// Counts the rows in [base, base + len) that satisfy `query`, branch-free:
// each predicate ANDs its matches into a byte mask, which is then summed.
// Full blocks fix the length as the template argument (kLen != 0); the
// constant trip count is what lets the compiler vectorize the loops.
template <size_t kLen>
uint32_t CountBlock(const Table& table, const Query& query, size_t base,
                    size_t len, uint8_t* mask) {
  if (kLen != 0) len = kLen;
  bool first = true;
  for (const Predicate& p : query.predicates) {
    CONFCARD_DCHECK(p.column >= 0 &&
                    static_cast<size_t>(p.column) < table.num_columns());
    const double* v =
        table.column(static_cast<size_t>(p.column)).data().data() + base;
    const double lo = p.lo, hi = p.hi;
    if (first) {
      for (size_t i = 0; i < len; ++i) mask[i] = (v[i] >= lo) & (v[i] <= hi);
      first = false;
    } else {
      for (size_t i = 0; i < len; ++i) mask[i] &= (v[i] >= lo) & (v[i] <= hi);
    }
  }
  uint32_t count = 0;
  for (size_t i = 0; i < len; ++i) count += mask[i];
  return count;
}

}  // namespace

uint64_t CountMatches(const Table& table, const Query& query) {
  const size_t n = table.num_rows();
  if (query.predicates.empty()) return n;
  uint8_t mask[kCountBlock];
  uint64_t count = 0;
  size_t base = 0;
  for (; base + kCountBlock <= n; base += kCountBlock) {
    count += CountBlock<kCountBlock>(table, query, base, kCountBlock, mask);
  }
  if (base < n) count += CountBlock<0>(table, query, base, n - base, mask);
  return count;
}

std::vector<uint32_t> FilterIndices(const Table& table, const Query& query) {
  std::vector<uint32_t> current, next;
  bool first = true;
  for (const Predicate& p : query.predicates) {
    CONFCARD_DCHECK(p.column >= 0 &&
                    static_cast<size_t>(p.column) < table.num_columns());
    const Column& col = table.column(static_cast<size_t>(p.column));
    next.clear();
    if (first) {
      ScanFull(col, p, next);
      first = false;
    } else {
      ScanSelected(col, p, current, next);
    }
    std::swap(current, next);
    if (current.empty()) break;
  }
  if (first) {  // no predicates: all rows qualify
    current.resize(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      current[i] = static_cast<uint32_t>(i);
    }
  }
  return current;
}

std::vector<uint32_t> FilterIndices(const Table& table, const Query& query,
                                    const std::vector<uint32_t>& candidates) {
  std::vector<uint32_t> current = candidates, next;
  for (const Predicate& p : query.predicates) {
    const Column& col = table.column(static_cast<size_t>(p.column));
    next.clear();
    ScanSelected(col, p, current, next);
    std::swap(current, next);
    if (current.empty()) break;
  }
  return current;
}

}  // namespace confcard
