// Exact single-table evaluation of conjunctive predicates by columnar
// scan. CountMatches is the reference oracle: workloads are labeled
// through CountIndex (exec/count_index.h), which must equal it on every
// query, and benches and tests check labels against it. FilterIndices
// materializes survivors for the join executor.
#ifndef CONFCARD_EXEC_SCAN_H_
#define CONFCARD_EXEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

/// Exact COUNT(*) of `query` over `table`, by a branch-free blocked
/// scan that builds no survivor list.
uint64_t CountMatches(const Table& table, const Query& query);

/// Row indices satisfying `query`, in ascending order.
std::vector<uint32_t> FilterIndices(const Table& table, const Query& query);

/// Row indices of `candidates` that additionally satisfy `query`.
std::vector<uint32_t> FilterIndices(const Table& table, const Query& query,
                                    const std::vector<uint32_t>& candidates);

}  // namespace confcard

#endif  // CONFCARD_EXEC_SCAN_H_
