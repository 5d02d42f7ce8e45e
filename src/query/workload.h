// Unified single-table workload generator, after the generator of
// "Are we ready for learned cardinality estimation?" (Wang et al., VLDB
// 2021) that the paper uses: data-centered predicate values, mixed
// point/range predicates, configurable predicate counts, deduplication.
#ifndef CONFCARD_QUERY_WORKLOAD_H_
#define CONFCARD_QUERY_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

/// How predicate literals are drawn.
enum class CenterMode {
  /// Literals come from a random data tuple (queries tend to be
  /// non-empty; the standard setting of the unified generator).
  kDataCentered,
  /// Literals drawn uniformly from each column's domain (produces many
  /// empty/low-cardinality queries; used for the workload-shift
  /// experiment of Figure 11).
  kUniform,
};

/// Generator configuration.
struct WorkloadConfig {
  size_t num_queries = 1000;
  /// Number of predicates drawn uniformly in [min_predicates,
  /// max_predicates] (clamped to the column count).
  int min_predicates = 1;
  int max_predicates = 4;
  /// Probability that a numeric column gets a range predicate rather
  /// than a point predicate. Categorical columns always get equality.
  double range_prob = 0.8;
  /// Maximum half-width of a range, as a fraction of the column domain.
  double max_range_frac = 0.15;
  CenterMode center_mode = CenterMode::kDataCentered;
  /// Columns eligible for predicates (empty = all columns).
  std::vector<int> allowed_columns;
  /// Drop duplicate queries (regenerating replacements, with a retry cap).
  bool dedup = true;
  /// Keep only queries with true selectivity within [min_selectivity,
  /// max_selectivity]. The paper's plots focus on selectivity < 0.1.
  double min_selectivity = 0.0;
  double max_selectivity = 1.0;
  uint64_t seed = 101;
};

/// Generates a labeled workload over `table`; true cardinalities are
/// exact, counted in parallel batches through a CountIndex built for
/// the call (exec/count_index.h). The result does not depend on the
/// thread count. May return fewer than
/// `num_queries` queries if the selectivity filter + dedup exhaust the
/// retry budget (10x oversampling).
Result<Workload> GenerateWorkload(const Table& table,
                                  const WorkloadConfig& config);

}  // namespace confcard

#endif  // CONFCARD_QUERY_WORKLOAD_H_
