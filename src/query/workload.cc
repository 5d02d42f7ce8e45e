#include "query/workload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

#include "common/rng.h"
#include "exec/count_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/predicate.h"

namespace confcard {
namespace {

Status Validate(const Table& table, const WorkloadConfig& cfg) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot generate workload on empty table");
  }
  if (cfg.min_predicates < 1 || cfg.max_predicates < cfg.min_predicates) {
    return Status::InvalidArgument("bad predicate count range");
  }
  if (cfg.range_prob < 0.0 || cfg.range_prob > 1.0) {
    return Status::InvalidArgument("range_prob must be in [0,1]");
  }
  if (cfg.max_range_frac <= 0.0 || cfg.max_range_frac > 1.0) {
    return Status::InvalidArgument("max_range_frac must be in (0,1]");
  }
  if (cfg.min_selectivity > cfg.max_selectivity) {
    return Status::InvalidArgument("empty selectivity window");
  }
  for (int c : cfg.allowed_columns) {
    if (c < 0 || static_cast<size_t>(c) >= table.num_columns()) {
      return Status::OutOfRange("allowed column index out of range");
    }
  }
  return Status::OK();
}

// Candidates labeled per CountBatch call. Labels never feed back into
// drawing, so the batch size changes only how many surplus candidates
// are labeled after the workload fills, never the workload itself.
constexpr size_t kLabelBatch = 256;

}  // namespace

Result<Workload> GenerateWorkload(const Table& table,
                                  const WorkloadConfig& cfg) {
  CONFCARD_RETURN_NOT_OK(Validate(table, cfg));
  static obs::Histogram& label_us =
      obs::Metrics().GetHistogram("query.label_us");
  obs::ScopedTimer timer("query.label", nullptr, &label_us);
  Rng rng(cfg.seed);

  std::vector<int> columns = cfg.allowed_columns;
  if (columns.empty()) {
    for (size_t i = 0; i < table.num_columns(); ++i) {
      columns.push_back(static_cast<int>(i));
    }
  }
  const int max_preds =
      std::min<int>(cfg.max_predicates, static_cast<int>(columns.size()));
  const int min_preds = std::min(cfg.min_predicates, max_preds);

  auto draw = [&] {
    // Choose predicate columns without replacement.
    std::vector<int> cols = columns;
    rng.Shuffle(cols);
    int k = static_cast<int>(
        rng.NextInt64(min_preds, max_preds));
    cols.resize(static_cast<size_t>(k));
    std::sort(cols.begin(), cols.end());

    // Literal source: a data tuple or a uniform draw.
    size_t center_row = 0;
    if (cfg.center_mode == CenterMode::kDataCentered) {
      center_row = static_cast<size_t>(rng.NextUint64(table.num_rows()));
    }

    Query q;
    for (int c : cols) {
      const Column& col = table.column(static_cast<size_t>(c));
      double center;
      if (cfg.center_mode == CenterMode::kDataCentered) {
        center = col[center_row];
      } else if (col.is_categorical()) {
        center = static_cast<double>(
            rng.NextUint64(static_cast<uint64_t>(col.domain_size())));
      } else {
        center = rng.NextDouble(col.min_value(), col.max_value());
      }

      const bool use_range =
          !col.is_categorical() && rng.NextDouble() < cfg.range_prob;
      if (!use_range) {
        q.predicates.push_back(Predicate::Eq(c, center));
      } else {
        double span = col.max_value() - col.min_value();
        if (span <= 0.0) span = 1.0;
        double half = rng.NextDouble(0.0, cfg.max_range_frac) * span;
        q.predicates.push_back(
            Predicate::Between(c, center - half, center + half));
      }
    }
    return q;
  };

  const CountIndex index(table);
  const double num_rows = static_cast<double>(table.num_rows());
  Workload out;
  out.reserve(cfg.num_queries);
  std::unordered_set<std::string> seen;
  const size_t budget = cfg.num_queries * 10 + 100;
  std::vector<Query> batch;
  std::vector<uint64_t> counts;
  size_t attempt = 0;
  uint64_t examined = 0;
  while (attempt < budget && out.size() < cfg.num_queries) {
    // Draw and dedup serially, in the RNG order of a one-at-a-time loop.
    batch.clear();
    while (attempt < budget && batch.size() < kLabelBatch) {
      ++attempt;
      Query q = draw();
      if (cfg.dedup && !seen.insert(ToString(q)).second) continue;
      batch.push_back(std::move(q));
    }
    counts.resize(batch.size());
    index.CountBatch(batch.data(), batch.size(), counts.data());
    // Accept in draw order until the workload is full.
    for (size_t i = 0; i < batch.size() && out.size() < cfg.num_queries;
         ++i) {
      ++examined;
      const double card = static_cast<double>(counts[i]);
      const double sel = card / num_rows;
      if (sel < cfg.min_selectivity || sel > cfg.max_selectivity) continue;
      out.push_back(LabeledQuery{std::move(batch[i]), card, num_rows});
    }
  }
  obs::Metrics().GetCounter("query.label.candidates").Increment(examined);
  obs::Metrics().GetCounter("query.label.accepted").Increment(out.size());
  return out;
}

}  // namespace confcard
