// MSCN network internals exercised through its public surface: set
// packing/pooling edge cases (empty sets, variable sizes), batch
// consistency, quantile-loss training, determinism. Inputs are packed
// with MscnModel::Pack, the routine training packs its minibatches with.
#include "ce/mscn_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace confcard {
namespace {

MscnInput MakeInput(Rng& rng, size_t table_dim, size_t join_dim,
                    size_t pred_dim, size_t num_preds) {
  MscnInput in;
  auto vec = [&](size_t dim) {
    std::vector<float> v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextDouble());
    return v;
  };
  in.tables.push_back(vec(table_dim));
  (void)join_dim;
  for (size_t p = 0; p < num_preds; ++p) {
    in.predicates.push_back(vec(pred_dim));
  }
  return in;
}

// Log-cardinality of one input: a packed batch of one.
double Predict(const MscnModel& model, const MscnInput& input) {
  double out = 0.0;
  model.PredictLogCardPacked(model.Pack({&input}), &out);
  return out;
}

MscnConfig FastConfig() {
  MscnConfig cfg;
  cfg.set_hidden = 16;
  cfg.final_hidden = 16;
  cfg.epochs = 40;
  cfg.batch_size = 16;
  return cfg;
}

TEST(MscnModelTest, TrainsOnSetSizeSignal) {
  // Target = number of predicates; the mean-pooled predicate module
  // cannot count directly, but the table vector is constant so the
  // model must pick the signal up from the predicate features we plant.
  Rng rng(1);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 400; ++i) {
    size_t k = 1 + rng.NextUint64(3);
    MscnInput in = MakeInput(rng, 3, 1, 4, k);
    for (auto& p : in.predicates) {
      p[0] = static_cast<float>(k) / 4.0f;  // plant the signal
    }
    inputs.push_back(std::move(in));
    targets.push_back(static_cast<double>(k));
  }
  MscnModel model(3, 1, 4, FastConfig());
  ASSERT_TRUE(model.Train(inputs, targets).ok());
  double mse = 0.0;
  for (size_t i = 0; i < 50; ++i) {
    double p = Predict(model, inputs[i]);
    mse += (p - targets[i]) * (p - targets[i]);
  }
  EXPECT_LT(mse / 50.0, 0.5);
}

TEST(MscnModelTest, HandlesEmptyPredicateSet) {
  Rng rng(2);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 64; ++i) {
    // Half the queries have no predicates at all.
    inputs.push_back(MakeInput(rng, 3, 1, 4, i % 2 == 0 ? 0 : 2));
    targets.push_back(i % 2 == 0 ? 5.0 : 1.0);
  }
  MscnModel model(3, 1, 4, FastConfig());
  ASSERT_TRUE(model.Train(inputs, targets).ok());
  // Empty-set queries pool to zero and should still separate from the
  // others.
  MscnInput empty = MakeInput(rng, 3, 1, 4, 0);
  MscnInput full = MakeInput(rng, 3, 1, 4, 2);
  EXPECT_GT(Predict(model, empty), Predict(model, full));
}

TEST(MscnModelTest, PredictionIndependentOfBatchContext) {
  // Predicting the same input alone must match the value it got when it
  // was trained alongside others (forward has no cross-sample state).
  Rng rng(3);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 32; ++i) {
    inputs.push_back(MakeInput(rng, 3, 1, 4, 1 + (i % 3)));
    targets.push_back(static_cast<double>(i % 5));
  }
  MscnModel model(3, 1, 4, FastConfig());
  ASSERT_TRUE(model.Train(inputs, targets).ok());
  double a = Predict(model, inputs[0]);
  // Interleave other predictions and re-ask.
  (void)Predict(model, inputs[5]);
  (void)Predict(model, inputs[9]);
  double b = Predict(model, inputs[0]);
  EXPECT_DOUBLE_EQ(a, b);

  // Packed together (set sizes 0..3), every slot keeps its batch-of-one
  // bits.
  inputs.push_back(MakeInput(rng, 3, 1, 4, 0));
  std::vector<const MscnInput*> batch;
  for (const MscnInput& in : inputs) batch.push_back(&in);
  std::vector<double> packed(batch.size());
  model.PredictLogCardPacked(model.Pack(batch), packed.data());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(packed[i], Predict(model, inputs[i])) << "input " << i;
  }
}

TEST(MscnModelTest, DeterministicBySeed) {
  Rng rng(4);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(MakeInput(rng, 3, 1, 4, 2));
    targets.push_back(static_cast<double>(i % 7));
  }
  MscnModel a(3, 1, 4, FastConfig());
  MscnModel b(3, 1, 4, FastConfig());
  ASSERT_TRUE(a.Train(inputs, targets).ok());
  ASSERT_TRUE(b.Train(inputs, targets).ok());
  EXPECT_DOUBLE_EQ(Predict(a, inputs[0]), Predict(b, inputs[0]));
}

TEST(MscnModelTest, PinballTrainingShiftsPredictions) {
  // Same inputs, noisy targets: the 0.9-quantile head should sit above
  // the 0.1-quantile head.
  Rng rng(5);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  MscnInput proto = MakeInput(rng, 3, 1, 4, 2);
  for (int i = 0; i < 300; ++i) {
    inputs.push_back(proto);
    targets.push_back(10.0 * rng.NextDouble());
  }
  MscnConfig hi_cfg = FastConfig();
  hi_cfg.loss = LossSpec::Pinball(0.9);
  MscnConfig lo_cfg = FastConfig();
  lo_cfg.loss = LossSpec::Pinball(0.1);
  MscnModel hi(3, 1, 4, hi_cfg);
  MscnModel lo(3, 1, 4, lo_cfg);
  ASSERT_TRUE(hi.Train(inputs, targets).ok());
  ASSERT_TRUE(lo.Train(inputs, targets).ok());
  EXPECT_GT(Predict(hi, proto), Predict(lo, proto) + 4.0);
}

TEST(MscnModelTest, RejectsBadTrainingInputs) {
  MscnModel model(3, 1, 4, FastConfig());
  EXPECT_FALSE(model.Train({}, {}).ok());
  Rng rng(6);
  std::vector<MscnInput> one = {MakeInput(rng, 3, 1, 4, 1)};
  EXPECT_FALSE(model.Train(one, {1.0, 2.0}).ok());
}

}  // namespace
}  // namespace confcard
