// Convenience multi-layer perceptron: Dense+ReLU stacks with a linear
// output layer, the architecture shared by the supervised estimators and
// the per-set modules of MSCN.
#ifndef CONFCARD_NN_MLP_H_
#define CONFCARD_NN_MLP_H_

#include <vector>

#include "nn/layers.h"

namespace confcard {
namespace nn {

/// MLP with ReLU activations between layers and a linear final layer.
class Mlp : public Layer {
 public:
  /// `dims` = {in, hidden..., out}; must have at least 2 entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  /// The inference kernel: out[0, n * out_dim) = the network applied to
  /// the n rows of in[0, n * in_dim). Rows go through every layer a tile
  /// of up to kAffineTileRows at a time (AffineRows: register
  /// accumulators, bias and ReLU in registers), the tile's activations
  /// in a fixed stack buffer, so the call allocates nothing. Each row is
  /// bit-identical to Forward's and independent of how the rows are
  /// split across calls. Large batches fan their tiles out across the
  /// thread pool, which cannot change a value.
  void ApplyRows(const float* in, size_t n, float* out) const;
  /// ApplyRows on the rows of a tensor, returning a fresh (n, out_dim)
  /// tensor.
  Tensor Apply(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  // Floats in each of ApplyRows' two stack activation buffers.
  static constexpr size_t kTileFloats = 1024;

  Sequential net_;
  // The Dense layers of net_ in order, for ApplyRows (each hidden Dense
  // is followed by a ReLU). Non-owning; net_ owns the layers.
  std::vector<const Dense*> dense_;
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  // Rows per ApplyRows tile: kAffineTileRows unless a hidden layer is too
  // wide for that many rows in kTileFloats.
  size_t tile_rows_ = 0;
};

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_MLP_H_
