#include "nn/mlp.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"

namespace confcard {
namespace nn {

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  CONFCARD_CHECK(dims.size() >= 2);
  in_dim_ = dims.front();
  out_dim_ = dims.back();
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    auto dense = std::make_unique<Dense>(dims[i], dims[i + 1], rng);
    dense_.push_back(dense.get());
    net_.Append(std::move(dense));
    if (i + 2 < dims.size()) {
      net_.Append(std::make_unique<Relu>());
    }
  }
  size_t widest = 1;  // the widest activation kept between layers
  for (size_t i = 1; i + 1 < dims.size(); ++i) {
    widest = std::max(widest, dims[i]);
  }
  CONFCARD_CHECK_MSG(widest <= kTileFloats, "mlp: hidden layer too wide");
  tile_rows_ = std::min(kAffineTileRows, kTileFloats / widest);
}

Tensor Mlp::Forward(const Tensor& input) { return net_.Forward(input); }

namespace {

// Same threshold as the GEMM kernels (tensor.cc): below this many flops
// pool dispatch costs more than it saves.
constexpr size_t kMinFlopsToParallelize = size_t{1} << 18;

}  // namespace

void Mlp::ApplyRows(const float* in, size_t n, float* out) const {
  const size_t last = dense_.size() - 1;
  const auto run_tiles = [&](size_t t0, size_t t1) {
    alignas(32) float act[2][kTileFloats];
    for (size_t t = t0; t < t1; ++t) {
      const size_t r0 = t * tile_rows_;
      const size_t rows = std::min(tile_rows_, n - r0);
      const float* x = in + r0 * in_dim_;
      for (size_t l = 0; l <= last; ++l) {
        float* y = l == last ? out + r0 * out_dim_ : act[l & 1];
        AffineRows(x, rows, dense_[l]->weight().value,
                   dense_[l]->bias().value.RowPtr(0), l != last, y);
        x = y;
      }
    }
  };
  const size_t tiles = (n + tile_rows_ - 1) / tile_rows_;
  size_t flops = 0;
  for (const Dense* d : dense_) flops += 2 * n * d->in_dim() * d->out_dim();
  if (flops >= kMinFlopsToParallelize && tiles >= 2) {
    ParallelFor(tiles, 0, run_tiles);
  } else {
    run_tiles(0, tiles);
  }
}

Tensor Mlp::Apply(const Tensor& input) const {
  CONFCARD_DCHECK(input.cols() == in_dim_);
  Tensor out = Tensor::Uninitialized(input.rows(), out_dim_);
  ApplyRows(input.RowPtr(0), input.rows(), out.RowPtr(0));
  return out;
}

Tensor Mlp::Backward(const Tensor& grad_output) {
  return net_.Backward(grad_output);
}

std::vector<Parameter*> Mlp::Parameters() { return net_.Parameters(); }

}  // namespace nn
}  // namespace confcard
