#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "nn/simd.h"

namespace confcard {
namespace nn {

Tensor::Tensor(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor Tensor::Uninitialized(size_t rows, size_t cols) {
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.resize(rows * cols);  // default-init allocator: no zero-fill
  return t;
}

Tensor Tensor::Randn(size_t rows, size_t cols, float stddev, Rng& rng) {
  Tensor t = Uninitialized(rows, cols);
  for (float& v : t.data_) {
    v = stddev * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

Tensor Tensor::HeInit(size_t fan_in, size_t fan_out, Rng& rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Randn(fan_in, fan_out, stddev, rng);
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

void Tensor::Add(const Tensor& other) {
  CONFCARD_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Scale(float s) {
  for (float& v : data_) v *= s;
}

namespace {

// Products smaller than this many flops run serially: pool dispatch
// costs a few microseconds, which swamps tiny GEMMs (e.g. single-query
// inference rows).
constexpr size_t kMinFlopsToParallelize = size_t{1} << 18;

// Output-row chunk aligned to the 4-row micro block, so the grouping of
// rows into blocks — and therefore the zero-block skip decisions — is
// identical at every thread count.
size_t RowChunk(size_t rows) {
  const size_t threads = static_cast<size_t>(std::max(1, CurrentThreads()));
  size_t chunk = std::max<size_t>(1, rows / (threads * 4));
  return (chunk + 3) & ~size_t{3};
}

template <typename Kernel>
void ForEachRowBlock(size_t rows, size_t flops, const Kernel& kernel) {
  if (flops >= kMinFlopsToParallelize && rows >= 8) {
    ParallelFor(rows, RowChunk(rows), kernel);
  } else {
    kernel(0, rows);
  }
}

// C[r0:r1) = A[r0:r1) * B. Four output rows share one streaming pass
// over B; each row's element is still a p-ascending sum, so values are
// bit-identical to the single-row loop. The zero test skips fully-zero
// blocks of A (one-hot Naru inputs), matching the naive kernel's
// per-row skip exactly for finite B.
void MatMulRows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                size_t r1) {
  const size_t k = a.cols(), m = b.cols();
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* a0 = a.RowPtr(i);
    const float* a1 = a.RowPtr(i + 1);
    const float* a2 = a.RowPtr(i + 2);
    const float* a3 = a.RowPtr(i + 3);
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));  // rows are contiguous
    for (size_t p = 0; p < k; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) {
        const float bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[r0:r1) of C = A^T * B: output row i reads column i of A. Blocked
// four columns at a time so B streams once per block; per-element sums
// stay p-ascending, matching the p-outer naive loop bit for bit.
void MatMulTransARows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                      size_t r1) {
  const size_t k = a.rows(), m = b.cols();
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a.RowPtr(p);
      const float v0 = arow[i], v1 = arow[i + 1], v2 = arow[i + 2],
                  v3 = arow[i + 3];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) {
        const float bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < r1; ++i) {
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = a.At(p, i);
      if (av == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[r0:r1) of C = A * B^T: independent dot products; four B rows share
// one streaming pass over the A row. Accumulators are per-element, so
// the j-blocking cannot change any value.
void MatMulTransBRows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                      size_t r1) {
  const size_t k = a.cols(), m = b.rows();
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const float* b0 = b.RowPtr(j);
      const float* b1 = b.RowPtr(j + 1);
      const float* b2 = b.RowPtr(j + 2);
      const float* b3 = b.RowPtr(j + 3);
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < m; ++j) {
      const float* brow = b.RowPtr(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------
// Vector variants. Bit identity with the scalar kernels above rests on
// two invariants: (1) vector lanes only span independent OUTPUT columns
// (the j dimension), so every output element still accumulates its
// p-terms one at a time in ascending p order with one rounding per
// mul and per add (simd.h lane ops never fuse); (2) the outer blocking
// — 4-row micro blocks and their zero-skip tests in MatMul/MatMulTransA
// — is copied verbatim from the scalar kernels, so exactly the same
// terms are skipped. Guarded by `if constexpr (kHaveNativeLanes)` at
// the dispatch sites so scalar-only builds never instantiate them.
// ---------------------------------------------------------------------

// Broadcast-row inner sweep shared by the MatMul and MatMulTransA
// vector kernels: c{0..3}[j..j+W) += v{0..3} * brow[j..j+W), j-tail
// scalar. Identical arithmetic per element to the scalar j-loop.
template <typename L>
inline void AccumulateBlock4(const float* brow, size_t m, float v0, float v1,
                             float v2, float v3, float* c0, float* c1,
                             float* c2, float* c3) {
  constexpr size_t W = L::kWidth;
  const typename L::Vec bv0 = L::Broadcast(v0);
  const typename L::Vec bv1 = L::Broadcast(v1);
  const typename L::Vec bv2 = L::Broadcast(v2);
  const typename L::Vec bv3 = L::Broadcast(v3);
  size_t j = 0;
  for (; j + W <= m; j += W) {
    const typename L::Vec bj = L::Load(brow + j);
    L::Store(c0 + j, L::Add(L::Load(c0 + j), L::Mul(bv0, bj)));
    L::Store(c1 + j, L::Add(L::Load(c1 + j), L::Mul(bv1, bj)));
    L::Store(c2 + j, L::Add(L::Load(c2 + j), L::Mul(bv2, bj)));
    L::Store(c3 + j, L::Add(L::Load(c3 + j), L::Mul(bv3, bj)));
  }
  for (; j < m; ++j) {
    const float bj = brow[j];
    c0[j] += v0 * bj;
    c1[j] += v1 * bj;
    c2[j] += v2 * bj;
    c3[j] += v3 * bj;
  }
}

template <typename L>
inline void AccumulateRow(const float* brow, size_t m, float av, float* crow) {
  constexpr size_t W = L::kWidth;
  const typename L::Vec bav = L::Broadcast(av);
  size_t j = 0;
  for (; j + W <= m; j += W) {
    L::Store(crow + j, L::Add(L::Load(crow + j), L::Mul(bav, L::Load(brow + j))));
  }
  for (; j < m; ++j) crow[j] += av * brow[j];
}

template <typename L>
void MatMulRowsVec(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                   size_t r1) {
  const size_t k = a.cols(), m = b.cols();
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* a0 = a.RowPtr(i);
    const float* a1 = a.RowPtr(i + 1);
    const float* a2 = a.RowPtr(i + 2);
    const float* a3 = a.RowPtr(i + 3);
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      AccumulateBlock4<L>(b.RowPtr(p), m, v0, v1, v2, v3, c0, c1, c2, c3);
    }
  }
  for (; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      AccumulateRow<L>(b.RowPtr(p), m, av, crow);
    }
  }
}

template <typename L>
void MatMulTransARowsVec(const Tensor& a, const Tensor& b, Tensor* c,
                         size_t r0, size_t r1) {
  const size_t k = a.rows(), m = b.cols();
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a.RowPtr(p);
      const float v0 = arow[i], v1 = arow[i + 1], v2 = arow[i + 2],
                  v3 = arow[i + 3];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      AccumulateBlock4<L>(b.RowPtr(p), m, v0, v1, v2, v3, c0, c1, c2, c3);
    }
  }
  for (; i < r1; ++i) {
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = a.At(p, i);
      if (av == 0.0f) continue;
      AccumulateRow<L>(b.RowPtr(p), m, av, crow);
    }
  }
}

// Dot-product kernel: W independent accumulator lanes, one per output
// column j..j+W. For each W-wide strip of p, LoadTransposed turns the
// W x W tile of B (rows j.., cols p..) into W column vectors so lane t
// receives B[j+t][p] — each lane's sum is still one term per p in
// ascending order, exactly the scalar accumulator's sequence. The
// p-tail spills the vector accumulator and continues scalar per lane,
// preserving that order; the j-tail is the scalar dot product.
template <typename L>
void MatMulTransBRowsVec(const Tensor& a, const Tensor& b, Tensor* c,
                         size_t r0, size_t r1) {
  constexpr size_t W = L::kWidth;
  const size_t k = a.cols(), m = b.rows();
  const size_t bstride = b.cols();  // == k
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    size_t j = 0;
    for (; j + W <= m; j += W) {
      const float* btile = b.RowPtr(j);
      typename L::Vec acc = L::Zero();
      typename L::Vec bcols[W];
      size_t p = 0;
      for (; p + W <= k; p += W) {
        L::LoadTransposed(btile + p, bstride, bcols);
        for (size_t t = 0; t < W; ++t) {
          acc = L::Add(acc, L::Mul(L::Broadcast(arow[p + t]), bcols[t]));
        }
      }
      if (p < k) {
        alignas(32) float accs[W];
        L::Store(accs, acc);
        for (size_t t = 0; t < W; ++t) {
          const float* brow = btile + t * bstride;
          float lane = accs[t];
          for (size_t q = p; q < k; ++q) lane += arow[q] * brow[q];
          crow[j + t] = lane;
        }
      } else {
        L::Store(crow + j, acc);
      }
    }
    for (; j < m; ++j) {
      const float* brow = b.RowPtr(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// One register tile of AffineRows: R rows x CV vectors of W columns,
// starting at column j of W/b/y. The accumulators acc[R][CV] live in
// registers across the whole p loop; every term is masked rather than
// skipped. Masking cannot change a bit: an accumulator that starts at
// +0 never becomes -0 (a sum is -0 only if both addends are -0, and an
// exact cancellation rounds to +0), and x + (+0) == x for every x other
// than -0 — so adding the masked +0 leaves it exactly as skipping the
// term did, while an inf/NaN weight facing a zero input still adds
// nothing. A NaN input is not masked (NaN != 0), as it was not skipped.
template <typename L, size_t R, size_t CV>
inline void AffineTile(const float* x, size_t k, const float* w, size_t m,
                       const float* b, bool relu, float* y) {
  using Vec = typename L::Vec;
  constexpr size_t W = L::kWidth;
  Vec acc[R][CV];
  for (size_t r = 0; r < R; ++r) {
    for (size_t c = 0; c < CV; ++c) acc[r][c] = L::Zero();
  }
  for (size_t p = 0; p < k; ++p) {
    Vec wv[CV];
    for (size_t c = 0; c < CV; ++c) wv[c] = L::Load(w + p * m + c * W);
    for (size_t r = 0; r < R; ++r) {
      const Vec a = L::Broadcast(x[r * k + p]);
      const Vec keep = L::NonZeroMask(a);
      for (size_t c = 0; c < CV; ++c) {
        acc[r][c] = L::Add(acc[r][c], L::And(keep, L::Mul(a, wv[c])));
      }
    }
  }
  for (size_t c = 0; c < CV; ++c) {
    const Vec bv = L::Load(b + c * W);
    for (size_t r = 0; r < R; ++r) {
      const Vec v = L::Add(acc[r][c], bv);
      L::Store(y + r * m + c * W, relu ? L::Relu(v) : v);
    }
  }
}

// R rows, every column of W: wide tiles, then single vectors, then the
// scalar column tail — the same per-element sequence at every width.
template <typename L, size_t R>
void AffineTileRows(const float* x, size_t k, const float* w, size_t m,
                    const float* b, bool relu, float* y) {
  constexpr size_t W = L::kWidth;
  constexpr size_t CV = R <= 2 ? 4 : 2;  // R * CV accumulators
  size_t j = 0;
  for (; j + CV * W <= m; j += CV * W) {
    AffineTile<L, R, CV>(x, k, w + j, m, b + j, relu, y + j);
  }
  for (; j + W <= m; j += W) {
    AffineTile<L, R, 1>(x, k, w + j, m, b + j, relu, y + j);
  }
  for (; j < m; ++j) {
    AffineTile<simd::ScalarLanes, R, 1>(x, k, w + j, m, b + j, relu, y + j);
  }
}

template <typename L>
void AffineRowsImpl(const float* x, size_t n, size_t k, const float* w,
                    size_t m, const float* b, bool relu, float* y) {
  static_assert(kAffineTileRows == 4);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    AffineTileRows<L, 4>(x + i * k, k, w, m, b, relu, y + i * m);
  }
  x += i * k;
  y += i * m;
  switch (n - i) {
    case 3: AffineTileRows<L, 3>(x, k, w, m, b, relu, y); break;
    case 2: AffineTileRows<L, 2>(x, k, w, m, b, relu, y); break;
    case 1: AffineTileRows<L, 1>(x, k, w, m, b, relu, y); break;
    default: break;
  }
}

}  // namespace

void AffineRows(const float* x, size_t n, const Tensor& w, const float* b,
                bool relu, float* y) {
  const size_t k = w.rows(), m = w.cols();
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      AffineRowsImpl<simd::NativeLanes>(x, n, k, w.RowPtr(0), m, b, relu, y);
      return;
    }
  }
  AffineRowsImpl<simd::ScalarLanes>(x, n, k, w.RowPtr(0), m, b, relu, y);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.cols() == b.rows());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        MatMulRowsVec<simd::NativeLanes>(a, b, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulRows(a, b, &c, r0, r1);
  });
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.rows() == b.rows());
  const size_t k = a.rows(), n = a.cols(), m = b.cols();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        MatMulTransARowsVec<simd::NativeLanes>(a, b, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulTransARows(a, b, &c, r0, r1);
  });
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.cols() == b.cols());
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        MatMulTransBRowsVec<simd::NativeLanes>(a, b, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulTransBRows(a, b, &c, r0, r1);
  });
  return c;
}

}  // namespace nn
}  // namespace confcard
