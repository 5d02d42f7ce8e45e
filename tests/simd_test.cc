// Scalar-vs-SIMD bit identity of every vectorized kernel. The vector
// paths (nn/simd.h) promise byte-identical results to the scalar
// reference kernels at every shape, including the awkward ones: output
// widths hitting every lane-tail residue, reduction depths hitting the
// transpose-tile p-tail, empty tensors, and non-finite values through
// the dense inference kernel (AffineRows). Comparisons are bitwise
// (memcmp), not EXPECT_FLOAT_EQ — the contract is identity, not
// closeness. In a CONFCARD_SIMD=off build SetSimdEnabled(true) is a
// no-op and every case degenerates to scalar-vs-scalar, so the suite
// stays green there by construction.
#include "nn/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/mlp.h"
#include "nn/tensor.h"

namespace confcard {
namespace nn {
namespace {

// Tests flip the process-wide SIMD toggle; restore it on exit so test
// order never matters.
class SimdRestorer {
 public:
  SimdRestorer() : saved_(SimdEnabled()) {}
  ~SimdRestorer() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

void ExpectBitIdentical(const Tensor& ref, const Tensor& got,
                        const char* what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    uint32_t rb, gb;
    std::memcpy(&rb, &ref.data()[i], sizeof(rb));
    std::memcpy(&gb, &got.data()[i], sizeof(gb));
    ASSERT_EQ(rb, gb) << what << " element " << i << ": scalar "
                      << ref.data()[i] << " vs simd " << got.data()[i];
  }
}

// Dense random tensor with a controllable fraction of exact zeros so
// the kernels' zero-skip fast paths get exercised at both settings.
Tensor RandomTensor(size_t rows, size_t cols, double zero_fraction,
                    Rng& rng) {
  Tensor t = Tensor::Uninitialized(rows, cols);
  for (float& v : t.data()) {
    v = rng.NextDouble() < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.NextGaussian());
  }
  return t;
}

// The shape sweep: every output-width residue modulo the compiled lane
// width (tail lanes 0..W-1), reduction depths covering the k==0 /
// k==1 / sub-tile / multi-tile p-loop cases, and empty tensors.
template <typename Fn>
void SweepShapes(const Fn& check) {
  const size_t w = SimdLaneWidth();
  std::vector<size_t> ms;
  for (size_t t = 0; t < w; ++t) ms.push_back(2 * w + t);  // m % w = t
  ms.push_back(1);
  ms.push_back(0);  // empty output
  const std::vector<size_t> ks = {0, 1, 7, 32};
  const std::vector<size_t> ns = {0, 1, 5, 8};
  for (size_t n : ns) {
    for (size_t k : ks) {
      for (size_t m : ms) check(n, k, m);
    }
  }
}

TEST(SimdKernelTest, MatMulBitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(1234);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (n,k) x (k,m); half-zero A exercises the 4-row zero-skip.
    Tensor a = RandomTensor(n, k, 0.5, rng);
    Tensor b = RandomTensor(k, m, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMul(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMul(a, b);
    ExpectBitIdentical(ref, got, "MatMul");
  });
}

TEST(SimdKernelTest, MatMulTransABitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(2345);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (k,n) x (k,m) -> (n,m).
    Tensor a = RandomTensor(k, n, 0.5, rng);
    Tensor b = RandomTensor(k, m, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMulTransA(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMulTransA(a, b);
    ExpectBitIdentical(ref, got, "MatMulTransA");
  });
}

TEST(SimdKernelTest, MatMulTransBBitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(3456);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (n,k) x (m,k) -> (n,m): m is the j-lane dimension, k the
    // transpose-tile dimension — both tails matter here.
    Tensor a = RandomTensor(n, k, 0.0, rng);
    Tensor b = RandomTensor(m, k, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMulTransB(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMulTransB(a, b);
    ExpectBitIdentical(ref, got, "MatMulTransB");
  });
}

// AffineRows on the rows of `in` (a dense layer's inference kernel).
Tensor Affine(const Dense& dense, const Tensor& in, bool relu) {
  Tensor out = Tensor::Uninitialized(in.rows(), dense.out_dim());
  AffineRows(in.data().data(), in.rows(), dense.weight().value,
             dense.bias().value.data().data(), relu, out.data().data());
  return out;
}

// The kernel's documented meaning, one row and one element at a time:
// mul, then add, over ascending p, zero inputs skipped; + bias; clamp.
Tensor NaiveAffine(const Dense& dense, const Tensor& in, bool relu) {
  const Tensor& w = dense.weight().value;
  const float* b = dense.bias().value.data().data();
  Tensor out = Tensor::Uninitialized(in.rows(), w.cols());
  for (size_t i = 0; i < in.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < w.rows(); ++p) {
        const float x = in.At(i, p);
        if (x == 0.0f) continue;
        acc += x * w.At(p, j);
      }
      const float v = acc + b[j];
      out.At(i, j) = relu && v < 0.0f ? 0.0f : v;
    }
  }
  return out;
}

TEST(SimdKernelTest, AffineRowsBitIdenticalIncludingNonFinite) {
  SimdRestorer restore;
  Rng rng(4567);
  const size_t w = SimdLaneWidth();
  for (size_t m : {2 * w + 1, 2 * w + w - 1, size_t{3}}) {
    Dense dense(6, m, rng);
    // Bias sweep must reproduce the scalar clamp on the values the
    // clamp treats specially: -0.0 passes through, NaN stays NaN.
    dense.bias().value.data()[0] = -0.0f;
    if (m > 1) dense.bias().value.data()[1] = 10.0f;
    Tensor in = RandomTensor(9, 6, 0.3, rng);
    in.data()[0] = std::nanf("");
    in.data()[7] = -0.0f;
    for (bool relu : {true, false}) {
      SetSimdEnabled(false);
      Tensor ref = Affine(dense, in, relu);
      SetSimdEnabled(true);
      Tensor got = Affine(dense, in, relu);
      ExpectBitIdentical(ref, got, relu ? "AffineRows+relu" : "AffineRows");
      ExpectBitIdentical(NaiveAffine(dense, in, relu), got, "naive");
    }
  }
}

TEST(SimdKernelTest, AffineRowsMatchesApplyThenRelu) {
  // The fusion identity, across both kernel paths: the register-tiled
  // kernel against the staged GEMM + bias + ReLU chain.
  SimdRestorer restore;
  Rng rng(5678);
  Dense dense(8, 13, rng);
  Tensor in = RandomTensor(10, 8, 0.2, rng);
  Relu relu_layer;
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    ExpectBitIdentical(relu_layer.Apply(dense.Apply(in)),
                       Affine(dense, in, /*relu=*/true), "fusion identity");
    ExpectBitIdentical(dense.Apply(in), Affine(dense, in, /*relu=*/false),
                       "no clamp");
  }
}

// Every register-tile shape: k and m around the lane width and its
// multiples (column blocks, single vectors, scalar tails), n = 1..9
// (every row-tile size and a remainder after full tiles), with exact
// zeros and -0.0 in the input.
TEST(SimdKernelTest, AffineRowsShapeSweepMatchesGemm) {
  SimdRestorer restore;
  Rng rng(7890);
  const std::vector<size_t> dims = {1, 7, 8, 9, 31, 33, 64, 65};
  for (size_t k : dims) {
    for (size_t m : dims) {
      Dense dense(k, m, rng);
      for (float& v : dense.bias().value.data()) {
        v = static_cast<float>(rng.NextGaussian());
      }
      for (size_t n = 1; n <= 9; ++n) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " m=" << m
                                        << " n=" << n);
        Tensor in = RandomTensor(n, k, 0.4, rng);
        in.data()[(n * k) / 2] = -0.0f;
        for (bool relu : {true, false}) {
          SetSimdEnabled(false);
          const Tensor ref = Affine(dense, in, relu);
          const Tensor gemm = relu ? Relu().Apply(dense.Apply(in))
                                   : dense.Apply(in);
          SetSimdEnabled(true);
          const Tensor got = Affine(dense, in, relu);
          ExpectBitIdentical(ref, got, "scalar vs simd");
          ExpectBitIdentical(gemm, got, "gemm vs AffineRows");
        }
      }
    }
  }
}

// The zero skip is a mask, not a dropped branch: an inf weight facing a
// zero (or -0.0) input adds nothing, in one-row tiles and in tiles where
// another row is nonzero at the same p; a NaN input is not skipped.
TEST(SimdKernelTest, AffineRowsInfWeightFacingZeroInputAddsNothing) {
  SimdRestorer restore;
  Rng rng(8901);
  const size_t w = SimdLaneWidth();
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t m : {size_t{1}, w, 2 * w + 3, 4 * w + 1}) {
    const size_t k = 12;
    Dense dense(k, m, rng);
    for (size_t j = 0; j < m; ++j) {
      dense.weight().value.At(2, j) = j % 2 == 0 ? inf : -inf;
      dense.weight().value.At(5, j) = std::nanf("");
    }
    for (size_t n = 1; n <= 9; ++n) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n);
      Tensor in = RandomTensor(n, k, 0.0, rng);
      for (size_t i = 0; i < n; ++i) {
        // Rows alternate between facing the non-finite weights with a
        // zero and with a value, so multi-row tiles mix both.
        if (i % 2 == 0) {
          in.At(i, 2) = i % 4 == 0 ? 0.0f : -0.0f;
          in.At(i, 5) = 0.0f;
        }
      }
      if (n >= 2) in.At(1, 7) = std::nanf("");  // odd rows are non-finite
      for (bool relu : {true, false}) {
        const Tensor want = NaiveAffine(dense, in, relu);
        for (size_t i = 0; i < n; i += 2) {
          for (size_t j = 0; j < m; ++j) {
            ASSERT_TRUE(std::isfinite(want.At(i, j))) << i << "," << j;
          }
        }
        for (bool simd : {false, true}) {
          SetSimdEnabled(simd);
          ExpectBitIdentical(want, Affine(dense, in, relu),
                             simd ? "simd" : "scalar");
        }
      }
    }
  }
}

// Mlp::ApplyRows: bit-identical to the training Forward, on both kernel
// paths, and each row independent of how the rows are split into calls
// (every composition of 9 rows into consecutive calls).
TEST(SimdKernelTest, MlpApplyRowsMatchesForwardUnderEveryRowPartition) {
  SimdRestorer restore;
  Rng rng(9012);
  const size_t w = SimdLaneWidth();
  Mlp mlp({13, 2 * w + 1, 17, 3}, rng);
  const size_t n = 9;
  Tensor in = RandomTensor(n, 13, 0.3, rng);
  in.data()[4] = -0.0f;
  SetSimdEnabled(false);
  const Tensor want = mlp.Forward(in);
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    ExpectBitIdentical(want, mlp.Apply(in), "Apply vs Forward");
    for (uint32_t cuts = 0; cuts < (1u << (n - 1)); ++cuts) {
      Tensor got = Tensor::Uninitialized(n, 3);
      size_t r0 = 0;
      for (size_t r = 1; r <= n; ++r) {
        if (r == n || (cuts >> (r - 1)) & 1u) {
          mlp.ApplyRows(in.RowPtr(r0), r - r0, got.RowPtr(r0));
          r0 = r;
        }
      }
      ExpectBitIdentical(want, got, "row partition");
    }
  }
}

TEST(SimdKernelTest, SparseOneHotGathersBitIdentical) {
  SimdRestorer restore;
  Rng rng(6789);
  const size_t w = SimdLaneWidth();
  const size_t in_dim = 24;
  const size_t out_dim = 3 * w + 1;  // forces a j-tail in every sweep
  // All-ones mask so the gather covers every weight row.
  Tensor ones(in_dim, out_dim);
  ones.Fill(1.0f);
  MaskedDense dense_layer(in_dim, out_dim, ones, rng);

  // Block-sparse rows: ascending indices, varying nnz (incl. empty).
  const size_t rows = 7;
  std::vector<uint32_t> indices;
  std::vector<size_t> offsets = {0};
  Rng idx_rng(42);
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz = r % 4;  // 0..3 set bits per row
    uint32_t base = 0;
    for (size_t t = 0; t < nnz; ++t) {
      base += 1 + static_cast<uint32_t>(idx_rng.NextDouble() * 5);
      indices.push_back(std::min<uint32_t>(base, in_dim - 1));
    }
    offsets.push_back(indices.size());
  }
  SparseRows sparse;
  sparse.rows = rows;
  sparse.cols = in_dim;
  sparse.indices = indices.data();
  sparse.row_offsets = offsets.data();

  SetSimdEnabled(false);
  Tensor ref_full = dense_layer.ApplyOneHot(sparse);
  Tensor ref_cols = dense_layer.ApplyOneHotCols(sparse, 2, 2 + w + 1);
  SetSimdEnabled(true);
  Tensor got_full = dense_layer.ApplyOneHot(sparse);
  Tensor got_cols = dense_layer.ApplyOneHotCols(sparse, 2, 2 + w + 1);
  ExpectBitIdentical(ref_full, got_full, "ApplyOneHot");
  ExpectBitIdentical(ref_cols, got_cols, "ApplyOneHotCols");

  // Dense column-slice path (Naru's per-block output softmax input).
  Tensor dense_in = RandomTensor(rows, in_dim, 0.6, rng);
  SetSimdEnabled(false);
  Tensor ref_slice = dense_layer.ApplyCols(dense_in, 1, out_dim - 2);
  SetSimdEnabled(true);
  Tensor got_slice = dense_layer.ApplyCols(dense_in, 1, out_dim - 2);
  ExpectBitIdentical(ref_slice, got_slice, "ApplyCols");
}

TEST(SimdKernelTest, RuntimeControlsReportCompiledState) {
  SimdRestorer restore;
  // The ISA name is one of the four known strings and agrees with the
  // compiled lane width.
  const std::string isa = SimdIsaName();
  const size_t w = SimdLaneWidth();
  if (isa == "avx2") {
    EXPECT_EQ(w, 8u);
  } else if (isa == "sse2" || isa == "neon") {
    EXPECT_EQ(w, 4u);
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(w, 1u);
  }
  EXPECT_EQ(SimdCompiledIn(), w > 1);
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  EXPECT_EQ(SimdEnabled(), SimdCompiledIn());
}

}  // namespace
}  // namespace nn
}  // namespace confcard
