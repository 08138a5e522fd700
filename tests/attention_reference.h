#ifndef DPDP_TESTS_ATTENTION_REFERENCE_H_
#define DPDP_TESTS_ATTENTION_REFERENCE_H_

// Test-only reference for MultiHeadSelfAttention: the dense-mask walk the
// neighbour-list layer replaced. Every row scans all K columns of a
// (K x K) {0,1} mask, so it is quadratic, but it is the straightforward
// statement of masked attention. The differential tests in
// attention_test.cc require the neighbour-list layer to reproduce its
// outputs and gradients bit for bit.

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace dpdp::nn {

/// Lists with row i attending to `rows[i]` (ascending row indices).
inline NeighborLists ListsFromRows(const std::vector<std::vector<int>>& rows) {
  NeighborLists lists;
  for (const std::vector<int>& row : rows) {
    lists.index.insert(lists.index.end(), row.begin(), row.end());
    lists.offsets.push_back(static_cast<int>(lists.index.size()));
  }
  return lists;
}

/// The (K x K) {0,1} mask of `lists`: mask(i, j) = 1 iff j is in row i.
inline Matrix DenseMask(const NeighborLists& lists) {
  const int n = lists.rows();
  Matrix mask(n, n);
  for (int i = 0; i < n; ++i) {
    for (int e = lists.offsets[i]; e < lists.offsets[i + 1]; ++e) {
      mask(i, lists.index[e]) = 1.0;
    }
  }
  return mask;
}

/// Dense-mask multi-head self-attention. Draws its weights from `rng` in
/// the same order as MultiHeadSelfAttention, so both built from equal
/// seeds hold identical parameters.
class DenseMaskAttention {
 public:
  DenseMaskAttention(int d_model, int num_heads, Rng* rng)
      : num_heads_(num_heads),
        d_head_(d_model / num_heads),
        wq_(d_model, d_model, rng),
        wk_(d_model, d_model, rng),
        wv_(d_model, d_model, rng),
        wo_(d_model, d_model, rng) {}

  Matrix Forward(const Matrix& x, const Matrix& mask) {
    const int n = x.rows();
    mask_ = mask;
    q_ = wq_.Forward(x);
    k_ = wk_.Forward(x);
    v_ = wv_.Forward(x);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
    attn_.assign(num_heads_, Matrix(n, n));
    Matrix concat(n, x.cols());
    for (int h = 0; h < num_heads_; ++h) {
      const int off = h * d_head_;
      Matrix& a = attn_[h];
      for (int i = 0; i < n; ++i) {
        double mx = -1e300;
        for (int j = 0; j < n; ++j) {
          if (mask(i, j) == 0.0) continue;
          double s = 0.0;
          for (int c = 0; c < d_head_; ++c) {
            s += q_(i, off + c) * k_(j, off + c);
          }
          s *= scale;
          a(i, j) = s;
          mx = std::max(mx, s);
        }
        double denom = 0.0;
        for (int j = 0; j < n; ++j) {
          if (mask(i, j) == 0.0) {
            a(i, j) = 0.0;
          } else {
            a(i, j) = std::exp(a(i, j) - mx);
            denom += a(i, j);
          }
        }
        for (int j = 0; j < n; ++j) a(i, j) /= denom;
        for (int j = 0; j < n; ++j) {
          const double w = a(i, j);
          if (w == 0.0) continue;
          for (int c = 0; c < d_head_; ++c) {
            concat(i, off + c) += w * v_(j, off + c);
          }
        }
      }
    }
    return wo_.Forward(concat);
  }

  Matrix Backward(const Matrix& dy) {
    const int n = dy.rows();
    const Matrix dconcat = wo_.Backward(dy);
    Matrix dq(n, dy.cols());
    Matrix dk(n, dy.cols());
    Matrix dv(n, dy.cols());
    std::vector<double> da(n);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
    for (int h = 0; h < num_heads_; ++h) {
      const int off = h * d_head_;
      const Matrix& a = attn_[h];
      for (int i = 0; i < n; ++i) {
        std::fill(da.begin(), da.end(), 0.0);
        for (int j = 0; j < n; ++j) {
          if (mask_(i, j) == 0.0) continue;
          double s = 0.0;
          for (int c = 0; c < d_head_; ++c) {
            s += dconcat(i, off + c) * v_(j, off + c);
            dv(j, off + c) += a(i, j) * dconcat(i, off + c);
          }
          da[j] = s;
        }
        double dot = 0.0;
        for (int j = 0; j < n; ++j) dot += da[j] * a(i, j);
        for (int j = 0; j < n; ++j) {
          if (mask_(i, j) == 0.0) continue;
          const double ds = a(i, j) * (da[j] - dot) * scale;
          if (ds == 0.0) continue;
          for (int c = 0; c < d_head_; ++c) {
            dq(i, off + c) += ds * k_(j, off + c);
            dk(j, off + c) += ds * q_(i, off + c);
          }
        }
      }
    }
    Matrix dx = wq_.Backward(dq);
    dx.AddInPlace(wk_.Backward(dk));
    dx.AddInPlace(wv_.Backward(dv));
    return dx;
  }

  std::vector<Parameter*> Params() {
    std::vector<Parameter*> out;
    for (Linear* l : {&wq_, &wk_, &wv_, &wo_}) {
      for (Parameter* p : l->Params()) out.push_back(p);
    }
    return out;
  }

  /// Per-head (K x K) softmax weights of the last Forward.
  const std::vector<Matrix>& attention_weights() const { return attn_; }

 private:
  int num_heads_;
  int d_head_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  Matrix mask_;
  Matrix q_, k_, v_;
  std::vector<Matrix> attn_;
};

}  // namespace dpdp::nn

#endif  // DPDP_TESTS_ATTENTION_REFERENCE_H_
