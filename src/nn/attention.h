#ifndef DPDP_NN_ATTENTION_H_
#define DPDP_NN_ATTENTION_H_

#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace dpdp::nn {

/// Per-row attention neighbourhoods in compressed-row form: row i may
/// attend to rows index[offsets[i]] .. index[offsets[i + 1] - 1], listed in
/// ascending order. Storage is O(rows * (neighbours + 1)) ints, and Clear()
/// keeps capacity so a reused list builds with no steady-state heap traffic.
struct NeighborLists {
  std::vector<int> offsets = {0};  ///< rows() + 1 non-decreasing entries.
  std::vector<int> index;          ///< Neighbour rows, ascending per row.

  int rows() const { return static_cast<int>(offsets.size()) - 1; }
  void Clear() {
    offsets.assign(1, 0);
    index.clear();
  }
};

/// Multi-head scaled dot-product self-attention (Vaswani et al.) restricted
/// to neighbour lists: the "neighborhood attention" block of ST-DDGN
/// (paper Fig. 5).
///
/// Each vehicle is a row of the input feature matrix X (K x d_model). Row
/// k's neighbour list is its NE nearest vehicles plus itself; gathering
/// those rows is exactly the paper's "relational feature". Attention then
/// mixes the selected rows, and a final dense projection produces the
/// higher-level representation.
///
/// Forward/Backward alternate strictly: Backward consumes the caches of the
/// immediately preceding Forward.
class MultiHeadSelfAttention {
 public:
  /// d_model must be divisible by num_heads.
  MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng);

  /// X: (K x d_model); `neighbors` has K rows of indices in [0, K), and
  /// every row must list at least one position (include the row itself).
  /// Returns (K x d_model). The lists are copied, so the caller's may
  /// change once Forward returns.
  ///
  /// The Workspace overload returns a reference to a layer-owned buffer
  /// (valid until the next Forward) and performs no heap allocation once
  /// the caches have grown to the working shape.
  const Matrix& Forward(const Matrix& x, const NeighborLists& neighbors,
                        Workspace& ws);
  Matrix Forward(const Matrix& x, const NeighborLists& neighbors);

  /// dY: (K x d_model) -> dX (K x d_model); accumulates parameter grads.
  const Matrix& Backward(const Matrix& dy, Workspace& ws);
  Matrix Backward(const Matrix& dy);

  std::vector<Parameter*> Params();

  int d_model() const { return d_model_; }
  int num_heads() const { return num_heads_; }

  /// Softmax weights of the last Forward, one per (head, edge): the weight
  /// of head h on neighbour-list entry e sits at [h * edges + e], where
  /// edges is the lists' index size (for diagnostics / tests).
  const std::vector<double>& last_attention_weights() const { return attn_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;

  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;

  // Forward caches. Owned buffers are reused across calls (resized, never
  // reallocated in steady state); q_/k_/v_ are borrowed from wq_/wk_/wv_'s
  // output buffers (valid until those layers run again, i.e. until the
  // next Forward).
  NeighborLists neighbors_;
  const Matrix* q_ = nullptr;  // (K x d_model) projected inputs.
  const Matrix* k_ = nullptr;
  const Matrix* v_ = nullptr;
  std::vector<double> attn_;   // Per-(head, edge) softmax weights.
  Matrix concat_;              // (K x d_model) pre-output concat.

  // Backward scratch, same reuse policy.
  Matrix dq_, dk_, dv_;
  Matrix dx_;
  std::vector<double> da_;     // Per-edge attention-grad scratch.
};

}  // namespace dpdp::nn

#endif  // DPDP_NN_ATTENTION_H_
