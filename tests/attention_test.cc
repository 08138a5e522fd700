#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/attention.h"
#include "nn/matrix.h"
#include "tests/attention_reference.h"
#include "util/rng.h"

namespace dpdp::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal(0.0, scale);
  }
  return m;
}

NeighborLists FullLists(int n) {
  std::vector<std::vector<int>> rows(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) rows[i].push_back(j);
  }
  return ListsFromRows(rows);
}

NeighborLists SelfLists(int n) {
  std::vector<std::vector<int>> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = {i};
  return ListsFromRows(rows);
}

/// Row i attends to itself and the next `hops` rows (mod n), ascending.
NeighborLists RingLists(int n, int hops) {
  std::vector<std::vector<int>> rows(n);
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h <= hops && h < n; ++h) rows[i].push_back((i + h) % n);
    std::sort(rows[i].begin(), rows[i].end());
  }
  return ListsFromRows(rows);
}

/// Seeded random neighbour sets: each row holds itself plus `k` distinct
/// other rows (all of them when k >= n - 1), ascending.
NeighborLists RandomLists(int n, int k, Rng* rng) {
  std::vector<std::vector<int>> rows(n);
  for (int i = 0; i < n; ++i) {
    std::vector<int> others;
    for (int j = 0; j < n; ++j) {
      if (j != i) others.push_back(j);
    }
    for (int t = 0; t < k && !others.empty(); ++t) {
      const int pick = rng->UniformInt(static_cast<int>(others.size()));
      rows[i].push_back(others[pick]);
      others.erase(others.begin() + pick);
    }
    rows[i].push_back(i);
    std::sort(rows[i].begin(), rows[i].end());
  }
  return ListsFromRows(rows);
}

/// Stacks per-item lists into one list over global rows, as DecisionBatch
/// does for a multi-item batch.
NeighborLists Stack(const std::vector<NeighborLists>& items) {
  NeighborLists out;
  int begin = 0;
  for (const NeighborLists& item : items) {
    const int base = static_cast<int>(out.index.size());
    for (int r = 1; r <= item.rows(); ++r) {
      out.offsets.push_back(base + item.offsets[r]);
    }
    for (int j : item.index) out.index.push_back(begin + j);
    begin += item.rows();
  }
  return out;
}

double Weight(const MultiHeadSelfAttention& attn, const NeighborLists& lists,
              int head, int edge) {
  const size_t edges = lists.index.size();
  return attn.last_attention_weights()[head * edges + edge];
}

TEST(Attention, OutputShape) {
  Rng rng(1);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const Matrix y = attn.Forward(RandomMatrix(5, 8, &rng), FullLists(5));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

TEST(Attention, WeightsAreRowStochastic) {
  Rng rng(2);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const NeighborLists lists = FullLists(6);
  attn.Forward(RandomMatrix(6, 8, &rng), lists);
  ASSERT_EQ(attn.last_attention_weights().size(), 2u * lists.index.size());
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 6; ++i) {
      double sum = 0.0;
      for (int e = lists.offsets[i]; e < lists.offsets[i + 1]; ++e) {
        EXPECT_GE(Weight(attn, lists, h, e), 0.0);
        sum += Weight(attn, lists, h, e);
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(Attention, NonNeighborsGetZeroWeight) {
  // Row i attends to itself and its successor only. The dense reference
  // gives every other position exactly zero weight and the listed ones
  // the same weights the neighbour-list layer stores per edge.
  Rng rng(3);
  Rng ref_rng(3);
  MultiHeadSelfAttention attn(8, 2, &rng);
  DenseMaskAttention ref(8, 2, &ref_rng);
  const NeighborLists lists = RingLists(4, 1);
  const Matrix mask = DenseMask(lists);
  const Matrix x = RandomMatrix(4, 8, &rng);
  attn.Forward(x, lists);
  ref.Forward(x, mask);
  for (int h = 0; h < 2; ++h) {
    const Matrix& a = ref.attention_weights()[h];
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (mask(i, j) == 0.0) {
          EXPECT_DOUBLE_EQ(a(i, j), 0.0);
        }
      }
      for (int e = lists.offsets[i]; e < lists.offsets[i + 1]; ++e) {
        EXPECT_EQ(Weight(attn, lists, h, e), a(i, lists.index[e]));
      }
    }
  }
}

TEST(Attention, SelfOnlyListsIgnoreOtherRows) {
  // With self-only lists, changing row 1's features must not change row
  // 0's output.
  Rng rng(4);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(3, 8, &rng);
  const NeighborLists self = SelfLists(3);
  const Matrix y1 = attn.Forward(x, self);
  for (int c = 0; c < 8; ++c) x(1, c) += 10.0;
  const Matrix y2 = attn.Forward(x, self);
  for (int c = 0; c < 8; ++c) EXPECT_NEAR(y1(0, c), y2(0, c), 1e-12);
}

TEST(Attention, NonNeighborRowsDoNotInfluenceOutput) {
  // Row 0 attends only to {0, 1}; perturbing row 2 must not change row 0.
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const NeighborLists lists = ListsFromRows({{0, 1}, {1}, {2}});
  Matrix x = RandomMatrix(3, 8, &rng);
  const Matrix y1 = attn.Forward(x, lists);
  for (int c = 0; c < 8; ++c) x(2, c) -= 3.0;
  const Matrix y2 = attn.Forward(x, lists);
  for (int c = 0; c < 8; ++c) EXPECT_NEAR(y1(0, c), y2(0, c), 1e-12);
}

TEST(Attention, ParameterCount) {
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, &rng);
  // Wq, Wk, Wv, Wo each contribute weight + bias.
  EXPECT_EQ(attn.Params().size(), 8u);
}

TEST(Attention, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  const int n = 4;
  const int d = 8;
  MultiHeadSelfAttention attn(d, 2, &rng);
  const NeighborLists lists = RingLists(n, 2);
  const Matrix x = RandomMatrix(n, d, &rng, 0.7);
  const Matrix probe = RandomMatrix(n, d, &rng, 0.5);

  const Matrix y = attn.Forward(x, lists);
  const Matrix dx = attn.Backward(probe);

  auto loss = [&] {
    return attn.Forward(x, lists).Hadamard(probe).SumAll();
  };

  // Parameter gradients.
  const double eps = 1e-6;
  for (Parameter* p : attn.Params()) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + eps;
        const double lp = loss();
        p->value(r, c) = saved - eps;
        const double lm = loss();
        p->value(r, c) = saved;
        EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2.0 * eps), 2e-5);
      }
    }
  }

  // Input gradients.
  Matrix x_var = x;
  auto loss_x = [&] {
    return attn.Forward(x_var, lists).Hadamard(probe).SumAll();
  };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) {
      x_var(r, c) = x(r, c) + eps;
      const double lp = loss_x();
      x_var(r, c) = x(r, c) - eps;
      const double lm = loss_x();
      x_var(r, c) = x(r, c);
      EXPECT_NEAR(dx(r, c), (lp - lm) / (2.0 * eps), 2e-5);
    }
  }
}

TEST(Attention, SingleHeadEqualsMultiHeadParamCountInvariance) {
  // d_model must be divisible by heads; 1 head always works.
  Rng rng(8);
  MultiHeadSelfAttention attn(6, 1, &rng);
  const NeighborLists lists = FullLists(3);
  const Matrix y = attn.Forward(RandomMatrix(3, 6, &rng), lists);
  EXPECT_EQ(y.cols(), 6);
  EXPECT_EQ(attn.last_attention_weights().size(), lists.index.size());
}

TEST(Attention, ListsAreCopiedNotBorrowed) {
  // The layer keeps its own copy of the lists, so the caller may reuse
  // them between Forward and Backward without changing the gradients.
  Rng rng(9);
  Rng twin_rng(9);
  MultiHeadSelfAttention attn(8, 2, &rng);
  MultiHeadSelfAttention twin(8, 2, &twin_rng);
  const Matrix x = RandomMatrix(5, 8, &rng);
  const Matrix dy = RandomMatrix(5, 8, &rng);
  NeighborLists lists = RingLists(5, 1);
  twin.Forward(x, lists);
  const Matrix expected = twin.Backward(dy);
  attn.Forward(x, lists);
  lists = SelfLists(5);
  const Matrix dx = attn.Backward(dy);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 8; ++c) EXPECT_EQ(dx(r, c), expected(r, c));
  }
}

// ------------------------------------------ dense-mask differential ----

/// Runs the neighbour-list layer and the dense-mask reference (identical
/// weights) forward and backward on `lists`, and requires every output,
/// input gradient and parameter gradient to be bitwise equal.
void ExpectBitwiseEqualToDenseReference(const NeighborLists& lists,
                                        uint64_t seed, int d_model,
                                        int heads) {
  const int n = lists.rows();
  Rng rng(seed);
  Rng ref_rng(seed);
  MultiHeadSelfAttention attn(d_model, heads, &rng);
  DenseMaskAttention ref(d_model, heads, &ref_rng);
  Rng data_rng(seed + 1000);
  const Matrix x = RandomMatrix(n, d_model, &data_rng);
  const Matrix dy = RandomMatrix(n, d_model, &data_rng);

  Workspace ws;
  const Matrix y = attn.Forward(x, lists, ws);
  const Matrix y_ref = ref.Forward(x, DenseMask(lists));
  const Matrix dx = attn.Backward(dy, ws);
  const Matrix dx_ref = ref.Backward(dy);

  ASSERT_EQ(y.rows(), n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d_model; ++c) {
      EXPECT_EQ(y(r, c), y_ref(r, c)) << "forward row " << r << " col " << c;
      EXPECT_EQ(dx(r, c), dx_ref(r, c)) << "dx row " << r << " col " << c;
    }
  }
  const std::vector<Parameter*> params = attn.Params();
  const std::vector<Parameter*> ref_params = ref.Params();
  ASSERT_EQ(params.size(), ref_params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(params[p]->value.AllClose(ref_params[p]->value, 0.0));
    for (int r = 0; r < params[p]->grad.rows(); ++r) {
      for (int c = 0; c < params[p]->grad.cols(); ++c) {
        EXPECT_EQ(params[p]->grad(r, c), ref_params[p]->grad(r, c))
            << "param " << p << " (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(AttentionDifferential, SelfOnlyRows) {
  ExpectBitwiseEqualToDenseReference(SelfLists(7), 31, 8, 2);
}

TEST(AttentionDifferential, FullyConnectedWhenKAtLeastRows) {
  Rng rng(32);
  ExpectBitwiseEqualToDenseReference(RandomLists(6, 6, &rng), 32, 8, 2);
  ExpectBitwiseEqualToDenseReference(RandomLists(5, 40, &rng), 33, 8, 4);
}

TEST(AttentionDifferential, SingleRowItem) {
  ExpectBitwiseEqualToDenseReference(SelfLists(1), 34, 8, 2);
}

TEST(AttentionDifferential, SeededRandomNeighborSets) {
  Rng rng(35);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = rng.UniformInt(2, 24);
    const int k = rng.UniformInt(0, 9);
    ExpectBitwiseEqualToDenseReference(RandomLists(n, k, &rng), 100 + trial,
                                       8, trial % 2 == 0 ? 2 : 1);
  }
}

TEST(AttentionDifferential, StackedMultiItemBatches) {
  // Item lists stacked onto global rows are a block-diagonal dense mask.
  Rng rng(36);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<NeighborLists> items;
    const int num_items = rng.UniformInt(2, 6);
    for (int i = 0; i < num_items; ++i) {
      const int m = rng.UniformInt(1, 12);
      items.push_back(RandomLists(m, rng.UniformInt(0, 8), &rng));
    }
    ExpectBitwiseEqualToDenseReference(Stack(items), 200 + trial, 8, 2);
  }
}

}  // namespace
}  // namespace dpdp::nn
