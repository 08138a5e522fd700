#ifndef DPDP_RL_Q_NETWORK_H_
#define DPDP_RL_Q_NETWORK_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "rl/config.h"
#include "util/rng.h"

namespace dpdp {

/// A batch of candidate decision items for one Q-network evaluation. Each
/// item is a feasible sub-fleet: `rows(i)` feature rows (one per candidate
/// vehicle), plus neighbour lists for the relational nets. Items are
/// stacked into a single feature matrix so the network scores every
/// candidate of every item in ONE forward pass; the lists hold global row
/// indices that never leave their item, which makes the relational nets'
/// attention numerics bit-identical to evaluating each item alone.
///
/// All storage is reused across Clear() cycles, so a caller that keeps one
/// DecisionBatch alive builds batches with no steady-state heap traffic.
class DecisionBatch {
 public:
  /// Drops all items; capacity is retained.
  void Clear();

  /// Appends an item by copying `features` (rows x feature_dim). Returns
  /// the item index.
  int Add(const nn::Matrix& features);

  /// As Add(features), plus the item's neighbour lists: one per row, in
  /// item-local row indices. Every earlier item must carry lists too.
  int Add(const nn::Matrix& features, const nn::NeighborLists& neighbors);

  /// Opens an item of `rows` x `cols` UNINITIALIZED feature rows (write
  /// them via mutable_features(), global rows [offset(i), offset(i) +
  /// rows(i))). Returns the item index. Relational callers then append the
  /// item's lists, in global row indices, to mutable_neighbors().
  int AddItem(int rows, int cols);

  /// Stacked feature storage; only rows of already-added items may be
  /// written.
  nn::Matrix& mutable_features() { return features_; }

  /// Neighbour lists of the stacked rows, in global row indices.
  nn::NeighborLists& mutable_neighbors() { return neighbors_; }

  int num_items() const { return static_cast<int>(offsets_.size()) - 1; }
  int total_rows() const { return offsets_.back(); }
  int offset(int item) const { return offsets_[item]; }
  int rows(int item) const {
    return offsets_[item + 1] - offsets_[item];
  }

  /// Stacked features, (total_rows x feature_dim).
  const nn::Matrix& features() const { return features_; }

  /// Neighbour lists over all items; the relational nets need one list per
  /// row (neighbors().rows() == total_rows()).
  const nn::NeighborLists& neighbors() const { return neighbors_; }

 private:
  nn::Matrix features_;             ///< Stacked item features.
  std::vector<int> offsets_ = {0};  ///< Row offsets; size num_items + 1.
  nn::NeighborLists neighbors_;     ///< Global-row lists, item by item.
};

/// Per-fleet Q-value network. EvaluateBatch scores every candidate row of
/// every item of a DecisionBatch (constraint embedding has already removed
/// infeasible vehicles) in one forward pass and returns a (total_rows x 1)
/// column of Q-values; the reference stays valid until the network's next
/// Evaluate/Backward call.
///
/// BackwardBatch must follow the corresponding EvaluateBatch (gradients
/// accumulate across calls until the optimizer steps).
class FleetQNetwork {
 public:
  virtual ~FleetQNetwork() = default;

  virtual const nn::Matrix& EvaluateBatch(const DecisionBatch& batch) = 0;

  /// dq: (total_rows x 1) gradient of the loss w.r.t. each output Q
  /// (usually one-hot at the chosen vehicle).
  virtual void BackwardBatch(const nn::Matrix& dq) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;
};

/// Factorized per-vehicle MLP without relational structure (the DQN /
/// DDQN / ST-DDQN ablations). Shared weights across vehicles = rows, so a
/// stacked batch is just a taller input matrix.
class MlpQNetwork : public FleetQNetwork {
 public:
  MlpQNetwork(const AgentConfig& config, Rng* rng);

  const nn::Matrix& EvaluateBatch(const DecisionBatch& batch) override;
  void BackwardBatch(const nn::Matrix& dq) override;
  std::vector<nn::Parameter*> Params() override;

 private:
  nn::Mlp mlp_;
  nn::Workspace ws_;
};

/// The DGN / DDGN / ST-DDGN network (paper Fig. 4): shared encoder MLP ->
/// stacked neighborhood-attention blocks (with ReLU) -> concatenation of
/// every level's representation -> Q head MLP. Every row attends over its
/// DecisionBatch neighbour list.
class GraphQNetwork : public FleetQNetwork {
 public:
  GraphQNetwork(const AgentConfig& config, Rng* rng);

  const nn::Matrix& EvaluateBatch(const DecisionBatch& batch) override;
  void BackwardBatch(const nn::Matrix& dq) override;
  std::vector<nn::Parameter*> Params() override;

 private:
  int levels_;
  nn::Mlp encoder_;
  std::vector<nn::MultiHeadSelfAttention> attention_;
  std::vector<nn::ReLU> relus_;
  nn::Mlp head_;
  nn::Workspace ws_;

  // Reused pass buffers. The level outputs themselves live in the layers'
  // own buffers; only the concatenation and gradient slices need homes.
  bool forward_valid_ = false;
  std::vector<const nn::Matrix*> level_;  ///< Borrowed level outputs.
  nn::Matrix concat_;
  std::vector<nn::Matrix> dlevel_;
  nn::Matrix dh_;
};

/// Builds the network variant selected by `config.use_graph`.
std::unique_ptr<FleetQNetwork> MakeQNetwork(const AgentConfig& config,
                                            Rng* rng);

}  // namespace dpdp

#endif  // DPDP_RL_Q_NETWORK_H_
