#ifndef DPDP_RL_REPLAY_H_
#define DPDP_RL_REPLAY_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/matrix.h"
#include "rl/state.h"
#include "util/rng.h"

namespace dpdp {

/// Compact (float) storage of a FleetState inside the replay buffer.
struct StoredFleetState {
  int num_vehicles = 0;
  std::vector<float> features;    ///< num_vehicles x kStateFeatures.
  std::vector<uint8_t> feasible;  ///< num_vehicles.
  std::vector<float> positions;   ///< num_vehicles x 2.

  static StoredFleetState FromFleetState(const FleetState& s);
  FleetState ToFleetState() const;
  bool empty() const { return num_vehicles == 0; }
};

/// One MDP transition (S, a, R, S', terminal) with the episode-final reward
/// R = r + r_bar already folded in (Algorithm 3 stores transitions at
/// episode end).
struct Transition {
  StoredFleetState state;
  int action = -1;      ///< Full-fleet vehicle index.
  float reward = 0.0f;
  bool terminal = false;
  StoredFleetState next_state;  ///< Empty when terminal.
};

/// One recorded decision of an in-flight episode, before the episode-end
/// reward folding. `next_state` stays empty (and `terminal` true) for the
/// episode's final decision.
struct EpisodeStep {
  StoredFleetState state;
  int action = -1;
  double instant_reward = 0.0;
  StoredFleetState next_state;
  bool terminal = false;
};

/// Folds the episode-mean instant reward into every step (Eq. 7/8:
/// R = r + r_bar, applied at episode end per Algorithm 3) and converts the
/// steps into replay-ready transitions, preserving decision order. Shared
/// by the local learning agents and the src/train/ actor-learner fabric so
/// both produce bit-identical transitions from the same decisions.
std::vector<Transition> FoldEpisodeRewards(std::vector<EpisodeStep> steps);

/// The pending-transition chain of one in-flight episode: a decision's
/// next_state is the following decision's state, so each step is emitted
/// one decision late and the last one goes out terminal at episode end.
/// Shared by DqnFleetAgent and the src/train/ actor rollout loop, so both
/// record the same steps from the same decisions.
class TransitionChain {
 public:
  /// Records a decision, closing the pending one with `state` as its
  /// next_state.
  void Push(StoredFleetState state, int action, double instant_reward);
  /// Re-targets the pending decision at the action that actually executed.
  void Retarget(int action, double instant_reward);
  /// Action of the pending decision (-1 when none is pending).
  int pending_action() const { return active_ ? pending_.action : -1; }
  /// Closes the pending decision as terminal and returns the episode's
  /// folded transitions (FoldEpisodeRewards), leaving the chain empty.
  std::vector<Transition> Finish();
  /// True at an episode boundary: nothing pending, nothing recorded.
  bool empty() const { return !active_ && steps_.empty(); }
  /// Drops the in-flight episode.
  void Clear();

 private:
  EpisodeStep pending_;
  bool active_ = false;
  std::vector<EpisodeStep> steps_;
};

/// Fixed-capacity ring-buffer experience replay with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(int capacity);

  void Add(Transition t);

  int size() const { return static_cast<int>(data_.size()); }
  int capacity() const { return capacity_; }

  const Transition& at(int i) const { return data_[i]; }

  /// Uniformly samples `n` transitions (with replacement when n > size).
  std::vector<const Transition*> Sample(int n, Rng* rng) const;

  /// Serializes contents + write cursor (binary). Part of the training
  /// checkpoint: resuming with the exact buffer contents is required for
  /// bit-identical kill-and-resume.
  void Save(std::ostream* os) const;

  /// Restores state written by Save. Returns false on malformed input or a
  /// capacity mismatch with this buffer.
  bool Load(std::istream* is);

 private:
  int capacity_;
  size_t write_pos_ = 0;
  std::vector<Transition> data_;
};

}  // namespace dpdp

#endif  // DPDP_RL_REPLAY_H_
