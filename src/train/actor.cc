#include "train/actor.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/state.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace dpdp::train {
namespace {

struct ActorMetrics {
  obs::Counter* episodes =
      obs::MetricsRegistry::Global().GetCounter("train.episodes");
  obs::Counter* explore_decisions =
      obs::MetricsRegistry::Global().GetCounter("train.explore_decisions");
  obs::Counter* served_decisions =
      obs::MetricsRegistry::Global().GetCounter("train.served_decisions");
  obs::Counter* sheds =
      obs::MetricsRegistry::Global().GetCounter("train.sheds");
};

ActorMetrics& Metrics() {
  static ActorMetrics* metrics = new ActorMetrics;
  return *metrics;
}

}  // namespace

Actor::Actor(int id, const Instance* instance, SimulatorConfig sim_config,
             const AgentConfig& agent_config,
             serve::DecisionService* service, ActorOptions options)
    : id_(id),
      agent_config_(agent_config),
      options_(options),
      service_(service),
      env_(instance, std::move(sim_config)) {
  DPDP_CHECK(service_ != nullptr);
}

EpisodeExperience Actor::RunEpisode(int episode_index, double epsilon) {
  DPDP_TRACE_SPAN("train.episode");
  EpisodeExperience experience;
  experience.episode = episode_index;

  // Exploration stream and disruption stream are both pure functions of
  // the global episode index — the determinism contract's foundation.
  Rng rng(Rng::DeriveSeed(options_.explore_seed_base,
                          static_cast<uint64_t>(episode_index)));
  env_.set_episodes_run(episode_index);
  env_.Reset();

  // The same pending-transition chain DqnFleetAgent records with.
  TransitionChain chain;

  while (env_.AdvanceToDecision()) {
    const DispatchContext& ctx = env_.ObserveDecision();
    const FleetState state = BuildFleetState(ctx, agent_config_);
    WallTimer timer;
    int action = -1;
    if (rng.Bernoulli(epsilon)) {
      const std::vector<int> feasible = state.FeasibleIndices();
      DPDP_CHECK(!feasible.empty());
      action = feasible[rng.UniformInt(static_cast<int>(feasible.size()))];
      ++experience.explore_decisions;
    } else {
      serve::ServeReply reply = service_->Submit(ctx).get();
      if (options_.deterministic) {
        // Any non-model answer depends on wall-clock scheduling and would
        // silently break the N-actor golden — fail loudly instead.
        DPDP_CHECK(!reply.shed);
        DPDP_CHECK(!reply.deadline_exceeded);
      }
      if (reply.shed) ++experience.sheds;
      if (reply.model_seq > experience.max_model_seq) {
        experience.max_model_seq = reply.model_seq;
      }
      action = reply.vehicle;
      ++experience.served_decisions;
    }

    const int executed = env_.Apply(action, timer.ElapsedSeconds());
    if (action >= 0) {
      // Record against the EXECUTED vehicle (Observe's re-targeting rule);
      // a refused decision (-1, degraded reply) records nothing, exactly
      // like the local agent.
      chain.Push(StoredFleetState::FromFleetState(state), executed,
                 InstantReward(ctx, executed, agent_config_));
    }
  }

  experience.transitions = chain.Finish();
  experience.result = env_.result();
  if (experience.max_model_seq > max_model_seq_) {
    max_model_seq_ = experience.max_model_seq;
  }

  Metrics().episodes->Add(1);
  Metrics().explore_decisions->Add(experience.explore_decisions);
  Metrics().served_decisions->Add(experience.served_decisions);
  if (experience.sheds > 0) Metrics().sheds->Add(experience.sheds);
  return experience;
}

}  // namespace dpdp::train
