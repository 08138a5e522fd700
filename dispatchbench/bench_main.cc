// The dispatch benchmark: one binary, two workloads.
//
//   dispatch_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run builds its inputs from --seed, replays its workload's unit once
// as warm-up and then repeatedly for --seconds, timing
// Samples::kSetupsPerRep more set-ups before every repetition. Every output
// is checked with the independent route checker (route_check.h) and the
// workload's property checks. --trace 1 alternates plain and stage-timed
// repetitions and reports per-layer numbers instead of end-to-end ones.
// Both workloads print the same metrics: all end-to-end ones with
// --trace 0, all per-layer ones with --trace 1. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The program is driven only through its public API: Environment steps,
// Dispatcher / DqnFleetAgent::Act, and ApexTrainer. Stage times are taken around calls into
// public functions; nothing inside the program is instrumented for this.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "datagen/dataset.h"
#include "exp/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "route_check.h"
#include "sim/environment.h"
#include "stpred/predictor.h"
#include "stpred/st_score.h"
#include "train/apex.h"
#include "util/rng.h"

namespace dispatchbench {
namespace {

using Clock = std::chrono::steady_clock;
using dpdp::DispatchContext;
using dpdp::EpisodeResult;
using dpdp::Instance;

// --- Workload shapes --------------------------------------------------------

// What --seed does not change. The campus (road network and demand model)
// is the operator's fixed world and the ST-DDGN initial weights are part of
// the program under test. So is the day of the campus's order history that
// instances are sampled from (kDispatchDay and the days after it; the
// kHistoryDays before it feed the STD prediction): the demand model replays
// its day factor from day 0 on every call, so generating day d costs O(d)
// and a seed-picked day would make the set-up work depend on the seed. The
// seed picks the orders sampled from those days and the disruption stream.
constexpr uint64_t kCampusSeed = 7;
constexpr uint64_t kAgentSeed = 2;
constexpr int kDatasetDays = 1000;
constexpr int kHistoryDays = 4;
constexpr int kDispatchDay = 12;

// The industry-scale day of uat_disrupted_days has a fixed number of
// orders drawn from two days of the campus's stream, so every seed asks for
// the same amount of work. A repetition plays the day.
constexpr double kIndustryOrdersPerDay = 620.0;
constexpr int kIndustryOrders = 650;
constexpr int kIndustryVehicles = 150;
constexpr int kLocalSearchPasses = 2;
constexpr double kBreakdownProb = 0.3;  // Per vehicle and day.
constexpr double kCancelProb = 0.04;     // Per order.

// Ape-X training run.
constexpr double kApexOrdersPerDay = 100.0;
constexpr int kApexOrders = 100;
constexpr int kApexVehicles = 30;
constexpr int kApexActors = 2;
constexpr int kApexEpisodes = 8;
constexpr int kApexSyncEvery = 2;
constexpr int kApexUpdatesPerGeneration = 8;
constexpr int kApexBatchSize = 16;

// --- Small helpers ----------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ms(Clock::duration d) { return 1e3 * Seconds(d); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  // Directory of this binary; apex_train writes its trace file there.
  std::string binary_dir = ".";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  const std::string self = argv[0];
  const size_t slash = self.rfind('/');
  if (slash != std::string::npos) args->binary_dir = self.substr(0, slash);
  return argc % 2 == 1 && !args->workload.empty();
}

// Metrics in print order, plus the operation tally.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // Counts `ops` operations; `failed` of them were rejected by a check.
  void Count(long ops, long failed) {
    attempted_ += ops;
    failed_ += failed;
  }

  // A check that is not tied to particular operations failed.
  void Fail(const std::string& why) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
    correct_ = false;
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("operations attempted %ld, failed %ld\n", attempted_,
                failed_);
    std::string json = "{\"correct\": ";
    json += correct_ && failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char buf[160];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

// Runs the independent checker on one episode. Returns the number of the
// episode's decisions that count as failed (all of them on a rejection).
long CheckDay(const Instance& instance, const EpisodeResult& result,
              bool check_time_windows, const char* what) {
  const CheckReport report =
      CheckEpisode(instance, result, check_time_windows);
  if (report.ok()) return 0;
  std::fprintf(stderr, "%s: route check rejected %s (%zu errors), first: "
               "%s\n", what, result.instance_name.c_str(),
               report.errors.size(), report.errors[0].c_str());
  return std::max(1, result.num_decisions);
}

// One timed set-up: the whole of it and its layers.
struct SetupSample {
  double total_s = 0.0;
  double datagen_s = 0.0;
  double predict_s = 0.0;
  double init_s = 0.0;
};

// One measured repetition: `work` decisions (transitions on apex_train) in
// `wall_s`, and the time of each decision it timed (those of the greedy
// evaluation episode on apex_train). A stage-timed repetition also sums
// per-decision stage figures in `stages`, over the same decisions;
// `wall_s` leaves out the probes a stage-timed repetition runs in between.
struct Rep {
  long work = 0;
  double wall_s = 0.0;
  std::vector<double> decision_ms;
  bool traced = false;
  std::map<std::string, double> stages;

  double SecondsPerUnit() const {
    return wall_s / static_cast<double>(std::max(1L, work));
  }
};

// The per-decision stage figures, in print order. Both workloads time all
// of them on their stage-timed repetitions (see StageProbe).
const std::vector<std::pair<std::string, std::string>> kDecisionStages = {
    {"routing.advance_ms", "ms"},
    {"routing.feasible_per_decision", "count"},
    {"sim.apply_ms", "ms"},
    {"rl.act_ms", "ms"},
    {"stpred.st_score_ms", "ms"},
    {"rl.featurize_ms", "ms"},
    {"rl.knn_ms", "ms"},
    {"nn.q_eval_ms", "ms"},
    {"nn.q_eval_rows", "rows"},
    {"rl.select_ms", "ms"},
};

// The timing samples of one run, and the estimators over them.
//
// The shared 4-core machine this was tuned on changes speed from second to
// second: identical repetitions of one day take anywhere from 0.8 s to
// 1.6 s, and the share of slow time differs from run to run, so medians
// over repetitions spread by 30-40% between runs of the same code. Timings
// therefore come from each run's least disturbed samples:
//   - decisions_per_s of a replayed workload (uat_disrupted_days: every
//     repetition makes the same decisions in the same order) takes each
//     decision's fastest time over the plain repetitions. Computed from the
//     same runs, this spread 0.17-0.35 between runs where the fastest whole
//     repetition spread 0.31-0.48;
//   - decisions_per_s of apex_train, the stage times and the trace overhead
//     come from the fastest repetition of each kind. A repetition is a
//     whole unit of work (a day, or a training run and its greedy
//     episode), so the stage times add up to the time per decision the
//     trace overhead compares;
//   - setup_s is the median of all the run's set-ups: kSetupsPerRep are
//     timed before every repetition, so they spread over the whole run;
//   - decision_p50_ms and decision_p99_ms pool every plain repetition.
class Samples {
 public:
  static constexpr int kSetupsPerRep = 5;

  // `replayed`: every repetition makes the same decisions in the same
  // order.
  explicit Samples(bool replayed = false) : replayed_(replayed) {}

  void AddSetup(const SetupSample& sample) { setups_.push_back(sample); }
  void AddRep(Rep rep) {
    std::fprintf(stderr, "rep %zu%s: %ld in %.3f s\n", reps_.size() + 1,
                 rep.traced ? " (traced)" : "", rep.work, rep.wall_s);
    reps_.push_back(std::move(rep));
  }

  // The fastest repetition of one kind, by time per unit of work.
  const Rep& Fastest(bool traced) const {
    const Rep* best = nullptr;
    for (const Rep& rep : reps_) {
      if (rep.traced != traced) continue;
      if (best == nullptr || rep.SecondsPerUnit() < best->SecondsPerUnit()) {
        best = &rep;
      }
    }
    return *best;  // Repeat runs at least one repetition of each kind.
  }

  void ReportSetup(Report* out) const {
    out->Add("setup_s", Median(Field(&SetupSample::total_s)), "s");
  }

  void ReportSetupLayers(Report* out) const {
    out->Add("datagen.build_s", Median(Field(&SetupSample::datagen_s)), "s");
    out->Add("stpred.predict_s", Median(Field(&SetupSample::predict_s)), "s");
    out->Add("policy.init_s", Median(Field(&SetupSample::init_s)), "s");
  }

  // decisions_per_s (end-to-end); transitions per second on apex_train.
  void ReportRate(Report* out) const {
    double rate = 0.0;
    if (replayed_) {
      std::vector<double> best;
      for (const Rep& rep : reps_) {
        if (rep.traced) continue;
        if (best.empty()) {
          best = rep.decision_ms;
          continue;
        }
        for (size_t i = 0; i < best.size(); ++i) {
          best[i] = std::min(best[i], rep.decision_ms[i]);
        }
      }
      double total_ms = 0.0;
      for (double ms : best) total_ms += ms;
      rate = 1e3 * static_cast<double>(best.size()) / total_ms;
    } else {
      rate = 1.0 / Fastest(false).SecondsPerUnit();
    }
    out->Add("decisions_per_s", rate, "1/s");
  }

  // decision_p50_ms and decision_p99_ms, pooling the decisions of every
  // plain repetition. They are per-layer (unbounded) figures: over ten runs
  // the p99 spread 0.32-0.50 even on a calm machine.
  void ReportDecisionTimes(Report* out) const {
    std::vector<double> ms;
    for (const Rep& rep : reps_) {
      if (!rep.traced) {
        ms.insert(ms.end(), rep.decision_ms.begin(), rep.decision_ms.end());
      }
    }
    out->Add("decision_p50_ms", Percentile(ms, 0.50), "ms");
    out->Add("decision_p99_ms", Percentile(ms, 0.99), "ms");
  }

  // Each stage sum of the fastest stage-timed repetition, per decision.
  void ReportStages(Report* out) const {
    const Rep& rep = Fastest(true);
    const double n =
        static_cast<double>(std::max<size_t>(1, rep.decision_ms.size()));
    for (const auto& [name, unit] : kDecisionStages) {
      const auto it = rep.stages.find(name);
      out->Add(name, it == rep.stages.end() ? 0.0 : it->second / n, unit);
    }
  }

  // Time per unit of the fastest stage-timed repetition over that of the
  // fastest plain one, minus one, in percent.
  void ReportTraceOverhead(Report* out) const {
    const double ratio =
        Fastest(true).SecondsPerUnit() / Fastest(false).SecondsPerUnit();
    out->Add("bench.trace_overhead_pct", 100.0 * (ratio - 1.0), "%");
  }

 private:
  // `field` of every set-up.
  std::vector<double> Field(double SetupSample::*field) const {
    std::vector<double> values;
    for (const SetupSample& s : setups_) values.push_back(s.*field);
    return values;
  }

  const bool replayed_;
  std::vector<SetupSample> setups_;
  std::vector<Rep> reps_;
};

// Plays `rep` once as warm-up, then alternates kSetupsPerRep timed set-ups
// and a measured repetition until `seconds` have passed and at least two
// repetitions ran (so a traced run has one of each kind: odd repetitions
// are stage-timed).
void Repeat(const Args& args, const std::function<void()>& setup_sample,
            const std::function<void(bool measured, bool traced)>& rep) {
  rep(false, false);
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < 2 || Seconds(Clock::now() - start) < args.seconds;
       ++r) {
    for (int s = 0; s < Samples::kSetupsPerRep; ++s) setup_sample();
    rep(true, args.trace && r % 2 == 1);
  }
}

// Times one set-up; `build` fills the sample's layers and returns the
// world, which outlives the timing.
template <typename Build>
auto TimedSetup(Samples* samples, Build build) {
  SetupSample sample;
  const Clock::time_point t0 = Clock::now();
  auto world = build(&sample);
  sample.total_s = Seconds(Clock::now() - t0);
  samples->AddSetup(sample);
  return world;
}

// A generated world: the dataset's instances plus the predicted STD matrix
// that feeds the ST score.
struct Inputs {
  std::vector<Instance> instances;
  dpdp::nn::Matrix predicted_std;
};

// Generates the campus's dataset, lets `make` cut instances from it, and
// predicts the STD matrix of `day` from the days before it.
Inputs MakeInputs(double orders_per_day, int day,
                  const std::function<void(dpdp::DpdpDataset*,
                                           std::vector<Instance>*)>& make,
                  SetupSample* sample) {
  const Clock::time_point t0 = Clock::now();
  Inputs in;
  dpdp::DpdpDataset::Config config =
      dpdp::StandardDatasetConfig(kCampusSeed, orders_per_day);
  config.num_days = kDatasetDays;
  dpdp::DpdpDataset dataset(config);
  make(&dataset, &in.instances);
  const std::vector<dpdp::nn::Matrix> history =
      dataset.History(day, kHistoryDays);
  const Clock::time_point t1 = Clock::now();
  in.predicted_std = dpdp::AverageStdPredictor().Predict(history).value();
  const Clock::time_point t2 = Clock::now();
  sample->datagen_s = Seconds(t1 - t0);
  sample->predict_s = Seconds(t2 - t1);
  return in;
}

Inputs IndustryDayInputs(uint64_t seed, SetupSample* sample) {
  const int day = kDispatchDay;
  return MakeInputs(
      kIndustryOrdersPerDay, day,
      [&](dpdp::DpdpDataset* d, std::vector<Instance>* out) {
        out->push_back(d->SampleInstance(
            "industry-day", kIndustryOrders, kIndustryVehicles, day, day + 1,
            dpdp::Rng::DeriveSeed(seed, 300)));
      },
      sample);
}

dpdp::AgentConfig StDdgnConfig() { return dpdp::MakeStDdgnConfig(kAgentSeed); }

// --- Stage timing -----------------------------------------------------------

// The decision path of DqnFleetAgent::Act in greedy mode, one public call
// per stage, on a network holding given weights (or the fixed-seed
// initial ones).
class StagedAct {
 public:
  StagedAct(const dpdp::AgentConfig& config,
            const std::vector<dpdp::nn::Matrix>* weights)
      : config_(config) {
    dpdp::Rng rng(config.seed);
    net_ = dpdp::MakeQNetwork(config, &rng);
    if (weights == nullptr) return;
    const std::vector<dpdp::nn::Parameter*> params = net_->Params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = (*weights)[i];
    }
  }

  // Chooses like Act, adding each stage's time to `rep`.
  int Act(const DispatchContext& ctx, Rep* rep) {
    const Clock::time_point t0 = Clock::now();
    const dpdp::FleetState state = dpdp::BuildFleetState(ctx, config_);
    const Clock::time_point t1 = Clock::now();
    const std::vector<int> idx = dpdp::InferenceIndices(state, config_);
    batch_.Clear();
    dpdp::AppendSubFleetInputs(state, idx, config_.use_graph,
                               config_.num_neighbors, &batch_);
    const Clock::time_point t2 = Clock::now();
    const dpdp::nn::Matrix& q = net_->EvaluateBatch(batch_);
    const Clock::time_point t3 = Clock::now();
    const dpdp::GreedyQChoice choice = dpdp::ArgmaxFeasibleQ(state, idx, q);
    const Clock::time_point t4 = Clock::now();
    rep->stages["rl.featurize_ms"] += Ms(t1 - t0);
    rep->stages["rl.knn_ms"] += Ms(t2 - t1);
    rep->stages["nn.q_eval_ms"] += Ms(t3 - t2);
    rep->stages["rl.select_ms"] += Ms(t4 - t3);
    rep->stages["nn.q_eval_rows"] += batch_.total_rows();
    return choice.vehicle;
  }

 private:
  dpdp::AgentConfig config_;
  std::unique_ptr<dpdp::FleetQNetwork> net_;
  dpdp::DecisionBatch batch_;
};

// Runs the ST-DDGN stages on a decision's context, after the policy chose
// and outside the decision's time: the ST score of every feasible option
// (ComputeStScore) and StagedAct. Given the acting agent's weights, the
// context came from that agent in an environment that scores options with
// the same STD matrix, so the staged choice must be the agent's and each
// recomputed ST score the context's; a disagreement counts as a mismatch.
// Without weights (Baseline 1's day, whose environment scores nothing) the
// stages run on the fixed-seed initial network and are only timed, so that
// both workloads report the same stage figures.
class StageProbe {
 public:
  StageProbe(const dpdp::RoadNetwork* network,
             const dpdp::nn::Matrix* predicted,
             dpdp::DivergenceKind divergence,
             const std::vector<dpdp::nn::Matrix>* weights)
      : network_(network),
        predicted_(predicted),
        divergence_(divergence),
        check_(weights != nullptr),
        staged_(StDdgnConfig(), weights) {}

  void Run(const DispatchContext& ctx, int vehicle, Rep* rep) {
    bool agree = true;
    const Clock::time_point t0 = Clock::now();
    for (const dpdp::VehicleOption& opt : ctx.options) {
      if (!opt.feasible) continue;
      const double score = dpdp::ComputeStScore(
          *network_, opt.insertion.suffix, opt.insertion.schedule,
          *predicted_, ctx.instance->num_time_intervals,
          ctx.instance->horizon_minutes, divergence_);
      agree = agree && score == opt.st_score;
    }
    rep->stages["stpred.st_score_ms"] += Ms(Clock::now() - t0);
    agree = staged_.Act(ctx, rep) == vehicle && agree;
    if (check_ && !agree) ++mismatches_;
  }

  long mismatches() const { return mismatches_; }

 private:
  const dpdp::RoadNetwork* network_;
  const dpdp::nn::Matrix* predicted_;
  dpdp::DivergenceKind divergence_;
  bool check_;
  StagedAct staged_;
  long mismatches_ = 0;
};

// Plays one day on `env`, appending each decision's time to `rep` and
// adding the day's wall time. A decision runs from the start of
// AdvanceToDecision (planning for the order) to the end of Apply. With a
// `probe`, the three steps are timed apart into rep->stages (the choice as
// rl.act_ms), and the probe runs between choosing and applying, outside
// both the decision time and the wall time.
template <typename Choose>
EpisodeResult PlayDay(dpdp::Environment* env, Choose choose, Rep* rep,
                      StageProbe* probe = nullptr) {
  env->set_episodes_run(0);  // Same disruption stream every repetition.
  env->Reset();
  const Clock::time_point start = Clock::now();
  Clock::duration probe_time{};
  Clock::time_point t0 = start;
  while (true) {
    if (probe == nullptr) {
      if (!env->AdvanceToDecision()) break;
      const DispatchContext& ctx = env->ObserveDecision();
      env->Apply(choose(ctx));
      const Clock::time_point t1 = Clock::now();
      rep->decision_ms.push_back(Ms(t1 - t0));
      t0 = t1;
      continue;
    }
    const bool more = env->AdvanceToDecision();
    const Clock::time_point t1 = Clock::now();
    if (!more) break;
    const DispatchContext& ctx = env->ObserveDecision();
    rep->stages["routing.feasible_per_decision"] += ctx.num_feasible;
    const int vehicle = choose(ctx);
    const Clock::time_point t2 = Clock::now();
    probe->Run(ctx, vehicle, rep);
    const Clock::time_point t3 = Clock::now();
    env->Apply(vehicle);
    const Clock::time_point t4 = Clock::now();
    rep->stages["routing.advance_ms"] += Ms(t1 - t0);
    rep->stages["rl.act_ms"] += Ms(t2 - t1);
    rep->stages["sim.apply_ms"] += Ms(t4 - t3);
    rep->decision_ms.push_back(Ms(t2 - t0) + Ms(t4 - t3));
    probe_time += t3 - t2;
    t0 = t4;
  }
  rep->wall_s += Seconds(Clock::now() - start - probe_time);
  return env->result();
}

// The end-to-end outputs of one repetition must never change: every
// repetition replays identical inputs through a deterministic program.
class SameOutputs {
 public:
  void Check(double total_cost, long orders_served, Report* out) {
    if (!seen_) {
      seen_ = true;
      total_cost_ = total_cost;
      orders_served_ = orders_served;
    } else if (total_cost != total_cost_ || orders_served != orders_served_) {
      out->Fail("repetitions disagree: TC " + std::to_string(total_cost) +
                " vs " + std::to_string(total_cost_));
    }
  }

  void Report(dispatchbench::Report* out) const {
    out->Add("total_cost", total_cost_, "cost");
    out->Add("orders_served", static_cast<double>(orders_served_), "orders");
  }

 private:
  bool seen_ = false;
  double total_cost_ = 0.0;
  long orders_served_ = 0;
};

// Registry deltas of the serving layer across the measured repetitions.
// Where no service runs, the registry holds no serve.* metrics and every
// figure reads 0.
class ServeLayer {
 public:
  void Begin() { before_ = Index(); }

  void Report(dispatchbench::Report* out) const {
    const auto after = Index();
    auto delta = [&](const std::string& name) {
      const auto a = after.find(name);
      if (a == after.end()) return dpdp::obs::MetricSnapshot{};
      dpdp::obs::MetricSnapshot d = a->second;
      const auto b = before_.find(name);
      if (b == before_.end()) return d;
      d.value -= b->second.value;
      d.count -= b->second.count;
      d.sum -= b->second.sum;
      return d;
    };
    const auto size = delta("serve.batch_size");
    const double items = delta("serve.batched_items").value;
    const double eval_s = delta("serve.eval_latency_s").sum;
    out->Add("serve.batch_size_mean",
             size.count > 0 ? size.sum / static_cast<double>(size.count) : 0,
             "requests");
    out->Add("serve.items_per_eval_s", eval_s > 0 ? items / eval_s : 0.0,
             "1/s");
    out->Add("serve.shed", delta("serve.shed").value, "requests");
  }

 private:
  static std::map<std::string, dpdp::obs::MetricSnapshot> Index() {
    std::map<std::string, dpdp::obs::MetricSnapshot> out;
    for (dpdp::obs::MetricSnapshot& s :
         dpdp::obs::MetricsRegistry::Global().Snapshot()) {
      std::string name = s.name;
      out.emplace(std::move(name), std::move(s));
    }
    return out;
  }

  std::map<std::string, dpdp::obs::MetricSnapshot> before_;
};

// Per-layer figures that are not per-decision stage times. They read 0 on
// the workload where their layer does not run: disruptions and local
// search run only on uat_disrupted_days, serving and training only on
// apex_train.
struct LayerFigures {
  double local_search_km_saved = 0.0;
  double orders_replanned = 0.0;
  double degraded_decisions = 0.0;
  double rollout_transitions_per_s = 0.0;
  double learner_updates_per_s = 0.0;
  double learner_updates = 0.0;
  double served_decisions = 0.0;
  double explore_decisions = 0.0;
};

// What both workloads print: the end-to-end metrics with --trace 0, the
// per-layer ones with --trace 1.
void ReportAll(const Args& args, const Samples& samples,
               const SameOutputs& outputs, const ServeLayer& serve,
               const LayerFigures& f, Report* out) {
  if (!args.trace) {
    samples.ReportRate(out);
    outputs.Report(out);
    samples.ReportSetup(out);
    return;
  }
  samples.ReportDecisionTimes(out);
  samples.ReportSetupLayers(out);
  samples.ReportStages(out);
  out->Add("routing.local_search_km_saved", f.local_search_km_saved, "km");
  out->Add("sim.orders_replanned", f.orders_replanned, "orders");
  out->Add("sim.degraded_decisions", f.degraded_decisions, "count");
  serve.Report(out);
  out->Add("train.rollout_transitions_per_s", f.rollout_transitions_per_s,
           "1/s");
  out->Add("train.learner_updates_per_s", f.learner_updates_per_s, "1/s");
  out->Add("train.learner_updates", f.learner_updates, "count");
  out->Add("train.served_decisions", f.served_decisions, "count");
  out->Add("train.explore_decisions", f.explore_decisions, "count");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  samples.ReportTraceOverhead(out);
}

// --- uat_disrupted_days ------------------------------------------------------

dpdp::SimulatorConfig UatConfig(uint64_t seed, int local_search_passes) {
  dpdp::SimulatorConfig config;
  config.record_visits = false;
  config.record_plan = true;
  config.local_search_passes = local_search_passes;
  config.disruption.seed = dpdp::Rng::DeriveSeed(seed, 0xD15);
  config.disruption.breakdown_prob = kBreakdownProb;
  config.disruption.cancel_prob = kCancelProb;
  return config;
}

struct UatWorld {
  Inputs in;
  std::unique_ptr<dpdp::MinIncrementalLengthDispatcher> baseline;
};

void RunUatDisruptedDays(const Args& args, Report* out) {
  Samples samples(/*replayed=*/true);
  auto build = [&](SetupSample* s) {
    UatWorld world;
    world.in = IndustryDayInputs(args.seed, s);
    // Baseline 1 has no model: its initialisation is next to nothing.
    const Clock::time_point t0 = Clock::now();
    world.baseline = std::make_unique<dpdp::MinIncrementalLengthDispatcher>();
    s->init_s = Seconds(Clock::now() - t0);
    return world;
  };
  const UatWorld world = TimedSetup(&samples, build);
  const Instance& instance = world.in.instances[0];
  const dpdp::SimulatorConfig config =
      UatConfig(dpdp::Rng::DeriveSeed(args.seed, 0), kLocalSearchPasses);
  StageProbe probe(instance.network.get(), &world.in.predicted_std,
                   config.divergence, /*weights=*/nullptr);
  auto choose = [&](const DispatchContext& ctx) {
    return world.baseline->ChooseVehicle(ctx);
  };

  dpdp::Environment env(&instance, config);
  SameOutputs outputs;
  LayerFigures figures;
  Repeat(args, [&] { TimedSetup(&samples, build); },
         [&](bool measured, bool traced) {
           Rep rep;
           rep.traced = traced;
           const EpisodeResult result =
               PlayDay(&env, choose, &rep, traced ? &probe : nullptr);
           // Time windows are not checked on a disrupted day (see
           // CheckEpisode).
           const long failed = CheckDay(instance, result,
                                        /*check_time_windows=*/false,
                                        "uat_disrupted_days");
           outputs.Check(result.total_cost, result.num_served, out);
           figures.local_search_km_saved = result.local_search_km_saved;
           figures.orders_replanned = result.num_replanned;
           figures.degraded_decisions = result.num_degraded_decisions;
           if (!measured) return;
           out->Count(result.num_decisions, failed);
           rep.work = static_cast<long>(rep.decision_ms.size());
           samples.AddRep(std::move(rep));
         });
  ReportAll(args, samples, outputs, ServeLayer(), figures, out);
}

// --- apex_train --------------------------------------------------------------

dpdp::SimulatorConfig ServiceDayConfig(const dpdp::nn::Matrix& predicted) {
  dpdp::SimulatorConfig config;
  config.predicted_std = predicted;
  config.record_visits = false;
  config.record_plan = true;
  return config;
}

dpdp::train::ApexConfig ApexShape() {
  dpdp::train::ApexConfig config;
  config.num_actors = kApexActors;
  config.episodes = kApexEpisodes;
  config.sync_every = kApexSyncEvery;
  config.deterministic = true;
  config.replay_shards = 2;
  config.shard_capacity = 4096;
  config.updates_per_generation = kApexUpdatesPerGeneration;
  config.serve_shards = 1;
  config.serve.max_batch = kApexActors;
  config.serve.max_wait_us = 50;
  return config;
}

dpdp::AgentConfig ApexAgentConfig() {
  dpdp::AgentConfig config = StDdgnConfig();
  config.batch_size = kApexBatchSize;
  config.epsilon_decay_episodes = kApexEpisodes;
  return config;
}

// Sums the durations of the named spans in a Chrome trace file, in
// seconds. One event per line, as obs::WriteTraceFile writes them.
double SpanSeconds(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string key = "{\"name\": \"" + name + "\"";
  std::string line;
  double us = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const size_t at = line.find("\"dur\": ");
    if (at != std::string::npos) {
      us += std::strtod(line.c_str() + at + 7, nullptr);
    }
  }
  return us / 1e6;
}

bool AllFinite(const std::vector<dpdp::nn::Matrix>& weights) {
  for (const dpdp::nn::Matrix& m : weights) {
    for (int i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) return false;
    }
  }
  return true;
}

bool SameWeights(const std::vector<dpdp::nn::Matrix>& a,
                 const std::vector<dpdp::nn::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        !std::equal(a[i].data(), a[i].data() + a[i].size(), b[i].data())) {
      return false;
    }
  }
  return true;
}

void RunApexTrain(const Args& args, Report* out) {
  Samples samples;
  const dpdp::AgentConfig agent_config = ApexAgentConfig();
  const dpdp::train::ApexConfig apex_config = ApexShape();
  auto build = [&](SetupSample* s) {
    const int day = kDispatchDay;
    Inputs in = MakeInputs(
        kApexOrdersPerDay, day,
        [&](dpdp::DpdpDataset* d, std::vector<Instance>* instances) {
          instances->push_back(d->SampleInstance(
              "apex-campus", kApexOrders, kApexVehicles, day, day + 1,
              dpdp::Rng::DeriveSeed(args.seed, 200)));
        },
        s);
    // Model, replay, learner and service spawn of one training run; every
    // repetition builds its own trainer, so this one is only timed.
    const Clock::time_point t0 = Clock::now();
    auto trainer = std::make_unique<dpdp::train::ApexTrainer>(
        &in.instances[0], apex_config, agent_config,
        ServiceDayConfig(in.predicted_std));
    s->init_s = Seconds(Clock::now() - t0);
    return std::make_pair(std::move(in), std::move(trainer));
  };
  const Inputs in = TimedSetup(&samples, build).first;
  const Instance& instance = in.instances[0];
  const dpdp::SimulatorConfig config = ServiceDayConfig(in.predicted_std);
  const std::string trace_path = args.binary_dir + "/apex_trace.json";
  const long generations =
      (kApexEpisodes + kApexSyncEvery - 1) / kApexSyncEvery;

  SameOutputs outputs;
  ServeLayer serve_layer;
  LayerFigures figures;
  std::vector<dpdp::nn::Matrix> first_weights;
  long mismatches = 0;
  double fastest_traced = HUGE_VAL;  // Seconds per transition.
  auto run = [&](bool measured, bool traced) {
    dpdp::train::ApexTrainer trainer(&instance, apex_config, agent_config,
                                     config);
    if (traced) dpdp::obs::SetTraceEnabled(true);
    const Clock::time_point t0 = Clock::now();
    const dpdp::train::ApexReport report = trainer.Run();
    Rep rep;
    rep.wall_s = Seconds(Clock::now() - t0);
    rep.work = report.transitions;
    rep.traced = traced;
    double rollout_s = 0.0, learn_s = 0.0;
    if (traced) {
      dpdp::obs::SetTraceEnabled(false);
      if (dpdp::obs::WriteTraceFile(trace_path).ok()) {
        rollout_s = SpanSeconds(trace_path, "train.episode");
        learn_s = SpanSeconds(trace_path, "train.learn");
      }
      std::remove(trace_path.c_str());
    }

    // Every training episode's routes, then the run's bookkeeping.
    long failed = 0;
    long decisions = 0;
    for (const EpisodeResult& e : report.episodes) {
      failed += CheckDay(instance, e, true, "apex_train episode") > 0;
      decisions += e.num_decisions;
    }
    const std::vector<dpdp::nn::Matrix> weights = trainer.PolicyWeights();
    if (report.transitions != decisions ||
        report.served_decisions + report.explore_decisions !=
            report.transitions ||
        report.learner_updates !=
            static_cast<uint64_t>(generations * kApexUpdatesPerGeneration) ||
        report.episodes_done != kApexEpisodes || report.sheds != 0 ||
        !AllFinite(weights)) {
      out->Fail("apex bookkeeping: transitions " +
                std::to_string(report.transitions) + " decisions " +
                std::to_string(decisions) + " updates " +
                std::to_string(report.learner_updates));
      failed = kApexEpisodes;
    }
    if (first_weights.empty()) {
      first_weights = weights;
    } else if (!SameWeights(weights, first_weights)) {
      out->Fail("deterministic training produced different weights");
    }

    // Greedy evaluation episode with the final weights; its decisions are
    // the repetition's timed decisions. Stage-timed, the probe's staged
    // path must choose as the trained agent does.
    dpdp::DqnFleetAgent* agent = trainer.learner_agent();
    agent->set_training(false);
    dpdp::Environment env(&instance, config);
    Rep eval_rep;
    StageProbe probe(instance.network.get(), &in.predicted_std,
                     config.divergence, &weights);
    const EpisodeResult eval = PlayDay(
        &env, [&](const DispatchContext& ctx) { return agent->Act(ctx); },
        &eval_rep, traced ? &probe : nullptr);
    mismatches += probe.mismatches();
    rep.decision_ms = std::move(eval_rep.decision_ms);
    rep.stages = std::move(eval_rep.stages);
    failed += CheckDay(instance, eval, true, "apex_train evaluation") > 0;
    outputs.Check(eval.total_cost, eval.num_served, out);
    if (!measured) {
      serve_layer.Begin();
      return;
    }
    out->Count(kApexEpisodes + 1, failed);
    figures.learner_updates = static_cast<double>(report.learner_updates);
    figures.served_decisions = static_cast<double>(report.served_decisions);
    figures.explore_decisions = static_cast<double>(report.explore_decisions);
    // Rollout and learner rates of the fastest stage-timed run, the one
    // Samples::Fastest(true) picks.
    if (traced && rollout_s > 0.0 && learn_s > 0.0 &&
        rep.SecondsPerUnit() < fastest_traced) {
      fastest_traced = rep.SecondsPerUnit();
      figures.rollout_transitions_per_s =
          static_cast<double>(report.transitions) / rollout_s;
      figures.learner_updates_per_s =
          static_cast<double>(report.learner_updates) / learn_s;
    }
    samples.AddRep(std::move(rep));
  };
  Repeat(args, [&] { TimedSetup(&samples, build); }, run);
  if (mismatches > 0) {
    out->Count(0, mismatches);
    out->Fail(std::to_string(mismatches) +
              " evaluation decisions where the staged path or the ST score "
              "disagreed");
  }
  ReportAll(args, samples, outputs, serve_layer, figures, out);
}

}  // namespace
}  // namespace dispatchbench

int main(int argc, char** argv) {
  using namespace dispatchbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dispatch_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::map<std::string, std::function<void(const Args&, Report*)>>
      workloads = {
          {"uat_disrupted_days", RunUatDisruptedDays},
          {"apex_train", RunApexTrain},
      };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  it->second(args, &report);
  report.Print();
  return 0;
}
