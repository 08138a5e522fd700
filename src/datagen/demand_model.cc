#include "datagen/demand_model.h"

#include <cmath>

#include "model/order.h"
#include "util/rng.h"
#include "util/status.h"

namespace dpdp {
namespace {

/// Smooth bump centred at `centre` minutes with the given width (minutes).
double Bump(double minute, double centre, double width) {
  const double z = (minute - centre) / width;
  return std::exp(-0.5 * z * z);
}

}  // namespace

DemandModel::DemandModel(const RoadNetwork& network, int num_intervals,
                         uint64_t seed)
    : num_intervals_(num_intervals) {
  DPDP_CHECK(num_intervals > 0);
  const int n = network.num_factories();
  DPDP_CHECK(n > 0);
  // Each parameter family draws from its own named sub-stream (the same
  // per-kind pattern as sim/disruption): adding a family — or a scenario
  // layer consuming demand randomness — can never shift the draws of the
  // existing ones.
  const Rng base(seed);
  Rng weight_rng = base.Fork(0);
  Rng jitter_rng = base.Fork(1);
  Rng persistence_rng = base.Fork(2);
  Rng day_seed_rng = base.Fork(3);
  weights_.resize(n);
  phase_jitter_.resize(n);
  ar_coeff_.resize(n);
  day_seed_.resize(n);
  for (int i = 0; i < n; ++i) {
    // Lognormal spatial skew: a handful of factories dominate (Fig. 2).
    weights_[i] = std::exp(weight_rng.Normal(0.0, 0.9));
    phase_jitter_[i] = jitter_rng.Normal(0.0, 25.0);  // Peak shift, minutes.
    ar_coeff_[i] = persistence_rng.Uniform(0.85, 0.96);  // Day persistence.
    day_seed_[i] = day_seed_rng.NextU64();
  }
}

double DemandModel::TimeProfile(int factory_ordinal, int interval) const {
  const double minutes_per_interval =
      kMinutesPerDay / static_cast<double>(num_intervals_);
  const double minute =
      (static_cast<double>(interval) + 0.5) * minutes_per_interval +
      phase_jitter_[factory_ordinal];
  // Morning peak 10:00-12:00 and a broader afternoon peak 14:00-17:00,
  // atop a small working-hours (8:00-19:00) baseline.
  double profile = 1.3 * Bump(minute, 11.0 * 60.0, 55.0) +
                   1.6 * Bump(minute, 15.5 * 60.0, 90.0);
  if (minute >= 8.0 * 60.0 && minute <= 19.0 * 60.0) profile += 0.12;
  return profile;
}

double DemandModel::DayFactor(int factory_ordinal, int day) const {
  DPDP_CHECK(day >= 0);
  // AR(1) log-modulation replayed deterministically from day 0 so that any
  // (factory, day) pair is reproducible without stored state. Nearby days
  // share most of the accumulated process, giving the "closer days look
  // more similar" property of Fig. 2.
  const double rho = ar_coeff_[factory_ordinal];
  const double sigma = 0.4;
  double g = 0.0;
  for (int k = 0; k <= day; ++k) {
    Rng noise(day_seed_[factory_ordinal] ^
              (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k + 1)));
    g = rho * g + sigma * noise.Normal();
  }
  // Mild weekly cycle shared across factories.
  const double weekly =
      1.0 + 0.15 * std::sin(2.0 * M_PI * static_cast<double>(day) / 7.0);
  return std::exp(g) * weekly;
}

double DemandModel::Rate(int factory_ordinal, int interval, int day) const {
  DPDP_CHECK(factory_ordinal >= 0 && factory_ordinal < num_factories());
  DPDP_CHECK(interval >= 0 && interval < num_intervals_);
  return weights_[factory_ordinal] * TimeProfile(factory_ordinal, interval) *
         DayFactor(factory_ordinal, day);
}

std::vector<double> DemandModel::DayRates(int factory_ordinal,
                                          int day) const {
  DPDP_CHECK(factory_ordinal >= 0 && factory_ordinal < num_factories());
  const double day_factor = DayFactor(factory_ordinal, day);
  std::vector<double> rates(num_intervals_);
  for (int j = 0; j < num_intervals_; ++j) {
    // Same product order as Rate, so every entry rounds identically.
    rates[j] = weights_[factory_ordinal] * TimeProfile(factory_ordinal, j) *
               day_factor;
  }
  return rates;
}

double DemandModel::TotalRate(int day) const {
  double total = 0.0;
  for (int i = 0; i < num_factories(); ++i) {
    const double df = weights_[i] * DayFactor(i, day);
    for (int j = 0; j < num_intervals_; ++j) {
      total += df * TimeProfile(i, j);
    }
  }
  return total;
}

}  // namespace dpdp
