#ifndef DPDP_DATAGEN_DEMAND_MODEL_H_
#define DPDP_DATAGEN_DEMAND_MODEL_H_

#include <cstdint>
#include <vector>

#include "net/road_network.h"

namespace dpdp {

/// Stochastic model of the campus's spatial-temporal delivery demand,
/// calibrated to the structure the paper reports (Fig. 2):
///
///  * spatial skew — a few factories dominate demand (lognormal weights);
///  * temporal concentration — demand peaks 10:00-12:00 and 14:00-17:00,
///    with small per-factory phase jitter;
///  * day-to-day similarity — a per-factory AR(1) day modulation makes
///    nearby days more alike than distant ones, plus a global weekly cycle.
///
/// Rate(i, j, d) is the expected cargo-order intensity (relative, unitless)
/// for factory ordinal i, time interval j, day index d. Order counts are
/// drawn Poisson around scaled rates by the order generator.
class DemandModel {
 public:
  DemandModel(const RoadNetwork& network, int num_intervals, uint64_t seed);

  int num_factories() const { return static_cast<int>(weights_.size()); }
  int num_intervals() const { return num_intervals_; }

  /// Expected relative demand intensity; non-negative. Costs O(day): the
  /// day factor replays the AR(1) process from day 0.
  double Rate(int factory_ordinal, int interval, int day) const;

  /// Rate(factory_ordinal, j, day) for every interval j, bit for bit, with
  /// the day factor computed once: O(day + intervals) for the whole day.
  std::vector<double> DayRates(int factory_ordinal, int day) const;

  /// Sum of Rate over all factories and intervals for a day (used to scale
  /// to a target order count).
  double TotalRate(int day) const;

  /// Spatial weight of a factory (time-independent component).
  double FactoryWeight(int factory_ordinal) const {
    return weights_[factory_ordinal];
  }

 private:
  double TimeProfile(int factory_ordinal, int interval) const;
  double DayFactor(int factory_ordinal, int day) const;

  int num_intervals_;
  std::vector<double> weights_;        ///< Spatial skew per factory.
  std::vector<double> phase_jitter_;   ///< Minutes of peak shift per factory.
  std::vector<double> ar_coeff_;       ///< AR(1) persistence per factory.
  std::vector<uint64_t> day_seed_;     ///< Per-factory stream seeds.
};

}  // namespace dpdp

#endif  // DPDP_DATAGEN_DEMAND_MODEL_H_
