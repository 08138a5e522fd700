#include "datagen/order_gen.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/status.h"

namespace dpdp {

namespace {

/// Delivery-factory preference weights for orders picked up at factory
/// ordinal `pickup`: demand weight damped by distance, so cargo flows stay
/// somewhat local (hitchhiking structure).
void FillDeliveryWeights(const RoadNetwork& network, const DemandModel& demand,
                         const OrderGenConfig& config, int pickup,
                         std::vector<double>* weights) {
  const int pickup_node = network.FactoryNode(pickup);
  weights->resize(network.num_factories());
  for (int f = 0; f < network.num_factories(); ++f) {
    if (f == pickup) {
      (*weights)[f] = 0.0;
      continue;
    }
    const double dist = network.Distance(pickup_node, network.FactoryNode(f));
    (*weights)[f] =
        demand.FactoryWeight(f) * std::exp(-dist / config.distance_decay_km);
  }
}

/// Draws one order picked up at factory ordinal `pickup` created at
/// `create_time`, consuming delivery / quantity / slack draws from `rng`.
Order DrawOrder(const RoadNetwork& network, const OrderGenConfig& config,
                const std::vector<double>& delivery_weights, int pickup,
                double create_time, Rng* rng) {
  Order o;
  o.pickup_node = network.FactoryNode(pickup);
  o.delivery_node = network.FactoryNode(rng->Categorical(delivery_weights));
  o.create_time_min = create_time;
  const double qty = config.quantity_median *
                     std::exp(rng->Normal(0.0, config.quantity_sigma));
  o.quantity = std::clamp(qty, 1.0, config.max_quantity);
  const double direct_tt = network.TravelTimeMinutes(
      o.pickup_node, o.delivery_node, config.speed_kmph);
  const double floor = config.window_travel_multiplier * direct_tt +
                       2.0 * config.service_time_min;
  const double slack = rng->Uniform(config.min_window_slack_min,
                                    config.max_window_slack_min);
  o.latest_time_min = o.create_time_min + std::max(slack, floor);
  return o;
}

/// Extra-rate multiplier the surge windows contribute to cell (factory
/// ordinal, interval): sum over matching windows of overlap-fraction x
/// (factor - 1). Pure arithmetic — consumes no randomness.
double SurgeExtraFactor(const scenario::DemandLayer& layer, int factory,
                        double interval_start, double interval_end) {
  double extra = 0.0;
  const double span = interval_end - interval_start;
  for (const scenario::SurgeWindow& w : layer.surges) {
    if (w.factory != -1 && w.factory != factory) continue;
    const double lo = std::max(interval_start, w.start_min);
    const double hi = std::min(interval_end, w.end_min);
    if (hi <= lo) continue;
    extra += (w.factor - 1.0) * (hi - lo) / span;
  }
  return extra;
}

}  // namespace

std::vector<Order> GenerateDayOrders(const RoadNetwork& network,
                                     const DemandModel& demand,
                                     const OrderGenConfig& config, int day,
                                     int num_intervals, double horizon_min,
                                     uint64_t seed) {
  DPDP_CHECK(num_intervals == demand.num_intervals());
  DPDP_CHECK(network.num_factories() == demand.num_factories());
  DPDP_CHECK(network.num_factories() >= 2);

  // Named per-day sub-streams (scenario::StreamTag): each consumer owns an
  // independent stream, so no layer's draw count can shift another's. The
  // layer streams additionally mix the scenario seed; the baseline streams
  // never do.
  const Rng day_rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(day)));
  Rng count_rng = day_rng.Fork(scenario::kStreamBaselineCount);
  Rng attr_rng = day_rng.Fork(scenario::kStreamBaselineAttrs);
  Rng thin_rng =
      day_rng.Fork(scenario::kStreamThinning).Fork(config.scenario_seed);
  Rng surge_rng =
      day_rng.Fork(scenario::kStreamSurge).Fork(config.scenario_seed);
  Rng burst_rng =
      day_rng.Fork(scenario::kStreamBurst).Fork(config.scenario_seed);

  const double total_rate = demand.TotalRate(day);
  DPDP_CHECK(total_rate > 0.0);
  const double scale = config.mean_orders_per_day / total_rate;
  const double minutes_per_interval =
      horizon_min / static_cast<double>(num_intervals);

  const scenario::DemandLayer& layer = config.demand;
  const double thin_keep = std::min(layer.rate_scale, 1.0);
  const double global_extra = std::max(layer.rate_scale - 1.0, 0.0);

  std::vector<Order> orders;
  std::vector<double> delivery_weights;

  for (int i = 0; i < network.num_factories(); ++i) {
    FillDeliveryWeights(network, demand, config, i, &delivery_weights);
    const std::vector<double> rates = demand.DayRates(i, day);
    for (int j = 0; j < num_intervals; ++j) {
      const double base_mean = rates[j] * scale;
      const double interval_start = static_cast<double>(j) *
                                    minutes_per_interval;

      // Baseline layer: always generated, always from its own streams.
      const int count = count_rng.Poisson(base_mean);
      for (int c = 0; c < count; ++c) {
        const double create =
            (static_cast<double>(j) + attr_rng.Uniform()) *
            minutes_per_interval;
        Order o = DrawOrder(network, config, delivery_weights, i, create,
                            &attr_rng);
        // Thinning (rate_scale < 1) drops AFTER the attribute draws so the
        // baseline attribute stream is consumed identically either way.
        if (thin_keep < 1.0 && !thin_rng.Bernoulli(thin_keep)) continue;
        orders.push_back(o);
      }

      // Additive extras: global over-rate (rate_scale > 1) plus surge
      // windows, at (extra factor) x baseline mean from the surge stream.
      const double extra_factor =
          global_extra + SurgeExtraFactor(layer, i, interval_start,
                                          interval_start +
                                              minutes_per_interval);
      if (extra_factor > 0.0) {
        const int extra = surge_rng.Poisson(base_mean * extra_factor);
        for (int c = 0; c < extra; ++c) {
          const double create =
              (static_cast<double>(j) + surge_rng.Uniform()) *
              minutes_per_interval;
          orders.push_back(DrawOrder(network, config, delivery_weights, i,
                                     create, &surge_rng));
        }
      }
    }
  }

  // Burst layer: per interval, a flash of `burst_orders` orders from one
  // factory inside a short window (random demand, On-Demand-Delivery
  // style). Entirely from the burst stream.
  if (layer.burst_prob > 0.0 && layer.burst_orders > 0) {
    for (int j = 0; j < num_intervals; ++j) {
      if (!burst_rng.Bernoulli(layer.burst_prob)) continue;
      const int factory = burst_rng.UniformInt(network.num_factories());
      FillDeliveryWeights(network, demand, config, factory,
                          &delivery_weights);
      const double start =
          (static_cast<double>(j) + burst_rng.Uniform()) *
          minutes_per_interval;
      for (int k = 0; k < layer.burst_orders; ++k) {
        double create =
            start + burst_rng.Uniform() * layer.burst_duration_min;
        create = std::min(create, horizon_min - 1e-3);
        orders.push_back(DrawOrder(network, config, delivery_weights,
                                   factory, create, &burst_rng));
      }
    }
  }

  CanonicalizeOrders(&orders);
  return orders;
}

}  // namespace dpdp
