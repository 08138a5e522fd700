#ifndef DISPATCHBENCH_ROUTE_CHECK_H_
#define DISPATCHBENCH_ROUTE_CHECK_H_

// Independent output checker for one dispatched day.
//
// It re-walks every executed route of an EpisodeResult against the raw
// instance data only: the road network's distance matrix, the order list
// and the fleet definition. Nothing of the planner, the simulator's vehicle
// clock or the cost code is called, so a fault in any of them shows up as a
// disagreement here instead of being reproduced.

#include <string>
#include <vector>

#include "model/instance.h"
#include "sim/dispatcher.h"

namespace dispatchbench {

struct CheckReport {
  // One line per violation, each prefixed by its kind: "shape", "stop",
  // "precedence", "lifo", "capacity", "duplicate", "assignment",
  // "time_window", "count" or "totals".
  std::vector<std::string> errors;
  // The checker's own recomputation.
  int nuv = 0;
  double ttl = 0.0;
  double total_cost = 0.0;
  int orders_served = 0;

  bool ok() const { return errors.empty(); }
  // True when some error starts with `kind`.
  bool Has(const std::string& kind) const;
};

// Checks `result` (which must carry the recorded plan: routes and
// order_assignment) against `instance`. TTL and TC must match the
// recomputation to a relative 1e-9 (the two sums add the same legs in
// different orders); deadlines and capacity get an absolute 1e-6 slack.
//
// `check_time_windows` re-derives each stop's service time and checks
// delivery deadlines, under the immediate-service model: a vehicle that is
// idle when an order is assigned leaves at the order's creation time.
// Breakdown holds and travel-time inflation are not modelled, so pass
// false on disrupted days.
CheckReport CheckEpisode(const dpdp::Instance& instance,
                         const dpdp::EpisodeResult& result,
                         bool check_time_windows = true);

}  // namespace dispatchbench

#endif  // DISPATCHBENCH_ROUTE_CHECK_H_
