#include "route_check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace dispatchbench {
namespace {

using dpdp::Instance;
using dpdp::Order;
using dpdp::Stop;
using dpdp::StopType;
using dpdp::VehicleConfig;

class Errors {
 public:
  explicit Errors(std::vector<std::string>* out) : out_(out) {}

  template <typename... Args>
  void Add(const char* kind, const char* format, Args... args) {
    if (out_->size() >= kMaxErrors) return;
    char line[256];
    std::snprintf(line, sizeof(line), format, args...);
    out_->push_back(std::string(kind) + ": " + line);
  }

 private:
  static constexpr size_t kMaxErrors = 64;
  std::vector<std::string>* out_;
};

constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-6;

bool Close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max(1.0, std::fabs(b));
}

}  // namespace

bool CheckReport::Has(const std::string& kind) const {
  for (const std::string& e : errors) {
    if (e.compare(0, kind.size(), kind) == 0) return true;
  }
  return false;
}

CheckReport CheckEpisode(const Instance& instance,
                         const dpdp::EpisodeResult& result,
                         bool check_time_windows) {
  CheckReport report;
  Errors err(&report.errors);
  const int num_orders = static_cast<int>(instance.orders.size());
  const int num_vehicles = static_cast<int>(instance.vehicle_depots.size());
  if (static_cast<int>(result.routes.size()) != num_vehicles ||
      static_cast<int>(result.order_assignment.size()) != num_orders) {
    err.Add("shape", "plan has %zu routes / %zu assignments for %d vehicles "
            "/ %d orders (was record_plan on?)", result.routes.size(),
            result.order_assignment.size(), num_vehicles, num_orders);
    return report;
  }
  const dpdp::RoadNetwork& net = *instance.network;
  auto dist = [&](int a, int b) { return net.Distance(a, b); };

  // Where each order was picked up and delivered (vehicle, or -1).
  std::vector<int> picked_by(num_orders, -1);
  std::vector<int> delivered_by(num_orders, -1);

  for (int v = 0; v < num_vehicles; ++v) {
    const std::vector<Stop>& route = result.routes[v];
    if (route.empty()) continue;
    const VehicleConfig& cfg = instance.vehicle_profiles.empty()
                                   ? instance.vehicle_config
                                   : instance.vehicle_profiles[v];
    const int depot = instance.vehicle_depots[v];
    std::vector<int> stack;
    double load = 0.0;
    double length = 0.0;
    int node = depot;
    double service_end = 0.0;
    for (size_t k = 0; k < route.size(); ++k) {
      const Stop& stop = route[k];
      if (stop.order_id < 0 || stop.order_id >= num_orders) {
        err.Add("stop", "vehicle %d stop %zu names order %d", v, k,
                stop.order_id);
        return report;
      }
      const Order& o = instance.orders[stop.order_id];
      const bool pickup = stop.type == StopType::kPickup;
      if (stop.node != (pickup ? o.pickup_node : o.delivery_node)) {
        err.Add("stop", "vehicle %d stop %zu of order %d is at node %d", v,
                k, o.id, stop.node);
      }
      length += dist(node, stop.node);

      if (check_time_windows) {
        // Immediate service: order o is known from its creation time on, so
        // a vehicle leaves for o's stop at the later of that time and the
        // end of its previous service.
        const double depart =
            k == 0 ? o.create_time_min : std::max(service_end,
                                                  o.create_time_min);
        const double arrival =
            depart + dist(node, stop.node) / cfg.speed_kmph * 60.0;
        const double start =
            pickup ? std::max(arrival, o.create_time_min) : arrival;
        if (!pickup && start > o.latest_time_min + kAbsTol) {
          err.Add("time_window", "order %d delivered at %.6f after its "
                  "deadline %.6f (vehicle %d)", o.id, start,
                  o.latest_time_min, v);
        }
        service_end = start + cfg.service_time_min;
        if (!instance.node_service_surcharge_min.empty()) {
          service_end += instance.node_service_surcharge_min[stop.node];
        }
      }

      if (pickup) {
        if (picked_by[o.id] >= 0) {
          err.Add("duplicate", "order %d picked up by vehicle %d and again "
                  "by vehicle %d", o.id, picked_by[o.id], v);
        }
        picked_by[o.id] = v;
        stack.push_back(o.id);
        load += o.quantity;
        if (load > cfg.capacity + kAbsTol) {
          err.Add("capacity", "vehicle %d carries %.3f > %.3f after picking "
                  "up order %d", v, load, cfg.capacity, o.id);
        }
      } else {
        if (picked_by[o.id] != v) {
          err.Add("precedence", "vehicle %d delivers order %d it did not "
                  "pick up first", v, o.id);
        } else if (delivered_by[o.id] >= 0) {
          err.Add("duplicate", "order %d delivered twice", o.id);
        } else if (stack.empty() || stack.back() != o.id) {
          err.Add("lifo", "vehicle %d delivers order %d while order %d is "
                  "on top", v, o.id, stack.empty() ? -1 : stack.back());
        }
        if (picked_by[o.id] == v && delivered_by[o.id] < 0) {
          delivered_by[o.id] = v;
          const auto it = std::find(stack.begin(), stack.end(), o.id);
          if (it != stack.end()) stack.erase(it);
          load -= o.quantity;
        }
      }
      node = stop.node;
    }
    if (!stack.empty()) {
      err.Add("precedence", "vehicle %d ends its day with %zu orders on "
              "board", v, stack.size());
    }
    length += dist(node, depot);
    ++report.nuv;
    report.ttl += length;
    report.total_cost += cfg.fixed_cost + cfg.cost_per_km * length;
  }

  int unserved = 0;
  for (int id = 0; id < num_orders; ++id) {
    const bool served = picked_by[id] >= 0 && delivered_by[id] == picked_by[id];
    if (picked_by[id] >= 0 && !served) {
      err.Add("precedence", "order %d picked up by vehicle %d but never "
              "delivered", id, picked_by[id]);
    }
    if (served) {
      ++report.orders_served;
      if (result.order_assignment[id] != picked_by[id]) {
        err.Add("assignment", "order %d served by vehicle %d but assigned "
                "to %d", id, picked_by[id], result.order_assignment[id]);
      }
    } else {
      ++unserved;
      if (result.order_assignment[id] != -1) {
        err.Add("assignment", "order %d assigned to vehicle %d but not "
                "served", id, result.order_assignment[id]);
      }
    }
  }
  std::vector<int> skipped;
  for (const dpdp::OrderSkip& s : result.skipped_orders) {
    skipped.push_back(s.order_id);
  }
  std::sort(skipped.begin(), skipped.end());
  if (std::adjacent_find(skipped.begin(), skipped.end()) != skipped.end()) {
    err.Add("count", "an order is listed as skipped twice");
  }
  for (int id : skipped) {
    if (id < 0 || id >= num_orders || picked_by[id] >= 0) {
      err.Add("count", "skipped order %d is served or unknown", id);
    }
  }
  if (static_cast<int>(skipped.size()) != unserved ||
      result.num_unserved != unserved ||
      result.num_served != report.orders_served ||
      result.num_orders != num_orders) {
    err.Add("count", "result says %d served / %d unserved / %d skipped of "
            "%d; routes serve %d of %d", result.num_served,
            result.num_unserved, static_cast<int>(skipped.size()),
            result.num_orders, report.orders_served, num_orders);
  }

  if (result.nuv != static_cast<double>(report.nuv)) {
    err.Add("totals", "NUV %.0f, routes use %d vehicles", result.nuv,
            report.nuv);
  }
  if (!Close(result.total_travel_length, report.ttl)) {
    err.Add("totals", "TTL %.9f, routes measure %.9f",
            result.total_travel_length, report.ttl);
  }
  if (!Close(result.total_cost, report.total_cost)) {
    err.Add("totals", "TC %.9f, routes cost %.9f", result.total_cost,
            report.total_cost);
  }
  return report;
}

}  // namespace dispatchbench
