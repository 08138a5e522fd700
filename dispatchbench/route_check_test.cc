// Self-test of the independent route checker: a Baseline-1 day must pass,
// and every hand-made corruption of its routes, totals or instance must be
// rejected with the right kind of error.
//
//   .bench_build/route_check_test      (or: python3 dispatchbench/run.py --selftest)

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "datagen/dataset.h"
#include "exp/harness.h"
#include "route_check.h"
#include "sim/environment.h"

namespace {

using dispatchbench::CheckEpisode;
using dispatchbench::CheckReport;
using dpdp::EpisodeResult;
using dpdp::Instance;
using dpdp::Stop;
using dpdp::StopType;

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

EpisodeResult RunBaseline1(const Instance& instance) {
  dpdp::SimulatorConfig config;
  config.record_plan = true;
  config.record_visits = false;
  dpdp::Environment env(&instance, config);
  dpdp::MinIncrementalLengthDispatcher baseline;
  env.Reset();
  while (env.AdvanceToDecision()) {
    env.Apply(baseline.ChooseVehicle(env.ObserveDecision()));
  }
  return env.result();
}

// Index of a route holding at least `min_orders` orders.
int RouteWith(const EpisodeResult& r, size_t min_orders) {
  for (size_t v = 0; v < r.routes.size(); ++v) {
    if (r.routes[v].size() >= 2 * min_orders) return static_cast<int>(v);
  }
  return -1;
}

// Rejection test: `mutate` corrupts a copy of the day (result and/or
// instance); the checker must report an error of kind `kind`.
void ExpectRejected(const std::string& name, const Instance& instance,
                    const EpisodeResult& result, const std::string& kind,
                    const std::function<bool(Instance*, EpisodeResult*)>&
                        mutate) {
  Instance bad_instance = instance;
  EpisodeResult bad = result;
  if (!mutate(&bad_instance, &bad)) {
    Expect(false, name + ": no route to mutate");
    return;
  }
  const CheckReport report = CheckEpisode(bad_instance, bad);
  Expect(report.Has(kind), name + " is rejected as " + kind +
                               (report.ok() ? " (accepted)"
                                            : " (" + report.errors[0] + ")"));
}

}  // namespace

int main() {
  dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(11, 120.0));
  const Instance instance =
      dataset.SampleInstance("checker-day", 60, 12, 0, 2, 5);
  const EpisodeResult day = RunBaseline1(instance);
  const CheckReport clean = CheckEpisode(instance, day);
  Expect(clean.ok(), "Baseline-1 day passes" +
                         (clean.ok() ? "" : " (" + clean.errors[0] + ")"));
  Expect(clean.orders_served == day.num_served && day.num_served > 0,
         "recomputed orders_served matches");

  ExpectRejected("pickup swapped with its delivery", instance, day,
                 "precedence", [](Instance*, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   std::vector<Stop>& route = r->routes[v];
                   for (size_t j = 1; j < route.size(); ++j) {
                     if (route[j].order_id == route[0].order_id) {
                       std::swap(route[0], route[j]);
                       return true;
                     }
                   }
                   return false;
                 });
  ExpectRejected("two orders interleaved (P_a P_b D_a D_b)", instance, day,
                 "lifo", [](Instance* inst, EpisodeResult* r) {
                   // Two small orders make capacity irrelevant.
                   for (dpdp::Order& o : inst->orders) o.quantity = 1.0;
                   const int v = RouteWith(*r, 1);
                   const int w = [&] {
                     for (size_t u = 0; u < r->routes.size(); ++u) {
                       if (static_cast<int>(u) != v && !r->routes[u].empty()) {
                         return static_cast<int>(u);
                       }
                     }
                     return -1;
                   }();
                   if (v < 0 || w < 0) return false;
                   // Move w's first order onto v as P_a P_b D_a D_b.
                   const int b = r->routes[w][0].order_id;
                   std::vector<Stop> b_stops;
                   std::vector<Stop> rest;
                   for (const Stop& s : r->routes[w]) {
                     (s.order_id == b ? b_stops : rest).push_back(s);
                   }
                   r->routes[w] = rest;
                   std::vector<Stop>& route = r->routes[v];
                   const int a = route[0].order_id;
                   size_t a_delivery = 1;
                   while (route[a_delivery].order_id != a) ++a_delivery;
                   route.insert(route.begin() + a_delivery + 1, b_stops[1]);
                   route.insert(route.begin() + 1, b_stops[0]);
                   r->order_assignment[b] = v;
                   return true;
                 });
  ExpectRejected("over-capacity load", instance, day, "capacity",
                 [](Instance* inst, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   inst->orders[r->routes[v][0].order_id].quantity =
                       inst->vehicle_config.capacity + 1.0;
                   return true;
                 });
  ExpectRejected("delivery dropped", instance, day, "precedence",
                 [](Instance*, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   std::vector<Stop>& route = r->routes[v];
                   for (size_t j = 0; j < route.size(); ++j) {
                     if (route[j].type == StopType::kDelivery) {
                       route.erase(route.begin() + j);
                       return true;
                     }
                   }
                   return false;
                 });
  ExpectRejected("order served by two vehicles", instance, day, "duplicate",
                 [](Instance*, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   const int w = (v + 1) % static_cast<int>(r->routes.size());
                   const int o = r->routes[v][0].order_id;
                   for (const Stop& s : std::vector<Stop>(r->routes[v])) {
                     if (s.order_id == o) r->routes[w].push_back(s);
                   }
                   return true;
                 });
  ExpectRejected("stop at the wrong node", instance, day, "stop",
                 [](Instance* inst, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   Stop& s = r->routes[v][0];
                   s.node = inst->orders[s.order_id].delivery_node;
                   return inst->orders[s.order_id].delivery_node !=
                          inst->orders[s.order_id].pickup_node;
                 });
  ExpectRejected("missed deadline", instance, day, "time_window",
                 [](Instance* inst, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   dpdp::Order& o = inst->orders[r->routes[v][0].order_id];
                   o.latest_time_min = o.create_time_min;
                   return true;
                 });
  ExpectRejected("order missing from its route", instance, day, "count",
                 [](Instance*, EpisodeResult* r) {
                   const int v = RouteWith(*r, 2);
                   if (v < 0) return false;
                   const int o = r->routes[v][0].order_id;
                   std::vector<Stop> kept;
                   for (const Stop& s : r->routes[v]) {
                     if (s.order_id != o) kept.push_back(s);
                   }
                   r->routes[v] = kept;
                   return true;
                 });
  ExpectRejected("assignment points elsewhere", instance, day, "assignment",
                 [](Instance*, EpisodeResult* r) {
                   const int v = RouteWith(*r, 1);
                   if (v < 0) return false;
                   r->order_assignment[r->routes[v][0].order_id] =
                       (v + 1) % static_cast<int>(r->routes.size());
                   return true;
                 });
  ExpectRejected("total cost off by 0.1%", instance, day, "totals",
                 [](Instance*, EpisodeResult* r) {
                   r->total_cost *= 1.001;
                   return true;
                 });
  ExpectRejected("travel length off by 1 m", instance, day, "totals",
                 [](Instance*, EpisodeResult* r) {
                   r->total_travel_length += 0.001;
                   return true;
                 });
  ExpectRejected("one vehicle too many", instance, day, "totals",
                 [](Instance*, EpisodeResult* r) {
                   r->nuv += 1.0;
                   return true;
                 });

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
