#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "datagen/campus.h"
#include "datagen/dataset.h"
#include "datagen/demand_model.h"
#include "datagen/order_gen.h"
#include "exp/harness.h"
#include "model/instance.h"
#include "stpred/std_matrix.h"

namespace dpdp {
namespace {

// ---------------------------------------------------------------- Campus --

TEST(Campus, GeneratesRequestedTopology) {
  CampusConfig config;
  config.num_factories = 27;
  config.num_depots = 2;
  const auto net = GenerateCampus(config);
  EXPECT_EQ(net->num_nodes(), 29);
  EXPECT_EQ(net->num_factories(), 27);
  EXPECT_EQ(net->num_depots(), 2);
}

TEST(Campus, ReproducibleForSameSeed) {
  CampusConfig config;
  const auto a = GenerateCampus(config);
  const auto b = GenerateCampus(config);
  for (int i = 0; i < a->num_nodes(); ++i) {
    for (int j = 0; j < a->num_nodes(); ++j) {
      EXPECT_DOUBLE_EQ(a->Distance(i, j), b->Distance(i, j));
    }
  }
}

TEST(Campus, DifferentSeedsDiffer) {
  CampusConfig a_cfg;
  a_cfg.seed = 1;
  CampusConfig b_cfg;
  b_cfg.seed = 2;
  const auto a = GenerateCampus(a_cfg);
  const auto b = GenerateCampus(b_cfg);
  double diff = 0.0;
  for (int i = 0; i < a->num_nodes(); ++i) {
    for (int j = 0; j < a->num_nodes(); ++j) {
      diff += std::abs(a->Distance(i, j) - b->Distance(i, j));
    }
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Campus, CoordinatesInsideExtentAndDistancesMetric) {
  CampusConfig config;
  const auto net = GenerateCampus(config);
  for (int i = 0; i < net->num_nodes(); ++i) {
    EXPECT_GE(net->node(i).x, 0.0);
    EXPECT_LE(net->node(i).x, config.extent_km);
    EXPECT_GE(net->node(i).y, 0.0);
    EXPECT_LE(net->node(i).y, config.extent_km);
  }
  // Triangle inequality holds for scaled Euclidean distances.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      for (int k = 0; k < 5; ++k) {
        EXPECT_LE(net->Distance(i, j),
                  net->Distance(i, k) + net->Distance(k, j) + 1e-9);
      }
    }
  }
}

// ---------------------------------------------------------- DemandModel --

class DemandModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CampusConfig config;
    net_ = GenerateCampus(config);
    model_ = std::make_unique<DemandModel>(*net_, 144, 99);
  }
  std::shared_ptr<const RoadNetwork> net_;
  std::unique_ptr<DemandModel> model_;
};

TEST_F(DemandModelTest, RatesNonNegative) {
  for (int i = 0; i < model_->num_factories(); i += 5) {
    for (int j = 0; j < 144; j += 7) {
      EXPECT_GE(model_->Rate(i, j, 3), 0.0);
    }
  }
  EXPECT_GT(model_->TotalRate(0), 0.0);
}

TEST_F(DemandModelTest, DemandPeaksInWorkingHours) {
  // Aggregate demand at 11:00 and 15:30 must exceed demand at 03:00
  // (paper Fig. 2: peaks 10-12 and 14-17).
  auto total_at = [&](double minute) {
    const int interval = static_cast<int>(minute / 10.0);
    double s = 0.0;
    for (int i = 0; i < model_->num_factories(); ++i) {
      s += model_->Rate(i, interval, 0);
    }
    return s;
  };
  EXPECT_GT(total_at(11 * 60.0), 5.0 * total_at(3 * 60.0));
  EXPECT_GT(total_at(15.5 * 60.0), 5.0 * total_at(3 * 60.0));
}

TEST_F(DemandModelTest, SpatialSkewExists) {
  // Some factories should dominate: max weight well above median weight.
  std::vector<double> weights;
  for (int i = 0; i < model_->num_factories(); ++i) {
    weights.push_back(model_->FactoryWeight(i));
  }
  std::sort(weights.begin(), weights.end());
  EXPECT_GT(weights.back(), 2.0 * weights[weights.size() / 2]);
}

TEST_F(DemandModelTest, NearbyDaysMoreSimilarThanDistantDays) {
  // Correlate per-factory day factors via rates: day 10 vs 11 should be
  // closer than day 10 vs 40 on average (AR(1) structure).
  auto day_vector = [&](int day) {
    std::vector<double> v;
    for (int i = 0; i < model_->num_factories(); ++i) {
      v.push_back(model_->Rate(i, 66, day));  // 11:00 interval.
    }
    return v;
  };
  auto l1 = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
    return s;
  };
  const auto d10 = day_vector(10);
  double near = 0.0;
  double far = 0.0;
  for (int off = 1; off <= 3; ++off) near += l1(d10, day_vector(10 + off));
  for (int off = 28; off <= 30; ++off) far += l1(d10, day_vector(10 + off));
  EXPECT_LT(near, far);
}

TEST_F(DemandModelTest, DeterministicAcrossInstances) {
  DemandModel other(*net_, 144, 99);
  EXPECT_DOUBLE_EQ(model_->Rate(3, 70, 5), other.Rate(3, 70, 5));
  EXPECT_DOUBLE_EQ(model_->TotalRate(12), other.TotalRate(12));
}

TEST_F(DemandModelTest, DayRatesEqualRateBitForBit) {
  // The order generator reads a whole factory-day through DayRates; it
  // must see exactly the rates Rate gives, late days included.
  for (int day : {0, 1, 6, 45, 300}) {
    for (int i = 0; i < model_->num_factories(); ++i) {
      const std::vector<double> rates = model_->DayRates(i, day);
      ASSERT_EQ(static_cast<int>(rates.size()), model_->num_intervals());
      for (int j = 0; j < model_->num_intervals(); ++j) {
        EXPECT_EQ(rates[j], model_->Rate(i, j, day))
            << "factory " << i << " interval " << j << " day " << day;
      }
    }
  }
}

// -------------------------------------------------------------- OrderGen --

TEST(OrderGen, ProducesValidCanonicalOrders) {
  CampusConfig cc;
  const auto net = GenerateCampus(cc);
  DemandModel model(*net, 144, 5);
  OrderGenConfig config;
  config.mean_orders_per_day = 200.0;
  const std::vector<Order> orders =
      GenerateDayOrders(*net, model, config, 0, 144, kMinutesPerDay, 11);
  ASSERT_GT(orders.size(), 50u);
  double prev = -1.0;
  for (const Order& o : orders) {
    EXPECT_TRUE(ValidateOrder(o, net->num_nodes()).ok()) << o.DebugString();
    EXPECT_GE(o.create_time_min, prev);
    prev = o.create_time_min;
    EXPECT_GE(o.quantity, 1.0);
    EXPECT_LE(o.quantity, config.max_quantity);
    // Both endpoints are factories.
    EXPECT_GE(net->FactoryOrdinal(o.pickup_node), 0);
    EXPECT_GE(net->FactoryOrdinal(o.delivery_node), 0);
  }
}

TEST(OrderGen, CountScalesWithMean) {
  CampusConfig cc;
  const auto net = GenerateCampus(cc);
  DemandModel model(*net, 144, 5);
  OrderGenConfig small;
  small.mean_orders_per_day = 100.0;
  OrderGenConfig large;
  large.mean_orders_per_day = 600.0;
  const auto few =
      GenerateDayOrders(*net, model, small, 0, 144, kMinutesPerDay, 1);
  const auto many =
      GenerateDayOrders(*net, model, large, 0, 144, kMinutesPerDay, 1);
  EXPECT_NEAR(static_cast<double>(few.size()), 100.0, 35.0);
  EXPECT_NEAR(static_cast<double>(many.size()), 600.0, 90.0);
}

TEST(OrderGen, WindowsAreServiceable) {
  CampusConfig cc;
  const auto net = GenerateCampus(cc);
  DemandModel model(*net, 144, 5);
  OrderGenConfig config;
  for (const Order& o :
       GenerateDayOrders(*net, model, config, 2, 144, kMinutesPerDay, 3)) {
    const double direct = net->TravelTimeMinutes(
        o.pickup_node, o.delivery_node, config.speed_kmph);
    // Window leaves at least the direct drive plus service margins.
    EXPECT_GE(o.latest_time_min - o.create_time_min,
              direct + 2.0 * config.service_time_min - 1e-9);
  }
}

// --------------------------------------------------------------- Dataset --

TEST(Dataset, DayCachingIsStable) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const std::vector<Order>& a = dataset.Day(4);
  const std::vector<Order>& b = dataset.Day(4);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[0].create_time_min, b[0].create_time_min);
}

TEST(Dataset, StdMatrixMatchesDayOrders) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const nn::Matrix direct = BuildStdMatrix(
      *dataset.network(), dataset.Day(2), 144, kMinutesPerDay);
  EXPECT_TRUE(dataset.StdMatrixOfDay(2).AllClose(direct));
}

TEST(Dataset, HistoryReturnsPrecedingDays) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const auto history = dataset.History(5, 3);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_TRUE(history[2].AllClose(dataset.StdMatrixOfDay(4)));
  EXPECT_TRUE(history[0].AllClose(dataset.StdMatrixOfDay(2)));
}

TEST(Dataset, SampledInstanceIsValidAndSized) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const Instance inst = dataset.SampleInstance("s", 50, 10, 0, 4, 77);
  EXPECT_EQ(inst.num_orders(), 50);
  EXPECT_EQ(inst.num_vehicles(), 10);
  EXPECT_TRUE(ValidateInstance(inst).ok());
}

TEST(Dataset, SamplingIsSeedDeterministic) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const Instance a = dataset.SampleInstance("a", 30, 5, 0, 4, 5);
  const Instance b = dataset.SampleInstance("b", 30, 5, 0, 4, 5);
  const Instance c = dataset.SampleInstance("c", 30, 5, 0, 4, 6);
  ASSERT_EQ(a.num_orders(), b.num_orders());
  double same = 0.0;
  for (int i = 0; i < a.num_orders(); ++i) {
    EXPECT_DOUBLE_EQ(a.orders[i].create_time_min,
                     b.orders[i].create_time_min);
    same += (a.orders[i].create_time_min == c.orders[i].create_time_min);
  }
  EXPECT_LT(same, a.num_orders());  // Different seed -> different sample.
}

TEST(Dataset, FullDayInstanceUsesAllOrders) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const Instance inst = dataset.FullDayInstance("d", 6, 20);
  EXPECT_EQ(inst.num_orders(),
            static_cast<int>(dataset.Day(6).size()));
  EXPECT_TRUE(ValidateInstance(inst).ok());
}

TEST(Dataset, VehiclesSpreadAcrossDepots) {
  DpdpDataset dataset(StandardDatasetConfig(3, 120.0));
  const Instance inst = dataset.SampleInstance("s", 20, 4, 0, 1, 1);
  std::set<int> depots(inst.vehicle_depots.begin(),
                       inst.vehicle_depots.end());
  EXPECT_EQ(depots.size(), 2u);
}

}  // namespace
}  // namespace dpdp
