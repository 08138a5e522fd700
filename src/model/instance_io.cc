#include "model/instance_io.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace dpdp {
namespace {

/// Strict integer parse: the whole field must be consumed (std::stoi would
/// happily read "12x" as 12, letting a corrupted file load "successfully").
bool ParseIntField(const std::string& s, int* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDoubleField(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char ch : line) {
    if (ch == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field += ch;
    }
  }
  fields.push_back(field);
  return fields;
}

bool IsSkippable(const std::string& line) {
  if (line.empty()) return true;
  return line[0] == '#';
}

Status ParseError(int line_no, const std::string& what) {
  return Status::InvalidArgument("instance csv line " +
                                 std::to_string(line_no) + ": " + what);
}

}  // namespace

void SaveInstanceCsv(const Instance& instance, std::ostream* os) {
  DPDP_CHECK(os != nullptr);
  DPDP_CHECK(instance.network != nullptr);
  const RoadNetwork& net = *instance.network;
  std::ostream& out = *os;
  out.precision(17);

  out << "[meta]\n";
  out << "name,num_time_intervals,horizon_minutes\n";
  out << instance.name << "," << instance.num_time_intervals << ","
      << instance.horizon_minutes << "\n";

  out << "[nodes]\n";
  out << "id,kind,x,y,name\n";
  for (int i = 0; i < net.num_nodes(); ++i) {
    const NodeInfo& n = net.node(i);
    out << n.id << ","
        << (n.kind == NodeKind::kDepot ? "depot" : "factory") << "," << n.x
        << "," << n.y << "," << n.name << "\n";
  }

  out << "[distances]\n";
  out << "from,to,km\n";
  for (int i = 0; i < net.num_nodes(); ++i) {
    for (int j = 0; j < net.num_nodes(); ++j) {
      if (i == j) continue;
      out << i << "," << j << "," << net.Distance(i, j) << "\n";
    }
  }

  const VehicleConfig& cfg = instance.vehicle_config;
  out << "[vehicle_config]\n";
  out << "capacity,fixed_cost,cost_per_km,speed_kmph,service_time_min\n";
  out << cfg.capacity << "," << cfg.fixed_cost << "," << cfg.cost_per_km
      << "," << cfg.speed_kmph << "," << cfg.service_time_min << "\n";

  out << "[vehicle_depots]\n";
  out << "depot_node\n";
  for (int depot : instance.vehicle_depots) out << depot << "\n";

  out << "[orders]\n";
  out << "id,pickup,delivery,quantity,create_min,latest_min\n";
  for (const Order& o : instance.orders) {
    out << o.id << "," << o.pickup_node << "," << o.delivery_node << ","
        << o.quantity << "," << o.create_time_min << ","
        << o.latest_time_min << "\n";
  }
}

Status SaveInstanceCsvFile(const Instance& instance,
                           const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open for writing: " + path);
  SaveInstanceCsv(instance, &file);
  file.flush();
  if (!file) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<Instance> LoadInstanceCsv(std::istream* is) {
  DPDP_CHECK(is != nullptr);

  enum class Section {
    kNone,
    kMeta,
    kNodes,
    kDistances,
    kVehicleConfig,
    kVehicleDepots,
    kOrders,
  };

  Instance inst;
  std::vector<NodeInfo> nodes;
  std::vector<std::tuple<int, int, double>> distances;
  Section section = Section::kNone;
  bool meta_seen = false;
  bool header_consumed = false;
  std::string line;
  int line_no = 0;

  while (std::getline(*is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (IsSkippable(line)) continue;
    if (line[0] == '[') {
      if (line == "[meta]") {
        section = Section::kMeta;
      } else if (line == "[nodes]") {
        section = Section::kNodes;
      } else if (line == "[distances]") {
        section = Section::kDistances;
      } else if (line == "[vehicle_config]") {
        section = Section::kVehicleConfig;
      } else if (line == "[vehicle_depots]") {
        section = Section::kVehicleDepots;
      } else if (line == "[orders]") {
        section = Section::kOrders;
      } else {
        return ParseError(line_no, "unknown section " + line);
      }
      header_consumed = false;
      continue;
    }
    if (!header_consumed) {
      header_consumed = true;  // Column-name row of the section.
      continue;
    }

    const std::vector<std::string> f = SplitCsvLine(line);
    // Every numeric field goes through the strict parsers so a corrupted
    // or truncated file fails loudly instead of loading garbage.
    const auto malformed = [&]() {
      return ParseError(line_no, "malformed number in: " + line);
    };
    switch (section) {
      case Section::kNone:
        return ParseError(line_no, "data before any section");
      case Section::kMeta: {
        if (f.size() != 3) return ParseError(line_no, "meta needs 3 fields");
        inst.name = f[0];
        if (!ParseIntField(f[1], &inst.num_time_intervals) ||
            !ParseDoubleField(f[2], &inst.horizon_minutes)) {
          return malformed();
        }
        meta_seen = true;
        break;
      }
      case Section::kNodes: {
        if (f.size() != 5) return ParseError(line_no, "node needs 5 fields");
        NodeInfo n;
        if (!ParseIntField(f[0], &n.id)) return malformed();
        if (f[1] == "depot") {
          n.kind = NodeKind::kDepot;
        } else if (f[1] == "factory") {
          n.kind = NodeKind::kFactory;
        } else {
          return ParseError(line_no, "bad node kind " + f[1]);
        }
        if (!ParseDoubleField(f[2], &n.x) || !ParseDoubleField(f[3], &n.y)) {
          return malformed();
        }
        n.name = f[4];
        if (n.id != static_cast<int>(nodes.size())) {
          return ParseError(line_no, "node ids must be dense in order");
        }
        nodes.push_back(n);
        break;
      }
      case Section::kDistances: {
        if (f.size() != 3) {
          return ParseError(line_no, "distance needs 3 fields");
        }
        int from = 0;
        int to = 0;
        double km = 0.0;
        if (!ParseIntField(f[0], &from) || !ParseIntField(f[1], &to) ||
            !ParseDoubleField(f[2], &km)) {
          return malformed();
        }
        distances.emplace_back(from, to, km);
        break;
      }
      case Section::kVehicleConfig: {
        if (f.size() != 5) {
          return ParseError(line_no, "vehicle config needs 5 fields");
        }
        VehicleConfig& cfg = inst.vehicle_config;
        if (!ParseDoubleField(f[0], &cfg.capacity) ||
            !ParseDoubleField(f[1], &cfg.fixed_cost) ||
            !ParseDoubleField(f[2], &cfg.cost_per_km) ||
            !ParseDoubleField(f[3], &cfg.speed_kmph) ||
            !ParseDoubleField(f[4], &cfg.service_time_min)) {
          return malformed();
        }
        break;
      }
      case Section::kVehicleDepots: {
        if (f.size() != 1) return ParseError(line_no, "depot needs 1 field");
        int depot = 0;
        if (!ParseIntField(f[0], &depot)) return malformed();
        inst.vehicle_depots.push_back(depot);
        break;
      }
      case Section::kOrders: {
        if (f.size() != 6) return ParseError(line_no, "order needs 6 fields");
        Order o;
        if (!ParseIntField(f[0], &o.id) ||
            !ParseIntField(f[1], &o.pickup_node) ||
            !ParseIntField(f[2], &o.delivery_node) ||
            !ParseDoubleField(f[3], &o.quantity) ||
            !ParseDoubleField(f[4], &o.create_time_min) ||
            !ParseDoubleField(f[5], &o.latest_time_min)) {
          return malformed();
        }
        inst.orders.push_back(o);
        break;
      }
    }
  }

  if (!meta_seen) {
    return Status::InvalidArgument("instance csv has no [meta] section");
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("instance csv has no [nodes] section");
  }
  nn::Matrix d(static_cast<int>(nodes.size()),
               static_cast<int>(nodes.size()));
  // The distance matrix must be fully and uniquely specified: a truncated
  // file would otherwise leave silent zero distances, which make every
  // route look free.
  std::vector<uint8_t> seen(nodes.size() * nodes.size(), 0);
  for (const auto& [from, to, km] : distances) {
    if (from < 0 || to < 0 || from >= d.rows() || to >= d.cols()) {
      return Status::InvalidArgument("distance endpoint out of range");
    }
    if (from == to) {
      // Never written: a diagonal entry can only stand in for a missing
      // off-diagonal pair while keeping the entry count right.
      return Status::InvalidArgument("diagonal distance entry " +
                                     std::to_string(from) + "," +
                                     std::to_string(to));
    }
    uint8_t& mark = seen[static_cast<size_t>(from) * nodes.size() + to];
    if (mark != 0) {
      return Status::InvalidArgument(
          "duplicate distance entry " + std::to_string(from) + "," +
          std::to_string(to));
    }
    mark = 1;
    d(from, to) = km;
  }
  const size_t expected =
      nodes.size() * nodes.size() - nodes.size();  // All off-diagonal pairs.
  if (distances.size() != expected) {
    return Status::InvalidArgument(
        "distance section incomplete: got " +
        std::to_string(distances.size()) + " entries, expected " +
        std::to_string(expected));
  }
  DPDP_ASSIGN_OR_RETURN(RoadNetwork net,
                        RoadNetwork::Create(std::move(nodes), std::move(d)));
  inst.network = std::make_shared<RoadNetwork>(std::move(net));
  CanonicalizeOrders(&inst.orders);
  DPDP_RETURN_IF_ERROR(ValidateInstance(inst));
  return inst;
}

Result<Instance> LoadInstanceCsvFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open: " + path);
  return LoadInstanceCsv(&file);
}

}  // namespace dpdp
