// In-memory netlist.  A Circuit owns its elements; the Simulator walks them
// to assemble modified-nodal-analysis (MNA) systems.
//
// Supported elements (HSPICE letter in parentheses):
//   resistor (R), capacitor (C), independent voltage source (V, with DC /
//   PULSE / PWL / SIN waveforms), independent current source (I),
//   voltage-controlled voltage source (E), voltage-controlled current
//   source (G), and a MOSFET (M) parameterized by the pdk.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "pdk/mos_params.hpp"
#include "spice/waveform.hpp"

namespace glova::spice {

/// Node handle; 0 is ground.
using NodeId = std::size_t;

struct Resistor {
  std::string name;
  NodeId a = 0, b = 0;
  double ohms = 1.0;
};

struct Capacitor {
  std::string name;
  NodeId a = 0, b = 0;
  double farads = 1e-15;
  std::optional<double> initial_voltage;  ///< .ic style initial condition
};

struct VoltageSource {
  std::string name;
  NodeId pos = 0, neg = 0;
  Waveform waveform = Waveform::dc(0.0);
};

struct CurrentSource {
  std::string name;
  NodeId pos = 0, neg = 0;  ///< current flows pos -> neg through the source
  Waveform waveform = Waveform::dc(0.0);
};

struct Vcvs {
  std::string name;
  NodeId pos = 0, neg = 0;        ///< output terminals
  NodeId ctrl_pos = 0, ctrl_neg = 0;
  double gain = 1.0;
};

struct Vccs {
  std::string name;
  NodeId pos = 0, neg = 0;
  NodeId ctrl_pos = 0, ctrl_neg = 0;
  double transconductance = 0.0;  ///< [S]
};

/// MOSFET instance.  Electrical parameters come from the pdk so PVT
/// corners and mismatch shift every instance consistently.
struct Mosfet {
  std::string name;
  NodeId drain = 0, gate = 0, source = 0;
  pdk::MosParams params;
  double w = 1e-6;  ///< [m]
  double l = 100e-9;  ///< [m]

  [[nodiscard]] double w_over_l() const { return w / l; }
};

class Circuit {
 public:
  static constexpr NodeId ground() { return 0; }

  /// Get-or-create a named node.
  NodeId node(const std::string& name);

  /// Look up an existing node; throws std::out_of_range if absent.
  [[nodiscard]] NodeId find_node(const std::string& name) const;
  [[nodiscard]] bool has_node(const std::string& name) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  /// Number of nodes including ground.
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }

  void add_resistor(std::string name, NodeId a, NodeId b, double ohms);
  void add_capacitor(std::string name, NodeId a, NodeId b, double farads,
                     std::optional<double> initial_voltage = std::nullopt);
  void add_vsource(std::string name, NodeId pos, NodeId neg, Waveform waveform);
  void add_isource(std::string name, NodeId pos, NodeId neg, Waveform waveform);
  void add_vcvs(std::string name, NodeId pos, NodeId neg, NodeId ctrl_pos, NodeId ctrl_neg,
                double gain);
  void add_vccs(std::string name, NodeId pos, NodeId neg, NodeId ctrl_pos, NodeId ctrl_neg,
                double transconductance);
  void add_mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
                  const pdk::MosParams& params, double w, double l);

  [[nodiscard]] const std::vector<Resistor>& resistors() const { return resistors_; }
  [[nodiscard]] const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  [[nodiscard]] const std::vector<VoltageSource>& vsources() const { return vsources_; }
  [[nodiscard]] const std::vector<CurrentSource>& isources() const { return isources_; }
  [[nodiscard]] const std::vector<Vcvs>& vcvs() const { return vcvs_; }
  [[nodiscard]] const std::vector<Vccs>& vccs() const { return vccs_; }
  [[nodiscard]] const std::vector<Mosfet>& mosfets() const { return mosfets_; }

  [[nodiscard]] std::size_t element_count() const;

  /// Index of a voltage source by name (for current measurements);
  /// throws std::out_of_range if absent.
  [[nodiscard]] std::size_t vsource_index(const std::string& name) const;

 private:
  std::vector<std::string> node_names_{"0"};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<Vcvs> vcvs_;
  std::vector<Vccs> vccs_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace glova::spice
