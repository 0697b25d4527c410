// Node and platform descriptions for the EVEREST ecosystem (paper Fig. 3:
// end-point / inner-edge / cloud hierarchy; Fig. 4: heterogeneous nodes
// combining CPUs with bus-attached and network-attached FPGAs).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "compiler/variants.hpp"
#include "hls/resource_library.hpp"
#include "platform/links.hpp"

namespace everest::platform {

/// Where a node sits in the hierarchy.
enum class Tier : std::uint8_t { kEndpoint, kInnerEdge, kCloud };

/// An FPGA attached to (or reachable from) a node.
struct FpgaSlot {
  std::string id;
  hls::FpgaDevice device;
  LinkModel link;             // how the host reaches it
  bool network_attached = false;
  /// Partial-reconfiguration speed (cloudFPGA shell-role, paper §V).
  double reconfig_ms_per_mib = 6.0;
  /// Role bitstream size as a fraction of full-device configuration.
  double role_bitstream_mib = 18.0;
  /// Currently loaded role ("" = blank).
  std::string current_role;
  /// Marked by fault injection / a failed partial reconfiguration: the
  /// slot refuses work until repaired (execute_on_fpga → kUnavailable,
  /// find_slot skips it).
  bool failed = false;

  /// Time (us) to swap in a role; 0 when already loaded.
  [[nodiscard]] double reconfig_us(const std::string& role) const {
    if (role == current_role) return 0.0;
    return reconfig_ms_per_mib * role_bitstream_mib * 1e3;
  }
};

/// One compute node.
struct NodeSpec {
  std::string name;
  Tier tier = Tier::kCloud;
  compiler::CpuModel cpu;
  std::vector<FpgaSlot> fpgas;
  double memory_gib = 64.0;
};

/// A whole deployment: nodes plus the inter-tier fabric.
struct PlatformSpec {
  std::vector<NodeSpec> nodes;
  LinkModel intra_dc = LinkModel::udp_datacenter();
  LinkModel edge_uplink = LinkModel::edge_wan();

  [[nodiscard]] const NodeSpec* find(const std::string& name) const;
  [[nodiscard]] NodeSpec* find(const std::string& name);

  /// Link between two nodes (same node → local DRAM; same tier → intra-DC;
  /// across the edge/cloud boundary → WAN uplink).
  [[nodiscard]] LinkModel link_between(const NodeSpec& a,
                                       const NodeSpec& b) const;

  /// The reference EVEREST deployment (paper §V): `cloud_nodes` POWER9
  /// servers each with one OpenCAPI bus-attached VU9P, `disaggregated`
  /// network-attached cloudFPGA KU060s, and `edge_nodes` ARM edge nodes
  /// each with a small bus-attached device.
  static PlatformSpec everest_reference(int cloud_nodes = 2,
                                        int disaggregated = 4,
                                        int edge_nodes = 2);
};

}  // namespace everest::platform
