#include "platform/node.hpp"

namespace everest::platform {

const NodeSpec* PlatformSpec::find(const std::string& name) const {
  for (const NodeSpec& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

NodeSpec* PlatformSpec::find(const std::string& name) {
  for (NodeSpec& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

LinkModel PlatformSpec::link_between(const NodeSpec& a,
                                     const NodeSpec& b) const {
  if (&a == &b || a.name == b.name) return LinkModel::local_dram();
  const bool a_cloud = a.tier == Tier::kCloud;
  const bool b_cloud = b.tier == Tier::kCloud;
  if (a_cloud != b_cloud) return edge_uplink;
  return intra_dc;
}

PlatformSpec PlatformSpec::everest_reference(int cloud_nodes,
                                             int disaggregated,
                                             int edge_nodes) {
  PlatformSpec spec;
  for (int i = 0; i < cloud_nodes; ++i) {
    NodeSpec node;
    node.name = "p9-" + std::to_string(i);
    node.tier = Tier::kCloud;
    node.cpu = compiler::CpuModel::power9();
    node.memory_gib = 512.0;
    FpgaSlot slot;
    slot.id = node.name + "-vu9p";
    slot.device = hls::FpgaDevice::p9_vu9p();
    slot.link = LinkModel::opencapi();
    slot.role_bitstream_mib = 45.0;
    node.fpgas.push_back(std::move(slot));
    spec.nodes.push_back(std::move(node));
  }
  // Disaggregated cloudFPGAs hang off a host-less "resource node" reachable
  // over the data-center network from every cloud node; we attach them to
  // the first cloud node's spec as network-attached slots so the executor
  // charges the network link.
  if (!spec.nodes.empty()) {
    for (int i = 0; i < disaggregated; ++i) {
      FpgaSlot slot;
      slot.id = "cloudfpga-" + std::to_string(i);
      slot.device = hls::FpgaDevice::cloudfpga_ku060();
      slot.link = LinkModel::udp_datacenter();
      slot.network_attached = true;
      slot.role_bitstream_mib = 18.0;
      spec.nodes.front().fpgas.push_back(std::move(slot));
    }
  }
  for (int i = 0; i < edge_nodes; ++i) {
    NodeSpec node;
    node.name = "edge-" + std::to_string(i);
    node.tier = Tier::kInnerEdge;
    node.cpu = compiler::CpuModel::edge_arm();
    node.memory_gib = 8.0;
    FpgaSlot slot;
    slot.id = node.name + "-zu7ev";
    slot.device = hls::FpgaDevice::edge_zu7ev();
    slot.link = LinkModel::pcie3();
    slot.role_bitstream_mib = 8.0;
    node.fpgas.push_back(std::move(slot));
    spec.nodes.push_back(std::move(node));
  }
  return spec;
}

}  // namespace everest::platform
