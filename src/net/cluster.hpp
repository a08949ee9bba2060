// Cluster presets matching the paper's evaluation platforms (§6.1).
//
//   A: 40  × dual-socket 14-core Haswell,  EDR InfiniBand, SHArP switches
//   B: 648 × dual-socket 14-core Broadwell, EDR InfiniBand
//   C: 752 × dual-socket 14-core Haswell,  Omni-Path
//   D: 508 × 68-core KNL (cache mode),     Omni-Path
//
// Constants are calibrated so the simulated transport reproduces the
// qualitative communication characteristics of Figure 1 (see DESIGN.md §1);
// absolute latencies are in the right order of magnitude but are not claimed
// to match the original testbeds.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/models.hpp"

namespace dpml::net {

struct ClusterConfig {
  std::string name;
  int total_nodes = 1;
  NodeShape node;
  HostModel host;
  NicModel nic;
  int nodes_per_leaf = 24;
  // Fat-tree core oversubscription factor (1.0 = non-blocking). Each leaf's
  // uplink pool carries nodes_per_leaf * link_bw / oversubscription of
  // cross-leaf traffic (paper §6.1: cluster D has a 5/4-oversubscribed
  // fat tree).
  double oversubscription = 1.0;
  std::optional<SharpModel> sharp;  // set only for SHArP-capable fabrics

  int max_ppn() const { return node.cores(); }
  bool has_sharp() const { return sharp.has_value(); }
};

// The four evaluation clusters.
ClusterConfig cluster_a();  // Xeon + IB + SHArP
ClusterConfig cluster_b();  // Xeon + IB
ClusterConfig cluster_c();  // Xeon + Omni-Path
ClusterConfig cluster_d();  // KNL + Omni-Path

// Lookup by single-letter or full name ("A", "a", "cluster_a"). Throws
// util::InvariantError listing the presets for unknown names.
ClusterConfig cluster_by_name(const std::string& name);

// All presets, for sweeps.
std::vector<ClusterConfig> all_clusters();

// A tiny laptop-scale config for unit tests (fast, 2x2-core nodes, SHArP on).
ClusterConfig test_cluster(int total_nodes = 8);

// Multi-rail variant: same cluster with `hcas` HCAs per node (one per socket
// group). Models the multi-HCA machines of paper §4.3, where leader
// placement is HCA-aware.
ClusterConfig with_rails(ClusterConfig cfg, int hcas);

// Scaled-out variant: the same per-node/per-NIC model with at least `nodes`
// nodes (a no-op when the preset is already big enough). Extrapolation for
// fig10-style extreme-scale sweeps: the leaf shape and oversubscription stay
// those of the preset, only the node count grows.
ClusterConfig with_nodes(ClusterConfig cfg, int nodes);

}  // namespace dpml::net
