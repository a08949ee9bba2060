#include "net/cluster.hpp"

#include <algorithm>
#include <cctype>

#include "util/error.hpp"

namespace dpml::net {

namespace {

HostModel xeon_host() {
  HostModel h;
  h.reduce_ns_per_byte = 0.20;  // ~5 GB/s summation throughput per core
  h.copy_bw = 5.0;
  h.copy_bw_xsocket = 3.0;
  h.copy_startup = sim::ns(150);
  h.xsocket_latency = sim::ns(300);
  h.mem_agg_bw = 60.0;
  h.flag_latency = sim::ns(100);
  h.gather_poll = sim::ns(50);
  h.gather_poll_xsocket = sim::ns(150);
  return h;
}

HostModel knl_host() {
  // KNL cores are individually much weaker: lower per-core copy bandwidth,
  // higher reduction cost, slower signalling. Aggregate (MCDRAM) bandwidth
  // is high.
  HostModel h;
  h.reduce_ns_per_byte = 0.60;
  h.copy_bw = 2.0;
  h.copy_bw_xsocket = 2.0;  // single socket; field unused in practice
  h.copy_startup = sim::ns(400);
  h.xsocket_latency = sim::ns(0);
  // Effective bandwidth for the strided shared-memory access patterns of
  // gather/reduce phases; well below peak MCDRAM streaming bandwidth
  // (cache-mode misses, 64 concurrent accessors).
  h.mem_agg_bw = 30.0;
  h.flag_latency = sim::ns(200);
  h.gather_poll = sim::ns(100);  // slow cores poll slowly
  h.gather_poll_xsocket = sim::ns(100);  // single socket
  return h;
}

NicModel edr_ib() {
  // ConnectX-4 EDR via verbs: a single process does not saturate the link
  // (proc_bw << link_bw), so concurrent senders scale throughput at all
  // message sizes — Figure 1(b).
  NicModel n;
  n.o_send = sim::ns(300);
  n.o_recv = sim::ns(300);
  n.proc_bw = 2.5;
  n.link_bw = 12.0;
  n.per_msg_tx = sim::ns(10);
  n.wire_latency = sim::ns(150);
  n.switch_latency = sim::ns(120);
  n.rendezvous_threshold = 16 * 1024;
  return n;
}

NicModel opa_xeon() {
  // Omni-Path with PSM2 onload: high message rate for small messages
  // (o_send bound, scales with senders — Zone A) but a single sender gets
  // close to link bandwidth for large messages, so concurrency stops
  // helping — Zone C. Figure 1(c).
  NicModel n;
  n.o_send = sim::ns(250);
  n.o_recv = sim::ns(250);
  n.proc_bw = 10.5;
  n.link_bw = 11.0;
  n.per_msg_tx = sim::ns(15);
  n.wire_latency = sim::ns(150);
  n.switch_latency = sim::ns(110);
  n.rendezvous_threshold = 64 * 1024;
  return n;
}

NicModel opa_knl() {
  // Same fabric driven by slow KNL cores: higher per-message overheads and
  // lower per-process injection bandwidth — Figure 1(d).
  NicModel n = opa_xeon();
  n.o_send = sim::ns(800);
  n.o_recv = sim::ns(800);
  n.proc_bw = 3.0;
  return n;
}

SharpModel sharp_edr() {
  SharpModel s;
  s.level_overhead = sim::ns(500);
  s.agg_ns_per_byte = 2.0;
  s.max_payload = 1 << 20;
  s.max_outstanding_ops = 4;
  s.max_groups = 8;
  return s;
}

}  // namespace

ClusterConfig cluster_a() {
  ClusterConfig c;
  c.name = "A";
  c.total_nodes = 40;
  c.node = NodeShape{2, 14, 1};
  c.host = xeon_host();
  c.nic = edr_ib();
  c.nodes_per_leaf = 24;
  c.sharp = sharp_edr();
  return c;
}

ClusterConfig cluster_b() {
  ClusterConfig c;
  c.name = "B";
  c.total_nodes = 648;
  c.node = NodeShape{2, 14, 1};
  c.host = xeon_host();
  c.nic = edr_ib();
  c.nodes_per_leaf = 24;
  return c;
}

ClusterConfig cluster_c() {
  ClusterConfig c;
  c.name = "C";
  c.total_nodes = 752;
  c.node = NodeShape{2, 14, 1};
  c.host = xeon_host();
  c.nic = opa_xeon();
  c.nodes_per_leaf = 24;
  return c;
}

ClusterConfig cluster_d() {
  ClusterConfig c;
  c.name = "D";
  c.total_nodes = 508;
  c.node = NodeShape{1, 68, 1};
  c.host = knl_host();
  c.nic = opa_knl();
  c.nodes_per_leaf = 2;  // 320 leaf switches for 508 nodes (paper §6.1)
  c.oversubscription = 1.25;  // 5/4 oversubscribed fat tree (paper §6.1)
  return c;
}

ClusterConfig cluster_by_name(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  if (key == "a" || key == "cluster_a") return cluster_a();
  if (key == "b" || key == "cluster_b") return cluster_b();
  if (key == "c" || key == "cluster_c") return cluster_c();
  if (key == "d" || key == "cluster_d") return cluster_d();
  if (key == "test" || key == "t") return test_cluster();
  throw util::InvariantError("unknown cluster preset '" + name +
                             "'; valid: A, B, C, D, test");
}

std::vector<ClusterConfig> all_clusters() {
  return {cluster_a(), cluster_b(), cluster_c(), cluster_d()};
}

ClusterConfig with_rails(ClusterConfig cfg, int hcas) {
  DPML_CHECK(hcas >= 1);
  cfg.node.hcas = hcas;
  cfg.name += "+rail" + std::to_string(hcas);
  return cfg;
}

ClusterConfig with_nodes(ClusterConfig cfg, int nodes) {
  DPML_CHECK(nodes >= 1);
  if (nodes <= cfg.total_nodes) return cfg;
  cfg.total_nodes = nodes;
  cfg.name += "@" + std::to_string(nodes);
  return cfg;
}

ClusterConfig test_cluster(int total_nodes) {
  ClusterConfig c;
  c.name = "test";
  c.total_nodes = total_nodes;
  c.node = NodeShape{2, 2, 1};
  c.host = xeon_host();
  c.nic = edr_ib();
  c.nic.rendezvous_threshold = 4 * 1024;  // exercise both protocols in tests
  c.nodes_per_leaf = 4;
  c.sharp = sharp_edr();
  c.sharp->max_outstanding_ops = 2;
  c.sharp->max_groups = 4;
  return c;
}

}  // namespace dpml::net
