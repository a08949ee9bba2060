// Flow-level congested-fabric model with max-min fair link sharing.
//
// The LogGP transport in simmpi charges per-hop latency and per-resource
// FIFO occupancy, which models endpoint serialization well but treats the
// switched fabric as contention-free wires (src/net/topology.hpp). This
// subsystem adds the missing piece for the paper's §6.1 clusters: every
// in-flight inter-node message becomes a *flow* routed over explicit links
//
//   node --(uplink)--> leaf --(ECMP'd core uplink)--> core
//        --(core downlink)--> leaf --(downlink)--> node
//
// and a progressive-filling max-min fair allocator divides each link's
// capacity among the flows crossing it. Link capacities derive from the
// ClusterConfig: node edge links run at nic.link_bw, and each leaf's core
// uplink/downlink pool carries nodes_per_leaf * link_bw / oversubscription,
// split into ECMP "ways" — so the `oversubscription` factor declared by
// every preset is enforced, not documentation. Concurrent DPML leaders,
// SHArP tree legs and perturbation-degraded links genuinely contend.
//
// Rates are recomputed on every flow arrival and departure (and at
// perturbation rule boundaries), but only over the *solve set*: the flows a
// change can reach. Each link keeps its live flows in flow-id order (appended
// on launch, erased on completion), and a breadth-first walk over those member
// lists from the starting or finishing flow's links collects its
// link-connected component. Max-min filling raises one water level across all
// unfrozen flows and freezes everything within a relative window of it
// (kRelEps): the unfrozen members of links whose share lies in the window and,
// through a lazily built cursor sorted by cap, the flows whose cap does; a
// link's load is re-summed in id order from a cached all-frozen prefix. Two
// components whose levels lie inside that window couple: the
// higher one freezes at the lower one's level, a few ulps below its own. A
// flow that froze at a level its own component did not reach is *entangled*
// with the component that set the level; the next solve touching either takes
// both (an entanglement group). After solving, the set is *closed*: if a new
// level of the set and an outside flow's stored level differ but lie within
// each other's freeze window, that flow's component (and group) joins the set
// and it is solved again. Every outside flow keeps its rate, its links their
// load, and the result is bit-identical to re-solving every live flow. Way
// failures and capacity-window boundaries solve all flows (the same code with
// the set = everything); links outside the set keep their cached capacity,
// which is exact because the capacity scaler is piecewise constant and its
// boundary reallocations, scheduled at construction, pop first at their
// instant. On a dense fabric, where one component holds most live flows, the
// walk buys nothing: after a walk finds that, the next few recomputes take
// every flow without walking, and since they record no couplings the solve
// after them walks every flow again.
//
// Each recompute opens a new *batch*: it derives every flow's completion eta
// and arms a single engine event for the earliest one (first in flow-id order
// on ties). The engine has no event cancellation, so an armed event whose
// batch has since been superseded is discarded when it pops. Every valid
// fabric event re-batches all flows, so only a batch's earliest completion
// could ever fire; arming just that one keeps the engine's (t, seq) order
// exactly as if every flow had its own event. Live flows are listed in
// ascending id order and links sit in a dense vector, so all state iterates
// deterministically and runs are bitwise reproducible.
//
// Opt-in: a Machine builds a FlowFabric only when
// RunOptions::fabric_level == FabricLevel::links; the default `none` leaves
// every transport path bit-identical to the pre-fabric code (locked by the
// golden tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dpml::fabric {

// Fabric fidelity. `none` is the classic LogGP path; `links` routes every
// inter-node payload through the flow-level link model.
enum class FabricLevel { none, links };

const char* fabric_level_name(FabricLevel level);
// Accepts "none" and "links"; throws util::InvariantError otherwise.
FabricLevel fabric_level_by_name(const std::string& name);

// Link counts and capacities derived from a cluster preset — the enforced
// meaning of `nodes_per_leaf` and `oversubscription`.
struct FabricTopo {
  int nodes = 1;
  int nodes_per_leaf = 1;
  int leaves = 1;
  // Each leaf's aggregate core bandwidth (nodes_per_leaf * link_bw /
  // oversubscription) is carved into equal-capacity ECMP ways of at most
  // one node-link each, matching how a fat tree builds its core out of the
  // same link technology as the edge.
  int ecmp_ways = 1;
  double node_link_gbps = 0.0;  // node<->leaf edge links
  double core_way_gbps = 0.0;   // one leaf<->core ECMP way

  double leaf_core_gbps() const { return core_way_gbps * ecmp_ways; }
  int num_links() const { return 2 * nodes + 2 * leaves * ecmp_ways; }

  // Validates the config's fabric fields (nodes_per_leaf >= 1,
  // oversubscription >= 1, positive bandwidths) and derives the link plan
  // for the first `nodes` nodes.
  static FabricTopo derive(const net::ClusterConfig& cfg, int nodes);
};

// Deterministic allocator counters (dpmlsim --perf, --perf-json): pure
// functions of the simulated run, so they can gate tests exactly.
struct FabricStats {
  std::uint64_t recomputes = 0;        // max-min re-solves
  std::uint64_t fill_rounds = 0;       // progressive-filling rounds, summed
  std::uint64_t completions_armed = 0;       // completion events scheduled
  std::uint64_t completions_superseded = 0;  // popped after a newer batch
  std::uint64_t solved_flows = 0;  // flows re-solved, summed over solves
  std::uint64_t live_flows = 0;    // live flows, summed over recomputes
  std::uint64_t closure_merges = 0;  // components joined by the closure rule
  // Filling work: members visited on saturated links, cap-cursor entries
  // and steps, and members re-summed into link loads.
  std::uint64_t fill_visits = 0;

  FabricStats& operator+=(const FabricStats& o) {
    recomputes += o.recomputes;
    fill_rounds += o.fill_rounds;
    completions_armed += o.completions_armed;
    completions_superseded += o.completions_superseded;
    solved_flows += o.solved_flows;
    live_flows += o.live_flows;
    closure_merges += o.closure_merges;
    fill_visits += o.fill_visits;
    return *this;
  }
};

class FlowFabric {
 public:
  using FlowId = std::uint64_t;
  // Called (from an engine event at the completion instant) when a flow's
  // last byte has drained from the fabric.
  using Completion = std::function<void(sim::Time)>;

  FlowFabric(sim::Engine& engine, const net::ClusterConfig& cfg, int nodes);

  const FabricTopo& topo() const { return topo_; }
  int num_links() const { return static_cast<int>(links_.size()); }

  // ---- Link ids (dense, stable layout) ----
  // [0, nodes): node->leaf uplinks; [nodes, 2*nodes): leaf->node downlinks;
  // then per-leaf core uplink ways, then per-leaf core downlink ways.
  int uplink(int node) const;
  int downlink(int node) const;
  int leaf_uplink(int leaf, int way) const;
  int leaf_downlink(int leaf, int way) const;
  // Node owning an edge link, or -1 for core links (used to map node-scoped
  // perturbation rules onto link capacities).
  int link_node(int id) const;
  const std::string& link_name(int id) const;
  double link_capacity_gbps(int id) const;

  // Deterministic ECMP: the core way a (src, dst) flow hashes to. The same
  // way indexes the source leaf's uplink and the destination leaf's
  // downlink (both attach to the same core switch).
  static int ecmp_way(int src_node, int dst_node, int ways);
  // ECMP with failures: starts at ecmp_way and linearly probes to the first
  // way whose source-leaf uplink and destination-leaf downlink are both
  // live. Equals ecmp_way when nothing is down (bit-identical fast path).
  int choose_way(int src_node, int dst_node) const;

  // ---- Failure and recovery (multi-tenant fabric) ----
  // Mark one leaf's ECMP way — or, with leaf == kAllLeaves, core switch
  // `way` across every leaf — down or back up. Takes effect immediately:
  // live core-crossing flows are deterministically rerouted onto surviving
  // ways (and rebalanced back on recovery) and a new completion batch is
  // armed. Edge (node<->leaf) links never fail in this model.
  static constexpr int kAllLeaves = -1;
  void set_way_down(int leaf, int way, bool down);
  bool way_down(int leaf, int way) const;
  // Failure listener: called from inside set_way_down (after the flip and
  // deterministic reroute) with the event's (leaf, way, down). The adaptive
  // re-planner uses it to mark tenant plans stale mid-run (docs/MODEL.md §12).
  void set_failure_listener(std::function<void(int leaf, int way, bool down)> fn);
  // ECMP ways currently down across all leaves (uplink+downlink pairs).
  int down_ways() const;

  // ---- Tenant attribution ----
  // Flows carry a group id (a tenant job, or the background-traffic class);
  // when accounting is enabled, delivered bytes are attributed per
  // (link, group). kAutoGroup resolves to the source node's group (set via
  // set_node_group; default group 0), so existing call sites attribute
  // correctly without changes.
  static constexpr int kAutoGroup = -1;
  void enable_group_accounting(int num_groups);
  void set_node_group(int node, int group);
  int node_group(int node) const;
  // Bytes delivered over `link` on behalf of `group` (0 when accounting is
  // off or the pair is out of range).
  double link_group_bytes(int link, int group) const;
  // Bytes delivered over `link` across every group (0 when accounting off).
  double link_total_bytes(int link) const;

  // ---- Flows ----
  // Start a flow of `bytes` from src_node to dst_node, rate-capped at
  // `rate_cap_gbps` (the sender-side bottleneck, e.g. nic.link_bw times any
  // pairwise perturbation scale). Must be called at the engine's current
  // time. Zero-byte flows complete immediately (same instant, later event).
  FlowId start_flow(int src_node, int dst_node, std::uint64_t bytes,
                    double rate_cap_gbps, Completion done,
                    int group = kAutoGroup);
  // Single-leg flows for in-network aggregation traffic: node->leaf only
  // (SHArP upload) and leaf->node only (SHArP multicast download).
  FlowId start_uplink_flow(int node, std::uint64_t bytes, double rate_cap_gbps,
                           Completion done);
  FlowId start_downlink_flow(int node, std::uint64_t bytes,
                             double rate_cap_gbps, Completion done);

  // ---- Perturbation hookup ----
  // Per-link capacity scale evaluated at every rate recompute (time-windowed
  // link-degradation rules become per-link capacity scaling).
  void set_capacity_scaler(std::function<double(int link, sim::Time)> fn);
  // Schedule extra reallocation points (rule from/until boundaries), so a
  // window opening or closing mid-flow re-divides bandwidth immediately.
  void schedule_reallocations(const std::vector<sim::Time>& times);

  // ---- Observation ----
  // Congestion listener: called with [start, end) intervals during which a
  // link carried two or more concurrent flows (trace lanes).
  void set_congestion_listener(
      std::function<void(int link, sim::Time, sim::Time)> fn);
  // Flush utilization integrals and close open congestion intervals at the
  // end of a run.
  void finish(sim::Time now);

  const FabricStats& stats() const { return stats_; }
  int active_flows() const { return static_cast<int>(live_.size()); }
  std::uint64_t total_flows() const { return next_id_; }
  // Current fair-share rate of a live flow (tests).
  double flow_rate_gbps(FlowId id) const;
  // Worst instantaneous utilization any link ever reached (<= 1 + epsilon:
  // the allocator's conservation invariant).
  double peak_link_utilization() const { return peak_util_; }
  // Time-averaged utilization of one link / the busiest link over [0, now].
  double link_avg_utilization(int id, sim::Time now) const;
  double max_avg_link_utilization(sim::Time now) const;
  // Total time `link` spent congested (>= 2 concurrent flows).
  sim::Time link_congested_time(int id, sim::Time now) const;

 private:
  using Slot = std::uint32_t;  // index into slots_

  // Fields the solver touches on every visit come first, so a visit reads
  // one cache line.
  struct Link {
    // Live flows crossing this link, in ascending flow id: the order every
    // load sum follows.
    std::vector<Slot> members;
    double share = 0.0;      // (cap - load) / nflows while filling
    double load = 0.0;       // sum of flow rates, bytes/s (last solve)
    double cap = 0.0;        // scaled capacity, bytes/s (last solve)
    // While filling, members[0, sum_at) are all frozen and sum_base is
    // their rates folded from 0.0 in id order: a re-sum resumes there.
    double sum_base = 0.0;
    std::uint32_t sum_at = 0;
    int nflows = 0;          // unfrozen members while filling, then all
    std::uint64_t mark = 0;  // epoch of the solve set holding it
    bool dirty = false;      // load needs re-summing this filling round
    bool down = false;       // failed ECMP way (carries no flows)
    int active_at = -1;      // position in active_, -1 while idle
    int node = -1;           // owning node for edge links, -1 for core
    double base_gbps = 0.0;  // configured capacity
    double busy_integral = 0.0;   // sum of utilization * dt (picoseconds)
    sim::Time cong_since = -1;    // open congestion interval, -1 when none
    sim::Time cong_time = 0;      // closed congested picoseconds
    std::string name;
  };

  struct Flow {
    FlowId id = 0;
    std::uint64_t mark = 0;  // epoch of the solve set holding it
    int links[4] = {0, 0, 0, 0};
    int nlinks = 0;
    int comp = -1;             // its component within that set
    std::uint32_t pos = 0;     // its position in that set's flow list
    std::uint32_t tangle = 0;  // entanglement group + 1, 0 when solo
    double rate = 0.0;       // bytes/s: the level it froze at
    double cap = 0.0;        // bytes/s rate ceiling
    double remaining = 0.0;  // bytes left on the wire
    int src = -1;            // endpoints, kept for failure rerouting
    int dst = -1;
    int group = 0;           // tenant attribution class
    Completion done;
  };

  int add_link(std::string name, int node, double gbps);
  FlowId launch(const int* links, int nlinks, std::uint64_t bytes,
                double rate_cap_gbps, Completion done, int src, int dst,
                int group);
  // Drain bytes and accumulate link statistics over [last_, now].
  void advance(sim::Time now);
  // Insert / erase a flow in its links' member lists, keeping id order.
  void attach(Slot s);
  void detach(Slot s);
  // Solve-set collection. begin_set opens an empty set; collect adds the
  // component reachable from a link and every entanglement group it meets;
  // collect_all walks every flow and link; collect_everything takes every
  // flow unwalked (plus the changed flow's links). collect_change picks one
  // of them for a flow that just started or just left.
  void begin_set();
  void collect_change(const Flow& f);
  void collect(int link);
  void collect_all();
  void collect_everything(const int* links, int nlinks);
  void walk(int link);
  void pull(std::uint32_t group);
  // Re-solve the collected set, close it, regroup and settle its links.
  void recompute(sim::Time now);
  // Progressive-filling max-min fair allocation over the solve set.
  void fill(sim::Time now);
  // Closure rule: add outside components whose stored levels lie within a
  // freeze window of a new level. True when the set grew.
  bool absorb_couplings();
  // Replace the set's entanglement groups with the last fill's couplings.
  void regroup();
  // Conservation, peak utilization, congestion and the active-link list over
  // the set's links.
  void settle(sim::Time now);
  int comp_root(int c);
  // Open a new batch and arm one completion event for its earliest flow.
  void reschedule(sim::Time now);
  void on_completion_event(FlowId id, std::uint64_t batch);
  // Position of the live flow `id` in live_, or live_.size() when absent.
  std::size_t flow_index(FlowId id) const;
  double scaled_capacity(int link, sim::Time now) const;

  sim::Engine& engine_;
  FabricTopo topo_;
  std::vector<Link> links_;
  std::vector<Flow> slots_;       // flow storage; slots are reused
  std::vector<Slot> free_slots_;
  std::vector<Slot> live_;        // live flows, ascending id
  std::vector<int> active_;       // links carrying flows, any order
  // Entanglement groups: the slots of flows to solve together next time.
  std::vector<std::vector<Slot>> groups_;
  std::vector<std::uint32_t> free_groups_;
  // Solve-set scratch, reused across calls.
  std::uint64_t epoch_ = 0;
  int ncomp_ = 0;
  // Whether the set was collected by walking; after an unwalked solve no
  // component or coupling is known, so the next solve walks every flow.
  bool walked_ = true;
  std::size_t largest_comp_ = 0;  // flows in its largest component
  int dense_left_ = 0;  // dense mode: unwalked solves left before walking
  std::vector<Slot> set_flows_;
  std::vector<int> set_links_;
  std::vector<Slot> pending_;              // entangled flows still to walk
  std::vector<std::uint32_t> pulled_;      // groups the set took in
  std::vector<std::uint64_t> group_mark_;  // epoch that pulled each group
  std::vector<double> levels_;             // the set's sorted freeze levels
  std::vector<std::uint32_t> comp_hit_;    // last round it reached the level
  std::vector<int> suspects_;  // components that froze off their own level
  std::vector<int> comp_parent_;           // coupling union-find
  std::vector<int> comp_size_;
  std::vector<std::uint32_t> comp_group_;
  bool coupled_ = false;                   // the last fill coupled components
  std::vector<int> closed_;  // set links whose congestion interval closed
  std::vector<int> open_;  // set links still carrying an unfrozen flow
  std::vector<Slot> by_cap_;  // the cap cursor: unfrozen flows by rate cap
  std::vector<Slot> frozen_;
  std::vector<int> dirty_;
  FlowId next_id_ = 0;
  std::uint64_t batch_ = 0;  // current completion batch (stale detection)
  FabricStats stats_;
  sim::Time last_ = 0;  // time up to which advance() has accounted
  double peak_util_ = 0.0;
  int down_links_ = 0;  // live count of down links (choose_way fast path)
  std::vector<int> node_group_;                  // empty => every node group 0
  std::vector<std::vector<double>> group_bytes_; // [group][link] delivered
  std::function<double(int, sim::Time)> capacity_scaler_;
  std::function<void(int, sim::Time, sim::Time)> congestion_cb_;
  std::function<void(int, int, bool)> failure_cb_;
};

}  // namespace dpml::fabric
