#include "fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace dpml::fabric {

namespace {

constexpr double kGiga = 1e9;           // decimal GB/s -> bytes/s
constexpr double kRelEps = 1e-9;        // water-filling freeze tolerance
constexpr double kDrainedBytes = 1e-6;  // a flow this close to empty is done
// Dense fabrics: once a walk finds one component holding at least 3/4 of
// kDenseMinFlows or more live flows, the next kDenseRun recomputes solve
// every flow without walking (see FlowFabric::collect_change). The two
// thresholds split the benchmark's fabric workloads by their measured
// component share: with 32 or more live flows, the largest walked component
// holds >= 80% of them in 99% of tenant_mix's recomputes (uniform background
// traffic) and < 30% in all of fabric_dpml's (DPML steps on D 128x16).
// Below 32 flows a full solve is cheap either way. On tenant_mix (4-core
// x86-64 host) a run of 16 was ~8% faster end to end than 8; 32 was no
// faster than 16.
constexpr std::size_t kDenseMinFlows = 32;
constexpr int kDenseRun = 16;

double to_bps(double gbps) { return gbps * kGiga; }

}  // namespace

const char* fabric_level_name(FabricLevel level) {
  switch (level) {
    case FabricLevel::none:
      return "none";
    case FabricLevel::links:
      return "links";
  }
  return "?";
}

FabricLevel fabric_level_by_name(const std::string& name) {
  if (name == "none") return FabricLevel::none;
  if (name == "links") return FabricLevel::links;
  throw util::InvariantError("unknown fabric level '" + name +
                             "' (valid: none, links)");
}

FabricTopo FabricTopo::derive(const net::ClusterConfig& cfg, int nodes) {
  DPML_CHECK_MSG(nodes >= 1, "fabric needs at least one node");
  DPML_CHECK_MSG(cfg.nodes_per_leaf >= 1,
                 "cluster '" + cfg.name + "' declares nodes_per_leaf " +
                     std::to_string(cfg.nodes_per_leaf));
  DPML_CHECK_MSG(cfg.oversubscription >= 1.0,
                 "cluster '" + cfg.name +
                     "' declares an oversubscription factor below 1");
  DPML_CHECK_MSG(cfg.nic.link_bw > 0.0,
                 "cluster '" + cfg.name + "' has no link bandwidth");
  FabricTopo t;
  t.nodes = nodes;
  t.nodes_per_leaf = cfg.nodes_per_leaf;
  t.leaves = (nodes + cfg.nodes_per_leaf - 1) / cfg.nodes_per_leaf;
  t.node_link_gbps = cfg.nic.link_bw;
  // A fully-populated leaf offers nodes_per_leaf * link_bw of edge demand;
  // the core carries 1/oversubscription of it, built from ways no faster
  // than one edge link (5:4 oversubscription on a 24-node leaf = 20 core
  // links of edge speed, paper §6.1).
  const double leaf_core =
      cfg.nic.link_bw * cfg.nodes_per_leaf / cfg.oversubscription;
  t.ecmp_ways = std::max(
      1, static_cast<int>(std::ceil(leaf_core / cfg.nic.link_bw - 1e-9)));
  t.core_way_gbps = leaf_core / t.ecmp_ways;
  return t;
}

FlowFabric::FlowFabric(sim::Engine& engine, const net::ClusterConfig& cfg,
                       int nodes)
    : engine_(engine), topo_(FabricTopo::derive(cfg, nodes)) {
  links_.reserve(static_cast<std::size_t>(topo_.num_links()));
  for (int n = 0; n < topo_.nodes; ++n) {
    add_link("node" + std::to_string(n) + ".up", n, topo_.node_link_gbps);
  }
  for (int n = 0; n < topo_.nodes; ++n) {
    add_link("node" + std::to_string(n) + ".down", n, topo_.node_link_gbps);
  }
  for (int l = 0; l < topo_.leaves; ++l) {
    for (int w = 0; w < topo_.ecmp_ways; ++w) {
      add_link("leaf" + std::to_string(l) + ".up" + std::to_string(w), -1,
               topo_.core_way_gbps);
    }
  }
  for (int l = 0; l < topo_.leaves; ++l) {
    for (int w = 0; w < topo_.ecmp_ways; ++w) {
      add_link("leaf" + std::to_string(l) + ".down" + std::to_string(w), -1,
               topo_.core_way_gbps);
    }
  }
}

int FlowFabric::add_link(std::string name, int node, double gbps) {
  Link l;
  l.name = std::move(name);
  l.node = node;
  l.base_gbps = gbps;
  l.cap = to_bps(gbps);
  links_.push_back(std::move(l));
  return static_cast<int>(links_.size()) - 1;
}

int FlowFabric::uplink(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return node;
}

int FlowFabric::downlink(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return topo_.nodes + node;
}

int FlowFabric::leaf_uplink(int leaf, int way) const {
  DPML_CHECK(leaf >= 0 && leaf < topo_.leaves);
  DPML_CHECK(way >= 0 && way < topo_.ecmp_ways);
  return 2 * topo_.nodes + leaf * topo_.ecmp_ways + way;
}

int FlowFabric::leaf_downlink(int leaf, int way) const {
  return leaf_uplink(leaf, way) + topo_.leaves * topo_.ecmp_ways;
}

int FlowFabric::link_node(int id) const {
  return links_[static_cast<std::size_t>(id)].node;
}

const std::string& FlowFabric::link_name(int id) const {
  return links_[static_cast<std::size_t>(id)].name;
}

double FlowFabric::link_capacity_gbps(int id) const {
  return links_[static_cast<std::size_t>(id)].base_gbps;
}

int FlowFabric::ecmp_way(int src_node, int dst_node, int ways) {
  DPML_CHECK(ways >= 1);
  // SplitMix64-style finalizer over the (src, dst) pair: stateless, so the
  // same pair always hashes to the same core switch.
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
       << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<int>(x % static_cast<std::uint64_t>(ways));
}

int FlowFabric::choose_way(int src_node, int dst_node) const {
  const int ways = topo_.ecmp_ways;
  const int start = ecmp_way(src_node, dst_node, ways);
  if (down_links_ == 0) return start;  // bit-identical pristine fast path
  const int src_leaf = src_node / topo_.nodes_per_leaf;
  const int dst_leaf = dst_node / topo_.nodes_per_leaf;
  for (int k = 0; k < ways; ++k) {
    const int w = (start + k) % ways;
    if (!links_[static_cast<std::size_t>(leaf_uplink(src_leaf, w))].down &&
        !links_[static_cast<std::size_t>(leaf_downlink(dst_leaf, w))].down) {
      return w;
    }
  }
  DPML_CHECK_MSG(false, "no live ECMP way between leaf " +
                            std::to_string(src_leaf) + " and leaf " +
                            std::to_string(dst_leaf));
  return start;
}

void FlowFabric::set_way_down(int leaf, int way, bool down) {
  DPML_CHECK(way >= 0 && way < topo_.ecmp_ways);
  DPML_CHECK(leaf == kAllLeaves || (leaf >= 0 && leaf < topo_.leaves));
  const sim::Time now = engine_.now();
  advance(now);
  const int lo = (leaf == kAllLeaves) ? 0 : leaf;
  const int hi = (leaf == kAllLeaves) ? topo_.leaves - 1 : leaf;
  for (int l = lo; l <= hi; ++l) {
    links_[static_cast<std::size_t>(leaf_uplink(l, way))].down = down;
    links_[static_cast<std::size_t>(leaf_downlink(l, way))].down = down;
  }
  down_links_ = 0;
  for (const Link& l : links_) {
    if (l.down) ++down_links_;
  }
  // Reroute every live core-crossing flow from its stored endpoints.
  // Recomputing from scratch (rather than only moving flows off dead ways)
  // also rebalances flows back onto recovered ways, so recovery restores
  // the exact pristine routing.
  for (Slot s : live_) {
    Flow& f = slots_[s];
    if (f.nlinks != 4) continue;
    const int w = choose_way(f.src, f.dst);
    const int up = leaf_uplink(f.src / topo_.nodes_per_leaf, w);
    if (up == f.links[1]) continue;  // a way pairs one uplink and downlink
    detach(s);
    f.links[1] = up;
    f.links[2] = leaf_downlink(f.dst / topo_.nodes_per_leaf, w);
    attach(s);
  }
  begin_set();
  collect_all();
  recompute(now);
  reschedule(now);
  if (failure_cb_) failure_cb_(leaf, way, down);
}

bool FlowFabric::way_down(int leaf, int way) const {
  return links_[static_cast<std::size_t>(leaf_uplink(leaf, way))].down;
}

void FlowFabric::enable_group_accounting(int num_groups) {
  DPML_CHECK(num_groups >= 1);
  group_bytes_.assign(static_cast<std::size_t>(num_groups),
                      std::vector<double>(links_.size(), 0.0));
}

void FlowFabric::set_node_group(int node, int group) {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  DPML_CHECK(group >= 0);
  if (node_group_.empty()) {
    node_group_.assign(static_cast<std::size_t>(topo_.nodes), 0);
  }
  node_group_[static_cast<std::size_t>(node)] = group;
}

int FlowFabric::node_group(int node) const {
  DPML_CHECK(node >= 0 && node < topo_.nodes);
  return node_group_.empty() ? 0 : node_group_[static_cast<std::size_t>(node)];
}

double FlowFabric::link_group_bytes(int link, int group) const {
  if (group < 0 || static_cast<std::size_t>(group) >= group_bytes_.size()) {
    return 0.0;
  }
  const auto& row = group_bytes_[static_cast<std::size_t>(group)];
  if (link < 0 || static_cast<std::size_t>(link) >= row.size()) return 0.0;
  return row[static_cast<std::size_t>(link)];
}

double FlowFabric::link_total_bytes(int link) const {
  double total = 0.0;
  for (const auto& row : group_bytes_) {
    if (link >= 0 && static_cast<std::size_t>(link) < row.size()) {
      total += row[static_cast<std::size_t>(link)];
    }
  }
  return total;
}

int FlowFabric::down_ways() const { return down_links_ / 2; }

FlowFabric::FlowId FlowFabric::start_flow(int src_node, int dst_node,
                                          std::uint64_t bytes,
                                          double rate_cap_gbps,
                                          Completion done, int group) {
  DPML_CHECK_MSG(src_node != dst_node, "fabric flows are inter-node");
  const int src_leaf = src_node / topo_.nodes_per_leaf;
  const int dst_leaf = dst_node / topo_.nodes_per_leaf;
  int path[4];
  int n = 0;
  path[n++] = uplink(src_node);
  if (src_leaf != dst_leaf) {
    const int way = choose_way(src_node, dst_node);
    path[n++] = leaf_uplink(src_leaf, way);
    path[n++] = leaf_downlink(dst_leaf, way);
  }
  path[n++] = downlink(dst_node);
  return launch(path, n, bytes, rate_cap_gbps, std::move(done), src_node,
                dst_node, group);
}

FlowFabric::FlowId FlowFabric::start_uplink_flow(int node, std::uint64_t bytes,
                                                 double rate_cap_gbps,
                                                 Completion done) {
  const int path[1] = {uplink(node)};
  return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1,
                kAutoGroup);
}

FlowFabric::FlowId FlowFabric::start_downlink_flow(int node,
                                                   std::uint64_t bytes,
                                                   double rate_cap_gbps,
                                                   Completion done) {
  const int path[1] = {downlink(node)};
  return launch(path, 1, bytes, rate_cap_gbps, std::move(done), node, -1,
                kAutoGroup);
}

FlowFabric::FlowId FlowFabric::launch(const int* links, int nlinks,
                                      std::uint64_t bytes,
                                      double rate_cap_gbps, Completion done,
                                      int src, int dst, int group) {
  DPML_CHECK(rate_cap_gbps > 0.0);
  const sim::Time now = engine_.now();
  const FlowId id = next_id_++;
  if (bytes == 0) {
    // Control-sized flows occupy no bandwidth; complete at the same instant
    // via a fresh event, preserving schedule-order determinism.
    engine_.schedule_call(now, [done = std::move(done), now]() { done(now); });
    return id;
  }
  advance(now);
  Slot s;
  if (free_slots_.empty()) {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = slots_[s];
  f = Flow{};
  f.id = id;
  for (int i = 0; i < nlinks; ++i) f.links[i] = links[i];
  f.nlinks = nlinks;
  f.src = src;
  f.dst = dst;
  f.group = (group == kAutoGroup) ? node_group(src) : group;
  f.remaining = static_cast<double>(bytes);
  f.cap = to_bps(rate_cap_gbps);
  f.done = std::move(done);
  live_.push_back(s);  // ids ascend: the list stays sorted
  attach(s);
  collect_change(f);
  recompute(now);
  reschedule(now);
  return id;
}

double FlowFabric::scaled_capacity(int link, sim::Time now) const {
  const Link& l = links_[static_cast<std::size_t>(link)];
  double scale = 1.0;
  if (capacity_scaler_) {
    scale = capacity_scaler_(link, now);
    // A perturbation may choke a link but never disconnect it: a zero or
    // negative scale would stall flows forever (no completion to reschedule
    // around), so clamp to a deeply degraded floor instead.
    scale = std::max(scale, 1e-6);
  }
  return to_bps(l.base_gbps) * scale;
}

void FlowFabric::advance(sim::Time now) {
  DPML_CHECK(now >= last_);
  const sim::Time dt = now - last_;
  if (dt == 0) return;
  const double dt_s = sim::to_seconds(dt);
  for (Slot s : live_) {
    Flow& f = slots_[s];
    const double drained = std::min(f.remaining, f.rate * dt_s);
    f.remaining -= drained;
    if (!group_bytes_.empty() &&
        static_cast<std::size_t>(f.group) < group_bytes_.size()) {
      auto& row = group_bytes_[static_cast<std::size_t>(f.group)];
      for (int i = 0; i < f.nlinks; ++i) {
        row[static_cast<std::size_t>(f.links[i])] += drained;
      }
    }
  }
  for (int id : active_) {  // only links carrying flows hold a load
    Link& l = links_[static_cast<std::size_t>(id)];
    if (l.cap > 0.0 && l.load > 0.0) {
      l.busy_integral += (l.load / l.cap) * static_cast<double>(dt);
    }
  }
  last_ = now;
}

void FlowFabric::attach(Slot s) {
  const Flow& f = slots_[s];
  for (int i = 0; i < f.nlinks; ++i) {
    auto& m = links_[static_cast<std::size_t>(f.links[i])].members;
    // A launch carries the largest id, so this is an append; only a
    // rerouted flow lands mid-list.
    const auto at = std::lower_bound(
        m.begin(), m.end(), f.id,
        [this](Slot x, FlowId want) { return slots_[x].id < want; });
    m.insert(at, s);
  }
}

void FlowFabric::detach(Slot s) {
  const Flow& f = slots_[s];
  for (int i = 0; i < f.nlinks; ++i) {
    auto& m = links_[static_cast<std::size_t>(f.links[i])].members;
    m.erase(std::find(m.begin(), m.end(), s));
  }
}

void FlowFabric::begin_set() {
  ++epoch_;
  ncomp_ = 0;
  largest_comp_ = 0;
  walked_ = true;
  set_flows_.clear();
  set_links_.clear();
  pulled_.clear();
}

void FlowFabric::collect_change(const Flow& f) {
  // Dense mode takes every flow unwalked. After such a solve nothing is
  // known about components or couplings, so the next solve walks every flow.
  const bool walk_all = !walked_;
  begin_set();
  if (dense_left_ > 0) {
    --dense_left_;
    collect_everything(f.links, f.nlinks);
  } else if (walk_all) {
    collect_all();
  } else {
    // Whatever the flow's links carry, plus anything a departing flow was
    // entangled with (its own slot in the group is harmless: its links are
    // walked already).
    if (f.tangle != 0) pull(f.tangle - 1);
    for (int i = 0; i < f.nlinks; ++i) collect(f.links[i]);
  }
}

void FlowFabric::pull(std::uint32_t group) {
  if (group_mark_[group] == epoch_) return;
  group_mark_[group] = epoch_;
  pulled_.push_back(group);
  const auto& g = groups_[group];
  pending_.insert(pending_.end(), g.begin(), g.end());
}

void FlowFabric::walk(int seed) {
  if (links_[static_cast<std::size_t>(seed)].mark == epoch_) return;
  const int comp = ncomp_++;
  const std::size_t had = set_flows_.size();
  // Breadth first, with the set's link list as the queue.
  std::size_t q = set_links_.size();
  links_[static_cast<std::size_t>(seed)].mark = epoch_;
  set_links_.push_back(seed);
  for (; q < set_links_.size(); ++q) {
    for (Slot s : links_[static_cast<std::size_t>(set_links_[q])].members) {
      Flow& f = slots_[s];
      if (f.mark == epoch_) continue;
      f.mark = epoch_;
      f.comp = comp;
      set_flows_.push_back(s);
      if (f.tangle != 0) pull(f.tangle - 1);  // its group joins the set
      for (int i = 0; i < f.nlinks; ++i) {
        Link& l = links_[static_cast<std::size_t>(f.links[i])];
        if (l.mark == epoch_) continue;
        l.mark = epoch_;
        set_links_.push_back(f.links[i]);
      }
    }
  }
  largest_comp_ = std::max(largest_comp_, set_flows_.size() - had);
}

void FlowFabric::collect(int link) {
  walk(link);
  while (!pending_.empty()) {
    const Flow& f = slots_[pending_.back()];
    pending_.pop_back();
    if (f.mark != epoch_) walk(f.links[0]);
  }
}

void FlowFabric::collect_all() {
  for (Slot s : live_) collect(slots_[s].links[0]);
  for (int id = 0; id < num_links(); ++id) {
    Link& l = links_[static_cast<std::size_t>(id)];
    if (l.mark != epoch_) {  // idle, or just left idle by a reroute
      l.mark = epoch_;
      set_links_.push_back(id);
    }
  }
}

void FlowFabric::collect_everything(const int* links, int nlinks) {
  walked_ = false;
  ncomp_ = 1;  // components unknown: no coupling is tracked
  set_flows_ = live_;
  // The links that carry flows, plus the changed flow's (one may have just
  // gone idle or just come into use).
  for (int id : active_) {
    links_[static_cast<std::size_t>(id)].mark = epoch_;
    set_links_.push_back(id);
  }
  for (int i = 0; i < nlinks; ++i) {
    Link& l = links_[static_cast<std::size_t>(links[i])];
    if (l.mark == epoch_) continue;
    l.mark = epoch_;
    set_links_.push_back(links[i]);
  }
}

void FlowFabric::recompute(sim::Time now) {
  ++stats_.recomputes;
  stats_.live_flows += live_.size();
  fill(now);
  while (absorb_couplings()) fill(now);
  regroup();
  settle(now);
  if (walked_ && live_.size() >= kDenseMinFlows &&
      4 * largest_comp_ >= 3 * live_.size()) {
    dense_left_ = kDenseRun;
  }
}

int FlowFabric::comp_root(int c) {
  while (comp_parent_[static_cast<std::size_t>(c)] != c) {
    auto& up = comp_parent_[static_cast<std::size_t>(c)];
    up = comp_parent_[static_cast<std::size_t>(up)];
    c = up;
  }
  return c;
}

void FlowFabric::fill(sim::Time now) {
  stats_.solved_flows += set_flows_.size();
  const auto ncomp = static_cast<std::size_t>(ncomp_);
  // Coupling can only happen between two components of one set.
  const bool track = ncomp_ > 1;
  coupled_ = false;
  if (track) {
    comp_hit_.assign(ncomp, 0);
    comp_parent_.resize(ncomp);
    comp_size_.assign(ncomp, 1);
    for (std::size_t c = 0; c < ncomp; ++c) {
      comp_parent_[c] = static_cast<int>(c);
    }
  }
  double min_cap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < set_flows_.size(); ++i) {
    Flow& f = slots_[set_flows_[i]];
    f.rate = -1.0;  // unfrozen
    f.pos = static_cast<std::uint32_t>(i);
    min_cap = std::min(min_cap, f.cap);
  }
  open_.clear();
  for (int id : set_links_) {
    Link& l = links_[static_cast<std::size_t>(id)];
    l.load = 0.0;
    l.sum_base = 0.0;
    l.sum_at = 0;
    l.nflows = static_cast<int>(l.members.size());
    // Only a link carrying flows has an observable capacity: an idle link
    // contributes zero load to every statistic.
    if (l.nflows == 0) continue;
    l.cap = scaled_capacity(id, now);
    l.share = (l.cap - l.load) / l.nflows;
    open_.push_back(id);
  }

  // Progressive filling: raise one shared water level across all unfrozen
  // flows; each round freezes every flow on a newly-saturated link (at the
  // link's fair share) or at its own rate cap, whichever binds first. Every
  // link of an unfrozen flow is open, so the flows that freeze are exactly
  // the unfrozen members of open links whose share lies in the freeze
  // window, plus the unfrozen flows whose cap does. Caps are read through a
  // cursor sorted by cap, built only once the window reaches the smallest
  // cap of the set: before that no cap can set the level or freeze a flow.
  // A link's load is re-summed over its members in id order whenever one of
  // them freezes, resuming after its all-frozen prefix, so the
  // floating-point sums — and the rates — equal a full rescan's; its fair
  // share changes only then, so it is cached.
  by_cap_.clear();
  bool capped = false;  // the cap cursor is built
  std::size_t cap_at = 0;
  std::size_t left = set_flows_.size();
  std::uint64_t visits = 0;
  std::uint32_t round = 0;
  while (left > 0) {
    ++stats_.fill_rounds;
    ++round;
    // Links whose flows all froze last round leave open_ here.
    double level = std::numeric_limits<double>::infinity();
    std::size_t keep = 0;
    for (int id : open_) {
      const Link& l = links_[static_cast<std::size_t>(id)];
      if (l.nflows == 0) continue;
      open_[keep++] = id;
      level = std::min(level, l.share);
    }
    open_.resize(keep);
    if (!capped && level * (1.0 + kRelEps) + 1.0 >= min_cap) {
      capped = true;
      for (Slot s : set_flows_) {
        if (slots_[s].rate < 0.0) by_cap_.push_back(s);
      }
      std::sort(by_cap_.begin(), by_cap_.end(), [this](Slot x, Slot y) {
        return slots_[x].cap < slots_[y].cap ||
               (slots_[x].cap == slots_[y].cap && slots_[x].pos < slots_[y].pos);
      });
      visits += by_cap_.size();
    }
    if (capped) {
      for (; cap_at < by_cap_.size() && slots_[by_cap_[cap_at]].rate >= 0.0;
           ++cap_at) {
        ++visits;
      }
      if (cap_at < by_cap_.size()) {
        level = std::min(level, slots_[by_cap_[cap_at]].cap);
      }
    }
    DPML_CHECK(level >= 0.0 && std::isfinite(level));
    const double freeze_at = level * (1.0 + kRelEps) + 1.0;
    frozen_.clear();
    suspects_.clear();
    int source = -1;  // a component whose own minimum is the level
    std::uint32_t source_pos = 0;
    const auto freeze = [&](Slot s) {
      Flow& f = slots_[s];
      f.rate = std::min(level, f.cap);
      frozen_.push_back(s);
      if (!track) return;
      // A component reached the level itself iff one of its freezing flows
      // has its cap or a link share exactly at it. The level's source is
      // the component of the last such flow in set order.
      bool exact = f.cap == level;
      for (int i = 0; i < f.nlinks && !exact; ++i) {
        exact = links_[static_cast<std::size_t>(f.links[i])].share == level;
      }
      if (!exact) {
        suspects_.push_back(f.comp);
        return;
      }
      comp_hit_[static_cast<std::size_t>(f.comp)] = round;
      if (source < 0 || f.pos > source_pos) {
        source = f.comp;
        source_pos = f.pos;
      }
    };
    for (int id : open_) {
      const Link& l = links_[static_cast<std::size_t>(id)];
      if (l.share > freeze_at) continue;
      for (std::size_t k = l.sum_at; k < l.members.size(); ++k) {
        if (slots_[l.members[k]].rate < 0.0) freeze(l.members[k]);
      }
      visits += l.members.size() - l.sum_at;
    }
    if (capped) {
      for (; cap_at < by_cap_.size() &&
             slots_[by_cap_[cap_at]].cap <= freeze_at;
           ++cap_at) {
        ++visits;
        if (slots_[by_cap_[cap_at]].rate < 0.0) freeze(by_cap_[cap_at]);
      }
    }
    // The level is an open link's share or an unfrozen flow's cap, so
    // every round freezes a flow.
    DPML_CHECK(!frozen_.empty());
    left -= frozen_.size();
    // A component that froze flows at a level it did not reach is coupled
    // to the one that set the level.
    for (int c : suspects_) {
      if (comp_hit_[static_cast<std::size_t>(c)] == round) continue;
      const int a = comp_root(c);
      const int b = comp_root(source);
      if (a == b) continue;
      comp_parent_[static_cast<std::size_t>(a)] = b;
      comp_size_[static_cast<std::size_t>(b)] +=
          comp_size_[static_cast<std::size_t>(a)];
      coupled_ = true;
    }
    // Commit the frozen rates to their links.
    dirty_.clear();
    for (Slot s : frozen_) {
      const Flow& f = slots_[s];
      for (int i = 0; i < f.nlinks; ++i) {
        Link& l = links_[static_cast<std::size_t>(f.links[i])];
        --l.nflows;
        if (!l.dirty) {
          l.dirty = true;
          dirty_.push_back(f.links[i]);
        }
      }
    }
    for (int id : dirty_) {
      Link& l = links_[static_cast<std::size_t>(id)];
      l.dirty = false;
      // Extend the all-frozen prefix, then add the rest; an unfrozen member
      // adds +0.0, which leaves a sum of non-negative rates unchanged.
      const std::size_t n = l.members.size();
      visits += n - l.sum_at;
      std::size_t k = l.sum_at;
      double load = l.sum_base;
      for (; k < n && slots_[l.members[k]].rate >= 0.0; ++k) {
        load += slots_[l.members[k]].rate;
      }
      l.sum_at = static_cast<std::uint32_t>(k);
      l.sum_base = load;
      for (; k < n; ++k) load += std::max(slots_[l.members[k]].rate, 0.0);
      l.load = load;
      if (l.nflows > 0) l.share = (l.cap - l.load) / l.nflows;
    }
  }
  stats_.fill_visits += visits;

  // Final per-link flow counts (everything is frozen now; the filling loop
  // left nflows at zero).
  for (int id : set_links_) {
    Link& l = links_[static_cast<std::size_t>(id)];
    l.nflows = static_cast<int>(l.members.size());
  }
}

bool FlowFabric::absorb_couplings() {
  if (set_flows_.size() == live_.size()) return false;  // nothing outside
  levels_.clear();
  for (Slot s : set_flows_) levels_.push_back(slots_[s].rate);
  if (levels_.empty()) return false;
  std::sort(levels_.begin(), levels_.end());
  levels_.erase(std::unique(levels_.begin(), levels_.end()), levels_.end());
  // Two levels couple when the higher one lies inside the lower one's freeze
  // window without equalling it (equal levels freeze identically).
  const auto window = [](double x) { return x * (1.0 + kRelEps) + 1.0; };
  bool grew = false;
  for (Slot s : live_) {
    const Flow& f = slots_[s];
    if (f.mark == epoch_) continue;
    const double b = f.rate;
    auto above = std::lower_bound(levels_.begin(), levels_.end(), b);
    const bool below = above != levels_.begin() && b <= window(*(above - 1));
    if (above != levels_.end() && *above == b) ++above;
    if (below || (above != levels_.end() && *above <= window(b))) {
      ++stats_.closure_merges;
      collect(f.links[0]);
      grew = true;
    }
  }
  return grew;
}

void FlowFabric::regroup() {
  if (!walked_) {
    // An unwalked solve records no couplings: every flow counts as
    // entangled with every other until the next solve walks all of them.
    if (free_groups_.size() < groups_.size()) {
      for (Slot s : live_) slots_[s].tangle = 0;
      free_groups_.clear();
      for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        groups_[g].clear();
        free_groups_.push_back(g);
      }
    }
    return;
  }
  for (std::uint32_t g : pulled_) {
    groups_[g].clear();
    free_groups_.push_back(g);
  }
  if (!pulled_.empty()) {  // otherwise no flow of the set is entangled
    for (Slot s : set_flows_) slots_[s].tangle = 0;
  }
  if (!coupled_) return;
  comp_group_.assign(static_cast<std::size_t>(ncomp_), 0);
  for (Slot s : set_flows_) {
    Flow& f = slots_[s];
    const auto root = static_cast<std::size_t>(comp_root(f.comp));
    if (comp_size_[root] < 2) continue;
    std::uint32_t& tag = comp_group_[root];
    if (tag == 0) {
      if (free_groups_.empty()) {
        groups_.emplace_back();
        group_mark_.push_back(0);
        tag = static_cast<std::uint32_t>(groups_.size());
      } else {
        tag = free_groups_.back() + 1;
        free_groups_.pop_back();
      }
    }
    groups_[tag - 1].push_back(s);
    f.tangle = tag;
  }
}

void FlowFabric::settle(sim::Time now) {
  // Conservation invariant (always on, cheap): no link is allocated beyond
  // its capacity, and the instantaneous peak is recorded. Links outside the
  // set kept their load and capacity, so they can neither violate it nor
  // raise the peak; an idle link (zero load) cannot either.
  closed_.clear();
  for (int id : set_links_) {
    Link& l = links_[static_cast<std::size_t>(id)];
    if (l.load > 0.0) {
      DPML_CHECK_MSG(l.load <= l.cap * (1.0 + 1e-6) + 1.0,
                     "fabric link '" + l.name + "' over-allocated");
      peak_util_ = std::max(peak_util_, l.load / l.cap);
    }
    // Congestion bookkeeping: an interval is open while >= 2 flows share
    // the link.
    if (l.nflows >= 2 && l.cong_since < 0) {
      l.cong_since = now;
    } else if (l.nflows < 2 && l.cong_since >= 0) {
      closed_.push_back(id);
    }
    // Only links carrying flows hold a load for advance() to integrate.
    if (l.nflows > 0 && l.active_at < 0) {
      l.active_at = static_cast<int>(active_.size());
      active_.push_back(id);
    } else if (l.nflows == 0 && l.active_at >= 0) {
      const int moved = active_.back();
      active_[static_cast<std::size_t>(l.active_at)] = moved;
      links_[static_cast<std::size_t>(moved)].active_at = l.active_at;
      active_.pop_back();
      l.active_at = -1;
    }
  }
  // Intervals close in link-id order, so listeners see a deterministic
  // sequence.
  std::sort(closed_.begin(), closed_.end());
  for (int id : closed_) {
    Link& l = links_[static_cast<std::size_t>(id)];
    l.cong_time += now - l.cong_since;
    if (congestion_cb_ && now > l.cong_since) {
      congestion_cb_(id, l.cong_since, now);
    }
    l.cong_since = -1;
  }
}

void FlowFabric::reschedule(sim::Time now) {
  ++batch_;
  // Every flow's eta keeps its exact expression; only the earliest (first
  // in id order on ties) is armed. Any other flow's event could only ever
  // have popped stale: the armed one fires first and re-batches everything.
  const Flow* next = nullptr;
  sim::Time next_eta = 0;
  for (Slot s : live_) {
    const Flow& f = slots_[s];
    DPML_CHECK(f.rate > 0.0);
    const double eta_s = f.remaining / f.rate;
    const sim::Time eta =
        now + std::max<sim::Time>(
                  1, static_cast<sim::Time>(
                         std::ceil(eta_s * static_cast<double>(sim::kSecond))));
    if (next == nullptr || eta < next_eta) {
      next = &f;
      next_eta = eta;
    }
  }
  if (next == nullptr) return;
  ++stats_.completions_armed;
  engine_.schedule_call(next_eta, [this, fid = next->id, batch = batch_]() {
    on_completion_event(fid, batch);
  });
}

void FlowFabric::on_completion_event(FlowId id, std::uint64_t batch) {
  if (batch != batch_) {  // superseded by a later recompute
    ++stats_.completions_superseded;
    return;
  }
  const std::size_t k = flow_index(id);
  DPML_CHECK_MSG(k < live_.size(), "armed fabric completion lost its flow");
  const sim::Time now = engine_.now();
  advance(now);
  const Slot s = live_[k];
  Flow& f = slots_[s];
  if (f.remaining > kDrainedBytes) {
    // Rounding drift: the flow is not quite done — reschedule its tail.
    reschedule(now);
    return;
  }
  Completion done = std::move(f.done);
  detach(s);
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k));
  collect_change(f);
  f.tangle = 0;
  free_slots_.push_back(s);
  recompute(now);
  reschedule(now);
  // Invoked last: the callback may start new flows, which re-enter the
  // allocator on consistent state.
  if (done) done(now);
}

std::size_t FlowFabric::flow_index(FlowId id) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [this](Slot s, FlowId want) { return slots_[s].id < want; });
  if (it == live_.end() || slots_[*it].id != id) return live_.size();
  return static_cast<std::size_t>(it - live_.begin());
}

void FlowFabric::set_capacity_scaler(
    std::function<double(int, sim::Time)> fn) {
  capacity_scaler_ = std::move(fn);
}

void FlowFabric::schedule_reallocations(const std::vector<sim::Time>& times) {
  for (sim::Time t : times) {
    engine_.schedule_call(t, [this]() {
      const sim::Time now = engine_.now();
      advance(now);
      begin_set();
      collect_all();
      recompute(now);
      reschedule(now);
    });
  }
}

void FlowFabric::set_congestion_listener(
    std::function<void(int, sim::Time, sim::Time)> fn) {
  congestion_cb_ = std::move(fn);
}

void FlowFabric::set_failure_listener(
    std::function<void(int, int, bool)> fn) {
  failure_cb_ = std::move(fn);
}

void FlowFabric::finish(sim::Time now) {
  advance(now);
  for (Link& l : links_) {
    if (l.cong_since >= 0) {
      l.cong_time += now - l.cong_since;
      if (congestion_cb_ && now > l.cong_since) {
        congestion_cb_(static_cast<int>(&l - links_.data()), l.cong_since,
                       now);
      }
      l.cong_since = -1;
    }
  }
}

double FlowFabric::flow_rate_gbps(FlowId id) const {
  const std::size_t k = flow_index(id);
  DPML_CHECK_MSG(k < live_.size(), "querying a completed fabric flow");
  return slots_[live_[k]].rate / kGiga;
}

double FlowFabric::link_avg_utilization(int id, sim::Time now) const {
  if (now <= 0) return 0.0;
  const Link& l = links_[static_cast<std::size_t>(id)];
  double busy = l.busy_integral;
  if (now > last_ && l.cap > 0.0) {
    busy += (l.load / l.cap) * static_cast<double>(now - last_);
  }
  return busy / static_cast<double>(now);
}

double FlowFabric::max_avg_link_utilization(sim::Time now) const {
  double m = 0.0;
  for (int i = 0; i < num_links(); ++i) {
    m = std::max(m, link_avg_utilization(i, now));
  }
  return m;
}

sim::Time FlowFabric::link_congested_time(int id, sim::Time now) const {
  const Link& l = links_[static_cast<std::size_t>(id)];
  sim::Time t = l.cong_time;
  if (l.cong_since >= 0 && now > l.cong_since) t += now - l.cong_since;
  return t;
}

}  // namespace dpml::fabric
