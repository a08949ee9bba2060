// The four benchmark workloads.
//
// Three are point sweeps driven through simmpi::Machine and
// core::run_collective, OSU-style (barrier, collective, barrier; rank 0
// times each iteration). The fourth drives tenant::run_tenants. Every seeded
// input (rank arrival skew, operand seed, tenant stagger and
// background-traffic seeds) is generated here from the workload seed.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adapt.hpp"
#include "core/api.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "perfbench.hpp"
#include "sharp/sharp.hpp"
#include "sim/dataplane.hpp"
#include "sim/sync.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/verify.hpp"
#include "tenant/tenant.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace dpml;

// Seed purposes: one independent stream per kind of generated input.
constexpr std::uint64_t kSkewStream = 1;
constexpr std::uint64_t kOperandStream = 2;
constexpr std::uint64_t kTenantStream = 3;

constexpr simmpi::Dtype kDtype = simmpi::Dtype::f32;  // paper: MPI_FLOAT
constexpr simmpi::ReduceOp kOp = simmpi::ReduceOp::sum;

// Upper bound of the seeded per-rank arrival skew of a sweep point. Message
// sizes stay at their nominal values, so the seed moves simulated times but
// never which protocol or algorithm a message takes.
constexpr sim::Time kMaxSkew = sim::us(0.1);

// Achieved bandwidth of simmpi::reduce_inplace at each given size, timed
// from outside: GB/s of operand bytes folded.
double reduce_probe_gbps(const std::vector<std::size_t>& counts) {
  double bytes = 0.0;
  double secs = 0.0;
  for (std::size_t count : counts) {
    auto acc = simmpi::make_operand(kDtype, count, 0, kOp);
    const auto in = simmpi::make_operand(kDtype, count, 1, kOp);
    const std::size_t nbytes = in.size();
    // Enough calls for about 16 MB of operands per size.
    const std::size_t calls = std::max<std::size_t>(1, (16u << 20) / nbytes);
    const double t0 = host_now();
    for (std::size_t i = 0; i < calls; ++i) {
      simmpi::reduce_inplace(kOp, kDtype, count, acc, in);
    }
    secs += host_now() - t0;
    bytes += static_cast<double>(nbytes) * static_cast<double>(calls);
  }
  return secs > 0.0 ? bytes / secs / 1e9 : 0.0;
}

// Mean host ns of one adapt::AdaptiveTable::select call over the given
// (kind, bytes) keys at every contention level (median of five rounds).
double select_ns(
    const std::vector<std::pair<coll::CollKind, std::size_t>>& keys) {
  const adapt::AdaptiveTable table = adapt::AdaptiveTable::defaults();
  constexpr int kRounds = 5;
  constexpr int kCalls = 20000;
  std::vector<double> ns;
  std::size_t hits = 0;
  for (int round = 0; round < kRounds; ++round) {
    int calls = 0;
    const double t0 = host_now();
    while (calls < kCalls) {
      for (const auto& [kind, bytes] : keys) {
        for (int level = 0; level < adapt::kLevels; ++level) {
          hits += table.select(kind, bytes, level) != nullptr ? 1 : 0;
          ++calls;
        }
      }
    }
    ns.push_back((host_now() - t0) * 1e9 / calls);
  }
  // Keeps the lookups observable so they cannot be optimised away.
  if (hits == static_cast<std::size_t>(-1)) ns.push_back(0.0);
  return median(ns);
}

// ---------------------------------------------------------------------------
// Point sweeps
// ---------------------------------------------------------------------------

struct Point {
  coll::CollKind kind = coll::CollKind::allreduce;
  std::string algo;
  int leaders = 1;
  std::size_t count = 0;  // f32 elements per rank

  std::string label() const {
    return std::string(coll::coll_kind_name(kind)) + "." + algo + "@" +
           std::to_string(count * simmpi::dtype_size(kDtype)) + "B";
  }
  std::string coll_metric() const {
    return std::string("coll.") + coll::coll_kind_name(kind) + "." + algo +
           ".sim_us";
  }
};

struct SweepShape {
  net::ClusterConfig cfg;
  int nodes = 1;
  int ppn = 1;
  sim::DataMode mode = sim::DataMode::timeonly;
  fabric::FabricLevel fabric = fabric::FabricLevel::none;
  int warmup = 1;
  int iterations = 3;
  std::vector<Point> points;
  bool twin = false;  // traced run also runs the LogGP twin
};

// Simulated state shared by the ranks of one point.
struct PointState {
  PointState(sim::Engine& e, int parties, int calls)
      : barrier(e, parties), calls(static_cast<std::size_t>(calls)) {}
  struct Call {
    int ranks = 0;
    sim::Time min_entry = 0, max_exit = 0;
    sim::Time exit_sum = 0;
  };
  sim::Barrier barrier;
  sim::Time iter_start = 0;
  std::vector<sim::Time> samples;  // measured iterations, rank 0's view
  std::vector<Call> calls;         // every benchmark-owned collective call
};

sim::CoTask<void> sweep_rank(simmpi::Rank& r, coll::CollKind kind,
                             coll::CollSpec spec, std::size_t count,
                             int warmup, int iterations, sim::Time skew,
                             simmpi::ConstBytes send, simmpi::MutBytes recv,
                             std::shared_ptr<PointState> st) {
  for (int it = 0; it < warmup + iterations; ++it) {
    co_await st->barrier.arrive_and_wait();
    if (r.world_rank() == 0) st->iter_start = r.engine().now();
    if (skew > 0) co_await r.engine().delay(skew);
    const sim::Time entry = r.engine().now();
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &r.machine().world();
    a.count = count;
    a.dt = kDtype;
    a.op = kOp;
    a.send = send;
    a.recv = recv;
    co_await core::run_collective(kind, a, spec);
    const sim::Time exit = r.engine().now();
    PointState::Call& c = st->calls[static_cast<std::size_t>(it)];
    c.min_entry = c.ranks == 0 ? entry : std::min(c.min_entry, entry);
    c.max_exit = std::max(c.max_exit, exit);
    c.exit_sum += exit;
    c.ranks += 1;
    co_await st->barrier.arrive_and_wait();
    if (r.world_rank() == 0 && it >= warmup) {
      st->samples.push_back(r.engine().now() - st->iter_start);
    }
  }
}

// Per-pass accumulators of the per-layer metrics of a sweep.
struct SweepAcc {
  double events = 0, peak_queue_depth = 0;
  double cb_hits = 0, cb_misses = 0, pl_hits = 0, pl_misses = 0;
  double run_s = 0, build_s = 0, operand_s = 0, verify_s = 0;
  simmpi::CommStats comm;
  double tx_util_sum = 0;
  int machines = 0;
  double elided = 0;
  double flows = 0, max_link_util = 0, congested_us = 0;
  double wait_us = 0;
  double sharp_ops = 0;
  std::map<std::string, std::pair<double, double>> coll;  // sum_us, calls

  void write(Metrics& m) const {
    m["sim.events"] = events;
    m["sim.peak_queue_depth"] = peak_queue_depth;
    m["sim.callback_pool_hit_rate"] =
        cb_hits + cb_misses > 0 ? cb_hits / (cb_hits + cb_misses) : 0.0;
    m["sim.run_s"] = run_s;
    m["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;
    m["simmpi.build_s"] = build_s;
    m["simmpi.net_messages"] = static_cast<double>(comm.net_messages);
    m["simmpi.net_bytes"] = static_cast<double>(comm.net_bytes);
    m["simmpi.rndv_handshakes"] = static_cast<double>(comm.rndv_handshakes);
    m["simmpi.shm_bytes"] = static_cast<double>(comm.shm_bytes);
    m["simmpi.reduce_bytes"] = static_cast<double>(comm.reduce_bytes);
    m["simmpi.tx_util"] = machines > 0 ? tx_util_sum / machines : 0.0;
    m["simmpi.payload_pool_hit_rate"] =
        pl_hits + pl_misses > 0 ? pl_hits / (pl_hits + pl_misses) : 0.0;
    m["simmpi.operand_s"] = operand_s;
    m["simmpi.verify_s"] = verify_s;
    m["simmpi.elided_bytes"] = elided;
    m["fabric.flows"] = flows;
    m["fabric.max_link_util"] = max_link_util;
    m["fabric.congested_us"] = congested_us;
    m["fabric.events_per_flow"] = flows > 0 ? events / flows : 0.0;
    m["coll.wait_us"] = wait_us;
    m["sharp.ops"] = sharp_ops;
    for (const auto& [name, v] : coll) {
      m[name] = v.second > 0 ? v.first / v.second : 0.0;
    }
  }
};

class PointSweep final : public Workload {
 public:
  PointSweep(SweepShape shape, std::uint64_t seed)
      : shape_(std::move(shape)),
        operand_seed_(util::SplitMix64(seed, kOperandStream).next_u64()) {
    // One arrival skew per rank and point, in [0, kMaxSkew].
    const std::size_t world =
        static_cast<std::size_t>(shape_.nodes) * shape_.ppn;
    for (std::size_t i = 0; i < shape_.points.size(); ++i) {
      util::SplitMix64 rng(util::SplitMix64(seed, kSkewStream).next_u64(), i);
      std::vector<sim::Time>& skew = skews_.emplace_back(world);
      for (sim::Time& t : skew) {
        t = static_cast<sim::Time>(rng.next_below(kMaxSkew + 1));
      }
    }
  }

  PassResult run_pass(Spans& spans) override {
    PassResult pr;
    SweepAcc acc;
    for (std::size_t i = 0; i < shape_.points.size(); ++i) {
      double sim_us = 0.0;
      pr.ops.push_back(run_point(spans, i, shape_.fabric, pr, acc, sim_us));
      pr.sim_us += sim_us;
    }
    acc.write(pr.layers);
    return pr;
  }

  std::vector<OpOutcome> run_extras(Spans& spans,
                                    const std::vector<PassResult>& traced,
                                    Metrics& layers) override {
    std::vector<OpOutcome> ops;
    if (shape_.twin) {
      // The same shape on the LogGP transport: the fabric's cost ratio.
      std::vector<double> fabric_run_s;
      for (const PassResult& pr : traced) {
        fabric_run_s.push_back(pr.layers.at("sim.run_s"));
      }
      PassResult twin;
      SweepAcc acc;
      spans.time("fabric.twin", [&] {
        for (std::size_t i = 0; i < shape_.points.size(); ++i) {
          double sim_us = 0.0;
          ops.push_back(run_point(spans, i, fabric::FabricLevel::none, twin,
                                  acc, sim_us));
        }
      });
      layers["fabric.event_ratio"] =
          acc.events > 0 ? layers.at("sim.events") / acc.events : 0.0;
      layers["fabric.host_ratio"] =
          acc.run_s > 0 ? median(fabric_run_s) / acc.run_s : 0.0;
    }
    if (shape_.mode == sim::DataMode::payload) {
      // The reduction kernels at the sizes the workload folds.
      std::vector<std::size_t> counts;
      for (const Point& p : shape_.points) counts.push_back(p.count);
      spans.time("simmpi.reduce_probe", [&] {
        layers["simmpi.reduce_gbps"] = reduce_probe_gbps(counts);
      });
    }
    return ops;
  }

 private:
  // One point: fresh machine, warmup + measured iterations, checks.
  OpOutcome run_point(Spans& spans, std::size_t index,
                      fabric::FabricLevel level, PassResult& pr,
                      SweepAcc& acc, double& sim_us) {
    const Point& p = shape_.points[index];
    const std::vector<sim::Time>& skew = skews_[index];
    OpOutcome out;
    out.name = p.label() + (level == shape_.fabric ? "" : "/loggp-twin");
    const bool payload = shape_.mode == sim::DataMode::payload;
    const std::size_t bytes = p.count * simmpi::dtype_size(kDtype);
    double setup = 0.0;
    double host = 0.0;
    spans.time("op", [&] {
      try {
        simmpi::RunOptions ro;
        ro.with_data = payload;
        ro.data_mode = shape_.mode;
        ro.fabric_level = level;
        std::optional<simmpi::Machine> m;
        std::optional<sharp::SharpFabric> sf;
        std::vector<std::vector<std::byte>> send, recv;
        const double build = spans.time("simmpi.build", [&] {
          m.emplace(shape_.cfg, shape_.nodes, shape_.ppn, ro);
        });
        acc.build_s += build;
        setup += build;
        coll::CollSpec spec;
        spec.algo = p.algo;
        spec.leaders = p.leaders;
        const bool sharp = coll::CollRegistry::instance()
                               .at(p.kind, p.algo)
                               .caps.needs_fabric;
        if (sharp) {
          setup += spans.time("sharp.build", [&] { sf.emplace(*m); });
          spec.fabric = &*sf;
        }
        const int world = m->world_size();
        if (payload) {
          const double t = spans.time("simmpi.operand", [&] {
            send.resize(static_cast<std::size_t>(world));
            recv.resize(static_cast<std::size_t>(world));
            for (int w = 0; w < world; ++w) {
              send[static_cast<std::size_t>(w)] =
                  simmpi::make_operand(kDtype, p.count, w, kOp, operand_seed_);
              recv[static_cast<std::size_t>(w)].resize(bytes);
            }
          });
          acc.operand_s += t;
          setup += t;
        }

        const int calls = shape_.warmup + shape_.iterations;
        auto st = std::make_shared<PointState>(m->engine(), world, calls);
        const double run_s = spans.time("sim.run", [&] {
          m->run([&](simmpi::Rank& r) {
            const auto w = static_cast<std::size_t>(r.world_rank());
            return sweep_rank(
                r, p.kind, spec, p.count, shape_.warmup, shape_.iterations,
                skew[w],
                payload ? simmpi::ConstBytes{send[w]} : simmpi::ConstBytes{},
                payload ? simmpi::MutBytes{recv[w]} : simmpi::MutBytes{}, st);
          });
        });
        acc.run_s += run_s;
        host += run_s;

        host += spans.time("check", [&] {
          if (static_cast<int>(st->samples.size()) != shape_.iterations) {
            out.ok = false;
            out.why = "completed " + std::to_string(st->samples.size()) +
                      " of " + std::to_string(shape_.iterations) +
                      " iterations";
          }
          if (payload) {
            acc.verify_s += spans.time("simmpi.verify", [&] {
              const auto ref = simmpi::reference_allreduce(
                  kDtype, p.count, world, kOp, operand_seed_);
              // Rooted reduce: only the root's buffer is defined.
              const int checked = p.kind == coll::CollKind::reduce ? 1 : world;
              for (int w = 0; w < checked && out.ok; ++w) {
                if (recv[static_cast<std::size_t>(w)] != ref) {
                  out.ok = false;
                  out.why = "rank " + std::to_string(w) +
                            " buffer differs from the serial reference";
                }
              }
            });
          }
          std::vector<double> samples_us;
          Digest dg;
          for (sim::Time t : st->samples) {
            samples_us.push_back(sim::to_us(t));
            dg.add(static_cast<std::uint64_t>(t));
          }
          sim_us = median(samples_us);
          const sim::EnginePerf perf = m->engine().perf();
          const simmpi::CommStats& cs = m->comm_stats();
          for (std::uint64_t v :
               {perf.events, perf.peak_queue_depth, cs.net_messages,
                cs.net_bytes, cs.rndv_handshakes, cs.shm_messages,
                cs.shm_bytes, cs.reduce_bytes}) {
            dg.add(v);
          }
          acc.events += static_cast<double>(perf.events);
          acc.peak_queue_depth = std::max(
              acc.peak_queue_depth, static_cast<double>(perf.peak_queue_depth));
          acc.cb_hits += static_cast<double>(perf.callback_pool.hits);
          acc.cb_misses += static_cast<double>(perf.callback_pool.misses);
          acc.pl_hits += static_cast<double>(perf.payload_pool.hits);
          acc.pl_misses += static_cast<double>(perf.payload_pool.misses);
          acc.comm += cs;
          acc.tx_util_sum += m->avg_tx_utilization();
          acc.machines += 1;
          acc.elided += static_cast<double>(m->data_plane().elided_bytes());
          if (const fabric::FlowFabric* ff = m->flow_fabric()) {
            const sim::Time now = m->engine().now();
            acc.flows += static_cast<double>(ff->total_flows());
            acc.max_link_util =
                std::max(acc.max_link_util, ff->max_avg_link_utilization(now));
            for (int l = 0; l < ff->num_links(); ++l) {
              acc.congested_us += sim::to_us(ff->link_congested_time(l, now));
            }
            dg.add(ff->total_flows());
          }
          auto& coll = acc.coll[p.coll_metric()];
          for (const PointState::Call& c : st->calls) {
            coll.first += sim::to_us(c.max_exit - c.min_entry);
            coll.second += 1;
            acc.wait_us += sim::to_us(c.ranks * c.max_exit - c.exit_sum);
          }
          if (sharp) acc.sharp_ops += calls;
          out.digest = dg.value();
        });
        host += spans.time("teardown", [&] {
          sf.reset();
          m.reset();
          send.clear();
          recv.clear();
        });
      } catch (const std::exception& e) {
        out.ok = false;
        out.why = e.what();
      }
    });
    pr.setup_s += setup;
    pr.host_s += host;
    return out;
  }

  SweepShape shape_;
  std::uint64_t operand_seed_;
  std::vector<std::vector<sim::Time>> skews_;  // per point, per world rank
};

// ---------------------------------------------------------------------------
// Tenant mix
// ---------------------------------------------------------------------------

struct TenantShape {
  int nodes = 16;
  int ppn = 2;
  int jobs = 4;
  int iterations = 6;
  std::vector<std::uint64_t> seeds;  // one shared run per seed
};

class TenantMix final : public Workload {
 public:
  explicit TenantMix(TenantShape shape)
      : shape_(std::move(shape)), cfg_(net::cluster_d()) {}

  PassResult run_pass(Spans& spans) override {
    PassResult pr;
    double events = 0, flows = 0, bg_flows = 0, shared_links = 0;
    double stall_us = 0, replans = 0, max_level = 0, max_link_util = 0;
    double makespan_sum = 0, slowdown_sum = 0;
    for (std::uint64_t seed : shape_.seeds) {
      OpOutcome out;
      out.name = "tenant_mix@seed" + std::to_string(seed);
      spans.time("op", [&] {
        try {
          std::vector<tenant::JobSpec> jobs;
          tenant::TenantOptions opt;
          pr.setup_s += spans.time("tenant.setup", [&] {
            jobs = setup(seed, opt);
          });
          tenant::TenantResult r;
          pr.host_s += spans.time("tenant.run", [&] {
            r = tenant::run_tenants(cfg_, shape_.ppn, jobs, opt);
          });
          pr.host_s += spans.time("check", [&] {
            check(r, out);
            double worst = 0.0;
            for (const tenant::JobStats& j : r.jobs) {
              worst = std::max(worst, j.slowdown);
              stall_us += j.stall_us;
              replans += j.replans;
              max_level = std::max(max_level, static_cast<double>(j.max_level));
            }
            makespan_sum += r.makespan_us;
            makespans_[seed] = r.makespan_us;
            slowdown_sum += worst;
            events += static_cast<double>(r.events);
            flows += static_cast<double>(r.flows);
            bg_flows += static_cast<double>(r.bg_flows);
            shared_links += r.shared_links;
            max_link_util = std::max(max_link_util, r.max_link_util);
          });
        } catch (const std::exception& e) {
          out.ok = false;
          out.why = e.what();
        }
      });
      pr.ops.push_back(std::move(out));
    }
    const double n = static_cast<double>(shape_.seeds.size());
    pr.sim_us = makespan_sum / n;
    pr.slowdown_max = slowdown_sum / n;
    Metrics& m = pr.layers;
    // The shared run's engine event count, read through run_tenants.
    m["sim.events"] = events;
    m["tenant.events"] = events;
    m["tenant.bg_flows"] = bg_flows;
    m["tenant.shared_links"] = shared_links;
    m["tenant.stall_us"] = stall_us;
    m["adapt.replans"] = replans;
    m["adapt.max_level"] = max_level;
    m["fabric.flows"] = flows;
    m["fabric.max_link_util"] = max_link_util;
    m["fabric.events_per_flow"] = flows > 0 ? events / flows : 0.0;
    return pr;
  }

  std::vector<OpOutcome> run_extras(Spans& spans,
                                    const std::vector<PassResult>&,
                                    Metrics& layers) override {
    // Host split of run_tenants: the shared runs without their solo
    // baselines, and the solo work timed directly as each job alone.
    std::vector<OpOutcome> ops;
    double shared_s = 0.0;
    double solo_s = 0.0;
    for (std::uint64_t seed : shape_.seeds) {
      OpOutcome out;
      out.name = "tenant_mix@seed" + std::to_string(seed) + "/shared-only";
      tenant::TenantOptions opt;
      std::vector<tenant::JobSpec> jobs;
      try {
        jobs = setup(seed, opt);
        opt.solo_baseline = false;
        tenant::TenantResult r;
        shared_s += spans.time("tenant.shared", [&] {
          r = tenant::run_tenants(cfg_, shape_.ppn, jobs, opt);
        });
        // Solo baselines run on machines of their own: dropping them must
        // leave the shared run bit-identical.
        const auto it = makespans_.find(seed);
        if (it == makespans_.end() || it->second != r.makespan_us) {
          out.ok = false;
          out.why = "shared-only makespan differs from the full run's";
        }
      } catch (const std::exception& e) {
        out.ok = false;
        out.why = e.what();
      }
      ops.push_back(std::move(out));

      // Each job alone on a machine of its own nodes: no stagger, no
      // background traffic, no failures, no re-planning.
      opt.stagger_max_us = 0.0;
      opt.traffic = {};
      opt.failures = {};
      opt.adapt = false;
      for (const tenant::JobSpec& job : jobs) {
        OpOutcome solo;
        solo.name =
            "tenant_mix@seed" + std::to_string(seed) + "/solo-" + job.name;
        try {
          tenant::TenantResult r;
          solo_s += spans.time("tenant.solo", [&] {
            r = tenant::run_tenants(cfg_, shape_.ppn, {job}, opt);
          });
          if (r.jobs.size() != 1 ||
              r.jobs.front().iterations != shape_.iterations ||
              !(r.jobs.front().makespan_us > 0.0)) {
            solo.ok = false;
            solo.why = "incomplete solo run";
          }
        } catch (const std::exception& e) {
          solo.ok = false;
          solo.why = e.what();
        }
        ops.push_back(std::move(solo));
      }
    }
    layers["tenant.shared_s"] = shared_s;
    layers["tenant.solo_s"] = solo_s;

    std::vector<std::pair<coll::CollKind, std::size_t>> keys;
    tenant::TenantOptions opt;
    for (const tenant::JobSpec& j : setup(shape_.seeds.front(), opt)) {
      keys.emplace_back(j.kind, j.bytes);
    }
    spans.time("adapt.select",
               [&] { layers["adapt.select_ns"] = select_ns(keys); });
    return ops;
  }

 private:
  // Job mix and options for one shared run, parsed from the same spec
  // grammar the dpmlsim --tenants flags use.
  std::vector<tenant::JobSpec> setup(std::uint64_t seed,
                                     tenant::TenantOptions& opt) const {
    std::vector<tenant::JobSpec> jobs =
        tenant::default_jobs(shape_.jobs, cfg_, shape_.nodes);
    for (tenant::JobSpec& j : jobs) j.iterations = shape_.iterations;
    opt.seed = seed;
    opt.traffic = tenant::TrafficSpec::parse(
        "uniform:load=0.4,bytes=64K,seed=" + std::to_string(seed));
    opt.failures = tenant::FailSpec::parse("way=0,at_us=200,recover_us=1500");
    opt.placement = tenant::placement_by_name("round-robin");
    opt.adapt = true;
    opt.jobs = 1;  // fixed executor width: host time independent of idle cores
    return jobs;
  }

  void check(const tenant::TenantResult& r, OpOutcome& out) const {
    Digest dg;
    dg.add_double(r.makespan_us);
    dg.add(r.events);
    dg.add(r.flows);
    dg.add(r.bg_flows);
    dg.add(static_cast<std::uint64_t>(r.shared_links));
    auto fail = [&](const std::string& why) {
      if (out.ok) out.why = why;
      out.ok = false;
    };
    if (static_cast<int>(r.jobs.size()) != shape_.jobs) fail("missing jobs");
    if (!(r.makespan_us > 0.0)) fail("empty shared run");
    if (r.bg_flows == 0 || r.flows <= r.bg_flows) fail("no traffic");
    for (const tenant::JobStats& j : r.jobs) {
      for (double v : {j.start_us, j.end_us, j.makespan_us, j.solo_us,
                       j.slowdown, j.stall_us}) {
        dg.add_double(v);
      }
      dg.add(static_cast<std::uint64_t>(j.replans));
      dg.add(static_cast<std::uint64_t>(j.max_level));
      if (j.iterations != shape_.iterations) fail(j.name + ": iterations");
      if (!(j.makespan_us > 0.0) || !(j.solo_us > 0.0) ||
          !std::isfinite(j.slowdown) || !(j.slowdown > 0.0)) {
        fail(j.name + ": incomplete run");
      }
    }
    out.digest = dg.value();
  }

  TenantShape shape_;
  net::ClusterConfig cfg_;
  std::map<std::uint64_t, double> makespans_;  // shared makespan per seed
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  auto point = [](coll::CollKind kind, const char* algo, int leaders,
                  std::size_t bytes) {
    return Point{kind, algo, leaders, bytes / simmpi::dtype_size(kDtype)};
  };
  constexpr auto kAllreduce = coll::CollKind::allreduce;
  constexpr auto kReduce = coll::CollKind::reduce;

  if (name == "loggp_scale") {
    SweepShape s;
    s.cfg = net::with_nodes(net::cluster_d(), tiny ? 8 : 512);
    s.nodes = tiny ? 8 : 512;
    s.ppn = tiny ? 4 : 16;
    for (std::size_t b : {4096u, 32768u, 262144u}) {
      s.points.push_back(point(kAllreduce, "dpml", 4, b));
    }
    return std::make_unique<PointSweep>(std::move(s), seed);
  }
  if (name == "fabric_dpml") {
    SweepShape s;
    s.cfg = net::cluster_d();
    s.nodes = tiny ? 4 : 128;
    s.ppn = tiny ? 4 : 16;
    s.fabric = fabric::FabricLevel::links;
    s.twin = true;
    s.points.push_back(point(kAllreduce, "dpml", 4, 65536));
    return std::make_unique<PointSweep>(std::move(s), seed);
  }
  if (name == "payload_verify") {
    SweepShape s;
    s.cfg = net::cluster_a();
    s.nodes = tiny ? 2 : 8;
    s.ppn = tiny ? 4 : 28;
    s.mode = sim::DataMode::payload;
    for (auto kind : {kAllreduce, kReduce}) {
      for (std::size_t b : {4096u, 16384u, 65536u, 262144u}) {
        s.points.push_back(point(kind, "dpml", 4, b));
      }
    }
    for (std::size_t b : {64u, 256u, 1024u, 4096u}) {
      s.points.push_back(point(kAllreduce, "sharp-socket-leader", 1, b));
    }
    return std::make_unique<PointSweep>(std::move(s), seed);
  }
  if (name == "tenant_mix") {
    TenantShape s;
    s.nodes = tiny ? 8 : 16;
    s.iterations = tiny ? 2 : 6;
    util::SplitMix64 rng(seed, kTenantStream);
    const int instances = tiny ? 1 : 6;
    for (int i = 0; i < instances; ++i) {
      s.seeds.push_back(1 + rng.next_below(1u << 30));
    }
    return std::make_unique<TenantMix>(std::move(s));
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.peak_queue_depth", "count"},
      {"sim.callback_pool_hit_rate", "ratio"},
      {"sim.run_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"simmpi.build_s", "s"},
      {"simmpi.net_messages", "count"},
      {"simmpi.net_bytes", "B"},
      {"simmpi.rndv_handshakes", "count"},
      {"simmpi.shm_bytes", "B"},
      {"simmpi.reduce_bytes", "B"},
      {"simmpi.tx_util", "ratio"},
      {"simmpi.payload_pool_hit_rate", "ratio"},
      {"simmpi.operand_s", "s"},
      {"simmpi.verify_s", "s"},
      {"simmpi.reduce_gbps", "GB/s"},
      {"simmpi.elided_bytes", "B"},
      {"fabric.flows", "count"},
      {"fabric.max_link_util", "ratio"},
      {"fabric.congested_us", "us"},
      {"fabric.events_per_flow", "ratio"},
      {"fabric.event_ratio", "ratio"},
      {"fabric.host_ratio", "ratio"},
      {"coll.allreduce.dpml.sim_us", "us"},
      {"coll.reduce.dpml.sim_us", "us"},
      {"coll.allreduce.sharp-socket-leader.sim_us", "us"},
      {"coll.wait_us", "us"},
      {"sharp.ops", "count"},
      {"tenant.shared_s", "s"},
      {"tenant.solo_s", "s"},
      {"tenant.events", "count"},
      {"tenant.bg_flows", "count"},
      {"tenant.shared_links", "count"},
      {"tenant.stall_us", "us"},
      {"adapt.replans", "count"},
      {"adapt.max_level", "count"},
      {"adapt.select_ns", "ns"},
      {"trace.overhead_s", "s"},
  };
  return defs;
}

}  // namespace perfbench
