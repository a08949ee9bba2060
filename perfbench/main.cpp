// The perfbench program: runs one workload for a time budget and prints its
// metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--spans FILE]
//
// The workload runs in passes (every operation once per pass) until the
// budget would be exceeded by one more pass. --trace 0 reports the
// end-to-end metrics: medians over passes of host_s and setup_s, the
// process's peak RSS, and the deterministic simulated totals. --trace 1
// alternates untraced and traced passes, then runs the traced-run extras,
// and reports the per-layer metrics (medians over traced passes) plus the
// tracing overhead. Both print a digest of every simulated latency and
// deterministic count, taken from the first traced pass when tracing, so
// that comparing a traced with an untraced run compares traced with
// untraced passes; every pass must reproduce the first pass's digests.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "sim/engine.hpp"

namespace {

using perfbench::median;
using perfbench::Metrics;
using perfbench::PassResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--spans FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0.0)) usage("--seconds must be positive");
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Per-key median over the passes' per-layer maps.
Metrics median_layers(const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> values;
  for (const PassResult& p : passes) {
    for (const auto& [k, v] : p.layers) values[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, vs] : values) out[k] = median(vs);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<perfbench::Workload> wl;
  try {
    wl = perfbench::make_workload(args.workload, args.seed, args.tiny);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  perfbench::Spans spans;
  std::vector<PassResult> plain, traced;
  const double t0 = perfbench::host_now();
  for (int pass = 0;; ++pass) {
    const bool record = args.trace && pass % 2 == 1;
    spans.set_recording(record);
    spans.set_run(pass);
    PassResult r;
    const double wall = spans.time("pass", [&] { r = wl->run_pass(spans); });
    (record ? traced : plain).push_back(std::move(r));
    const int min_passes = args.trace ? 2 : 1;
    if (pass + 1 >= min_passes &&
        perfbench::host_now() - t0 + wall > args.seconds) {
      break;
    }
  }

  // Every pass must reproduce the first pass's simulated results exactly.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::vector<perfbench::OpOutcome>& first = plain.front().ops;
  std::vector<std::string> failures;
  auto account = [&](const std::vector<perfbench::OpOutcome>& ops,
                     bool compare) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const perfbench::OpOutcome& op = ops[i];
      ++attempted;
      std::string why = op.why;
      bool ok = op.ok;
      if (ok && compare && op.digest != first[i].digest) {
        ok = false;
        why = "simulated results differ from the first pass";
      }
      if (!ok) {
        ++failed;
        failures.push_back(op.name + ": " + why);
      }
    }
  };
  for (const PassResult& p : plain) account(p.ops, true);
  for (const PassResult& p : traced) account(p.ops, true);

  Metrics layers = median_layers(args.trace ? traced : plain);
  if (args.trace) {
    spans.set_recording(true);
    spans.set_run(static_cast<int>(plain.size() + traced.size()));
    account(wl->run_extras(spans, traced, layers), false);
    std::vector<double> plain_host, traced_host;
    for (const PassResult& p : plain) plain_host.push_back(p.host_s);
    for (const PassResult& p : traced) traced_host.push_back(p.host_s);
    layers["trace.overhead_s"] = median(traced_host) - median(plain_host);
  }

  const PassResult& reported = args.trace ? traced.front() : plain.front();
  perfbench::Digest run_digest;
  for (const perfbench::OpOutcome& op : reported.ops) {
    run_digest.add(op.digest);
  }
  std::vector<double> host, setup;
  for (const PassResult& p : plain) {
    host.push_back(p.host_s);
    setup.push_back(p.setup_s);
  }
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric> e2e = {
      {"host_s", median(host), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb",
       static_cast<double>(dpml::sim::peak_rss_kb()) / 1024.0, "MB"},
      {"sim_us", reported.sim_us, "us"},
      {"sim_slowdown_max", reported.slowdown_max, "ratio"},
  };
  std::vector<Metric> per_layer;
  for (const perfbench::MetricDef& d : perfbench::per_layer_metrics()) {
    const auto it = layers.find(d.name);
    per_layer.push_back({d.name, it == layers.end() ? 0.0 : it->second,
                         d.unit});
  }

  // Human-readable report; the JSON result line comes last.
  std::printf("workload %s seed %llu shape %s passes %zu traced %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", plain.size(), traced.size());
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(run_digest.value()));
  std::printf("passes host_s");
  for (double h : host) std::printf(" %.4f", h);
  std::printf("\n");
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  for (const Metric& m : e2e) {
    std::printf("metric %s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("metric fail_rate %s ratio\n",
              num(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str());
  for (const Metric& m : per_layer) {
    std::printf("layer %s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  if (args.trace) {
    for (const auto& [name, t] : spans.totals()) {
      std::printf("span %s count %llu total_s %s self_s %s\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  num(t.total).c_str(), num(t.self).c_str());
    }
    if (!args.spans_path.empty()) {
      std::ofstream os(args.spans_path);
      spans.write_json(os, args.workload, args.seed);
      if (!os) {
        std::cerr << "perfbench: cannot write " << args.spans_path << "\n";
        return 2;
      }
    }
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& out = args.trace ? per_layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            num(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
