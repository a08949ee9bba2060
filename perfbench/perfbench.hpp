// Shared definitions of the perfbench program: host clock, benchmark-side
// spans, and the workload interface.
//
// Every layer is measured from outside: the benchmark times and counts its
// own calls into each module's public functions and accessors. Nothing here
// reaches into src/ internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// Per-layer metric values of one pass, keyed by metric name.
using Metrics = std::map<std::string, double>;

inline double host_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Spans recorded at the benchmark's call sites. Timing is always measured
// (host_s and setup_s are sums of these intervals); span records are kept in
// memory only while recording is on, and written once at exit.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // host seconds since the recorder was created
    double end = 0.0;
    int parent = -1;     // index of the enclosing span, -1 at the root
    int run = 0;         // pass index the span belongs to
  };

  void set_recording(bool on) { recording_ = on; }
  void set_run(int run) { run_ = run; }

  // Runs `fn` and returns its host seconds; records a span named `name`
  // under the innermost open span when recording. Exceptions propagate
  // after the span is closed.
  template <typename F>
  double time(const char* name, F&& fn) {
    const int id = open(name);
    const double t0 = host_now();
    struct Closer {
      Spans& s;
      int id;
      double t0;
      double* out;
      ~Closer() {
        const double t1 = host_now();
        *out = t1 - t0;
        s.close(id, t1);
      }
    };
    double elapsed = 0.0;
    {
      Closer c{*this, id, t0, &elapsed};
      fn();
    }
    return elapsed;
  }

  // Per span name: count, total seconds, and self seconds (duration minus
  // the part covered by direct children; children never overlap because
  // the benchmark is single-threaded and spans nest).
  struct Totals {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      t.count += 1;
      t.total += d;
      t.self += d - child[i];
    }
    return out;
  }

  void write_json(std::ostream& os, const std::string& workload,
                  std::uint64_t seed) const {
    os.precision(9);
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \""
         << s.name << "\", \"start_s\": " << s.start << ", \"end_s\": "
         << s.end << ", \"parent\": " << s.parent << ", \"run\": " << s.run
         << "}";
    }
    os << "\n ],\n \"self_s\": {";
    bool first = true;
    for (const auto& [name, t] : totals()) {
      os << (first ? "\n  " : ",\n  ") << "\"" << name << "\": " << t.self;
      first = false;
    }
    os << "\n }}\n";
  }

 private:
  int open(const char* name) {
    if (!recording_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, host_now() - origin_, 0.0, parent, run_});
    stack_.push_back(id);
    return id;
  }
  void close(int id, double t1) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = t1 - origin_;
    stack_.pop_back();
  }

  bool recording_ = false;
  int run_ = 0;
  double origin_ = host_now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// The outcome of one operation (one sweep point or one tenant run).
struct OpOutcome {
  std::string name;
  bool ok = true;
  std::string why;          // failure reason when !ok
  std::uint64_t digest = 0; // simulated latencies and deterministic counts
};

struct PassResult {
  double setup_s = 0.0;  // host seconds before each operation's first event
  double host_s = 0.0;   // host seconds from first event to last check
  double sim_us = 0.0;   // total simulated time (deterministic)
  double slowdown_max = 1.0;
  std::vector<OpOutcome> ops;
  Metrics layers;        // per-layer values of this pass
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One pass over every operation of the workload.
  virtual PassResult run_pass(Spans& spans) = 0;
  // Traced-run extras measured once after the passes (the LogGP twin, the
  // reduction-kernel probe, the tenant solo split, the adaptive-table
  // lookup timing). `traced` holds the traced passes already run. Adds
  // per-layer values to `layers` and returns the extra operations run.
  virtual std::vector<OpOutcome> run_extras(
      Spans& spans, const std::vector<PassResult>& traced,
      Metrics& layers) = 0;
};

// Throws std::invalid_argument on an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

// Every per-layer metric (name, unit), in output order. Layers a workload
// bypasses or cannot observe from outside report 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& per_layer_metrics();

// FNV-1a, folded over simulated latencies and deterministic counts.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
