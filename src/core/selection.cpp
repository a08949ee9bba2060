#include "core/selection.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace dpml::core {

namespace {
constexpr std::size_t kCatchAll = std::numeric_limits<std::size_t>::max();

// Whether serialize() should persist leaders/pipeline_k for this spec:
// exactly the algorithms whose descriptor declares a leader parameter.
bool persists_params(CollKind kind, const std::string& algo) {
  const coll::CollDescriptor* d =
      coll::CollRegistry::instance().find(kind, algo);
  return d != nullptr && d->caps.uses_leaders;
}

}  // namespace

SelectionTable::SelectionTable(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  validate();
}

void SelectionTable::validate() const {
  DPML_CHECK_MSG(!entries_.empty(), "selection table has no entries");
  // Per collective kind: thresholds strictly ascending, catch-all present
  // and last. Kinds may interleave freely in the entry list.
  for (CollKind kind : coll::kAllCollKinds) {
    const Entry* last = nullptr;
    std::size_t prev = 0;
    bool first = true;
    for (const Entry& e : entries_) {
      if (e.kind != kind) continue;
      if (last != nullptr) {
        DPML_CHECK_MSG(last->max_bytes != kCatchAll,
                       "catch-all entry must be last");
        DPML_CHECK_MSG(first || last->max_bytes > prev,
                       "selection thresholds must be strictly ascending");
        prev = last->max_bytes;
        first = false;
      }
      last = &e;
    }
    if (last != nullptr) {
      DPML_CHECK_MSG(last->max_bytes == kCatchAll,
                     "selection table must end with a catch-all entry");
    }
  }
}

bool SelectionTable::has_kind(CollKind kind) const {
  for (const Entry& e : entries_) {
    if (e.kind == kind) return true;
  }
  return false;
}

const coll::CollSpec& SelectionTable::select(CollKind kind,
                                             std::size_t bytes) const {
  DPML_CHECK_MSG(!entries_.empty(), "selecting from an empty table");
  const coll::CollSpec* catch_all = nullptr;
  for (const Entry& e : entries_) {
    if (e.kind != kind) continue;
    if (bytes <= e.max_bytes) return e.spec;
    catch_all = &e.spec;
  }
  DPML_CHECK_MSG(catch_all != nullptr,
                 std::string("selection table has no entries for ") +
                     coll::coll_kind_name(kind));
  return *catch_all;
}

std::string SelectionTable::serialize() const {
  std::ostringstream os;
  os << "# dpml collective selection table\n";
  for (const Entry& e : entries_) {
    if (e.kind != CollKind::allreduce) {
      os << coll::coll_kind_name(e.kind) << " ";
    }
    if (e.max_bytes == kCatchAll) {
      os << "*";
    } else {
      os << "<=" << e.max_bytes;
    }
    os << "  " << e.spec.algo;
    if (persists_params(e.kind, e.spec.algo)) {
      os << " " << e.spec.leaders << " " << e.spec.pipeline_k;
    }
    os << "\n";
  }
  return os.str();
}

SelectionTable SelectionTable::parse(const std::string& text) {
  std::vector<Entry> entries;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string bound;
    if (!(ls >> bound)) continue;  // blank line
    Entry e;
    // Optional leading collective kind; bare lines are allreduce entries
    // (the legacy format).
    if (coll::is_coll_kind_name(bound)) {
      e.kind = coll::coll_kind_by_name(bound);
      DPML_CHECK_MSG(static_cast<bool>(ls >> bound),
                     "selection entry missing size bound: " + line);
    }
    if (bound == "*") {
      e.max_bytes = kCatchAll;
    } else {
      DPML_CHECK_MSG(bound.rfind("<=", 0) == 0,
                     "selection entry must start with '<=' or '*': " + bound);
      e.max_bytes = std::stoull(bound.substr(2));
    }
    std::string algo;
    DPML_CHECK_MSG(static_cast<bool>(ls >> algo),
                   "selection entry missing algorithm: " + line);
    // Resolve through the registry: unknown names fail here, with the
    // error listing every registered algorithm of the entry's kind.
    e.spec.algo = coll::CollRegistry::instance().at(e.kind, algo).name;
    int leaders = 0;
    if (ls >> leaders) {
      e.spec.leaders = leaders;
      int k = 0;
      if (ls >> k) e.spec.pipeline_k = k;
    }
    entries.push_back(e);
  }
  return SelectionTable(std::move(entries));
}

SelectionTable SelectionTable::tune(CollKind kind,
                                    const net::ClusterConfig& cfg, int nodes,
                                    int ppn,
                                    const std::vector<std::size_t>& probe_sizes,
                                    const MeasureOptions& opt) {
  DPML_CHECK_MSG(!probe_sizes.empty(), "no probe sizes");
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < probe_sizes.size(); ++i) {
    const auto best =
        tune_collective(kind, cfg, nodes, ppn, probe_sizes[i], opt).best;
    Entry e;
    e.kind = kind;
    e.max_bytes =
        i + 1 == probe_sizes.size() ? kCatchAll : probe_sizes[i];
    e.spec = best.spec;
    e.spec.fabric = nullptr;  // tables are machine-independent
    entries.push_back(e);
  }
  // Merge adjacent entries with identical specs (keeps tables small).
  std::vector<Entry> merged;
  for (const Entry& e : entries) {
    if (!merged.empty() &&
        merged.back().spec.algo == e.spec.algo &&
        merged.back().spec.leaders == e.spec.leaders &&
        merged.back().spec.pipeline_k == e.spec.pipeline_k) {
      merged.back().max_bytes = e.max_bytes;
    } else {
      merged.push_back(e);
    }
  }
  return SelectionTable(std::move(merged));
}

sim::CoTask<void> run_collective(CollKind kind, coll::CollArgs args,
                                 const SelectionTable& table,
                                 sharp::SharpFabric* fabric) {
  coll::CollSpec spec = table.select(kind, args.bytes());
  const coll::CollDescriptor& d =
      coll::CollRegistry::instance().at(kind, spec.algo);
  if (wants_sharp(d)) spec.fabric = fabric;
  if (d.caps.needs_fabric && spec.fabric == nullptr &&
      kind == CollKind::allreduce) {
    // Graceful degradation on fabric-less platforms: fall back to the tuned
    // host design family.
    spec.algo = "dpml";
    spec.leaders = 1;
    spec.pipeline_k = 1;
  }
  return run_collective(kind, std::move(args), spec);
}

}  // namespace dpml::core
