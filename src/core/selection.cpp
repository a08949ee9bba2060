#include "core/selection.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
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

[[noreturn]] void reject(const std::string& why, const std::string& line) {
  throw util::InvariantError("selection table: " + why + " in line '" + line +
                             "'");
}

// The whole token as a decimal integer; nullopt for anything else (a sign
// on an unsigned type, trailing characters, overflow).
template <typename T>
std::optional<T> parse_int(std::string_view tok) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

SelectionTable::SelectionTable(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  validate();
}

void SelectionTable::validate() const {
  // Shape errors come from user input (--table, --adapt-table), so they
  // name the offending (kind, level) and the rule it breaks.
  if (entries_.empty()) {
    throw util::InvariantError("selection table has no entries");
  }
  // Per (kind, level): thresholds strictly ascending, catch-all present and
  // last. Pairs may interleave freely in the entry list.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const std::string where = std::string("selection table (") +
                              coll::coll_kind_name(it->kind) + ", @c" +
                              std::to_string(it->level) + "): ";
    if (it->level < 0 || it->level >= kContentionLevels) {
      throw util::InvariantError(where + "contention level must lie in [0, " +
                                 std::to_string(kContentionLevels) + ")");
    }
    const auto next =
        std::find_if(it + 1, entries_.end(), [&](const Entry& e) {
          return e.kind == it->kind && e.level == it->level;
        });
    if (next == entries_.end()) {
      if (it->max_bytes != kCatchAll) {
        throw util::InvariantError(
            where + "the last entry must be the catch-all '*', got <=" +
            std::to_string(it->max_bytes));
      }
    } else if (it->max_bytes == kCatchAll) {
      throw util::InvariantError(where +
                                 "the catch-all '*' must be its last entry");
    } else if (it->max_bytes >= next->max_bytes) {
      throw util::InvariantError(
          where + "size bounds must strictly ascend, got <=" +
          std::to_string(it->max_bytes) + " before <=" +
          std::to_string(next->max_bytes));
    }
  }
}

SelectionTable SelectionTable::defaults() {
  std::vector<Entry> entries;
  // Channel ladder for congested allreduce jobs: under max-min fair sharing
  // a job's aggregate share of a contended link grows with its concurrent
  // flow count, so rising contention buys more cring channels. No level-0
  // entries: a quiet fabric keeps the job's static plan.
  const int ladder[kContentionLevels] = {0, 2, 4, 8};
  for (int level = 1; level < kContentionLevels; ++level) {
    Entry e;
    e.level = level;
    e.max_bytes = kCatchAll;
    e.spec.algo = "cring";
    e.spec.leaders = ladder[level];
    e.spec.pipeline_k = 1;
    entries.push_back(e);
  }
  return SelectionTable(std::move(entries));
}

const SelectionTable::Entry* SelectionTable::select(CollKind kind,
                                                    std::size_t bytes,
                                                    int level) const {
  // validate() guarantees a populated (kind, level) ends with a catch-all,
  // so a level either matches here or has no entries for the kind.
  for (int lv = std::min(level, kContentionLevels - 1); lv >= 0; --lv) {
    for (const Entry& e : entries_) {
      if (e.kind == kind && e.level == lv && bytes <= e.max_bytes) return &e;
    }
  }
  return nullptr;
}

void SelectionTable::record(CollKind kind, int level,
                            const coll::CollSpec& spec) {
  DPML_CHECK_MSG(level >= 0 && level < kContentionLevels,
                 "record: level out of range");
  Entry e;
  e.kind = kind;
  e.level = level;
  e.max_bytes = kCatchAll;
  e.spec = spec;
  e.spec.fabric = nullptr;  // tables are machine-independent
  for (Entry& old : entries_) {
    if (old.kind == kind && old.level == level && old.max_bytes == kCatchAll) {
      old = e;
      return;
    }
  }
  entries_.push_back(e);
}

std::string SelectionTable::serialize() const {
  std::ostringstream os;
  // The banner names the @cN extension only when the table uses it.
  const bool leveled = std::any_of(entries_.begin(), entries_.end(),
                                   [](const Entry& e) { return e.level != 0; });
  os << (leveled ? "# dpml adaptive selection table (@cN = contention level)\n"
                 : "# dpml collective selection table\n");
  for (const Entry& e : entries_) {
    if (e.kind != CollKind::allreduce) {
      os << coll::coll_kind_name(e.kind) << " ";
    }
    if (e.level != 0) os << "@c" << e.level << " ";
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
    const std::vector<std::string> tok{
        std::istream_iterator<std::string>(ls), {}};
    if (tok.empty()) continue;  // blank line
    auto next = tok.begin();
    Entry e;
    if (coll::is_coll_kind_name(*next)) {
      e.kind = coll::coll_kind_by_name(*next++);
    }
    if (next != tok.end() && next->rfind("@c", 0) == 0) {
      const auto level = parse_int<int>(std::string_view(*next++).substr(2));
      if (!level) reject("contention qualifier must be @c<level>", line);
      e.level = *level;
    }
    if (next == tok.end()) reject("missing size bound", line);
    if (*next == "*") {
      e.max_bytes = kCatchAll;
    } else {
      const auto bound =
          next->rfind("<=", 0) == 0
              ? parse_int<std::size_t>(std::string_view(*next).substr(2))
              : std::nullopt;
      // SIZE_MAX is the catch-all's sentinel, spelled '*'.
      if (!bound || *bound == kCatchAll) {
        reject("size bound must be '<=BYTES' or '*'", line);
      }
      e.max_bytes = *bound;
    }
    if (++next == tok.end()) reject("missing algorithm", line);
    // Resolve through the registry: unknown names fail here, with the
    // error listing every registered algorithm of the entry's kind.
    const coll::CollRegistry& reg = coll::CollRegistry::instance();
    const coll::CollDescriptor* d = reg.find(e.kind, *next);
    if (d == nullptr) reject(reg.unknown_name_message(e.kind, *next), line);
    e.spec.algo = d->name;
    ++next;
    for (int* param : {&e.spec.leaders, &e.spec.pipeline_k}) {
      if (next == tok.end()) break;
      const auto v = parse_int<int>(*next++);
      if (!v || *v < 1) {
        reject("leaders and pipeline_k must be integers >= 1", line);
      }
      *param = *v;
    }
    if (next != tok.end()) reject("unexpected token '" + *next + "'", line);
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
  const SelectionTable::Entry* e = table.select(kind, args.bytes());
  DPML_CHECK_MSG(e != nullptr,
                 std::string("selection table has no entries for ") +
                     coll::coll_kind_name(kind));
  coll::CollSpec spec = e->spec;
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
