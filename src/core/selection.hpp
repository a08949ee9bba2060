// Persistable per-size algorithm selection tables.
//
// Production MPI libraries ship tuned selection tables per platform (the
// paper's §6.4 "best configuration for each message size" made permanent).
// A SelectionTable maps (collective kind, contention level, message-size
// threshold) to specs. The empirical tuner generates it, the text format
// below persists it, and it serves directly as the collective dispatcher.
// Congestion-aware re-planning (src/adapt, docs/MODEL.md §12) reads its
// higher contention levels and records observed plans back into it.
//
// Format (one entry per line, '#' comments):
//   [KIND] [@cLEVEL] <=BYTES  ALGO [leaders [pipeline_k]]
//   [KIND] [@cLEVEL] *        ALGO [leaders [pipeline_k]]   (catch-all)
// e.g.
//   <=2048   sharp-socket-leader
//   <=8192   dpml 4
//   *        dpml 16 4
//   reduce <=65536 binomial
//   reduce *       dpml 8
//   bcast  *       scatter-allgather
//   @c2 *          cring 4          # allreduce under moderate contention
// Lines without a kind are allreduce entries and lines without @c are
// level 0, so tables written before either qualifier existed parse
// unchanged. BYTES, LEVEL, leaders and pipeline_k are decimal integers;
// leaders and pipeline_k are >= 1. Per (kind, level), thresholds are
// strictly ascending and end with a catch-all.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/tuner.hpp"

namespace dpml::core {

// Discrete contention severity: 0 = pristine (the tuned table) ..
// kContentionLevels - 1 = saturated.
constexpr int kContentionLevels = 4;

class SelectionTable {
 public:
  struct Entry {
    CollKind kind = CollKind::allreduce;
    int level = 0;              // contention level
    std::size_t max_bytes = 0;  // inclusive upper bound; SIZE_MAX = catch-all
    coll::CollSpec spec;
  };

  SelectionTable() = default;
  explicit SelectionTable(std::vector<Entry> entries);

  // The built-in re-planning ladder: no level-0 entries (the job's static
  // plan stays in charge when the fabric is quiet) and progressively more
  // multi-channel ring channels for congested allreduce jobs.
  static SelectionTable defaults();

  // The entry for (kind, bytes) at the highest populated level <= level
  // (levels past the last one clamp to it); nullptr when no level down to 0
  // has entries for the kind.
  const Entry* select(CollKind kind, std::size_t bytes, int level = 0) const;

  // Persist an observed choice: replace the catch-all spec for
  // (kind, level), appending the entry if absent. Recording the spec the
  // table itself selected is a no-op, so persisted tables are stable under
  // repeated runs.
  void record(CollKind kind, int level, const coll::CollSpec& spec);

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  // Serialization (see format above). Allreduce entries serialize without a
  // kind qualifier and level-0 entries without a level qualifier, so a
  // level-0 allreduce-only table round-trips in the oldest format. parse()
  // throws util::InvariantError on malformed input, quoting the line, and
  // on algorithm names not present in the registry.
  std::string serialize() const;
  static SelectionTable parse(const std::string& text);

  // Build a level-0 table by running the empirical tuner at each probe size
  // on the given shape. Threshold i covers (probe[i-1], probe[i]].
  static SelectionTable tune(CollKind kind, const net::ClusterConfig& cfg,
                             int nodes, int ppn,
                             const std::vector<std::size_t>& probe_sizes,
                             const MeasureOptions& opt = {});

 private:
  void validate() const;
  std::vector<Entry> entries_;
};

// Run a collective through a table's level-0 entries (resolves the spec by
// kind and args.bytes()). The fabric pointer is injected into
// fabric-needing specs; allreduce falls back to the host design family when
// a fabric-needing spec is selected on a fabric-less platform.
sim::CoTask<void> run_collective(CollKind kind, coll::CollArgs args,
                                 const SelectionTable& table,
                                 sharp::SharpFabric* fabric = nullptr);

}  // namespace dpml::core
