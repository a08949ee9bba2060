// Signal quantization and the per-job re-planning state machine
// (docs/MODEL.md §12).
#include "adapt/adapt.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace dpml::adapt {

int classify(const Signals& s) {
  const double x = std::max(s.foreign_util, s.stall_frac);
  int level = 0;
  if (x >= 0.55) {
    level = 3;
  } else if (x >= 0.25) {
    level = 2;
  } else if (x >= 0.05) {
    level = 1;
  }
  // A failed way shrinks the core capacity under the job, which the
  // utilization ratios (measured against nominal capacities) understate.
  if (s.degraded && level < kLevels - 1) ++level;
  return level;
}

Replanner::Replanner(const core::SelectionTable* table, coll::CollKind kind,
                     Plan static_plan, std::size_t bytes)
    : table_(table),
      kind_(kind),
      static_plan_(std::move(static_plan)),
      bytes_(bytes),
      plan_(static_plan_) {
  DPML_CHECK_MSG(static_plan_.leaders >= 1,
                 "replanner: static plan needs leaders >= 1");
  // The job starts on its static plan at level 0 — itself an observation
  // worth persisting (migrates the static selection into the table).
  seen_[0] = true;
  observed_[0] = plan_;
}

const Plan& Replanner::replan(const Signals& s) {
  const int level = classify(s);
  if (level != level_ || stale_) {
    const core::SelectionTable::Entry* e =
        table_ != nullptr ? table_->select(kind_, bytes_, level) : nullptr;
    Plan next = e != nullptr ? Plan{e->spec.algo, e->spec.leaders}
                             : static_plan_;
    if (next != plan_) {
      plan_ = std::move(next);
      ++replans_;
    }
    level_ = level;
    stale_ = false;
  }
  seen_[level_] = true;
  observed_[level_] = plan_;
  max_level_ = std::max(max_level_, level);
  return plan_;
}

bool Replanner::observed(int level) const {
  DPML_CHECK_MSG(level >= 0 && level < kLevels, "observed: bad level");
  return seen_[level];
}

const Plan& Replanner::observed_plan(int level) const {
  DPML_CHECK_MSG(observed(level), "observed_plan: level never planned");
  return observed_[level];
}

}  // namespace dpml::adapt
