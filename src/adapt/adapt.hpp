// Congestion-aware adaptive re-planning (docs/MODEL.md §12).
//
// PR 9's multi-tenant fabric measures what congestion does to a job —
// slowdown vs a solo baseline, barrier stall time, hot-link byte shares,
// failure events — but the selection layer still picked (algorithm,
// leader_count) from offline tables tuned on a pristine, solo cluster. This
// subsystem closes that loop: between collective iterations a job's observed
// signals are quantized to a discrete *contention level*, and the selection
// table's entries at that level (core::SelectionTable, whose header documents
// the @cN grammar) re-select the job's (algorithm, leader_count) for the
// next iteration. Level 0 always reproduces the job's static plan (with the
// default table), so adaptive runs under zero background load and no
// failures stay bit-identical to static selection (golden-locked).
//
// Everything here is pure bookkeeping over numbers the tenant layer hands
// in; no clocks, no RNG, no engine state — re-planning is a deterministic
// function of the simulation, so adaptive runs remain byte-identical across
// reruns and sweep-executor widths.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/selection.hpp"

namespace dpml::adapt {

// Discrete contention severity: 0 = pristine .. kLevels-1 = saturated.
inline constexpr int kLevels = core::kContentionLevels;

// One observation window's feedback signals, as measured by the tenant
// layer between consecutive iteration barriers of one job.
struct Signals {
  // Foreign (other jobs + background) delivered bytes on the job's hottest
  // link, as a fraction of that link's capacity over the window.
  double foreign_util = 0.0;
  // Barrier stall time as a fraction of parties * window (arrival skew).
  double stall_frac = 0.0;
  // An ECMP way the job's flows may cross is down (failure observed).
  bool degraded = false;
};

// Quantize signals to a contention level. The stronger of foreign_util and
// stall_frac picks the base level (thresholds 0.05 / 0.25 / 0.55); an
// observed failure bumps the level by one (the degraded fabric has less
// core capacity than the utilization numbers alone suggest).
int classify(const Signals& s);

// perfbench/workloads.cpp still names the table by its former adaptive
// type; every other caller names core::SelectionTable.
using AdaptiveTable = core::SelectionTable;

// A job's (algorithm, leader_count) plan.
struct Plan {
  std::string algo;
  int leaders = 1;

  friend bool operator==(const Plan& a, const Plan& b) {
    return a.algo == b.algo && a.leaders == b.leaders;
  }
  friend bool operator!=(const Plan& a, const Plan& b) { return !(a == b); }
};

// Per-job re-planning state machine. The tenant layer feeds one Signals
// observation per iteration barrier; replan() returns the plan for the next
// iteration. Re-plan trigger rules (docs/MODEL.md §12): the plan changes
// only when the classified level changes or the plan was marked stale by a
// failure event; the new plan is the table's entry for the level (falling
// back level-by-level), or the static plan when no entry covers it.
class Replanner {
 public:
  Replanner(const core::SelectionTable* table, coll::CollKind kind,
            Plan static_plan, std::size_t bytes);

  const Plan& replan(const Signals& s);
  // A failure/recovery event invalidated the current plan; the next
  // replan() re-selects even at an unchanged level.
  void mark_stale() { stale_ = true; }

  const Plan& plan() const { return plan_; }
  int level() const { return level_; }
  int replans() const { return replans_; }
  int max_level() const { return max_level_; }

  // Persistence feed: whether a plan was chosen at `level` this run, and
  // the last plan chosen there (SelectionTable::record folds these back into
  // the table — including level 0, which migrates the static plan in).
  bool observed(int level) const;
  const Plan& observed_plan(int level) const;

 private:
  const core::SelectionTable* table_;  // not owned; nullptr = static only
  coll::CollKind kind_;
  Plan static_plan_;
  std::size_t bytes_;
  Plan plan_;
  int level_ = 0;
  int replans_ = 0;
  int max_level_ = 0;
  bool stale_ = false;
  bool seen_[kLevels] = {};
  Plan observed_[kLevels];
};

}  // namespace dpml::adapt
