// Public entry point: one registry-backed dispatcher over every collective
// in the repository. This is the API the examples, tests, and benches
// program against; it mirrors what an MPI library's collective-selection
// layer does, generalized over the whole reduction-collective family
// (allreduce, rooted reduce, bcast, alltoall).
//
// The generic path is run_collective(kind, args, spec): the (kind,
// spec.algo) pair resolves to a coll::CollDescriptor in the registry, the
// spec is validated against the descriptor's capability flags (clear
// failures at dispatch instead of deep inside a phase), and the
// descriptor's coroutine factory runs. A design is named only by its
// registered name (`dpmlsim --list-algorithms` prints them).
#pragma once

#include <optional>
#include <string>

#include "coll/baselines.hpp"
#include "coll/coll.hpp"
#include "coll/dpml.hpp"
#include "coll/registry.hpp"
#include "coll/sharp_coll.hpp"
#include "sharp/sharp.hpp"

namespace dpml::core {

using CollKind = coll::CollKind;
using CollSpec = coll::CollSpec;

// Run one collective of `kind` with the given spec. SPMD: every rank of
// args.comm calls this with identical arguments. Spec validation (unknown
// algorithm, leaders/pipeline_k < 1, missing fabric) throws
// util::InvariantError synchronously, before the coroutine starts; leaders
// beyond the machine's ppn are clamped with a warning. When tracing is
// enabled on the machine, every rank's participation is recorded as a
// "<kind>" span labelled spec.label(kind), and per-(kind, algorithm)
// counters accumulate in Machine::collective_stats().
sim::CoTask<void> run_collective(CollKind kind, coll::CollArgs args,
                                 const CollSpec& spec);

// Non-blocking variant: starts the collective as a background sub-operation
// of the calling rank and returns its completion flag.
std::shared_ptr<sim::Flag> start_collective(CollKind kind, coll::CollArgs args,
                                            const CollSpec& spec);

// The one SHArP attach rule: a dispatch of `d` wants a SharpFabric when the
// design needs one, or when it is dpml-auto, which routes small messages
// through one.
bool wants_sharp(const coll::CollDescriptor& d);

// Returns `spec` with a SharpFabric built on `m` attached when the (kind,
// spec.algo) design wants one, the cluster has SHArP, and the spec carries
// none. `*storage` owns the fabric and must outlive every dispatch of the
// result. Throws util::InvariantError, listing the registered names of
// `kind`, when spec.algo is not one of them.
CollSpec attach_sharp(CollKind kind, CollSpec spec, simmpi::Machine& m,
                      std::optional<sharp::SharpFabric>* storage);

}  // namespace dpml::core
