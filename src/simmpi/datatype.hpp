// Reduction datatypes and operators.
//
// The simulated runtime moves real bytes, so reductions are verifiable
// bit-for-bit. A small fixed set of datatypes covers everything the paper's
// workloads use (MPI_FLOAT for the microbenchmarks, MPI_DOUBLE for HPCG
// DDOT, integers for miniAMR refinement flags), plus a user-defined-op hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace dpml::simmpi {

using ConstBytes = std::span<const std::byte>;
using MutBytes = std::span<std::byte>;

enum class Dtype : std::uint8_t { f32, f64, i32, i64, u8 };

std::size_t dtype_size(Dtype dt);
const char* dtype_name(Dtype dt);

enum class ReduceOp : std::uint8_t { sum, prod, min, max, band, bor };

const char* op_name(ReduceOp op);

// Elementwise acc = acc (op) in, over count elements of dtype dt.
// Both spans may be empty (metadata-only simulation) — then this is a no-op.
// If non-empty, both must hold exactly count * dtype_size(dt) bytes, and
// they must be the same span or disjoint: partial overlap throws (MPI
// forbids it, and it is the one case where the blocked kernel's result
// would differ from a per-element loop).
void reduce_inplace(ReduceOp op, Dtype dt, std::size_t count, MutBytes acc,
                    ConstBytes in);

// User-defined reduction: acc = f(acc, in) elementwise on raw bytes.
using UserOpFn =
    std::function<void(Dtype, std::size_t count, MutBytes acc, ConstBytes in)>;

// An operator handle: either a builtin ReduceOp or a user function.
// Builtin ops on band/bor over floating types throw.
//
// MPI semantics: every reduction op is assumed associative; user ops may
// additionally be declared non-commutative (MPI_Op_create's commute flag).
// For non-commutative ops the collectives must fold operands in ascending
// comm-rank order — algorithms that cannot preserve that order fall back to
// ones that can, exactly as real MPI libraries do.
class Op {
 public:
  Op(ReduceOp builtin) : builtin_(builtin) {}  // NOLINT: implicit by design
  explicit Op(UserOpFn fn, bool commutative = true)
      : user_(std::move(fn)), commutative_(commutative) {}

  bool is_user() const { return static_cast<bool>(user_); }
  ReduceOp builtin() const { return builtin_; }
  // All builtin ops are commutative; user ops declare it at construction.
  bool commutative() const { return !user_ || commutative_; }

  // acc = acc (op) in.
  void apply(Dtype dt, std::size_t count, MutBytes acc, ConstBytes in) const;
  // acc = in (op) acc — the mirrored application an algorithm needs when the
  // incoming operand covers ranks *preceding* the accumulator's in comm-rank
  // order. For commutative ops this is exactly apply(); for non-commutative
  // user ops it stages `in` into a temporary so the left/right roles are
  // preserved bit-for-bit.
  void apply_left(Dtype dt, std::size_t count, MutBytes acc,
                  ConstBytes in) const;
  std::string name() const;

 private:
  ReduceOp builtin_ = ReduceOp::sum;
  UserOpFn user_{};
  bool commutative_ = true;
};

}  // namespace dpml::simmpi
