#include "simmpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace dpml::simmpi {

std::size_t dtype_size(Dtype dt) {
  switch (dt) {
    case Dtype::f32: return 4;
    case Dtype::f64: return 8;
    case Dtype::i32: return 4;
    case Dtype::i64: return 8;
    case Dtype::u8: return 1;
  }
  DPML_CHECK_MSG(false, "bad dtype");
  return 0;
}

const char* dtype_name(Dtype dt) {
  switch (dt) {
    case Dtype::f32: return "f32";
    case Dtype::f64: return "f64";
    case Dtype::i32: return "i32";
    case Dtype::i64: return "i64";
    case Dtype::u8: return "u8";
  }
  return "?";
}

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::sum: return "sum";
    case ReduceOp::prod: return "prod";
    case ReduceOp::min: return "min";
    case ReduceOp::max: return "max";
    case ReduceOp::band: return "band";
    case ReduceOp::bor: return "bor";
  }
  return "?";
}

namespace {

// Every fold moves whole 16-byte blocks through local arrays: memcpy in, one
// fixed-length elementwise loop, memcpy out. The payload spans carry no
// alignment and may alias each other, but the local arrays do neither, so
// the compiler can vectorise the inner loop without runtime alias checks.
// 16 bytes is one SSE2/NEON register: gcc 12 -O2 then keeps the block in a
// register (load, one SIMD op, store), while 64-byte blocks went through
// stack copies and folded at less than half the bandwidth on x86-64.
// Each element still gets exactly the scalar operation in the same
// precision (no reassociation), so the result is bit-identical to a
// per-element loop. The count % lanes remainder runs per element.
constexpr std::size_t kBlockBytes = 16;

template <typename T, typename F>
void fold(std::size_t count, std::byte* acc, const std::byte* in, F f) {
  constexpr std::size_t kLanes = kBlockBytes / sizeof(T);
  const std::size_t blocks = count / kLanes;
  for (std::size_t k = 0; k < blocks; ++k) {
    T a[kLanes]{};
    T b[kLanes]{};
    std::memcpy(a, acc, kBlockBytes);
    std::memcpy(b, in, kBlockBytes);
    for (std::size_t j = 0; j < kLanes; ++j) a[j] = f(a[j], b[j]);
    std::memcpy(acc, a, kBlockBytes);
    acc += kBlockBytes;
    in += kBlockBytes;
  }
  for (std::size_t i = blocks * kLanes; i < count; ++i) {
    T a{};
    T b{};
    std::memcpy(&a, acc, sizeof(T));
    std::memcpy(&b, in, sizeof(T));
    a = f(a, b);
    std::memcpy(acc, &a, sizeof(T));
    acc += sizeof(T);
    in += sizeof(T);
  }
}

// Dispatches the op once per call; fold() then runs one branch-free loop.
template <typename T>
void combine_typed(ReduceOp op, std::size_t count, std::byte* acc,
                   const std::byte* in) {
  switch (op) {
    case ReduceOp::sum:
      fold<T>(count, acc, in, [](T a, T b) { return static_cast<T>(a + b); });
      return;
    case ReduceOp::prod:
      fold<T>(count, acc, in, [](T a, T b) { return static_cast<T>(a * b); });
      return;
    case ReduceOp::min:
      fold<T>(count, acc, in, [](T a, T b) { return std::min(a, b); });
      return;
    case ReduceOp::max:
      fold<T>(count, acc, in, [](T a, T b) { return std::max(a, b); });
      return;
    case ReduceOp::band:
    case ReduceOp::bor:
      if constexpr (std::is_integral_v<T>) {
        if (op == ReduceOp::band) {
          fold<T>(count, acc, in,
                  [](T a, T b) { return static_cast<T>(a & b); });
        } else {
          fold<T>(count, acc, in,
                  [](T a, T b) { return static_cast<T>(a | b); });
        }
      } else {
        DPML_CHECK_MSG(false, "bitwise op on floating-point dtype");
      }
      return;
  }
}

}  // namespace

void reduce_inplace(ReduceOp op, Dtype dt, std::size_t count, MutBytes acc,
                    ConstBytes in) {
  if (acc.empty() && in.empty()) return;  // metadata-only run
  const std::size_t bytes = count * dtype_size(dt);
  DPML_CHECK_MSG(acc.size() == bytes && in.size() == bytes,
                 "reduce_inplace span size mismatch");
  if (count == 0) return;
  // Blocked folding reads a block of `in` before writing that block of
  // `acc`, which differs from a per-element loop only when the spans
  // partially overlap. MPI forbids that; exact aliasing is fine.
  const std::byte* a = acc.data();
  const std::byte* b = in.data();
  const std::less<const std::byte*> before;  // total order across objects
  DPML_CHECK_MSG(a == b || !before(b, a + bytes) || !before(a, b + bytes),
                 "reduce_inplace spans partially overlap");
  switch (dt) {
    case Dtype::f32: combine_typed<float>(op, count, acc.data(), in.data()); break;
    case Dtype::f64: combine_typed<double>(op, count, acc.data(), in.data()); break;
    case Dtype::i32: combine_typed<std::int32_t>(op, count, acc.data(), in.data()); break;
    case Dtype::i64: combine_typed<std::int64_t>(op, count, acc.data(), in.data()); break;
    case Dtype::u8: combine_typed<std::uint8_t>(op, count, acc.data(), in.data()); break;
  }
}

void Op::apply(Dtype dt, std::size_t count, MutBytes acc, ConstBytes in) const {
  if (user_) {
    if (acc.empty() && in.empty()) return;
    user_(dt, count, acc, in);
    return;
  }
  reduce_inplace(builtin_, dt, count, acc, in);
}

void Op::apply_left(Dtype dt, std::size_t count, MutBytes acc,
                    ConstBytes in) const {
  if (commutative()) {
    apply(dt, count, acc, in);
    return;
  }
  if (acc.empty() && in.empty()) return;
  // tmp = in, tmp = tmp (op) acc, acc = tmp.
  std::vector<std::byte> tmp(in.begin(), in.end());
  user_(dt, count, MutBytes{tmp}, ConstBytes{acc.data(), acc.size()});
  DPML_CHECK(tmp.size() == acc.size());
  std::memcpy(acc.data(), tmp.data(), tmp.size());
}

std::string Op::name() const {
  return user_ ? "user" : op_name(builtin_);
}

}  // namespace dpml::simmpi
