#include "simmpi/verify.hpp"

#include <cstring>
#include <type_traits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::simmpi {

namespace {

// Writes `count` elements of T drawn from `rng`: element i is draw(h_i)
// for the i-th 64-bit output h_i, converted to T. The op and dtype are
// dispatched once per call, so this loop holds no branch.
template <typename T, typename Draw>
void fill(std::byte* dst, std::size_t count, util::SplitMix64& rng,
          Draw draw) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t v = draw(rng.next_u64());
    const T t = static_cast<T>(std::is_same_v<T, std::uint8_t> ? v & 0x7f : v);
    std::memcpy(dst + i * sizeof(T), &t, sizeof(T));
  }
}

template <typename T>
void fill_for_op(ReduceOp op, std::byte* dst, std::size_t count,
                 util::SplitMix64& rng) {
  switch (op) {
    case ReduceOp::sum:
    case ReduceOp::min:
    case ReduceOp::max:
      fill<T>(dst, count, rng, [](std::uint64_t h) {
        return static_cast<std::int64_t>(h % 17) - 8;
      });
      return;
    case ReduceOp::prod:
      // Powers of two stay exact in floating point; keep products small.
      fill<T>(dst, count, rng, [](std::uint64_t h) {
        return 1 + static_cast<std::int64_t>(h % 2);
      });
      return;
    case ReduceOp::band:
    case ReduceOp::bor:
      fill<T>(dst, count, rng, [](std::uint64_t h) {
        return static_cast<std::int64_t>(h % 256);
      });
      return;
  }
}

// make_operand's bytes, written into `dst` (count * dtype_size(dt) bytes).
void write_operand(Dtype dt, std::size_t count, int rank, ReduceOp op,
                   std::uint64_t seed, std::byte* dst) {
  util::SplitMix64 rng(seed, static_cast<std::uint64_t>(rank));
  switch (dt) {
    case Dtype::f32: fill_for_op<float>(op, dst, count, rng); return;
    case Dtype::f64: fill_for_op<double>(op, dst, count, rng); return;
    case Dtype::i32: fill_for_op<std::int32_t>(op, dst, count, rng); return;
    case Dtype::i64: fill_for_op<std::int64_t>(op, dst, count, rng); return;
    case Dtype::u8: fill_for_op<std::uint8_t>(op, dst, count, rng); return;
  }
}

}  // namespace

std::vector<std::byte> make_operand(Dtype dt, std::size_t count, int rank,
                                    ReduceOp op, std::uint64_t seed) {
  std::vector<std::byte> buf(count * dtype_size(dt));
  write_operand(dt, count, rank, op, seed, buf.data());
  return buf;
}

std::vector<std::byte> reference_allreduce(Dtype dt, std::size_t count,
                                           int nranks, ReduceOp op,
                                           std::uint64_t seed) {
  DPML_CHECK(nranks >= 1);
  std::vector<std::byte> acc = make_operand(dt, count, 0, op, seed);
  std::vector<std::byte> in(acc.size());
  for (int r = 1; r < nranks; ++r) {
    write_operand(dt, count, r, op, seed, in.data());
    reduce_inplace(op, dt, count, MutBytes{acc}, ConstBytes{in});
  }
  return acc;
}

}  // namespace dpml::simmpi
