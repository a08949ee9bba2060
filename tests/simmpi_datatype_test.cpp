#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simmpi/datatype.hpp"
#include "simmpi/verify.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpml::simmpi {
namespace {

template <typename T>
std::vector<std::byte> pack(const std::vector<T>& v) {
  std::vector<std::byte> out(v.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> unpack(const std::vector<std::byte>& b) {
  std::vector<T> out(b.size() / sizeof(T));
  std::memcpy(out.data(), b.data(), b.size());
  return out;
}

TEST(Dtype, Sizes) {
  EXPECT_EQ(dtype_size(Dtype::f32), 4u);
  EXPECT_EQ(dtype_size(Dtype::f64), 8u);
  EXPECT_EQ(dtype_size(Dtype::i32), 4u);
  EXPECT_EQ(dtype_size(Dtype::i64), 8u);
  EXPECT_EQ(dtype_size(Dtype::u8), 1u);
  EXPECT_STREQ(dtype_name(Dtype::f64), "f64");
}

TEST(Reduce, SumF32) {
  auto acc = pack<float>({1.f, 2.f, 3.f});
  auto in = pack<float>({10.f, 20.f, 30.f});
  reduce_inplace(ReduceOp::sum, Dtype::f32, 3, acc, in);
  EXPECT_EQ(unpack<float>(acc), (std::vector<float>{11.f, 22.f, 33.f}));
}

TEST(Reduce, MinMaxI32) {
  auto acc = pack<std::int32_t>({5, -2, 7});
  auto in = pack<std::int32_t>({3, 0, 9});
  auto acc2 = acc;
  reduce_inplace(ReduceOp::min, Dtype::i32, 3, acc, in);
  EXPECT_EQ(unpack<std::int32_t>(acc), (std::vector<std::int32_t>{3, -2, 7}));
  reduce_inplace(ReduceOp::max, Dtype::i32, 3, acc2, in);
  EXPECT_EQ(unpack<std::int32_t>(acc2), (std::vector<std::int32_t>{5, 0, 9}));
}

TEST(Reduce, ProdF64) {
  auto acc = pack<double>({2.0, 3.0});
  auto in = pack<double>({4.0, 0.5});
  reduce_inplace(ReduceOp::prod, Dtype::f64, 2, acc, in);
  EXPECT_EQ(unpack<double>(acc), (std::vector<double>{8.0, 1.5}));
}

TEST(Reduce, BitwiseI64) {
  auto acc = pack<std::int64_t>({0b1100});
  auto in = pack<std::int64_t>({0b1010});
  auto acc2 = acc;
  reduce_inplace(ReduceOp::band, Dtype::i64, 1, acc, in);
  EXPECT_EQ(unpack<std::int64_t>(acc)[0], 0b1000);
  reduce_inplace(ReduceOp::bor, Dtype::i64, 1, acc2, in);
  EXPECT_EQ(unpack<std::int64_t>(acc2)[0], 0b1110);
}

TEST(Reduce, BitwiseOnFloatThrows) {
  auto acc = pack<float>({1.f});
  auto in = pack<float>({2.f});
  EXPECT_THROW(reduce_inplace(ReduceOp::band, Dtype::f32, 1, acc, in),
               util::InvariantError);
}

TEST(Reduce, EmptySpansAreNoop) {
  reduce_inplace(ReduceOp::sum, Dtype::f32, 128, {}, {});  // must not crash
}

TEST(Reduce, SizeMismatchThrows) {
  auto acc = pack<float>({1.f, 2.f});
  auto in = pack<float>({1.f});
  EXPECT_THROW(reduce_inplace(ReduceOp::sum, Dtype::f32, 2, acc, in),
               util::InvariantError);
}

TEST(Reduce, ZeroCount) {
  std::vector<std::byte> empty;
  reduce_inplace(ReduceOp::sum, Dtype::f32, 0, empty, empty);
}

// --- Kernel differential test ---------------------------------------------
//
// reduce_inplace folds 16-byte blocks through local arrays so the compiler
// can vectorise them, then runs a per-element tail. It must give exactly the
// bytes of the plain per-element loop below, for every valid dtype x op.

constexpr std::size_t kKernelBlockBytes = 16;

template <typename T>
void scalar_fold(ReduceOp op, std::size_t count, std::byte* acc,
                 const std::byte* in) {
  for (std::size_t i = 0; i < count; ++i) {
    T a;
    T b;
    std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
    std::memcpy(&b, in + i * sizeof(T), sizeof(T));
    switch (op) {
      case ReduceOp::sum: a = static_cast<T>(a + b); break;
      case ReduceOp::prod: a = static_cast<T>(a * b); break;
      case ReduceOp::min: a = std::min(a, b); break;
      case ReduceOp::max: a = std::max(a, b); break;
      case ReduceOp::band:
      case ReduceOp::bor:
        if constexpr (std::is_integral_v<T>) {
          a = static_cast<T>(op == ReduceOp::band ? (a & b) : (a | b));
        }
        break;
    }
    std::memcpy(acc + i * sizeof(T), &a, sizeof(T));
  }
}

template <typename T>
std::vector<ReduceOp> valid_ops() {
  if constexpr (std::is_floating_point_v<T>) {
    return {ReduceOp::sum, ReduceOp::prod, ReduceOp::min, ReduceOp::max};
  } else {
    return {ReduceOp::sum, ReduceOp::prod, ReduceOp::min,
            ReduceOp::max, ReduceOp::band, ReduceOp::bor};
  }
}

template <typename T>
bool is_nan(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v != v;
  } else {
    return false;
  }
}

// One input element. Floats: half the draws are IEEE special values (NaNs,
// signed zeros, infinities, subnormals, extremes), the rest random bit
// patterns. Signed integers are narrowed for sum and prod so no fold of two
// draws overflows (signed overflow is undefined behaviour).
template <typename T>
T draw(util::SplitMix64& rng, ReduceOp op) {
  const std::uint64_t h = rng.next_u64();
  if constexpr (std::is_floating_point_v<T>) {
    using L = std::numeric_limits<T>;
    const T specials[] = {L::quiet_NaN(), -L::quiet_NaN(), L::signaling_NaN(),
                          T(0),           -T(0),           L::infinity(),
                          -L::infinity(), L::denorm_min(), -L::denorm_min(),
                          L::min() / 3,   L::min(),        L::max(),
                          L::lowest(),    T(1),            T(-1.5)};
    constexpr std::size_t n = sizeof(specials) / sizeof(specials[0]);
    if (h % 2 == 0) return specials[(h >> 1) % n];
    using Bits =
        std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    const auto bits = static_cast<Bits>(rng.next_u64());
    T v;
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  } else if constexpr (std::is_signed_v<T>) {
    constexpr int kBits = 8 * static_cast<int>(sizeof(T));
    const int narrow = op == ReduceOp::sum    ? 2
                       : op == ReduceOp::prod ? kBits / 2 + 1
                                              : 0;
    return static_cast<T>(static_cast<std::int64_t>(h) >>
                          (64 - kBits + narrow));
  } else {
    return static_cast<T>(h);
  }
}

template <typename T>
std::string first_difference(const std::vector<std::byte>& got,
                             const std::vector<std::byte>& want) {
  if (got.size() != want.size()) return "size differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) return "element " + std::to_string(i / sizeof(T));
  }
  return "";
}

template <typename T>
void expect_kernel_matches_scalar(Dtype dt) {
  constexpr std::size_t lanes = kKernelBlockBytes / sizeof(T);
  const std::size_t counts[] = {
      0, 1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5, 4099};
  for (ReduceOp op : valid_ops<T>()) {
    for (std::size_t count : counts) {
      SCOPED_TRACE(std::string(dtype_name(dt)) + " " + op_name(op) +
                   " count " + std::to_string(count));
      util::SplitMix64 rng(count, static_cast<std::uint64_t>(op));
      std::vector<T> a(count);
      std::vector<T> b(count);
      for (std::size_t i = 0; i < count; ++i) {
        a[i] = draw<T>(rng, op);
        b[i] = draw<T>(rng, op);
        // IEEE leaves which payload NaN + NaN carries to the hardware and
        // the instruction's operand order, so no element adds or multiplies
        // two NaNs. min/max only select, so they keep NaN pairs.
        const bool arith = op == ReduceOp::sum || op == ReduceOp::prod;
        if (arith && is_nan(a[i]) && is_nan(b[i])) b[i] = T(1);
      }

      // Distinct spans.
      std::vector<std::byte> acc = pack(a);
      const std::vector<std::byte> in = pack(b);
      std::vector<std::byte> want = acc;
      scalar_fold<T>(op, count, want.data(), in.data());
      reduce_inplace(op, dt, count, acc, in);
      EXPECT_EQ(first_difference<T>(acc, want), "");

      // acc and in are the same span.
      std::vector<std::byte> self = pack(a);
      std::vector<std::byte> self_want = self;
      scalar_fold<T>(op, count, self_want.data(), self_want.data());
      reduce_inplace(op, dt, count, MutBytes{self}, ConstBytes{self});
      EXPECT_EQ(first_difference<T>(self, self_want), "");
    }
  }
}

TEST(ReduceKernel, MatchesThePerElementFoldBitwise) {
  expect_kernel_matches_scalar<float>(Dtype::f32);
  expect_kernel_matches_scalar<double>(Dtype::f64);
  expect_kernel_matches_scalar<std::int32_t>(Dtype::i32);
  expect_kernel_matches_scalar<std::int64_t>(Dtype::i64);
  expect_kernel_matches_scalar<std::uint8_t>(Dtype::u8);
}

TEST(ReduceKernel, PartiallyOverlappingSpansAreRejected) {
  constexpr std::size_t count = 32;
  constexpr std::size_t bytes = count * sizeof(float);
  std::vector<std::byte> buf(2 * bytes);
  const MutBytes lo{buf.data(), bytes};
  const MutBytes shifted{buf.data() + sizeof(float), bytes};
  const MutBytes hi{buf.data() + bytes, bytes};
  for (const auto& [acc, in] :
       {std::pair{lo, shifted}, std::pair{shifted, lo}}) {
    try {
      reduce_inplace(ReduceOp::sum, Dtype::f32, count, acc, ConstBytes{in});
      ADD_FAILURE() << "partial overlap was accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("partially overlap"),
                std::string::npos)
          << e.what();
    }
  }
  // Adjacent spans and the exact same span are fine.
  EXPECT_NO_THROW(
      reduce_inplace(ReduceOp::sum, Dtype::f32, count, lo, ConstBytes{hi}));
  EXPECT_NO_THROW(
      reduce_inplace(ReduceOp::sum, Dtype::f32, count, hi, ConstBytes{lo}));
  EXPECT_NO_THROW(
      reduce_inplace(ReduceOp::sum, Dtype::f32, count, lo, ConstBytes{lo}));
}

TEST(Op, BuiltinAndUser) {
  Op sum = ReduceOp::sum;
  EXPECT_FALSE(sum.is_user());
  EXPECT_EQ(sum.name(), "sum");

  // User op: acc = acc - in, elementwise on f32.
  Op user{UserOpFn([](Dtype dt, std::size_t count, MutBytes acc, ConstBytes in) {
    ASSERT_EQ(dt, Dtype::f32);
    for (std::size_t i = 0; i < count; ++i) {
      float a;
      float b;
      std::memcpy(&a, acc.data() + i * 4, 4);
      std::memcpy(&b, in.data() + i * 4, 4);
      a -= b;
      std::memcpy(acc.data() + i * 4, &a, 4);
    }
  })};
  EXPECT_TRUE(user.is_user());
  auto acc = pack<float>({10.f});
  auto in = pack<float>({4.f});
  user.apply(Dtype::f32, 1, acc, in);
  EXPECT_EQ(unpack<float>(acc)[0], 6.f);
}

TEST(Verify, OperandsAreDeterministic) {
  auto a = make_operand(Dtype::f32, 64, 3, ReduceOp::sum, 7);
  auto b = make_operand(Dtype::f32, 64, 3, ReduceOp::sum, 7);
  EXPECT_EQ(a, b);
  auto c = make_operand(Dtype::f32, 64, 4, ReduceOp::sum, 7);
  EXPECT_NE(a, c);
}

TEST(Verify, ReferenceMatchesManualFold) {
  const std::size_t n = 16;
  auto ref = reference_allreduce(Dtype::i64, n, 5, ReduceOp::sum, 3);
  std::vector<std::int64_t> acc(n, 0);
  for (int r = 0; r < 5; ++r) {
    auto op = unpack<std::int64_t>(make_operand(Dtype::i64, n, r, ReduceOp::sum, 3));
    for (std::size_t i = 0; i < n; ++i) acc[i] += op[i];
  }
  EXPECT_EQ(unpack<std::int64_t>(ref), acc);
}

TEST(Verify, FloatSumsAreOrderIndependent) {
  // Operand magnitudes are capped so that f32 sums over many ranks stay
  // exactly representable: fold in reverse order and compare bitwise.
  const std::size_t n = 32;
  const int p = 64;
  auto fwd = reference_allreduce(Dtype::f32, n, p, ReduceOp::sum, 5);
  std::vector<std::byte> rev = make_operand(Dtype::f32, n, p - 1, ReduceOp::sum, 5);
  for (int r = p - 2; r >= 0; --r) {
    auto in = make_operand(Dtype::f32, n, r, ReduceOp::sum, 5);
    reduce_inplace(ReduceOp::sum, Dtype::f32, n, rev, in);
  }
  EXPECT_EQ(fwd, rev);
}

// Operand byte lock: FNV-1a over make_operand and reference_allreduce output
// for every valid dtype x op, at several counts, ranks and seeds. The values
// were taken from the per-element generator; any change to the operand
// stream or to the reference fold changes them.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::byte>& bytes) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t operand_hash(Dtype dt, ReduceOp op) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t seed : {1ull, 9973ull}) {
    for (std::size_t count : {0, 1, 15, 16, 17, 1000, 4099}) {
      for (int rank : {0, 1, 7, 223}) {
        h = fnv1a(h, make_operand(dt, count, rank, op, seed));
      }
    }
    for (std::size_t count : {17, 4099}) {
      for (int nranks : {1, 2, 28}) {
        h = fnv1a(h, reference_allreduce(dt, count, nranks, op, seed));
      }
    }
  }
  return h;
}

TEST(Verify, OperandAndReferenceBytesAreLocked) {
  struct Lock {
    Dtype dt;
    ReduceOp op;
    std::uint64_t hash;
  };
  const Lock locks[] = {
      {Dtype::f32, ReduceOp::sum, 0xd61f1767dbe69b99ull},
      {Dtype::f32, ReduceOp::prod, 0x3101ee91618b5db8ull},
      {Dtype::f32, ReduceOp::min, 0xb6ef34db2458da75ull},
      {Dtype::f32, ReduceOp::max, 0xa20263216ae1f5bbull},
      {Dtype::f64, ReduceOp::sum, 0x195ce068f7e90d7ull},
      {Dtype::f64, ReduceOp::prod, 0x2bb91d1a5b117f72ull},
      {Dtype::f64, ReduceOp::min, 0x4923f71a6e678895ull},
      {Dtype::f64, ReduceOp::max, 0x32cf2fb54a4ba068ull},
      {Dtype::i32, ReduceOp::sum, 0x1a85ab07c40671f2ull},
      {Dtype::i32, ReduceOp::prod, 0xd63d35e288bd275cull},
      {Dtype::i32, ReduceOp::min, 0x9fa123ab4f4777a0ull},
      {Dtype::i32, ReduceOp::max, 0xc289ba6c60651849ull},
      {Dtype::i32, ReduceOp::band, 0xaa967d42aa4f143eull},
      {Dtype::i32, ReduceOp::bor, 0x9d7af49166d95bcbull},
      {Dtype::i64, ReduceOp::sum, 0xa6a9738e51884e52ull},
      {Dtype::i64, ReduceOp::prod, 0x69b6c72788927dcull},
      {Dtype::i64, ReduceOp::min, 0x2639c99666ea58c4ull},
      {Dtype::i64, ReduceOp::max, 0x9348689d2a494fedull},
      {Dtype::i64, ReduceOp::band, 0xd03971be45bf17eull},
      {Dtype::i64, ReduceOp::bor, 0x3d5f1ce3c977cd2bull},
      {Dtype::u8, ReduceOp::sum, 0xbdb7acbf10f8eee0ull},
      {Dtype::u8, ReduceOp::prod, 0x6e2884eff7541d53ull},
      {Dtype::u8, ReduceOp::min, 0x2bbb5977afee3a24ull},
      {Dtype::u8, ReduceOp::max, 0x1b2c3b3b5abacc69ull},
      {Dtype::u8, ReduceOp::band, 0x9d830592a51435aeull},
      {Dtype::u8, ReduceOp::bor, 0xbf270cd64a0e7853ull},
  };
  for (const Lock& l : locks) {
    EXPECT_EQ(operand_hash(l.dt, l.op), l.hash)
        << dtype_name(l.dt) << " " << op_name(l.op) << ": 0x" << std::hex
        << operand_hash(l.dt, l.op);
  }
}

}  // namespace
}  // namespace dpml::simmpi
