// Per-engine slab allocation for simulation hot paths.
//
// The engine schedules millions of short-lived callback records and the
// transport copies payload bytes into per-message buffers; allocating each
// of those with operator new dominates the host-side profile of large
// sweeps. Two pools fix that:
//
//   SlabPool    fixed-size-chunk allocator with an intrusive free list.
//               Chunks come from slabs (large blocks carved on demand);
//               freed chunks go back on the free list, so steady-state
//               allocation is a pointer pop. Requests larger than the chunk
//               size fall back to operator new (counted as misses).
//
//   BufferPool  recycler for std::vector<std::byte> payload buffers,
//               bucketed by power-of-two capacity class. acquire() resizes
//               a recycled vector (no reallocation when the class matches);
//               release() returns the storage for the next message.
//
// Neither pool is thread-safe: each Engine owns its own instances, and one
// engine is only ever driven from one thread (the parallel sweep executor
// gives every job its own Machine/Engine). Accounting invariants — live
// counts, hit/miss totals, zero live allocations at teardown — are asserted
// in debug and locked by tests/sim_pool_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/error.hpp"

namespace dpml::sim {

// Allocation counters shared by both pools (and surfaced through
// Engine::perf() into MeasureResult / dpmlsim --perf).
struct PoolStats {
  std::uint64_t hits = 0;        // served from the free list / bucket
  std::uint64_t misses = 0;      // needed fresh memory (slab carve, oversize)
  std::uint64_t live = 0;        // currently outstanding allocations
  std::uint64_t peak_live = 0;   // high-water mark of `live`
  std::uint64_t bytes_reserved = 0;  // memory held by the pool itself

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  void note_alloc(bool hit) {
    hit ? ++hits : ++misses;
    ++live;
    if (live > peak_live) peak_live = live;
  }
  void note_free() {
    DPML_CHECK_MSG(live > 0, "pool free without a matching allocation");
    --live;
  }
  void merge(const PoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    live += o.live;
    peak_live += o.peak_live;
    bytes_reserved += o.bytes_reserved;
  }
};

class SlabPool {
 public:
  explicit SlabPool(std::size_t chunk_size, std::size_t chunks_per_slab = 256)
      : chunk_size_(align_up(chunk_size)), chunks_per_slab_(chunks_per_slab) {
    DPML_CHECK(chunk_size_ >= sizeof(FreeChunk) && chunks_per_slab_ > 0);
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    // Every allocation must have been returned; a live chunk here would be
    // freed out from under its owner when the slabs are released.
    DPML_CHECK_MSG(stats_.live == 0,
                   "SlabPool destroyed with live allocations");
    for (std::byte* s : slabs_) ::operator delete[](s, std::align_val_t{kAlign});
  }

  std::size_t chunk_size() const { return chunk_size_; }
  const PoolStats& stats() const { return stats_; }

  void* allocate(std::size_t size) {
    if (size > chunk_size_) {
      stats_.note_alloc(/*hit=*/false);
      return ::operator new(size, std::align_val_t{kAlign});
    }
    if (free_ == nullptr) {
      carve_slab();
      stats_.note_alloc(/*hit=*/false);
    } else {
      stats_.note_alloc(/*hit=*/true);
    }
    FreeChunk* c = free_;
    free_ = c->next;
    return c;
  }

  void deallocate(void* p, std::size_t size) {
    if (p == nullptr) return;
    stats_.note_free();
    if (size > chunk_size_) {
      ::operator delete(p, std::align_val_t{kAlign});
      return;
    }
    auto* c = static_cast<FreeChunk*>(p);
    c->next = free_;
    free_ = c;
  }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static std::size_t align_up(std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  }

  struct FreeChunk {
    FreeChunk* next;
  };

  void carve_slab() {
    const std::size_t bytes = chunk_size_ * chunks_per_slab_;
    auto* slab = static_cast<std::byte*>(
        ::operator new[](bytes, std::align_val_t{kAlign}));
    slabs_.push_back(slab);
    stats_.bytes_reserved += bytes;
    // Push in reverse so the free list hands chunks out in address order.
    for (std::size_t i = chunks_per_slab_; i-- > 0;) {
      auto* c = reinterpret_cast<FreeChunk*>(slab + i * chunk_size_);
      c->next = free_;
      free_ = c;
    }
  }

  std::size_t chunk_size_;
  std::size_t chunks_per_slab_;
  FreeChunk* free_ = nullptr;
  std::vector<std::byte*> slabs_;
  PoolStats stats_;
};

// Power-of-two-bucketed recycler for payload byte buffers. The transport
// copies each in-flight message's bytes into an owned buffer; recycling the
// storage turns that per-message allocation into a bucket pop once the
// working set is warm.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  const PoolStats& stats() const { return stats_; }

  // A buffer of exactly `size` bytes, all zero: resize() value-initialises
  // every byte, of a recycled buffer as well as a fresh one (callers
  // overwrite the full span anyway). Capacity comes from the size-class
  // bucket when one is warm.
  std::vector<std::byte> acquire(std::size_t size) {
    std::vector<std::byte> buf;
    auto& bucket = buckets_[class_of(size)];
    if (!bucket.empty()) {
      buf = std::move(bucket.back());
      bucket.pop_back();
      stats_.bytes_reserved -= buf.capacity();
      stats_.note_alloc(/*hit=*/true);
    } else {
      buf.reserve(std::size_t{1} << class_of(size));
      stats_.note_alloc(/*hit=*/false);
    }
    buf.resize(size);
    return buf;
  }

  // Return a buffer's storage for reuse. Empty vectors are ignored (the
  // metadata-only path never owns payload storage).
  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;
    stats_.note_free();
    buf.clear();
    stats_.bytes_reserved += buf.capacity();
    buckets_[class_of(buf.capacity())].push_back(std::move(buf));
  }

  // The transport releases buffers it got from acquire(); an empty span
  // from a metadata-only run never hit the pool, so the live count must
  // only drop for real storage.
  std::uint64_t live() const { return stats_.live; }

 private:
  static constexpr std::size_t kClasses = 32;  // up to 2^31 bytes
  static std::size_t class_of(std::size_t size) {
    std::size_t cls = 0;
    while ((std::size_t{1} << cls) < size && cls + 1 < kClasses) ++cls;
    return cls;
  }

  std::vector<std::vector<std::byte>> buckets_[kClasses];
  PoolStats stats_;
};

}  // namespace dpml::sim
