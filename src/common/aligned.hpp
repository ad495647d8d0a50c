// Aligned heap storage for SIMD-width data.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

namespace cellnpdp {

/// Default alignment for all numeric buffers: one cache line, which is also
/// enough for every SSE/AVX2 load the kernels issue.
inline constexpr std::size_t kBufferAlignment = 64;

/// Buffers of at least this many bytes (one x86-64 huge page) get their own
/// anonymous mapping, so freeing one returns its memory to the OS at once
/// instead of leaving a hole in the heap that later small allocations pin.
inline constexpr std::size_t kMappedBufferBytes = std::size_t{2} << 20;

/// Minimal allocator that over-aligns every allocation to kBufferAlignment.
/// Used through `aligned_vector<T>` so kernel code can assume aligned rows.
/// Large buffers are mapped with huge-page advice (mmap pages are 4 KiB
/// aligned, which covers kBufferAlignment); smaller ones stay on the heap.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kMappedBufferBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      (void)::madvise(p, bytes, MADV_HUGEPAGE);  // advice: may be refused
      return static_cast<T*>(p);
    }
    void* p = ::operator new(bytes, std::align_val_t{kBufferAlignment});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kMappedBufferBytes) {
      ::munmap(p, n * sizeof(T));
      return;
    }
    ::operator delete(p, std::align_val_t{kBufferAlignment});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace cellnpdp
