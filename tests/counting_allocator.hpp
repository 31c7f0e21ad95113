#pragma once
/// \file counting_allocator.hpp
/// Counting allocator for the allocation probes: replaces the global
/// operator new/delete so every allocation in the binary bumps `g_allocs`
/// and adds its request size to `g_alloc_bytes`. A test snapshots a counter
/// around a warmed-up hot path; the infrastructure around the window
/// (gtest, streams) may allocate freely.
///
/// Replacement allocation functions are defined once per program, so
/// include this header from exactly one translation unit of a binary.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long long> g_allocs{0};       ///< operator new calls.
std::atomic<long long> g_alloc_bytes{0};  ///< bytes those calls requested.
}  // namespace

// The replacement operator new allocates with std::malloc, so operator
// delete frees with std::free — GCC's new/delete-pair analysis cannot see
// through the replacement and flags the (correct) pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too (std::stable_sort's temporary
// buffer allocates through them; a half-replaced set trips ASan's
// alloc-dealloc-mismatch check).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
