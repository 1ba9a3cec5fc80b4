#include "host_speed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {
namespace {

constexpr std::size_t kHeapSize = 16384;  // 128 KB of keys
constexpr int kOps = 100'000;

// The result feeds this, so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_s() {
  // Storage is made once, so the reference neither allocates nor depends on
  // the state of the simulator's heap.
  static std::vector<std::uint64_t> heap = [] {
    std::vector<std::uint64_t> v;
    v.reserve(kHeapSize + 1);
    return v;
  }();
  heap.clear();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 1;
  std::uint64_t sum = 0;
  for (int k = 0; k < kOps; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.push_back(x >> 20);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > kHeapSize) {
      std::pop_heap(heap.begin(), heap.end());
      sum += heap.back();
      heap.pop_back();
    }
  }
  g_sink = sum;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace e2e
