// Allocation counts on the paths that must not allocate per sample or per
// check. This executable replaces the global operator new/delete with a
// counting pair (each test source is its own executable, so the hook
// stays local to these tests).

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <numbers>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(AllocFree, HookCountsAllocations) {
  const std::size_t before = allocations();
  auto* v = new std::vector<Real>(64);
  delete v;
  EXPECT_GE(allocations() - before, 2u);
}

TEST(AllocFree, PassingRequireAllocatesNothing) {
  // Longer than the 15-character small-string buffer, so building a
  // std::string from it would allocate.
  volatile bool ok = true;
  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) {
    dsp::require(ok, "a precondition message well past fifteen characters");
  }
  EXPECT_EQ(allocations(), before);
}

TEST(AllocFree, FailingRequireStillThrowsTheMessage) {
  try {
    dsp::require(false, "a precondition message well past fifteen characters");
    FAIL() << "require(false, ...) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "a precondition message well past fifteen characters");
  }
}

/// Allocations made by one synthesize() call, result freed included.
std::size_t synthesis_allocations(const emg::ForceProfile& drive) {
  emg::MotorUnitPool pool(emg::MotorUnitPoolConfig{}, dsp::Rng(3));
  const std::size_t before = allocations();
  {
    const auto sig = pool.synthesize(drive);
    EXPECT_EQ(sig.size(), drive.fraction_mvc.size());
  }
  return allocations() - before;
}

emg::ForceProfile sweep(Real duration_s) {
  // Sweeps every threshold up and down twice a second.
  emg::ForceProfile p;
  p.sample_rate_hz = 2500.0;
  const auto n = static_cast<std::size_t>(duration_s * p.sample_rate_hz);
  p.fraction_mvc.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.fraction_mvc[i] =
        0.4 + 0.45 * std::sin(2.0 * std::numbers::pi_v<Real> * 2.0 *
                              static_cast<Real>(i) / p.sample_rate_hz);
  }
  return p;
}

emg::ForceProfile toggle(Real duration_s) {
  // All units recruited and de-recruited on alternate samples.
  emg::ForceProfile p;
  p.sample_rate_hz = 2500.0;
  const auto n = static_cast<std::size_t>(duration_s * p.sample_rate_hz);
  p.fraction_mvc.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.fraction_mvc[i] = i % 2 == 0 ? 1.0 : 0.0;
  }
  return p;
}

TEST(AllocFree, SynthesisAllocationsDoNotGrowWithDuration) {
  EXPECT_EQ(synthesis_allocations(sweep(1.0)),
            synthesis_allocations(sweep(20.0)));
  EXPECT_EQ(synthesis_allocations(toggle(1.0)),
            synthesis_allocations(toggle(20.0)));
  EXPECT_EQ(synthesis_allocations(emg::constant_force(0.6, 1.0, 2500.0)),
            synthesis_allocations(emg::constant_force(0.6, 20.0, 2500.0)));
}

}  // namespace
