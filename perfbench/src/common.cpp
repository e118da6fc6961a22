// common.cpp — usage snapshots, quantiles, and the replaceable global
// operator new that counts allocations while a traced run asks it to.
#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.minor_faults = ru.ru_minflt;
  u.vol_csw = ru.ru_nvcsw;
  u.invol_csw = ru.ru_nivcsw;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

Usage usage_delta(const Usage& a, const Usage& b) {
  Usage d;
  d.wall_s = b.wall_s - a.wall_s;
  d.cpu_s = b.cpu_s - a.cpu_s;
  d.minor_faults = b.minor_faults - a.minor_faults;
  d.vol_csw = b.vol_csw - a.vol_csw;
  d.invol_csw = b.invol_csw - a.invol_csw;
  d.max_rss_kb = b.max_rss_kb;
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double clock_read_ns() {
  constexpr int kReads = 100000;
  const auto t0 = std::chrono::steady_clock::now();
  auto last = t0;
  for (int i = 0; i < kReads; ++i) last = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(last - t0).count() / kReads;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(pos + 0.5)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string full_digits(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

namespace alloc {
namespace {

// One slot per thread (threads pick slots round-robin), each on its own
// cache line, so counting threads rarely share a line.
struct alignas(64) Slot {
  std::atomic<long long> allocs{0};
  std::atomic<long long> bytes{0};
};
constexpr int kSlots = 64;
Slot g_slots[kSlots];
std::atomic<bool> g_counting{false};
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

void note(std::size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot < 0) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  Slot& slot = g_slots[t_slot];
  slot.allocs.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(static_cast<long long>(bytes),
                       std::memory_order_relaxed);
}

}  // namespace

void set_counting(bool on) { g_counting.store(on); }

Counts read() {
  Counts c;
  for (const Slot& slot : g_slots) {
    c.allocs += slot.allocs.load(std::memory_order_relaxed);
    c.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return c;
}

Counts delta(const Counts& a, const Counts& b) {
  return {b.allocs - a.allocs, b.bytes - a.bytes};
}

namespace {

void* allocate(std::size_t n) {
  note(n);
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace
}  // namespace alloc
}  // namespace perfbench

// The array and nothrow forms of the standard library route through this
// one, and every unaligned delete form ends in free(), matching malloc here.
void* operator new(std::size_t n) { return perfbench::alloc::allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
