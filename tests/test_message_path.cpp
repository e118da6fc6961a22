// The message path (send -> CommStats -> Mailbox -> recv) under a counting
// operator new: steady-state heap allocations per message on fibers, the
// phase registry under concurrent registration, the mailbox's partner index
// at thousands of sources, and the phase names that leave the machine
// (phases(), rank_phase, trace events, leak reports) pinned to fixed values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/bcast.hpp"
#include "collectives/comm.hpp"
#include "machine/machine.hpp"
#include "machine/mailbox.hpp"
#include "matmul/algorithm_registry.hpp"
#include "util/error.hpp"

namespace {

std::atomic<long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

// The array forms route through these; every unaligned delete form ends in
// free(), matching malloc here.  The nothrow pair is replaced too: under
// ASan the runtime's own nothrow new would otherwise serve
// std::get_temporary_buffer, whose buffer then reaches free() here.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace camb {
namespace {

constexpr std::size_t kPayloadWords = 16;  // below the pool's threshold

/// Heap allocations and counted messages of one fiber-scheduled run on
/// `workers` workers (0: the default width), machine construction included.
std::pair<long long, i64> run_counted(
    int nprocs, int iterations, const std::function<void(RankCtx&, int)>& body,
    int workers) {
  const long long before = g_allocs.load();
  Machine machine(nprocs);
  machine.set_scheduler(SchedulerSpec{SchedulerKind::kFibers, workers});
  machine.run([&](RankCtx& ctx) { body(ctx, iterations); });
  const long long allocs = g_allocs.load() - before;
  i64 messages = 0;
  for (int r = 0; r < nprocs; ++r) {
    messages += machine.stats().rank_total(r).messages_sent;
  }
  return {allocs, messages};
}

/// Marginal heap allocations per message: the difference between a short
/// and a long run of the same program, so construction, warm-up and
/// capacity growth cancel and only the per-message steady state remains.
double steady_allocs_per_message(
    int nprocs, const std::function<void(RankCtx&, int)>& body,
    int workers = 0) {
  const auto [a1, m1] = run_counted(nprocs, 100, body, workers);
  const auto [a2, m2] = run_counted(nprocs, 600, body, workers);
  EXPECT_GT(m2, m1);
  return static_cast<double>(a2 - a1) / static_cast<double>(m2 - m1);
}

TEST(MessagePathAllocations, PingPongAllocatesOnlyThePayload) {
  const PhaseId phase("mp_pingpong");
  const double per_msg = steady_allocs_per_message(2, [&](RankCtx& ctx, int n) {
    ctx.set_phase(phase);
    const int peer = 1 - ctx.rank();
    for (int k = 0; k < n; ++k) {
      if (ctx.rank() == 0) {
        ctx.send(peer, k, Buffer::zeros(kPayloadWords));
        (void)ctx.recv(peer, k);
      } else {
        (void)ctx.recv(peer, k);
        ctx.send(peer, k, Buffer::zeros(kPayloadWords));
      }
    }
  });
  EXPECT_LE(per_msg, 1.0);
}

/// Four explicit workers, whatever the host's width: 64 ranks on 4 rings,
/// so steals (which move fibers between rings) happen in steady state.
TEST(MessagePathAllocations, BinomialBcastAllocatesOnlyThePayload) {
  const PhaseId phase("mp_bcast");
  const auto body = [&](RankCtx& ctx, int n) {
    ctx.set_phase(phase);
    const coll::Comm world = coll::Comm::world(ctx, /*tag_blocks=*/n);
    std::vector<double> data;
    for (int k = 0; k < n; ++k) {
      if (ctx.rank() == 0) data.assign(kPayloadWords, 1.0);
      coll::bcast(world, 0, data, static_cast<i64>(kPayloadWords));
      // Keeps every mailbox one message deep, so queue capacity is reached
      // during warm-up in both runs alike.
      ctx.barrier();
    }
  };
  EXPECT_LE(steady_allocs_per_message(64, body, /*workers=*/4), 1.0);
}

// ---------------------------------------------------------------------------
// Phase registry.
// ---------------------------------------------------------------------------

TEST(PhaseRegistry, ConcurrentFirstRegistrationYieldsOneId) {
  constexpr int kRanks = 64;
  const std::string name = "mp_registered_by_64_fibers";
  ASSERT_FALSE(PhaseId::find(name).has_value());
  std::vector<int> ids(kRanks, -1);
  Machine machine(kRanks);
  machine.set_scheduler(SchedulerSpec{SchedulerKind::kFibers});
  machine.run([&](RankCtx& ctx) {
    ctx.barrier();
    ids[static_cast<std::size_t>(ctx.rank())] = PhaseId(name).value();
    ctx.set_phase(name);
  });
  const std::optional<PhaseId> found = PhaseId::find(name);
  ASSERT_TRUE(found.has_value());
  for (int id : ids) EXPECT_EQ(id, found->value());
  EXPECT_EQ(found->name(), name);
  const std::vector<std::string> phases = machine.stats().phases();
  EXPECT_EQ(std::count(phases.begin(), phases.end(), name), 1);
}

TEST(PhaseRegistry, DefaultIsIdZeroAndNamesRoundTrip) {
  EXPECT_EQ(PhaseId().value(), 0);
  EXPECT_EQ(PhaseId().name(), "default");
  EXPECT_EQ(PhaseId("default"), PhaseId());
  const PhaseId a("mp_round_trip");
  EXPECT_EQ(PhaseId(std::string("mp_round_trip")), a);
  EXPECT_EQ(a.name(), "mp_round_trip");
  EXPECT_FALSE(PhaseId::find("mp_never_registered").has_value());
}

// ---------------------------------------------------------------------------
// Mailbox partner index.
// ---------------------------------------------------------------------------

TEST(MailboxPartners, FourThousandSourcesInReverseArrivalOrder) {
  constexpr int kSources = 4095;
  Mailbox box;
  for (int round = 0; round < 2; ++round) {
    for (int s = 1; s <= kSources; ++s) {
      box.push(Message{s, 7, 0.0, {static_cast<double>(s + round)}});
    }
    EXPECT_EQ(box.bucket_count(), static_cast<std::size_t>(kSources));
    // Every match but the last is out of arrival order.
    for (int s = kSources; s >= 1; --s) {
      Message m = box.pop_matching(s, 7);
      ASSERT_EQ(m.src, s);
      ASSERT_EQ(m.payload.data()[0], static_cast<double>(s + round));
    }
    EXPECT_EQ(box.pending(), 0u);
    EXPECT_EQ(box.bucket_count(), static_cast<std::size_t>(kSources));
  }
}

TEST(MailboxPartners, AnyOrderSurvivesOutOfOrderMatches) {
  constexpr int kSources = 4095;
  Mailbox box;
  for (int s = 1; s <= kSources; ++s) {
    box.push(Message{s, 3, 0.0, {static_cast<double>(s)}});
  }
  // Match the odd sources newest first; the even ones stay queued behind
  // stale index entries and must come out of pop_any in arrival order.
  for (int s = kSources; s >= 1; s -= 2) (void)box.pop_matching(s, 3);
  for (int s = 2; s <= kSources; s += 2) {
    const Message m = box.pop_any();
    ASSERT_EQ(m.src, s);
  }
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.bucket_count(), static_cast<std::size_t>(kSources));
}

// ---------------------------------------------------------------------------
// Names that leave the machine.  The expected values were recorded from the
// string-keyed implementation this path replaced.
// ---------------------------------------------------------------------------

TEST(PhaseNames, FixedProgramReportsTheRecordedNames) {
  constexpr int kRanks = 3;
  Machine machine(kRanks);
  Trace& trace = machine.enable_trace();
  machine.run([&](RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % kRanks;
    const int prev = (ctx.rank() + kRanks - 1) % kRanks;
    auto hop = [&](int tag, std::size_t words) {
      ctx.send(next, tag, Buffer::zeros(words));
      (void)ctx.recv(prev, tag);
    };
    hop(0, 2);  // before any set_phase: "default", not yet noted
    ctx.set_phase("mp_alpha");
    hop(1, 3);
    ctx.set_phase("mp_beta");  // set, but no traffic
    ctx.set_phase("mp_alpha");
    hop(2, 1);
    ctx.set_phase("default");
    hop(3, 4);
  });
  const CommStats& stats = machine.stats();
  EXPECT_EQ(stats.phases(),
            (std::vector<std::string>{"mp_alpha", "mp_beta", "default"}));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(stats.rank_phase(r, "default").words_sent(), 6);
    EXPECT_EQ(stats.rank_phase(r, "default").words_received(), 6);
    EXPECT_EQ(stats.rank_phase(r, "default").messages_sent, 2);
    EXPECT_EQ(stats.rank_phase(r, "mp_alpha").words_received(), 4);
    EXPECT_EQ(stats.rank_phase(r, "mp_alpha").messages_received, 2);
    EXPECT_EQ(stats.rank_phase(r, "mp_beta").messages_sent, 0);
    EXPECT_EQ(stats.rank_phase(r, "mp_absent").messages_sent, 0);
    EXPECT_EQ(stats.rank_total(r).words_sent(), 10);
  }
  EXPECT_EQ(stats.phase_critical_path_received_words("mp_alpha"), 4);
  EXPECT_EQ(stats.phase_critical_path_received_words("mp_absent"), 0);

  std::vector<std::tuple<int, int, int, i64, std::string>> events;
  for (const MessageEvent& e : trace.events()) {
    events.emplace_back(e.src, e.tag, e.dst, e.bytes, e.phase);
  }
  std::sort(events.begin(), events.end());
  const char* const phase_of_tag[] = {"default", "mp_alpha", "mp_alpha",
                                      "default"};
  const i64 bytes_of_tag[] = {16, 24, 8, 32};
  ASSERT_EQ(events.size(), 12u);
  std::size_t k = 0;
  for (int src = 0; src < kRanks; ++src) {
    for (int tag = 0; tag < 4; ++tag, ++k) {
      EXPECT_EQ(events[k], std::make_tuple(src, tag, (src + 1) % kRanks,
                                           bytes_of_tag[tag],
                                           std::string(phase_of_tag[tag])));
    }
  }
  EXPECT_EQ(trace.events_in_phase("mp_alpha").size(), 6u);
  EXPECT_EQ(trace.events_in_phase("mp_beta").size(), 0u);
  EXPECT_EQ(trace.events_in_phase("mp_absent").size(), 0u);
}

TEST(PhaseNames, LeakReportNamesTheSendersPhase) {
  Machine machine(2);
  try {
    machine.run([&](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        ctx.set_phase("mp_leaky");
        ctx.send(1, 9, Buffer::zeros(5));
      }
    });
    FAIL() << "a leaked message must fail the run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "src 0 -> dst 1 tag 9 bytes 40 phase \"mp_leaky\""),
              std::string::npos)
        << e.what();
  }
}

TEST(PhaseNames, SummaPhaseTotalsMatchTheRecordedRun) {
  const auto& summa = mm::algorithm_by_name("summa");
  mm::RunOptions opts;
  opts.collect_trace = true;
  opts.scheduler = SchedulerSpec{SchedulerKind::kFibers};
  const mm::RunReport report = summa.run_opts(core::Shape{8, 8, 8}, 4, opts);
  EXPECT_EQ(report.phase_recv,
            (std::map<std::string, double>{{"summa_bcast_A", 16},
                                           {"summa_bcast_B", 16},
                                           {"summa_gemm", 0}}));
  std::map<std::string, std::pair<int, i64>> per_phase;
  for (const MessageEvent& e : report.trace_events) {
    auto& [count, bytes] = per_phase[e.phase];
    ++count;
    bytes += e.bytes;
  }
  EXPECT_EQ(per_phase, (std::map<std::string, std::pair<int, i64>>{
                           {"summa_bcast_A", {4, 512}},
                           {"summa_bcast_B", {4, 512}}}));
}

}  // namespace
}  // namespace camb
