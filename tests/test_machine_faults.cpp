// Unit tests for machine/faults.hpp — the deterministic fault-injection
// layer: seed-reproducible decision sequences, delay/reordering legality
// within tag-match semantics, retry cost accounting (words counted once,
// latency charged per attempt), straggler clock scaling, fault trace
// records, and master-seed derivation.
#include "machine/faults.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "machine/machine.hpp"
#include "machine/mailbox.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace camb {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: determinism and bounds.
// ---------------------------------------------------------------------------

std::vector<SendFaults> drain_decisions(FaultPlan& plan, int src, int n) {
  std::vector<SendFaults> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) out.push_back(plan.decide_send(src));
  return out;
}

bool same_decision(const SendFaults& a, const SendFaults& b) {
  return a.failed_attempts == b.failed_attempts && a.delay == b.delay &&
         a.reorder_skip == b.reorder_skip;
}

TEST(FaultPlan, SameSeedSameInjectedSequence) {
  const FaultProfile profile = fault_profile_by_name("heavy");
  FaultPlan a(profile, 0xBEEF, 4);
  FaultPlan b(profile, 0xBEEF, 4);
  for (int src = 0; src < 4; ++src) {
    const auto seq_a = drain_decisions(a, src, 200);
    const auto seq_b = drain_decisions(b, src, 200);
    for (int k = 0; k < 200; ++k) {
      ASSERT_TRUE(same_decision(seq_a[static_cast<std::size_t>(k)],
                                seq_b[static_cast<std::size_t>(k)]))
          << "src=" << src << " k=" << k;
    }
    EXPECT_DOUBLE_EQ(a.straggler_factor(src), b.straggler_factor(src));
  }
  const FaultCounts ca = a.counts();
  const FaultCounts cb = b.counts();
  EXPECT_EQ(ca.decisions, cb.decisions);
  EXPECT_EQ(ca.delayed_messages, cb.delayed_messages);
  EXPECT_EQ(ca.total_retries, cb.total_retries);
  EXPECT_EQ(ca.failed_sends, cb.failed_sends);
  EXPECT_EQ(ca.reordered_messages, cb.reordered_messages);
  EXPECT_EQ(ca.stragglers, cb.stragglers);
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSequences) {
  const FaultProfile profile = fault_profile_by_name("heavy");
  FaultPlan a(profile, 1, 2);
  FaultPlan b(profile, 2, 2);
  const auto seq_a = drain_decisions(a, 0, 100);
  const auto seq_b = drain_decisions(b, 0, 100);
  bool differ = false;
  for (int k = 0; k < 100 && !differ; ++k) {
    differ = !same_decision(seq_a[static_cast<std::size_t>(k)],
                            seq_b[static_cast<std::size_t>(k)]);
  }
  EXPECT_TRUE(differ);
}

TEST(FaultPlan, PerRankSequencesIndependentOfInterleaving) {
  // The decision a sender sees for its k-th send is a function of (seed,
  // sender, k) only — interleaving other ranks' decisions in between must
  // not change it.  This is what makes injection schedule-independent.
  const FaultProfile profile = fault_profile_by_name("heavy");
  FaultPlan sequential(profile, 7, 3);
  FaultPlan interleaved(profile, 7, 3);
  std::vector<std::vector<SendFaults>> seq(3), inter(3);
  for (int src = 0; src < 3; ++src) {
    seq[static_cast<std::size_t>(src)] = drain_decisions(sequential, src, 50);
  }
  for (int k = 0; k < 50; ++k) {
    for (int src = 2; src >= 0; --src) {  // different global order
      inter[static_cast<std::size_t>(src)].push_back(
          interleaved.decide_send(src));
    }
  }
  for (int src = 0; src < 3; ++src) {
    for (int k = 0; k < 50; ++k) {
      ASSERT_TRUE(same_decision(seq[static_cast<std::size_t>(src)]
                                   [static_cast<std::size_t>(k)],
                                inter[static_cast<std::size_t>(src)]
                                     [static_cast<std::size_t>(k)]))
          << "src=" << src << " k=" << k;
    }
  }
}

TEST(FaultPlan, NoneProfileInjectsNothing) {
  FaultPlan plan(fault_profile_by_name("none"), 99, 4);
  for (int src = 0; src < 4; ++src) {
    for (const SendFaults& f : drain_decisions(plan, src, 50)) {
      ASSERT_EQ(f.failed_attempts, 0);
      ASSERT_EQ(f.delay, 0.0);
      ASSERT_EQ(f.reorder_skip, 0);
    }
    EXPECT_DOUBLE_EQ(plan.straggler_factor(src), 1.0);
  }
  const FaultCounts counts = plan.counts();
  EXPECT_EQ(counts.decisions, 200);
  EXPECT_EQ(counts.delayed_messages, 0);
  EXPECT_EQ(counts.total_retries, 0);
  EXPECT_EQ(counts.failed_sends, 0);
  EXPECT_EQ(counts.stragglers, 0);
}

TEST(FaultPlan, DecisionsRespectProfileBounds) {
  const FaultProfile profile = fault_profile_by_name("heavy");
  FaultPlan plan(profile, 0xD15EA5E, 8);
  i64 delayed = 0, failed = 0;
  for (int src = 0; src < 8; ++src) {
    for (const SendFaults& f : drain_decisions(plan, src, 500)) {
      ASSERT_GE(f.delay, 0.0);
      ASSERT_LE(f.delay, profile.max_delay);
      ASSERT_GE(f.failed_attempts, 0);
      ASSERT_LE(f.failed_attempts, profile.max_retries);
      ASSERT_GE(f.reorder_skip, 0);
      ASSERT_LE(f.reorder_skip, profile.max_reorder_skip);
      if (f.delay > 0) ++delayed;
      if (f.failed_attempts > 0) ++failed;
    }
    ASSERT_GE(plan.straggler_factor(src), 1.0);
    ASSERT_LE(plan.straggler_factor(src), 1.0 + profile.max_slowdown);
  }
  // With 4000 draws at heavy probabilities, both fault kinds must fire.
  EXPECT_GT(delayed, 0);
  EXPECT_GT(failed, 0);
  const FaultCounts counts = plan.counts();
  EXPECT_EQ(counts.delayed_messages, delayed);
  EXPECT_EQ(counts.failed_sends, failed);
}

TEST(FaultPlan, RetryAlphaUnitsFollowExponentialBackoff) {
  EXPECT_DOUBLE_EQ(FaultPlan::retry_alpha_units(1), 1.0);  // fault-free send
  EXPECT_DOUBLE_EQ(FaultPlan::retry_alpha_units(2), 3.0);
  EXPECT_DOUBLE_EQ(FaultPlan::retry_alpha_units(3), 7.0);
  EXPECT_DOUBLE_EQ(FaultPlan::retry_alpha_units(4), 15.0);
}

TEST(FaultPlan, RejectsInvalidProfiles) {
  FaultProfile bad;
  bad.delay_prob = 1.5;
  EXPECT_THROW(FaultPlan(bad, 0, 2), Error);
  FaultProfile negative;
  negative.max_delay = -1.0;
  EXPECT_THROW(FaultPlan(negative, 0, 2), Error);
  EXPECT_THROW(fault_profile_by_name("does_not_exist"), Error);
}

TEST(FaultPlan, NamedProfilesAllConstruct) {
  for (const std::string& name : fault_profile_names()) {
    const FaultProfile profile = fault_profile_by_name(name);
    FaultPlan plan(profile, 1, 4);
    (void)plan.decide_send(0);
  }
}

// ---------------------------------------------------------------------------
// Mailbox: reordering legality.
// ---------------------------------------------------------------------------

TEST(Mailbox, ReorderSkipJumpsDifferentEnvelopesOnly) {
  Mailbox box;
  box.push(Message{0, 1, 0.0, {1.0}});
  box.push(Message{2, 9, 0.0, {2.0}}, /*reorder_skip=*/5);
  // The (2, 9) message jumped the queue: pop_any sees it first.
  EXPECT_EQ(box.pop_any().src, 2);
  EXPECT_EQ(box.pop_any().src, 0);
}

TEST(Mailbox, ReorderSkipNeverPassesSameEnvelope) {
  Mailbox box;
  box.push(Message{0, 1, 0.0, {1.0}});
  box.push(Message{0, 1, 0.0, {2.0}}, /*reorder_skip=*/5);
  // Same (src, tag): FIFO must hold no matter the requested jump.
  EXPECT_DOUBLE_EQ(box.pop_any().payload[0], 1.0);
  EXPECT_DOUBLE_EQ(box.pop_any().payload[0], 2.0);
}

TEST(Mailbox, ReorderSkipStopsAtSameEnvelopeBarrier) {
  Mailbox box;
  box.push(Message{3, 3, 0.0, {1.0}});  // same envelope as the mover
  box.push(Message{0, 1, 0.0, {2.0}});
  box.push(Message{3, 3, 0.0, {3.0}}, /*reorder_skip=*/5);
  // The mover may pass (0,1) but must stop behind the earlier (3,3).
  EXPECT_DOUBLE_EQ(box.pop_matching(3, 3).payload[0], 1.0);
  EXPECT_DOUBLE_EQ(box.pop_matching(3, 3).payload[0], 3.0);
  EXPECT_EQ(box.pop_any().src, 0);
}

TEST(Mailbox, PopPathsDoNotMaterializeBucketsForSilentSources) {
  Mailbox box;
  box.mark_dead(7);
  box.mark_deviated(8, /*tag_base=*/100);
  Message out;
  EXPECT_EQ(box.pop_matching_or_failed(7, 1, 1e9, &out), RecvStatus::kSrcDead);
  EXPECT_EQ(box.pop_matching_or_failed(8, 1, 1e9, &out),
            RecvStatus::kSrcDeviated);
  // Neither failed receive may create storage: buckets exist only for
  // sources that actually pushed (the sparse-footprint contract).
  EXPECT_EQ(box.bucket_count(), 0u);
  box.push(Message{3, 1, 0.0, {1.0}});
  EXPECT_EQ(box.bucket_count(), 1u);
  EXPECT_DOUBLE_EQ(box.pop_matching(3, 1).payload[0], 1.0);
  EXPECT_EQ(box.bucket_count(), 1u);  // emptied in place, not erased
}

// ---------------------------------------------------------------------------
// Machine-level: retry accounting, delays, stragglers, trace records.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RetryChargesLatencyPerAttemptWordsOnce) {
  FaultProfile profile;
  profile.fail_prob = 1.0;  // every counted send needs retries
  profile.max_retries = 3;
  const std::uint64_t seed = 123;
  // A twin plan predicts what the machine's plan will inject for rank 0's
  // first (and only) send.
  FaultPlan oracle(profile, seed, 2);
  const SendFaults expected = oracle.decide_send(0);
  ASSERT_GT(expected.failed_attempts, 0);
  const int attempts = 1 + expected.failed_attempts;

  Machine machine(2);
  machine.enable_faults(profile, seed);
  double sender_clock = -1.0;
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {1.0, 2.0, 3.0});
      sender_clock = ctx.clock();
    } else {
      const auto payload = ctx.recv(0, 7);
      ASSERT_EQ(payload.size(), 3u);
    }
  });
  // Words and the message counted exactly once despite the retries…
  EXPECT_EQ(machine.stats().rank_total(0).words_sent(), 3);
  EXPECT_EQ(machine.stats().rank_total(0).messages_sent, 1);
  EXPECT_EQ(machine.stats().rank_total(1).words_received(), 3);
  EXPECT_EQ(machine.stats().rank_total(1).messages_received, 1);
  // …while the sender's clock paid alpha per attempt with backoff
  // (alpha = beta = 1): 2^attempts - 1 latency units plus 3 payload words.
  EXPECT_DOUBLE_EQ(sender_clock,
                   FaultPlan::retry_alpha_units(attempts) + 3.0);
  EXPECT_EQ(machine.fault_plan()->counts().total_retries,
            expected.failed_attempts);
}

TEST(FaultInjection, SelfSendsAreFaultExempt) {
  FaultProfile profile;
  profile.fail_prob = 1.0;
  profile.max_retries = 3;
  profile.delay_prob = 1.0;
  profile.max_delay = 10.0;
  Machine machine(1);
  machine.enable_faults(profile, 5);
  machine.run([&](RankCtx& ctx) {
    ctx.send(0, 0, {1.0});
    (void)ctx.recv(0, 0);
    EXPECT_DOUBLE_EQ(ctx.clock(), 0.0);  // local data movement stays free
  });
  EXPECT_EQ(machine.fault_plan()->counts().decisions, 0);
}

TEST(FaultInjection, DelaysInflateTimeButNeverCounts) {
  const auto run_once = [](bool faulty) {
    auto machine = std::make_unique<Machine>(4);
    if (faulty) {
      FaultProfile profile;
      profile.delay_prob = 1.0;
      profile.max_delay = 20.0;
      profile.max_reorder_skip = 3;
      machine->enable_faults(profile, 42);
    }
    machine->run([&](RankCtx& ctx) {
      // A ring rotation: everyone sends to the right, receives from the left.
      const int p = ctx.nprocs();
      const int next = (ctx.rank() + 1) % p;
      const int prev = (ctx.rank() + p - 1) % p;
      for (int round = 0; round < 5; ++round) {
        ctx.send(next, round, {1.0, 2.0});
        (void)ctx.recv(prev, round);
      }
    });
    return machine;
  };
  const auto clean = run_once(false);
  const auto faulty = run_once(true);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(faulty->stats().rank_total(r).words_sent(),
              clean->stats().rank_total(r).words_sent());
    EXPECT_EQ(faulty->stats().rank_total(r).words_received(),
              clean->stats().rank_total(r).words_received());
    EXPECT_EQ(faulty->stats().rank_total(r).messages_sent,
              clean->stats().rank_total(r).messages_sent);
  }
  EXPECT_GT(faulty->fault_plan()->counts().delayed_messages, 0);
  EXPECT_GT(faulty->critical_path_time(), clean->critical_path_time());
}

TEST(FaultInjection, StragglersScaleClockChargesOnly) {
  FaultProfile profile;
  profile.straggler_prob = 1.0;  // every rank is a straggler
  profile.max_slowdown = 2.0;
  Machine machine(2);
  machine.enable_faults(profile, 11);
  const double f0 = machine.fault_plan()->straggler_factor(0);
  ASSERT_GT(f0, 1.0);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance_clock(10.0);
      EXPECT_DOUBLE_EQ(ctx.clock(), ctx.straggler_factor() * 10.0);
      ctx.send(1, 0, {1.0});
      // The send charge (alpha + beta * 1 = 2) is scaled too.
      EXPECT_DOUBLE_EQ(ctx.clock(), ctx.straggler_factor() * 12.0);
    } else {
      (void)ctx.recv(0, 0);
    }
  });
  EXPECT_EQ(machine.stats().rank_total(0).words_sent(), 1);  // counts untouched
  EXPECT_EQ(machine.fault_plan()->counts().stragglers, 2);
}

TEST(FaultInjection, PerEnvelopeFifoSurvivesHeavyPerturbation) {
  // 100 same-envelope messages must arrive in send order: delivery delays
  // and reorderings are only legal across different (src, tag) envelopes.
  Machine machine(2);
  machine.enable_faults(fault_profile_by_name("heavy"), 77);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 100; ++i) {
        ctx.send(1, 5, {static_cast<double>(i)});
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        const auto payload = ctx.recv(0, 5);
        ASSERT_EQ(payload.size(), 1u);
        ASSERT_DOUBLE_EQ(payload[0], static_cast<double>(i)) << "i=" << i;
      }
    }
  });
}

TEST(FaultInjection, ReceiverClockSynchronizesToDelayedStamp) {
  FaultProfile profile;
  profile.delay_prob = 1.0;
  profile.max_delay = 50.0;
  FaultPlan oracle(profile, 3, 2);
  const SendFaults expected = oracle.decide_send(0);
  ASSERT_GT(expected.delay, 0.0);
  Machine machine(2);
  machine.enable_faults(profile, 3);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, {1.0});
      EXPECT_DOUBLE_EQ(ctx.clock(), 2.0);  // delay is in the network, not here
    } else {
      (void)ctx.recv(0, 0);
      // Arrival stamp = sender clock (2) + injected delay.
      EXPECT_DOUBLE_EQ(ctx.clock(), 2.0 + expected.delay);
    }
  });
}

TEST(FaultInjection, TraceRecordsFaultEvents) {
  Machine machine(4);
  FaultProfile profile;
  profile.delay_prob = 0.7;
  profile.max_delay = 4.0;
  profile.fail_prob = 0.5;
  profile.max_retries = 2;
  machine.enable_faults(profile, 21);
  Trace& trace = machine.enable_trace();
  machine.run([&](RankCtx& ctx) {
    const int p = ctx.nprocs();
    for (int round = 0; round < 10; ++round) {
      const int next = (ctx.rank() + 1) % p;
      const int prev = (ctx.rank() + p - 1) % p;
      ctx.send(next, round, {1.0});
      (void)ctx.recv(prev, round);
    }
  });
  const auto events = trace.fault_events();
  ASSERT_GT(events.size(), 0u);
  for (const FaultEvent& event : events) {
    EXPECT_GE(event.src, 0);
    EXPECT_LT(event.src, 4);
    EXPECT_GE(event.dst, 0);
    EXPECT_LT(event.dst, 4);
    // Every fault record documents an actual perturbation.
    EXPECT_TRUE(event.failed_attempts > 0 || event.delay > 0.0);
  }
  // Each perturbed send produced exactly one fault record (delays and
  // retries on the same send share one record).
  const FaultCounts counts = machine.fault_plan()->counts();
  const i64 perturbed_sends = static_cast<i64>(events.size());
  EXPECT_LE(counts.failed_sends, perturbed_sends);
  EXPECT_LE(counts.delayed_messages, perturbed_sends);
  EXPECT_EQ(trace.event_count(), 4u * 10u);  // message log unaffected
}

TEST(FaultInjection, MachineRunsReproducibleFromFaultSeed) {
  const auto run_once = [](std::uint64_t seed) {
    Machine machine(4);
    machine.enable_faults(fault_profile_by_name("heavy"), seed);
    machine.run([&](RankCtx& ctx) {
      const int p = ctx.nprocs();
      for (int round = 0; round < 8; ++round) {
        const int partner = ctx.rank() ^ (1 << (round % 2));
        if (partner < p) (void)ctx.sendrecv(partner, round, {1.0, 2.0, 3.0});
      }
      ctx.barrier();
    });
    const FaultCounts counts = machine.fault_plan()->counts();
    return std::make_tuple(machine.critical_path_time(), counts.decisions,
                           counts.delayed_messages, counts.total_retries,
                           counts.failed_sends);
  };
  EXPECT_EQ(run_once(1234), run_once(1234));
  EXPECT_NE(std::get<0>(run_once(1234)), std::get<0>(run_once(99)));
}

// ---------------------------------------------------------------------------
// Master-seed derivation (the one-logged-value reproducibility contract).
// ---------------------------------------------------------------------------

TEST(SeedDerivation, DomainsAreIndependentAndStable) {
  EXPECT_EQ(derive_seed(42, kSeedDomainRankRng),
            derive_seed(42, kSeedDomainRankRng));
  EXPECT_NE(derive_seed(42, kSeedDomainRankRng),
            derive_seed(42, kSeedDomainFaults));
  EXPECT_NE(derive_seed(42, kSeedDomainFaults),
            derive_seed(43, kSeedDomainFaults));
}

TEST(SeedDerivation, DerivedStreamsDecorrelated) {
  // Rank RNG streams seeded from domain 0 and fault decisions from domain 1
  // must not collide for nearby master seeds.
  for (std::uint64_t master = 0; master < 64; ++master) {
    EXPECT_NE(derive_seed(master, kSeedDomainRankRng),
              derive_seed(master, kSeedDomainFaults))
        << master;
  }
}

}  // namespace
}  // namespace camb
