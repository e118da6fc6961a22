// Unit and machine-level tests for the reliable transport (reliable.hpp):
// checksum properties, seeded SDC decision streams, end-to-end healing of
// drop/flip/dup injection with word-exact transport-tax accounting, the
// named give-up path, and the run-end duplicate-debris partition.
#include "machine/reliable.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "collectives/coll_cost.hpp"
#include "machine/machine.hpp"
#include "machine/mailbox.hpp"
#include "machine/trace.hpp"
#include "util/error.hpp"

namespace camb {
namespace {

FaultProfile sdc_profile(double drop, double flip, double dup) {
  FaultProfile profile;
  profile.drop_prob = drop;
  profile.flip_prob = flip;
  profile.dup_prob = dup;
  return profile;
}

// ---------------------------------------------------------------------------
// checksum64
// ---------------------------------------------------------------------------

TEST(Checksum64, DeterministicAndKeyedBySeed) {
  std::vector<double> data(33);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) * 0.37 - 2.0;
  }
  const std::uint64_t base = checksum64(data.data(), data.size(), 42);
  EXPECT_EQ(base, checksum64(data.data(), data.size(), 42));
  EXPECT_NE(base, checksum64(data.data(), data.size(), 43));
  // Length is folded in: a prefix must not collide with the full payload.
  EXPECT_NE(base, checksum64(data.data(), data.size() - 1, 42));
}

TEST(Checksum64, DetectsSingleBitFlips) {
  std::vector<double> data(17);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i + 1) * 1.5;
  }
  const std::uint64_t base = checksum64(data.data(), data.size(), 7);
  for (std::size_t word : {std::size_t{0}, std::size_t{8}, std::size_t{16}}) {
    for (int bit : {0, 31, 63}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &data[word], sizeof(bits));
      bits ^= std::uint64_t{1} << bit;
      double flipped = 0;
      std::memcpy(&flipped, &bits, sizeof(flipped));
      const double saved = data[word];
      data[word] = flipped;
      EXPECT_NE(checksum64(data.data(), data.size(), 7), base)
          << "word " << word << " bit " << bit;
      data[word] = saved;
    }
  }
  EXPECT_EQ(checksum64(data.data(), data.size(), 7), base);
}

TEST(Checksum64, ZeroLengthIsDefinedAndSeeded) {
  EXPECT_EQ(checksum64(nullptr, 0, 9), checksum64(nullptr, 0, 9));
  EXPECT_NE(checksum64(nullptr, 0, 9), checksum64(nullptr, 0, 10));
}

// ---------------------------------------------------------------------------
// ReliableTransport::forge_corrupt_copy
// ---------------------------------------------------------------------------

TEST(ForgeCorruptCopy, StampsOriginalChecksumAndIsDetectable) {
  ReliableTransport transport(0xABCDull);
  std::vector<double> payload = {1.0, -2.5, 3.25, 0.0, 1e9};
  const Buffer original = Buffer::copy_of(payload);
  const std::uint64_t clean = transport.checksum(original);
  for (int copy = 0; copy < 4; ++copy) {
    std::uint64_t stamped = 0;
    Buffer forged =
        transport.forge_corrupt_copy(original, 0xFEEDBEEFull, copy, &stamped);
    // The envelope carries the *original* checksum (stamped pre-corruption)…
    EXPECT_EQ(stamped, clean);
    ASSERT_EQ(forged.size(), original.size());
    // …while the payload differs, so the receiver's recompute disagrees.
    EXPECT_NE(transport.checksum(forged), stamped) << "copy " << copy;
  }
}

TEST(ForgeCorruptCopy, ZeroWordPayloadCorruptsChecksumField) {
  // An empty payload has no bits to flip; the corruption must hit the
  // stamped checksum instead so detection still happens the honest way.
  ReliableTransport transport(55);
  const Buffer empty;
  std::uint64_t stamped = 0;
  Buffer forged = transport.forge_corrupt_copy(empty, 0x1234ull, 0, &stamped);
  EXPECT_EQ(forged.size(), 0u);
  EXPECT_NE(stamped, transport.checksum(forged));
}

// ---------------------------------------------------------------------------
// FaultPlan SDC decision stream
// ---------------------------------------------------------------------------

TEST(SdcDecisions, ReplayableAndDomainSeparatedFromTimingFaults) {
  FaultProfile profile = sdc_profile(0.3, 0.3, 0.3);
  profile.delay_prob = 0.5;
  profile.max_delay = 4;
  profile.fail_prob = 0.2;
  FaultPlan a(profile, 99, 4, 1111);
  FaultPlan b(profile, 99, 4, 1111);  // identical seeds -> identical stream
  FaultPlan c(profile, 99, 4, 2222);  // different SDC seed
  int sdc_diffs = 0;
  for (int i = 0; i < 200; ++i) {
    for (int src = 0; src < 4; ++src) {
      const SendFaults fa = a.decide_send(src);
      const SendFaults fb = b.decide_send(src);
      const SendFaults fc = c.decide_send(src);
      EXPECT_EQ(fa.dropped_copies, fb.dropped_copies);
      EXPECT_EQ(fa.corrupt_copies, fb.corrupt_copies);
      EXPECT_EQ(fa.duplicated, fb.duplicated);
      EXPECT_EQ(fa.flip_entropy, fb.flip_entropy);
      EXPECT_EQ(fa.delay, fb.delay);
      EXPECT_EQ(fa.failed_attempts, fb.failed_attempts);
      // Changing only the SDC seed must leave the timing/transient streams
      // untouched (the whole point of the separate seed domain)…
      EXPECT_EQ(fa.delay, fc.delay);
      EXPECT_EQ(fa.failed_attempts, fc.failed_attempts);
      EXPECT_EQ(fa.reorder_skip, fc.reorder_skip);
      // …while the SDC draws themselves do move.
      if (fa.dropped_copies != fc.dropped_copies ||
          fa.corrupt_copies != fc.corrupt_copies ||
          fa.duplicated != fc.duplicated) {
        ++sdc_diffs;
      }
    }
  }
  EXPECT_GT(sdc_diffs, 0);
}

TEST(SdcDecisions, DefaultSdcSeedDerivesFromFaultSeed) {
  const FaultProfile profile = sdc_profile(0.4, 0.4, 0.4);
  FaultPlan implicit_seed(profile, 77, 2);
  FaultPlan explicit_seed(profile, 77, 2,
                          derive_seed(77, kSeedDomainSdc));
  for (int i = 0; i < 64; ++i) {
    const SendFaults fa = implicit_seed.decide_send(0);
    const SendFaults fb = explicit_seed.decide_send(0);
    EXPECT_EQ(fa.dropped_copies, fb.dropped_copies);
    EXPECT_EQ(fa.corrupt_copies, fb.corrupt_copies);
    EXPECT_EQ(fa.duplicated, fb.duplicated);
  }
}

// ---------------------------------------------------------------------------
// Machine-level healing
// ---------------------------------------------------------------------------

// All-pairs exchange with position-determined payloads: every rank sends a
// distinct 17-word message to every other rank and checks the received
// words bit-for-bit, so any healed-wrong payload fails loudly.
double expected_word(int src, int dst, int round, std::size_t i) {
  return static_cast<double>(dst) * 100.0 + static_cast<double>(src) +
         static_cast<double>(round) * 1000.0 + static_cast<double>(i) / 8.0;
}

void all_pairs_program(RankCtx& ctx) {
  const int p = ctx.nprocs();
  ctx.set_phase("exchange");
  for (int round = 1; round < p; ++round) {
    const int dst = (ctx.rank() + round) % p;
    const int src = (ctx.rank() + p - round) % p;
    std::vector<double> payload(17);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = expected_word(ctx.rank(), dst, round, i);
    }
    ctx.send(dst, round, Buffer::copy_of(payload));
    const Buffer got = ctx.recv(src, round);
    ASSERT_EQ(got.size(), payload.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], expected_word(src, ctx.rank(), round, i))
          << src << "->" << ctx.rank() << " round " << round << " word " << i;
    }
  }
  ctx.barrier();
}

TEST(ReliableTransportMachine, HealsDropsFlipsDupsWordExactly) {
  const int kProcs = 5;
  const FaultProfile profile = sdc_profile(0.15, 0.15, 0.15);
  const std::uint64_t fault_seed = 77;

  Machine clean(kProcs);
  clean.run(all_pairs_program);

  Machine faulted(kProcs);
  faulted.enable_faults(profile, fault_seed);
  faulted.enable_reliable_transport(0xC0FFEEull);
  Trace& trace = faulted.enable_trace();
  faulted.run(all_pairs_program);  // payload equality asserted inside

  const FaultCounts counts = faulted.fault_plan()->counts();
  ASSERT_GT(counts.dropped_copies + counts.corrupt_copies +
                counts.duplicated_messages,
            0)
      << "rates 0.15 over 20 sends should inject something";
  EXPECT_EQ(counts.exhausted_sends, 0);

  // Algorithm phase stays word-exact to the clean run; all tax lands in the
  // transport phase, pinned exactly by the closed-form replay predictor.
  const std::vector<PhaseCounters> tax = coll::predicted_transport_phase(
      profile, fault_seed, /*sdc_seed=*/0, kProcs, trace.events());
  for (int r = 0; r < kProcs; ++r) {
    const PhaseCounters algo = faulted.stats().rank_phase(r, "exchange");
    const PhaseCounters algo_clean = clean.stats().rank_phase(r, "exchange");
    EXPECT_EQ(algo.words_sent(), algo_clean.words_sent()) << "rank " << r;
    EXPECT_EQ(algo.words_received(), algo_clean.words_received()) << "rank " << r;
    EXPECT_EQ(algo.messages_sent, algo_clean.messages_sent) << "rank " << r;
    const PhaseCounters measured =
        faulted.stats().rank_phase(r, kPhaseTransport);
    EXPECT_EQ(measured.words_sent(), tax[r].words_sent()) << "rank " << r;
    EXPECT_EQ(measured.words_received(), tax[r].words_received()) << "rank " << r;
    EXPECT_EQ(measured.messages_sent, tax[r].messages_sent) << "rank " << r;
    EXPECT_EQ(measured.messages_received, tax[r].messages_received)
        << "rank " << r;
  }

  // Aggregate counter identities: every corrupt copy was caught and nacked,
  // every duplicate was either discarded in-flight or parked as debris.
  const TransportCounters tc = faulted.stats().transport_total();
  EXPECT_EQ(tc.corrupt_discards, counts.corrupt_copies);
  EXPECT_EQ(tc.nacks, counts.corrupt_copies);
  EXPECT_EQ(tc.retransmits, counts.dropped_copies + counts.corrupt_copies);
  EXPECT_EQ(tc.dup_copies, counts.duplicated_messages);
  EXPECT_EQ(tc.dup_discards +
                static_cast<i64>(faulted.transport_debris().size()),
            counts.duplicated_messages);

  // Retransmits and backoff are real latency: the healed run is never
  // faster than the clean one.
  EXPECT_GE(faulted.critical_path_time(), clean.critical_path_time());
}

TEST(ReliableTransportMachine, RunsAreDeterministicAcrossReplays) {
  const FaultProfile profile = sdc_profile(0.2, 0.2, 0.2);
  auto run_once = [&](TransportCounters* total, double* time) {
    Machine machine(4);
    machine.enable_faults(profile, 31, /*sdc_seed=*/5151);
    machine.enable_reliable_transport(5151);
    machine.run(all_pairs_program);
    *total = machine.stats().transport_total();
    *time = machine.critical_path_time();
  };
  TransportCounters first, second;
  double time_first = 0, time_second = 0;
  run_once(&first, &time_first);
  run_once(&second, &time_second);
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.retransmitted_bytes, second.retransmitted_bytes);
  EXPECT_EQ(first.corrupt_discards, second.corrupt_discards);
  EXPECT_EQ(first.dup_discards, second.dup_discards);
  EXPECT_EQ(first.acks, second.acks);
  EXPECT_EQ(first.nacks, second.nacks);
  EXPECT_EQ(time_first, time_second);
}

TEST(ReliableTransportMachine, ExhaustionSurfacesNamedTransportError) {
  FaultProfile profile = sdc_profile(1.0, 0.0, 0.0);  // every copy dropped
  profile.max_transport_retries = 4;
  Machine machine(2);
  machine.enable_faults(profile, 5);
  machine.enable_reliable_transport(9);
  try {
    machine.run([](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, 3, {1.0, 2.0});
      } else {
        (void)ctx.recv(0, 3);
      }
    });
    FAIL() << "expected TransportError";
  } catch (const TransportError& err) {
    EXPECT_EQ(err.src(), 0);
    EXPECT_EQ(err.dst(), 1);
    EXPECT_EQ(err.tag(), 3);
    EXPECT_EQ(err.failed_copies(), 4);
    EXPECT_EQ(err.max_transport_retries(), 4);
    // The message must be actionable: it names the configured budget and
    // the exponential-backoff schedule the failed copies waited through
    // (copy k waits 2^(k-1) alpha units: 1+2+4+8 = 15 for four copies).
    const std::string message = err.what();
    EXPECT_NE(message.find("max_transport_retries=4"), std::string::npos)
        << message;
    EXPECT_NE(message.find("backoff schedule waited 1+2+4+8 = 15"),
              std::string::npos)
        << message;
  }
}

TEST(ReliableTransportMachine, SdcWithoutTransportFailsFast) {
  // Drops without retransmission hang their receiver; the machine refuses
  // the configuration up front instead of deadlocking.
  Machine machine(2);
  machine.enable_faults(sdc_profile(0.1, 0.0, 0.0), 3);
  EXPECT_THROW(machine.run([](RankCtx&) {}), Error);
}

// ---------------------------------------------------------------------------
// Duplicate debris and the run-end leak check (satellite: drain_undelivered)
// ---------------------------------------------------------------------------

TEST(ReliableTransportMachine, UnpoppedDuplicatesPartitionAsBenignDebris) {
  FaultProfile profile = sdc_profile(0.0, 0.0, 1.0);  // duplicate every send
  Machine machine(3);
  machine.enable_faults(profile, 11);
  machine.enable_reliable_transport(12);
  // Each (src, tag) envelope is received exactly once, so every injected
  // duplicate is still parked in a mailbox at run end.  A clean run treats
  // leftover messages as a program bug; transport duplicates must instead
  // partition into the benign debris list without throwing.
  machine.run(all_pairs_program);
  ASSERT_EQ(machine.transport_debris().size(), 6u);  // 3 ranks x 2 sends
  for (const UndeliveredMessage& msg : machine.transport_debris()) {
    EXPECT_TRUE(msg.transport_dup);
    EXPECT_EQ(msg.words(), 17);
  }
  EXPECT_EQ(machine.stats().transport_total().dup_discards, 0);
}

TEST(ReliableTransportMachine, InFlightDuplicatesAreDiscardedSilently) {
  FaultProfile profile = sdc_profile(0.0, 0.0, 1.0);
  Machine machine(2);
  machine.enable_faults(profile, 13);
  machine.enable_reliable_transport(14);
  machine.run([](RankCtx& ctx) {
    // Two sends on the *same* (src, tag) envelope: the receiver's second
    // recv pops the first send's duplicate, discards it, and keeps going.
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {1.0});
      ctx.send(1, 7, {2.0});
    } else {
      const Buffer first = ctx.recv(0, 7);
      const Buffer second = ctx.recv(0, 7);
      ASSERT_EQ(first.size(), 1u);
      ASSERT_EQ(second.size(), 1u);
      EXPECT_EQ(first.data()[0], 1.0);
      EXPECT_EQ(second.data()[0], 2.0);
    }
  });
  EXPECT_EQ(machine.stats().transport_total().dup_discards, 1);
  EXPECT_EQ(machine.transport_debris().size(), 1u);
}

TEST(MailboxDebris, DrainUndeliveredCarriesTransportDupFlag) {
  Mailbox box;
  Message dup;
  dup.src = 2;
  dup.tag = 9;
  dup.payload = Buffer::zeros(3);
  dup.phase = PhaseId("exchange");
  dup.transport_dup = true;
  Message leak;
  leak.src = 1;
  leak.tag = 4;
  leak.payload = Buffer::zeros(2);
  leak.phase = PhaseId("exchange");
  box.push(std::move(dup));
  box.push(std::move(leak));
  std::vector<UndeliveredMessage> out;
  box.drain_undelivered(5, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].src, 2);
  EXPECT_EQ(out[0].dst, 5);
  EXPECT_EQ(out[0].words(), 3);
  EXPECT_TRUE(out[0].transport_dup);
  EXPECT_EQ(out[1].src, 1);
  EXPECT_FALSE(out[1].transport_dup);
  EXPECT_EQ(box.pending(), 0u);
}

}  // namespace
}  // namespace camb
