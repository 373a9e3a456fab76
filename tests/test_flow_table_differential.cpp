// Differential fuzzing: the two-tier classifier (FlowTable) against the
// seed's linear scan (NaiveFlowTable), driven with identical random
// FLOW_MOD / packet / expiry streams. Any divergence in match selection,
// counters, removal sets, ordering, or surviving table contents is a bug in
// the classifier's index maintenance — this is the test that guards the
// bit-for-bit compatibility claim behind the byte-identical sweep JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/naive_flow_table.hpp"
#include "swsim/flow_table.hpp"

namespace attain::swsim {
namespace {

pkt::Packet random_packet(Rng& rng) {
  const std::uint64_t src = 1 + rng.next_below(5);
  const std::uint64_t dst = 1 + rng.next_below(5);
  switch (rng.next_below(3)) {
    case 0:
      return pkt::make_arp_request(pkt::MacAddress::from_u64(src),
                                   pkt::Ipv4Address{static_cast<std::uint32_t>(src)},
                                   pkt::Ipv4Address{static_cast<std::uint32_t>(dst)});
    case 1:
      return pkt::make_icmp_echo(pkt::MacAddress::from_u64(src), pkt::MacAddress::from_u64(dst),
                                 pkt::Ipv4Address{static_cast<std::uint32_t>(src)},
                                 pkt::Ipv4Address{static_cast<std::uint32_t>(dst)},
                                 rng.chance(0.5) ? pkt::IcmpType::EchoRequest
                                                 : pkt::IcmpType::EchoReply,
                                 1, static_cast<std::uint16_t>(rng.next_below(16)), 0);
    default: {
      pkt::TcpHeader tcp;
      // Deliberately tiny port space: collisions produce overlapping
      // entries, strict-equality replacements, and equal-priority ties.
      tcp.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(4));
      tcp.dst_port = static_cast<std::uint16_t>(rng.next_below(3));
      return pkt::make_tcp(pkt::MacAddress::from_u64(src), pkt::MacAddress::from_u64(dst),
                           pkt::Ipv4Address{static_cast<std::uint32_t>(src)},
                           pkt::Ipv4Address{static_cast<std::uint32_t>(dst)}, tcp,
                           static_cast<std::uint32_t>(rng.next_below(1400)), 0);
    }
  }
}

ofp::Match random_match(Rng& rng) {
  ofp::Match m = ofp::Match::from_packet(random_packet(rng),
                                         static_cast<std::uint16_t>(1 + rng.next_below(4)));
  if (rng.chance(0.15)) return m;  // keep some exact entries
  const std::uint32_t bool_bits[] = {ofp::wc::kInPort, ofp::wc::kDlSrc,     ofp::wc::kDlDst,
                                     ofp::wc::kDlVlan, ofp::wc::kDlVlanPcp, ofp::wc::kDlType,
                                     ofp::wc::kNwTos,  ofp::wc::kNwProto,   ofp::wc::kTpSrc,
                                     ofp::wc::kTpDst};
  for (const std::uint32_t bit : bool_bits) {
    if (rng.chance(0.45)) m.wildcards |= bit;
  }
  if (rng.chance(0.4)) {
    m.set_nw_src_wild_bits(static_cast<std::uint32_t>(rng.next_below(33)));
  }
  if (rng.chance(0.4)) {
    m.set_nw_dst_wild_bits(static_cast<std::uint32_t>(rng.next_below(33)));
  }
  return m;
}

ofp::FlowMod random_mod(Rng& rng, std::uint64_t cookie) {
  ofp::FlowMod mod;
  mod.match = random_match(rng);
  mod.cookie = cookie;
  // Tiny priority set so equal-priority ties are common, exercising the
  // insertion-order tie-break on both sides.
  static constexpr std::uint16_t kPriorities[] = {10, 10, 20, 42};
  mod.priority = kPriorities[rng.next_below(4)];
  static constexpr std::uint16_t kTimeouts[] = {0, 0, 1, 2, 5};
  mod.idle_timeout = kTimeouts[rng.next_below(5)];
  mod.hard_timeout = kTimeouts[rng.next_below(5)];
  mod.actions = ofp::output_to(static_cast<std::uint16_t>(1 + rng.next_below(4)));
  const std::uint64_t roll = rng.next_below(10);
  if (roll < 6) {
    mod.command = ofp::FlowModCommand::Add;
  } else if (roll < 7) {
    mod.command = ofp::FlowModCommand::Modify;
  } else if (roll < 8) {
    mod.command = ofp::FlowModCommand::ModifyStrict;
  } else {
    mod.command = roll < 9 ? ofp::FlowModCommand::Delete : ofp::FlowModCommand::DeleteStrict;
    if (rng.chance(0.3)) {
      mod.out_port = static_cast<std::uint16_t>(1 + rng.next_below(4));
    }
  }
  return mod;
}

::testing::AssertionResult entries_equal(const FlowEntry& a, const FlowEntry& b) {
  if (!a.match.strictly_equals(b.match)) {
    return ::testing::AssertionFailure()
           << "match mismatch: " << a.match.to_string() << " vs " << b.match.to_string();
  }
  if (a.priority != b.priority || a.cookie != b.cookie || a.idle_timeout != b.idle_timeout ||
      a.hard_timeout != b.hard_timeout || a.flags != b.flags) {
    return ::testing::AssertionFailure() << "header mismatch on cookie " << a.cookie;
  }
  if (a.installed_at != b.installed_at || a.last_used != b.last_used ||
      a.packet_count != b.packet_count || a.byte_count != b.byte_count) {
    return ::testing::AssertionFailure()
           << "counter mismatch on cookie " << a.cookie << ": installed " << a.installed_at
           << "/" << b.installed_at << " last_used " << a.last_used << "/" << b.last_used
           << " packets " << a.packet_count << "/" << b.packet_count << " bytes "
           << a.byte_count << "/" << b.byte_count;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult tables_equal(const FlowTable& fast, const NaiveFlowTable& naive) {
  const auto a = fast.entries();
  const auto b = naive.entries();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: fast " << a.size() << " vs naive " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto eq = entries_equal(*a[i], *b[i]);
    if (!eq) return ::testing::AssertionFailure() << "entry " << i << ": " << eq.message();
  }
  return ::testing::AssertionSuccess();
}

/// One fuzz campaign: `steps` rounds of (mutate | match | expire) applied
/// to both tables in lockstep. Every round cross-checks the operation's
/// observable result; every 64th round deep-compares full table state.
void run_campaign(std::uint64_t seed, int steps) {
  Rng rng(seed);
  FlowTable fast;
  NaiveFlowTable naive;
  SimTime now = 0;
  std::uint64_t next_cookie = 1;

  for (int step = 0; step < steps; ++step) {
    now += static_cast<SimTime>(rng.next_below(kSecond / 2));
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 4) {
      const ofp::FlowMod mod = random_mod(rng, next_cookie++);
      const auto removed_fast = fast.apply(mod, now);
      const auto removed_naive = naive.apply(mod, now);
      ASSERT_EQ(removed_fast.size(), removed_naive.size())
          << "seed " << seed << " step " << step << " removal count";
      for (std::size_t i = 0; i < removed_fast.size(); ++i) {
        ASSERT_TRUE(entries_equal(removed_fast[i].entry, removed_naive[i].entry))
            << "seed " << seed << " step " << step << " removal " << i;
        ASSERT_EQ(removed_fast[i].reason, removed_naive[i].reason)
            << "seed " << seed << " step " << step << " removal " << i;
      }
    } else if (roll < 8) {
      const pkt::Packet p = random_packet(rng);
      const std::uint16_t port = static_cast<std::uint16_t>(1 + rng.next_below(4));
      const FlowEntry* hit_fast = fast.match_packet(p, port, now, p.wire_size());
      const FlowEntry* hit_naive = naive.match_packet(p, port, now, p.wire_size());
      ASSERT_EQ(hit_fast != nullptr, hit_naive != nullptr)
          << "seed " << seed << " step " << step << " on " << p.summary();
      if (hit_fast != nullptr) {
        ASSERT_TRUE(entries_equal(*hit_fast, *hit_naive))
            << "seed " << seed << " step " << step << " on " << p.summary();
      }
    } else {
      const auto expired_fast = fast.expire(now);
      const auto expired_naive = naive.expire(now);
      ASSERT_EQ(expired_fast.size(), expired_naive.size())
          << "seed " << seed << " step " << step << " expiry count at " << now;
      for (std::size_t i = 0; i < expired_fast.size(); ++i) {
        ASSERT_TRUE(entries_equal(expired_fast[i].entry, expired_naive[i].entry))
            << "seed " << seed << " step " << step << " expiry " << i;
        ASSERT_EQ(expired_fast[i].reason, expired_naive[i].reason)
            << "seed " << seed << " step " << step << " expiry " << i;
      }
    }
    if (step % 64 == 0) {
      ASSERT_TRUE(tables_equal(fast, naive)) << "seed " << seed << " step " << step;
    }
  }
  ASSERT_TRUE(tables_equal(fast, naive)) << "seed " << seed << " final state";
}

TEST(FlowTableDifferential, LockstepFuzzAcrossSeeds) {
  // 4 campaigns x 4000 steps = 16k fuzzed operations (>= the 10k the
  // acceptance bar asks for), each cross-checked against the oracle.
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL}) {
    run_campaign(seed, 4000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FlowTableDifferential, ExpiryHeavyCampaign) {
  // Skew towards short timeouts and long idle gaps so the timer wheel's
  // lazy idle re-arm path is hammered specifically.
  Rng rng(777);
  FlowTable fast;
  NaiveFlowTable naive;
  SimTime now = 0;
  std::uint64_t cookie = 1;
  for (int step = 0; step < 3000; ++step) {
    now += static_cast<SimTime>(rng.next_below(2 * kSecond));
    if (rng.chance(0.5)) {
      ofp::FlowMod mod = random_mod(rng, cookie++);
      mod.command = ofp::FlowModCommand::Add;
      mod.idle_timeout = static_cast<std::uint16_t>(1 + rng.next_below(3));
      mod.hard_timeout = rng.chance(0.5) ? static_cast<std::uint16_t>(1 + rng.next_below(4)) : 0;
      fast.apply(mod, now);
      naive.apply(mod, now);
    } else if (rng.chance(0.6)) {
      const pkt::Packet p = random_packet(rng);
      const std::uint16_t port = static_cast<std::uint16_t>(1 + rng.next_below(4));
      fast.match_packet(p, port, now, p.wire_size());
      naive.match_packet(p, port, now, p.wire_size());
    } else {
      const auto ef = fast.expire(now);
      const auto en = naive.expire(now);
      ASSERT_EQ(ef.size(), en.size()) << "step " << step << " at " << now;
      for (std::size_t i = 0; i < ef.size(); ++i) {
        ASSERT_TRUE(entries_equal(ef[i].entry, en[i].entry)) << "step " << step;
        ASSERT_EQ(ef[i].reason, en[i].reason) << "step " << step;
      }
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(tables_equal(fast, naive)) << "step " << step;
    }
  }
  ASSERT_TRUE(tables_equal(fast, naive));
}

}  // namespace
}  // namespace attain::swsim
