// Property tests for the parametric topology generators: fat-tree(k)
// pod/core structure and bisection width, leaf-spine degrees, dpid and
// host-address uniqueness, the TopologySpec JSON round-trip, and the
// enterprise spec's equivalence with the hand-wired model.
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "scenario/enterprise.hpp"
#include "topo/generators.hpp"

namespace attain {
namespace {

using topo::BuildOptions;
using topo::SystemModel;
using topo::TopologyKind;
using topo::TopologySpec;

bool slow_tests_enabled() { return std::getenv("ATTAIN_SLOW_TESTS") != nullptr; }

/// Number of links with `sw` as an endpoint.
std::size_t degree_of(const SystemModel& model, EntityId sw) {
  std::size_t n = 0;
  for (const topo::LinkSpec& link : model.links()) {
    if (link.a == sw || link.b == sw) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Fat-tree structure.
// ---------------------------------------------------------------------------

TEST(FatTree, CountsMatchTheClosedForms) {
  for (const std::uint32_t k : {2u, 4u, 6u, 8u}) {
    const TopologySpec spec = TopologySpec::fat_tree(k);
    const SystemModel model = topo::build_model(spec);
    const std::size_t half = k / 2;
    EXPECT_EQ(model.switches().size(), half * half + k * k) << "k=" << k;
    EXPECT_EQ(model.hosts().size(), k * k * k / 4) << "k=" << k;
    EXPECT_EQ(model.links().size(), 3 * k * k * k / 4) << "k=" << k;
    EXPECT_EQ(model.switches().size(), spec.switch_count());
    EXPECT_EQ(model.hosts().size(), spec.host_count());
    EXPECT_EQ(model.links().size(), spec.link_count());
  }
}

TEST(FatTree, CoreLayerCarriesFullBisection) {
  // (k/2)^2 cores, each wired once into every pod: core degree k, and the
  // aggregate core capacity (the bisection width) is k^3/4 links — equal to
  // the host count, the fat-tree's full-bisection property.
  const std::uint32_t k = 4;
  const SystemModel model = topo::build_model(TopologySpec::fat_tree(k));
  std::size_t cores = 0;
  std::size_t core_links = 0;
  for (const topo::SwitchSpec& sw : model.switches()) {
    if (sw.name.rfind("cs", 0) != 0) continue;
    ++cores;
    core_links += degree_of(model, model.require(sw.name));
  }
  EXPECT_EQ(cores, (k / 2) * (k / 2));
  EXPECT_EQ(core_links, k * k * k / 4);  // == host count
  EXPECT_EQ(core_links, model.hosts().size());
}

TEST(FatTree, UniformSwitchDegreeAndPortCount) {
  const std::uint32_t k = 4;
  const SystemModel model = topo::build_model(TopologySpec::fat_tree(k));
  for (const topo::SwitchSpec& sw : model.switches()) {
    EXPECT_EQ(sw.num_ports, k) << sw.name;
    EXPECT_EQ(degree_of(model, model.require(sw.name)), k) << sw.name;
  }
}

TEST(FatTree, InterPodPathCrossesTheCore) {
  // First and last hosts sit in the first and last pods; the shortest path
  // is edge -> agg -> core -> agg -> edge, 5 switch hops.
  const SystemModel model = topo::build_model(TopologySpec::fat_tree(4));
  const EntityId src = model.require(model.hosts().front().name);
  const EntityId dst = model.require(model.hosts().back().name);
  const auto path = model.shortest_path(src, dst);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(model.name_of(path[2].sw).rfind("cs", 0), 0u);  // middle hop is a core
}

TEST(FatTree, RejectsOddOrTinyArity) {
  EXPECT_THROW(topo::build_model(TopologySpec::fat_tree(3)), std::invalid_argument);
  EXPECT_THROW(topo::build_model(TopologySpec::fat_tree(0)), std::invalid_argument);
  EXPECT_THROW(topo::build_model(TopologySpec::fat_tree(66)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Leaf-spine structure.
// ---------------------------------------------------------------------------

TEST(LeafSpine, FullMeshDegrees) {
  const std::uint32_t s = 3, l = 5, h = 4;
  const TopologySpec spec = TopologySpec::leaf_spine(s, l, h);
  const SystemModel model = topo::build_model(spec);
  EXPECT_EQ(model.switches().size(), s + l);
  EXPECT_EQ(model.hosts().size(), l * h);
  EXPECT_EQ(model.links().size(), s * l + l * h);
  for (const topo::SwitchSpec& sw : model.switches()) {
    const std::size_t degree = degree_of(model, model.require(sw.name));
    if (sw.name.rfind("sp", 0) == 0) {
      EXPECT_EQ(degree, l) << sw.name;  // one link per leaf
    } else {
      EXPECT_EQ(degree, s + h) << sw.name;  // every spine + its hosts
    }
  }
}

TEST(LeafSpine, EveryHostPairIsTwoSwitchHopsApartOnDifferentLeaves) {
  const SystemModel model = topo::build_model(TopologySpec::leaf_spine(2, 3, 2));
  const EntityId src = model.require(model.hosts().front().name);  // leaf 0
  const EntityId dst = model.require(model.hosts().back().name);   // leaf 2
  const auto path = model.shortest_path(src, dst);
  ASSERT_EQ(path.size(), 3u);  // leaf -> spine -> leaf
  EXPECT_EQ(model.name_of(path[1].sw).rfind("sp", 0), 0u);
}

TEST(LeafSpine, RejectsDegenerateShapes) {
  EXPECT_THROW(topo::build_model(TopologySpec::leaf_spine(0, 4, 4)), std::invalid_argument);
  EXPECT_THROW(topo::build_model(TopologySpec::leaf_spine(2, 0, 4)), std::invalid_argument);
  EXPECT_THROW(topo::build_model(TopologySpec::leaf_spine(2, 1, 1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Uniqueness invariants (both generator families).
// ---------------------------------------------------------------------------

void expect_unique_identity(const SystemModel& model) {
  std::set<std::uint64_t> dpids;
  for (const topo::SwitchSpec& sw : model.switches()) {
    EXPECT_TRUE(dpids.insert(sw.dpid).second) << "duplicate dpid in " << sw.name;
  }
  std::set<std::uint64_t> macs;
  std::set<std::uint32_t> ips;
  for (const topo::HostSpec& host : model.hosts()) {
    EXPECT_TRUE(macs.insert(host.mac.to_u64()).second) << "duplicate MAC on " << host.name;
    EXPECT_TRUE(ips.insert(host.ip.value).second) << "duplicate IP on " << host.name;
  }
}

TEST(Generators, AddressesAndDpidsAreUnique) {
  expect_unique_identity(topo::build_model(TopologySpec::enterprise()));
  expect_unique_identity(topo::build_model(TopologySpec::fat_tree(6)));
  expect_unique_identity(topo::build_model(TopologySpec::leaf_spine(4, 6, 8)));
}

TEST(Generators, EveryHostHasAControlConnectedAttachment) {
  const SystemModel model = topo::build_model(TopologySpec::fat_tree(4));
  ASSERT_FALSE(model.controllers().empty());
  const EntityId controller = model.require(model.controllers().front().name);
  for (const topo::HostSpec& host : model.hosts()) {
    const auto [sw, port] = model.attachment_of(model.require(host.name));
    EXPECT_EQ(sw.kind, EntityKind::Switch) << host.name;
    EXPECT_TRUE(model.has_control_connection({controller, sw})) << host.name;
    (void)port;
  }
}

TEST(Generators, BuildIsDeterministic) {
  const SystemModel a = topo::build_model(TopologySpec::fat_tree(4));
  const SystemModel b = topo::build_model(TopologySpec::fat_tree(4));
  ASSERT_EQ(a.switches().size(), b.switches().size());
  for (std::size_t i = 0; i < a.switches().size(); ++i) {
    EXPECT_EQ(a.switches()[i].name, b.switches()[i].name);
    EXPECT_EQ(a.switches()[i].dpid, b.switches()[i].dpid);
  }
  ASSERT_EQ(a.hosts().size(), b.hosts().size());
  for (std::size_t i = 0; i < a.hosts().size(); ++i) {
    EXPECT_EQ(a.hosts()[i].name, b.hosts()[i].name);
    EXPECT_EQ(a.hosts()[i].ip, b.hosts()[i].ip);
    EXPECT_EQ(a.hosts()[i].mac, b.hosts()[i].mac);
  }
}

// ---------------------------------------------------------------------------
// Spec ids.
// ---------------------------------------------------------------------------

TEST(TopologySpecJson, IdsAreStableSlugs) {
  EXPECT_EQ(TopologySpec::enterprise().id(), "enterprise");
  EXPECT_EQ(TopologySpec::fat_tree(8).id(), "fat-tree/k8");
  EXPECT_EQ(TopologySpec::leaf_spine(2, 4, 4).id(), "leaf-spine/2x4x4");
}

// ---------------------------------------------------------------------------
// Enterprise spec == the hand-wired DSN'17 model.
// ---------------------------------------------------------------------------

TEST(EnterpriseSpec, ReproducesTheHandWiredModel) {
  const SystemModel generated = topo::build_model(TopologySpec::enterprise());
  const SystemModel wired = scenario::make_enterprise_model();
  ASSERT_EQ(generated.switches().size(), wired.switches().size());
  for (std::size_t i = 0; i < wired.switches().size(); ++i) {
    EXPECT_EQ(generated.switches()[i].name, wired.switches()[i].name);
    EXPECT_EQ(generated.switches()[i].dpid, wired.switches()[i].dpid);
    EXPECT_EQ(generated.switches()[i].num_ports, wired.switches()[i].num_ports);
  }
  ASSERT_EQ(generated.hosts().size(), wired.hosts().size());
  for (std::size_t i = 0; i < wired.hosts().size(); ++i) {
    EXPECT_EQ(generated.hosts()[i].name, wired.hosts()[i].name);
    EXPECT_EQ(generated.hosts()[i].ip, wired.hosts()[i].ip);
    EXPECT_EQ(generated.hosts()[i].mac, wired.hosts()[i].mac);
  }
  EXPECT_EQ(generated.links().size(), wired.links().size());
  EXPECT_EQ(generated.control_connections().size(), wired.control_connections().size());
}

TEST(EnterpriseSpec, ChokepointFailModeTargetsS2) {
  BuildOptions options;
  options.chokepoint_fail_secure = true;
  const SystemModel model = topo::build_model(TopologySpec::enterprise(), options);
  for (const topo::SwitchSpec& sw : model.switches()) {
    EXPECT_EQ(sw.fail_secure, sw.name == "s2") << sw.name;
  }
}

// ---------------------------------------------------------------------------
// Large-scale builds (gated: ~100k hosts takes seconds and real memory).
// ---------------------------------------------------------------------------

TEST(GeneratorsSlow, HundredThousandHostFabricValidates) {
  if (!slow_tests_enabled()) {
    GTEST_SKIP() << "set ATTAIN_SLOW_TESTS=1 to run the 100k-host build";
  }
  const TopologySpec spec = TopologySpec::leaf_spine(400, 1600, 64);  // 102400 hosts
  const SystemModel model = topo::build_model(spec);
  EXPECT_EQ(model.hosts().size(), 102400u);
  EXPECT_EQ(model.switches().size(), 2000u);
  // The address indexes answer at this scale.
  const topo::HostSpec& last = model.hosts().back();
  const auto found = model.host_by_ip(last.ip);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(model.name_of(*found), last.name);
}

}  // namespace
}  // namespace attain
