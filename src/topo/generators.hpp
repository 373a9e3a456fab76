// Parametric topology generators (ROADMAP: enterprise-scale evaluation).
// A TopologySpec is a small value describing *which* network to build —
// the hand-wired DSN'17 enterprise net, a fat-tree(k), or a
// leaf-spine(spines, leaves, hosts/leaf) fabric — and build_model() turns
// it into a validated SystemModel with deterministic names, dpids, and
// host addressing. RunSpec carries a TopologySpec so sweep grids can
// enumerate topology x attack x controller.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "topo/system_model.hpp"

namespace attain::topo {

enum class TopologyKind : std::uint8_t { Enterprise, FatTree, LeafSpine };

std::string to_string(TopologyKind kind);

/// Value-type description of a generated topology. The default-constructed
/// spec is the enterprise network, so existing RunSpecs keep their meaning
/// (and their JSON bytes) without mentioning topology at all.
struct TopologySpec {
  TopologyKind kind{TopologyKind::Enterprise};
  /// Fat-tree arity; even, >= 2. Unused by the other kinds.
  std::uint32_t k{4};
  /// Leaf-spine shape. Unused by the other kinds.
  std::uint32_t spines{2};
  std::uint32_t leaves{4};
  std::uint32_t hosts_per_leaf{4};

  static TopologySpec enterprise();
  static TopologySpec fat_tree(std::uint32_t k);
  static TopologySpec leaf_spine(std::uint32_t spines, std::uint32_t leaves,
                                 std::uint32_t hosts_per_leaf);

  bool is_enterprise() const { return kind == TopologyKind::Enterprise; }

  /// Entity counts implied by the parameters (without building the model).
  /// Fat-tree(k): (k/2)^2 cores + k pods x (k/2 agg + k/2 edge) switches,
  /// k^3/4 hosts, 3k^3/4 links. Leaf-spine: S + L switches, L x H hosts,
  /// S x L fabric links + L x H host links.
  std::size_t switch_count() const;
  std::size_t host_count() const;
  std::size_t link_count() const;

  /// Stable slug used in RunSpec ids and warm-up signatures:
  /// "enterprise", "fat-tree/k4", "leaf-spine/2x4x4".
  std::string id() const;

  /// Throws std::invalid_argument when the parameters are out of range
  /// (odd or tiny fat-tree k, zero-sized leaf-spine axes).
  void check() const;

  void write_json(JsonWriter& out) const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// Fail-mode / TLS knobs applied while building a model from a spec.
struct BuildOptions {
  /// Applied to the topology's chokepoint switch: s2 for the enterprise
  /// net (the Table II knob); generated fabrics have no single chokepoint,
  /// so it applies to the first core/spine switch instead.
  bool chokepoint_fail_secure{false};
  bool others_fail_secure{false};
  bool tls{false};
};

/// Builds and validates the model described by `spec`. Deterministic: the
/// same spec and options always produce an identical model (names, dpids,
/// MACs, link order). The enterprise spec reproduces
/// scenario::make_enterprise_model() exactly.
SystemModel build_model(const TopologySpec& spec, const BuildOptions& options = {});

}  // namespace attain::topo
