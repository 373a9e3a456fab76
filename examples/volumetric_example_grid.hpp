// The default grid of examples/sweep_volumetric, shared with the golden
// corpus (tests/golden/sweep_volumetric.*) so the committed document and
// the example's output always describe the same cells.
#pragma once

#include <vector>

#include "scenario/run.hpp"
#include "topo/generators.hpp"

namespace attain::examples {

/// A small fat-tree and a small leaf-spine, POX only, all three volumetric
/// kinds plus the no-attack baseline per topology. The 128-entry table cap
/// is what makes the overflow cells draw ALL_TABLES_FULL errors.
inline std::vector<scenario::RunSpec> volumetric_example_grid() {
  return scenario::GridBuilder()
      .volumetric(scenario::VolumetricKind::PacketInFlood)
      .volumetric(scenario::VolumetricKind::TableOverflow)
      .volumetric(scenario::VolumetricKind::SlowRate)
      .controllers({scenario::ControllerKind::Pox})
      .topology(topo::TopologySpec::fat_tree(4))
      .topology(topo::TopologySpec::leaf_spine(2, 4, 4))
      .flood(/*flows=*/128, /*duration=*/5 * kSecond, /*batch=*/250 * kMillisecond)
      .table_capacity(128)
      .build();
}

}  // namespace attain::examples
