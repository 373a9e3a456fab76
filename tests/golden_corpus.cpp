#include "golden_corpus.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/experiment.hpp"
#include "topo/generators.hpp"
#include "volumetric_example_grid.hpp"

namespace attain::golden {

namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::GridBuilder;
using scenario::RunSpec;
using scenario::VolumetricKind;

// Fat-tree(4) POX PACKET_IN flood + slow-rate, 32 flows per edge switch.
std::vector<RunSpec> fat_tree_flood_slow_rate() {
  return GridBuilder()
      .volumetric(VolumetricKind::PacketInFlood)
      .volumetric(VolumetricKind::SlowRate)
      .controllers({ControllerKind::Pox})
      .topology(topo::TopologySpec::fat_tree(4))
      .flood(/*flows=*/32, /*duration=*/2 * kSecond, /*batch=*/500 * kMillisecond)
      .build();
}

// Floodlight against 64-entry flow tables: the TABLE_FULL error path.
std::vector<RunSpec> table_overflow() {
  return GridBuilder()
      .volumetric(VolumetricKind::TableOverflow)
      .controllers({ControllerKind::Floodlight})
      .topology(topo::TopologySpec::fat_tree(4))
      .flood(/*flows=*/32, /*duration=*/2 * kSecond, /*batch=*/500 * kMillisecond)
      .table_capacity(64)
      .build();
}

// One armed POX suppression cell: drives the injector's executor, so it
// pins the guard-skip plan's counters (messages_interposed,
// rules_skipped_by_guard, MessageForwarded tallies).
std::vector<RunSpec> armed_suppression() {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = ControllerKind::Pox;
  spec.attack_enabled = true;
  spec.ping_trials = 2;
  spec.iperf_trials = 0;
  return {spec};
}

// bench_batch_pipeline's whole cell: fat-tree(4) POX flood, 64 flows.
std::vector<RunSpec> pipeline_cell() {
  RunSpec spec;
  spec.experiment = ExperimentKind::Volumetric;
  spec.volumetric = VolumetricKind::PacketInFlood;
  spec.controller = ControllerKind::Pox;
  spec.topology = topo::TopologySpec::fat_tree(4);
  spec.flood_flows = 64;
  spec.flood_duration = 2 * kSecond;
  spec.flood_batch = 500 * kMillisecond;
  return {spec};
}

// A loop-free fabric where forwarding works: the baseline loses no probe
// and the attack injects 4 edge switches x 64 flows = 256 frames.
std::vector<RunSpec> leaf_spine_flood() {
  return GridBuilder()
      .volumetric(VolumetricKind::PacketInFlood)
      .controllers({ControllerKind::Pox})
      .topology(topo::TopologySpec::leaf_spine(1, 4, 4))
      .flood(/*flows=*/64, /*duration=*/2 * kSecond, /*batch=*/500 * kMillisecond)
      .build();
}

}  // namespace

const std::vector<Document>& documents() {
  static const std::vector<Document> kDocuments = {
      {"table2", [] { return scenario::table2_grid(); }},
      {"fig11", [] { return scenario::fig11_grid(); }},
      {"fig11_campaign", [] { return scenario::fig11_campaign_grid(); }},
      {"fat_tree_flood_slow_rate", fat_tree_flood_slow_rate},
      {"table_overflow", table_overflow},
      {"armed_suppression", armed_suppression},
      {"pipeline_cell", pipeline_cell},
      {"leaf_spine_flood", leaf_spine_flood},
      {"sweep_volumetric", examples::volumetric_example_grid},
  };
  return kDocuments;
}

const Document& document(const std::string& name) {
  for (const Document& doc : documents()) {
    if (doc.name == name) return doc;
  }
  throw std::out_of_range("no golden document named " + name);
}

std::string results_text(const sweep::SweepReport& report) {
  return report.results_json() + "\n";
}

std::string digest_text(const sweep::SweepReport& report) {
  std::string out;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const sweep::CellOutcome& cell = report.cells[i];
    char digest[17] = "-";
    if (cell.result != nullptr) {
      std::snprintf(digest, sizeof digest, "%016" PRIx64, scenario::result_digest(*cell.result));
    }
    out += std::to_string(i) + " " + cell.spec.id() + " " + digest + "\n";
  }
  return out;
}

std::string table_text(const sweep::SweepReport& report) {
  std::vector<const scenario::RunResult*> results;
  for (const sweep::CellOutcome& cell : report.cells) results.push_back(cell.result.get());
  return scenario::render_results_table(results);
}

std::string default_dir() { return ATTAIN_GOLDEN_DIR; }

std::string json_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".json";
}

std::string digests_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".digests";
}

std::string table_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".table";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace attain::golden
