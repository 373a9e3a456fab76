// The golden corpus: the grids whose deterministic results are committed
// under tests/golden/. Each document is stored three ways:
//
//   <name>.json     SweepReport::results_json() of a 1-thread cold sweep
//   <name>.digests  one "<index> <cell id> <result_digest hex>" line per
//                   cell, pinning the save_result binary that snapshots,
//                   distributed workers and the campaign journal ship
//   <name>.table    render_results_table() over the cells' results, the
//                   text table the sweep examples and benches print
//
// test_golden.cpp regenerates every document and byte-compares it with the
// committed files; golden_regen.cpp is the only code that writes them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "sweep/sweep.hpp"

namespace attain::golden {

struct Document {
  /// File stem under tests/golden/.
  std::string name;
  std::function<std::vector<scenario::RunSpec>()> grid;
};

/// Every document of the corpus, in a fixed order.
const std::vector<Document>& documents();
/// The document named `name`; throws std::out_of_range when there is none.
const Document& document(const std::string& name);

/// The three committed renderings of a report.
std::string results_text(const sweep::SweepReport& report);
std::string digest_text(const sweep::SweepReport& report);
std::string table_text(const sweep::SweepReport& report);

/// Directory holding the committed documents (the source tree's
/// tests/golden, fixed at configure time).
std::string default_dir();
std::string json_path(const std::string& dir, const std::string& name);
std::string digests_path(const std::string& dir, const std::string& name);
std::string table_path(const std::string& dir, const std::string& name);

/// Whole-file read/write; read_file throws std::runtime_error when the
/// file cannot be opened, write_file returns false on any I/O error.
std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);

}  // namespace attain::golden
