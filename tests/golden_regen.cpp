// Regenerates the golden corpus (tests/golden/): runs each document's grid
// cold on one thread and overwrites its .json, .digests and .table files.
//
//   golden_regen [--dir <path>] [name...]
//
// With no names every document is rewritten. A plain ctest run never
// regenerates; every use of this command is recorded in CHANGES.md with
// the reason the bytes changed (see tests/golden/README.md).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "golden_corpus.hpp"
#include "sweep/sweep.hpp"

using namespace attain;

int main(int argc, char** argv) {
  std::string dir = golden::default_dir();
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: %s [--dir <path>] [name...]\n", argv[0]);
      return 2;
    } else {
      names.emplace_back(argv[i]);
    }
  }
  if (names.empty()) {
    for (const golden::Document& doc : golden::documents()) names.push_back(doc.name);
  }

  for (const std::string& name : names) {
    const golden::Document* doc = nullptr;
    try {
      doc = &golden::document(name);
    } catch (const std::out_of_range& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    sweep::SweepOptions options;
    options.threads = 1;  // the reference execution: cold, one thread
    const sweep::SweepReport report = sweep::SweepRunner(options).run(doc->grid());
    if (report.failed() != 0) {
      std::fprintf(stderr, "%s: %zu cell(s) failed; nothing written\n", name.c_str(),
                   report.failed());
      return 1;
    }
    const std::string json = golden::json_path(dir, name);
    const std::string digests = golden::digests_path(dir, name);
    const std::string table = golden::table_path(dir, name);
    if (!golden::write_file(json, golden::results_text(report)) ||
        !golden::write_file(digests, golden::digest_text(report)) ||
        !golden::write_file(table, golden::table_text(report))) {
      std::fprintf(stderr, "%s: cannot write under %s\n", name.c_str(), dir.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu cells), %s and %s\n", json.c_str(), report.cells.size(),
                digests.c_str(), table.c_str());
  }
  return 0;
}
