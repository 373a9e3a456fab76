// Append-only resumable campaign journal: the crash-durable record of
// which cells of a campaign have completed, carrying each cell's full
// outcome (status, attempts, error, binary result) plus content digests so
// a torn or corrupted tail is detected and dropped instead of trusted.
//
// File layout (all integers big-endian, via sealed snap::wire frames):
//
//   header frame:  u32 'ATJL' | u8 version | u64 campaign_digest
//                  | u32 cell_count | u64 fnv1a64(preceding body bytes)
//   record frame:  cell-outcome record (sweep::write_outcome)
//                  | u64 result_digest | u64 fnv1a64(preceding body bytes)
//
// The campaign digest (scenario::grid_digest) binds the journal to one
// exact grid: resuming against a different grid throws instead of
// silently completing the wrong campaign. A record whose frame is short,
// whose trailing digest mismatches, whose body does not decode (unknown
// status, controller or volumetric byte, an element count larger than
// the record) or whose result digest mismatches ends the load —
// everything before it is kept, the file is truncated to the last intact
// record, and the affected cells simply re-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace attain::sweep {

class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal();
  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal& operator=(CampaignJournal&& other) noexcept;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Creates (truncating) `path` and writes the campaign header. Throws
  /// std::runtime_error when the file cannot be created.
  static CampaignJournal create(const std::string& path, std::uint64_t campaign_digest,
                                std::size_t cell_count);

  /// Opens an existing journal, validates its header against the campaign
  /// digest and cell count (throws std::runtime_error on mismatch or an
  /// unreadable header), loads every intact record into `loaded`, truncates
  /// any torn/corrupt tail, and positions the journal for append.
  static CampaignJournal resume(const std::string& path, std::uint64_t campaign_digest,
                                std::size_t cell_count, std::vector<OutcomeRecord>& loaded);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends one completed cell's record. Returns false without writing
  /// when the outcome's result is not binary-serializable (custom result
  /// types) — such a cell is simply re-run on resume.
  bool append(std::size_t cell_index, const CellOutcome& outcome);

  void close();

 private:
  int fd_{-1};
  std::string path_;
};

}  // namespace attain::sweep
