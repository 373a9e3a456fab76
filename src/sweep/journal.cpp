#include "sweep/journal.hpp"

#include <cstring>
#include <span>
#include <stdexcept>

#include "snap/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ATTAIN_JOURNAL_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace attain::sweep {

namespace {

constexpr std::uint32_t kMagic = 0x41544A4C;  // "ATJL"
constexpr std::uint8_t kVersion = 1;

using snap::wire::seal;
using snap::wire::unseal;

}  // namespace

CampaignJournal::~CampaignJournal() { close(); }

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

CampaignJournal& CampaignJournal::operator=(CampaignJournal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

#if defined(ATTAIN_JOURNAL_POSIX)

void CampaignJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

CampaignJournal CampaignJournal::create(const std::string& path, std::uint64_t campaign_digest,
                                        std::size_t cell_count) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    throw std::runtime_error("CampaignJournal: cannot create " + path + ": " +
                             std::strerror(errno));
  }
  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u64(campaign_digest);
  w.u32(static_cast<std::uint32_t>(cell_count));
  if (!snap::wire::write_frame(fd, seal(std::move(w)))) {
    ::close(fd);
    throw std::runtime_error("CampaignJournal: cannot write header to " + path);
  }
  CampaignJournal journal;
  journal.fd_ = fd;
  journal.path_ = path;
  return journal;
}

CampaignJournal CampaignJournal::resume(const std::string& path, std::uint64_t campaign_digest,
                                        std::size_t cell_count,
                                        std::vector<OutcomeRecord>& loaded) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    throw std::runtime_error("CampaignJournal: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  CampaignJournal journal;
  journal.fd_ = fd;
  journal.path_ = path;

  Bytes payload;
  std::span<const std::uint8_t> body;
  if (snap::wire::read_frame(fd, payload) != snap::wire::FrameStatus::Ok ||
      !unseal(payload, body)) {
    throw std::runtime_error("CampaignJournal: " + path + " has no intact header");
  }
  {
    ByteReader r(body);
    if (r.u32() != kMagic || r.u8() != kVersion) {
      throw std::runtime_error("CampaignJournal: " + path + " is not a campaign journal");
    }
    const std::uint64_t digest = r.u64();
    const std::uint32_t count = r.u32();
    if (digest != campaign_digest || count != cell_count) {
      throw std::runtime_error("CampaignJournal: " + path +
                               " belongs to a different campaign (grid digest/size mismatch)");
    }
  }

  // Load records until EOF or the first torn/corrupt frame; remember the
  // end of the last intact one so the tail can be truncated away.
  off_t good_end = ::lseek(fd, 0, SEEK_CUR);
  for (;;) {
    const snap::wire::FrameStatus status = snap::wire::read_frame(fd, payload);
    if (status != snap::wire::FrameStatus::Ok) break;
    if (!unseal(payload, body)) break;
    try {
      ByteReader r(body);
      OutcomeRecord rec = read_outcome(r);
      const std::uint64_t recorded_digest = r.u64();
      const std::uint64_t actual_digest =
          rec.outcome.result ? scenario::result_digest(*rec.outcome.result) : 0;
      if (recorded_digest != actual_digest || rec.index >= cell_count) break;
      loaded.push_back(std::move(rec));
    } catch (const DecodeError&) {
      break;  // malformed record body: drop it and everything after
    }
    good_end = ::lseek(fd, 0, SEEK_CUR);
  }
  if (::ftruncate(fd, good_end) != 0 || ::lseek(fd, good_end, SEEK_SET) < 0) {
    throw std::runtime_error("CampaignJournal: cannot truncate torn tail of " + path);
  }
  return journal;
}

bool CampaignJournal::append(std::size_t cell_index, const CellOutcome& outcome) {
  if (fd_ < 0) return false;
  ByteWriter w;
  std::size_t result_at = 0;
  try {
    result_at = write_outcome(w, cell_index, outcome);
  } catch (const std::invalid_argument&) {
    return false;  // custom result type: not journalable, re-runs on resume
  }
  // The result bytes just written are what result_digest would re-encode.
  w.u64(outcome.result ? fnv1a64(std::span(w.bytes()).subspan(result_at)) : 0);
  return snap::wire::write_frame(fd_, seal(std::move(w)));
}

#else  // !ATTAIN_JOURNAL_POSIX

void CampaignJournal::close() {}

CampaignJournal CampaignJournal::create(const std::string& path, std::uint64_t, std::size_t) {
  throw std::runtime_error("CampaignJournal: not supported on this platform (" + path + ")");
}

CampaignJournal CampaignJournal::resume(const std::string& path, std::uint64_t, std::size_t,
                                        std::vector<OutcomeRecord>&) {
  throw std::runtime_error("CampaignJournal: not supported on this platform (" + path + ")");
}

bool CampaignJournal::append(std::size_t, const CellOutcome&) { return false; }

#endif

}  // namespace attain::sweep
