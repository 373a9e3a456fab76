#include "sweep/journal.hpp"

#include <bit>
#include <cstring>
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
                                        std::vector<LoadedCell>& loaded) {
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
    LoadedCell cell;
    try {
      ByteReader r(body);
      cell.index = r.u32();
      const std::uint8_t status_byte = r.u8();
      if (status_byte > static_cast<std::uint8_t>(CellStatus::TimedOut)) {
        throw DecodeError("CampaignJournal: unknown cell status " + std::to_string(status_byte));
      }
      cell.outcome.status = static_cast<CellStatus>(status_byte);
      cell.outcome.attempts = r.u32();
      cell.outcome.wall_seconds = std::bit_cast<double>(r.u64());
      const std::uint32_t err_len = r.u32();
      const auto err = r.view(err_len);
      cell.outcome.error.assign(err.begin(), err.end());
      if (r.u8() != 0) cell.outcome.result = scenario::load_result(r);
      const std::uint64_t recorded_digest = r.u64();
      const std::uint64_t actual_digest =
          cell.outcome.result ? scenario::result_digest(*cell.outcome.result) : 0;
      if (recorded_digest != actual_digest) break;
      if (cell.index >= cell_count) break;
    } catch (const std::exception&) {
      break;  // malformed record body: drop it and everything after
    }
    loaded.push_back(std::move(cell));
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
  w.u32(static_cast<std::uint32_t>(cell_index));
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u32(outcome.attempts);
  w.u64(std::bit_cast<std::uint64_t>(outcome.wall_seconds));
  w.u32(static_cast<std::uint32_t>(outcome.error.size()));
  w.raw({reinterpret_cast<const std::uint8_t*>(outcome.error.data()), outcome.error.size()});
  std::uint64_t digest = 0;
  if (outcome.result != nullptr) {
    w.u8(1);
    try {
      scenario::save_result(*outcome.result, w);
      digest = scenario::result_digest(*outcome.result);
    } catch (const std::invalid_argument&) {
      return false;  // custom result type: not journalable, re-runs on resume
    }
  } else {
    w.u8(0);
  }
  w.u64(digest);
  return snap::wire::write_frame(fd_, seal(std::move(w)));
}

#else  // !ATTAIN_JOURNAL_POSIX

void CampaignJournal::close() {}

CampaignJournal CampaignJournal::create(const std::string& path, std::uint64_t, std::size_t) {
  throw std::runtime_error("CampaignJournal: not supported on this platform (" + path + ")");
}

CampaignJournal CampaignJournal::resume(const std::string& path, std::uint64_t, std::size_t,
                                        std::vector<LoadedCell>&) {
  throw std::runtime_error("CampaignJournal: not supported on this platform (" + path + ")");
}

bool CampaignJournal::append(std::size_t, const CellOutcome&) { return false; }

#endif

}  // namespace attain::sweep
