#include "core/crc32.hpp"
#include "core/event_io.hpp"
#include "dsp/types.hpp"
#include "fault/file_io.hpp"
#include "store/segment.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <stdexcept>
#include <string>

namespace datc::store {
namespace {

using core::kEventRecordBytes;

// Header layout (little-endian, 64 bytes):
//   0  char[8]  magic "DATCSEG1"
//   8  u32      flags (bit 0: finalized)
//   12 u32      decimation
//   16 u64      seqno
//   24 u64      count (kOpenSegmentCount while the writer is appending)
//   32 f64      t_min
//   40 f64      t_max
//   48 u64      channel_bitmap
//   56 u32      payload_crc32
//   60 u32      reserved (0)
constexpr std::uint32_t kFlagFinalized = 1u;

void encode_header(const SegmentHeader& h,
                   unsigned char out[kSegmentHeaderBytes]) {
  std::memset(out, 0, kSegmentHeaderBytes);
  std::memcpy(out, kSegmentMagic, sizeof(kSegmentMagic));
  const std::uint32_t flags = h.finalized ? kFlagFinalized : 0u;
  std::memcpy(out + 8, &flags, 4);
  std::memcpy(out + 12, &h.decimation, 4);
  std::memcpy(out + 16, &h.seqno, 8);
  std::memcpy(out + 24, &h.count, 8);
  std::memcpy(out + 32, &h.t_min, 8);
  std::memcpy(out + 40, &h.t_max, 8);
  std::memcpy(out + 48, &h.channel_bitmap, 8);
  std::memcpy(out + 56, &h.payload_crc32, 4);
}

SegmentHeader decode_header(const unsigned char in[kSegmentHeaderBytes],
                            const std::string& path) {
  dsp::require(std::memcmp(in, kSegmentMagic, sizeof(kSegmentMagic)) == 0,
               "segment " + path + ": bad magic");
  SegmentHeader h;
  std::uint32_t flags = 0;
  std::memcpy(&flags, in + 8, 4);
  h.finalized = (flags & kFlagFinalized) != 0;
  std::memcpy(&h.decimation, in + 12, 4);
  std::memcpy(&h.seqno, in + 16, 8);
  std::memcpy(&h.count, in + 24, 8);
  std::memcpy(&h.t_min, in + 32, 8);
  std::memcpy(&h.t_max, in + 40, 8);
  std::memcpy(&h.channel_bitmap, in + 48, 8);
  std::memcpy(&h.payload_crc32, in + 56, 4);
  dsp::require(h.decimation >= 1, "segment " + path + ": zero decimation");
  return h;
}

std::uint64_t bitmap_bit(std::uint16_t channel) {
  return std::uint64_t{1} << (channel % 64);
}

/// Scans the payload of a possibly crash-truncated segment: returns the
/// longest prefix of whole, time-monotone records and fills `out` with
/// the bounds/bitmap/CRC of that prefix.
std::uint64_t scan_valid_prefix(std::istream& is, std::uint64_t max_records,
                                SegmentHeader& out) {
  core::Crc32 crc;
  std::uint64_t valid = 0;
  Real last_t = 0.0;
  unsigned char record[kEventRecordBytes];
  out.count = 0;
  out.channel_bitmap = 0;
  while (valid < max_records) {
    is.read(reinterpret_cast<char*>(record), sizeof(record));
    if (static_cast<std::size_t>(is.gcount()) != sizeof(record)) break;
    const Event e = core::decode_event_record(record);
    // Torn tail: stop at the first record that is not a finite,
    // monotone time. Garbage bytes can decode to NaN, which would sail
    // through a plain `< last_t` check and poison the header bounds.
    if (!std::isfinite(e.time_s)) break;
    if (valid > 0 && e.time_s < last_t) break;
    crc.update(record, sizeof(record));
    if (valid == 0) out.t_min = e.time_s;
    out.t_max = e.time_s;
    out.channel_bitmap |= bitmap_bit(e.channel);
    last_t = e.time_s;
    ++valid;
  }
  out.count = valid;
  out.payload_crc32 = crc.value();
  return valid;
}

/// Reads one record or throws naming `path`. Runs per record, so the
/// message is composed only on a short read.
void read_record_bytes(std::istream& is,
                       unsigned char (&record)[core::kEventRecordBytes],
                       const std::string& path) {
  is.read(reinterpret_cast<char*>(record), sizeof(record));
  if (static_cast<std::size_t>(is.gcount()) != sizeof(record)) {
    throw std::invalid_argument("SegmentReader: short read in " + path);
  }
}

}  // namespace

bool segment_may_have_channel(const SegmentHeader& header,
                              std::uint16_t channel) {
  return (header.channel_bitmap & bitmap_bit(channel)) != 0;
}

// ----------------------------------------------------------- SegmentWriter

SegmentWriter::SegmentWriter(const std::string& path, std::uint64_t seqno,
                             std::uint32_t decimation, fault::FileIo* io) {
  dsp::require(decimation >= 1, "SegmentWriter: decimation must be >= 1");
  path_ = path;
  file_ = (io != nullptr ? *io : fault::real_file_io()).create(path);
  header_.seqno = seqno;
  header_.decimation = decimation;
  header_.count = 0;
  // On-disk header says "open": sentinel count, not finalized. The
  // in-memory header_ tracks the real running values.
  SegmentHeader open = header_;
  open.count = kOpenSegmentCount;
  unsigned char buf[kSegmentHeaderBytes];
  encode_header(open, buf);
  file_->pwrite(0, buf, sizeof(buf));
}

SegmentWriter::~SegmentWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructor must not throw; an unfinalized file is recoverable.
  }
}

void SegmentWriter::append(const Event& e) {
  dsp::require(open_, "SegmentWriter: append after finalize");
  dsp::require(std::isfinite(e.time_s),
               "SegmentWriter: event time must be finite");
  dsp::require(header_.count == 0 || e.time_s >= header_.t_max,
               "SegmentWriter: events must arrive in non-decreasing time "
               "order");
  unsigned char record[core::kEventRecordBytes];
  core::encode_event_record(e, record);
  // Positional write at the record's fixed offset, state updated only on
  // success: a failed (possibly torn) write leaves count/bounds/CRC
  // untouched, and the retry overwrites the same bytes.
  file_->pwrite(kSegmentHeaderBytes + header_.count * kEventRecordBytes,
                record, sizeof(record));
  crc_.update(record, sizeof(record));
  if (header_.count == 0) header_.t_min = e.time_s;
  header_.t_max = e.time_s;
  header_.channel_bitmap |= bitmap_bit(e.channel);
  ++header_.count;
}

void SegmentWriter::finalize() {
  if (!open_) return;
  SegmentHeader final_header = header_;
  final_header.finalized = true;
  final_header.payload_crc32 = crc_.value();
  unsigned char buf[kSegmentHeaderBytes];
  encode_header(final_header, buf);
  file_->pwrite(0, buf, sizeof(buf));
  file_->sync();
  file_->close();
  // Mark closed only after everything succeeded, so a transient header
  // write or sync failure leaves the writer open and finalize retryable.
  header_ = final_header;
  open_ = false;
}

// ----------------------------------------------------------- SegmentReader

SegmentReader::SegmentReader(const std::string& path)
    : path_(path), file_(path, std::ios::binary) {
  dsp::require(file_.good(), "SegmentReader: cannot open " + path);
  unsigned char buf[kSegmentHeaderBytes];
  file_.read(reinterpret_cast<char*>(buf), sizeof(buf));
  dsp::require(static_cast<std::size_t>(file_.gcount()) == sizeof(buf),
               "SegmentReader: truncated header in " + path);
  header_ = decode_header(buf, path);
  if (!header_.finalized || header_.count == kOpenSegmentCount) {
    // Crash tail: reconstruct the valid prefix in memory (read-only —
    // recover_segment() is the repairing variant).
    header_.finalized = false;
    const std::uint64_t max_records =
        (std::filesystem::file_size(path) - kSegmentHeaderBytes) /
        core::kEventRecordBytes;
    scan_valid_prefix(file_, max_records, header_);
    file_.clear();
  } else {
    const auto payload_bytes =
        std::filesystem::file_size(path) - kSegmentHeaderBytes;
    dsp::require(payload_bytes / core::kEventRecordBytes >= header_.count,
                 "SegmentReader: " + path +
                     " payload shorter than its header count (corrupt)");
  }
}

Event SegmentReader::read_record(std::uint64_t index) {
  dsp::require(index < header_.count,
               "SegmentReader: record index out of range");
  file_.seekg(static_cast<std::streamoff>(
      kSegmentHeaderBytes + index * core::kEventRecordBytes));
  unsigned char record[core::kEventRecordBytes];
  read_record_bytes(file_, record, path_);
  return core::decode_event_record(record);
}

std::uint64_t SegmentReader::lower_bound(Real t) {
  std::uint64_t lo = 0;
  std::uint64_t hi = header_.count;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (read_record(mid).time_s < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void SegmentReader::query(Real t_lo, Real t_hi,
                          std::optional<std::uint16_t> channel,
                          EventStream& out) {
  if (header_.count == 0 || t_hi <= t_lo) return;
  if (t_lo > header_.t_max || t_hi <= header_.t_min) return;
  if (channel && !segment_may_have_channel(header_, *channel)) return;
  const std::uint64_t first = lower_bound(t_lo);
  if (first >= header_.count) return;
  // Sequential scan from the lower bound; records are contiguous, so one
  // seek serves the whole range.
  file_.seekg(static_cast<std::streamoff>(
      kSegmentHeaderBytes + first * core::kEventRecordBytes));
  unsigned char record[core::kEventRecordBytes];
  for (std::uint64_t i = first; i < header_.count; ++i) {
    read_record_bytes(file_, record, path_);
    const Event e = core::decode_event_record(record);
    if (!(e.time_s < t_hi)) break;
    if (!channel || e.channel == *channel) {
      out.add(e.time_s, e.vth_code, e.channel);
    }
  }
}

EventStream SegmentReader::read_all() {
  file_.clear();
  file_.seekg(kSegmentHeaderBytes);
  EventStream out;
  out.reserve(static_cast<std::size_t>(header_.count));
  core::Crc32 crc;
  unsigned char record[core::kEventRecordBytes];
  for (std::uint64_t i = 0; i < header_.count; ++i) {
    read_record_bytes(file_, record, path_);
    crc.update(record, sizeof(record));
    const Event e = core::decode_event_record(record);
    out.add(e.time_s, e.vth_code, e.channel);
  }
  if (header_.finalized) {
    dsp::require(crc.value() == header_.payload_crc32,
                 "SegmentReader: payload CRC mismatch in " + path_);
  }
  return out;
}

bool SegmentReader::verify() {
  file_.clear();
  file_.seekg(kSegmentHeaderBytes);
  core::Crc32 crc;
  unsigned char record[core::kEventRecordBytes];
  for (std::uint64_t i = 0; i < header_.count; ++i) {
    file_.read(reinterpret_cast<char*>(record), sizeof(record));
    if (static_cast<std::size_t>(file_.gcount()) != sizeof(record)) {
      return false;
    }
    crc.update(record, sizeof(record));
  }
  return !header_.finalized || crc.value() == header_.payload_crc32;
}

// ---------------------------------------------------------------- recovery

std::uint64_t recover_segment(const std::string& path) {
  SegmentHeader recovered;
  {
    std::ifstream in(path, std::ios::binary);
    dsp::require(in.good(), "recover_segment: cannot open " + path);
    unsigned char buf[kSegmentHeaderBytes];
    in.read(reinterpret_cast<char*>(buf), sizeof(buf));
    dsp::require(static_cast<std::size_t>(in.gcount()) == sizeof(buf),
                 "recover_segment: truncated header in " + path);
    const SegmentHeader on_disk = decode_header(buf, path);
    if (on_disk.finalized && on_disk.count != kOpenSegmentCount) {
      return on_disk.count;  // clean shutdown: nothing to repair
    }
    recovered = on_disk;
    recovered.finalized = false;
    const std::uint64_t max_records =
        (std::filesystem::file_size(path) - kSegmentHeaderBytes) /
        core::kEventRecordBytes;
    scan_valid_prefix(in, max_records, recovered);
  }
  // Truncate the torn tail, then persist the now-exact header.
  std::filesystem::resize_file(
      path, kSegmentHeaderBytes +
                recovered.count * core::kEventRecordBytes);
  recovered.finalized = true;
  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  dsp::require(out.good(), "recover_segment: cannot reopen " + path);
  unsigned char buf[kSegmentHeaderBytes];
  encode_header(recovered, buf);
  out.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  out.flush();
  dsp::require(out.good(), "recover_segment: header rewrite failed on " +
                               path);
  return recovered.count;
}

}  // namespace datc::store
