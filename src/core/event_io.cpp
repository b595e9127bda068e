#include "core/event_io.hpp"

#include <algorithm>

#include "core/crc32.hpp"
#include "dsp/types.hpp"
#include <array>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace datc::core {
namespace {

constexpr char kCsvHeader[] = "time_s,vth_code,channel";
// v2 carries a 16-bit channel (AER addresses past 255); v1 files with the
// old 8-bit channel remain readable.
constexpr char kMagicV1[8] = {'D', 'A', 'T', 'C', 'E', 'V', 'T', '1'};
constexpr char kMagicV2[8] = {'D', 'A', 'T', 'C', 'E', 'V', 'T', '2'};
constexpr char kCrcTag[4] = {'C', 'R', 'C', '2'};

/// Reads exactly `n` bytes or throws a truncation error naming `what`,
/// followed by `index` when one is given ("event 6"). The message is
/// composed only on failure: this runs once per field of every record.
void read_exact(std::istream& is, void* out, std::size_t n,
                std::string_view what,
                std::optional<std::uint64_t> index = std::nullopt) {
  is.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n || is.bad()) {
    std::string name(what);
    if (index) name += " " + std::to_string(*index);
    throw std::invalid_argument("read_events_binary: truncated " + name +
                                " (short read: " +
                                std::to_string(is.gcount()) + " of " +
                                std::to_string(n) + " bytes)");
  }
}

}  // namespace

void encode_event_record(const Event& e,
                         unsigned char out[kEventRecordBytes]) {
  std::memcpy(out, &e.time_s, sizeof(e.time_s));
  std::memcpy(out + 8, &e.vth_code, 1);
  std::memcpy(out + 9, &e.channel, 2);
}

Event decode_event_record(const unsigned char in[kEventRecordBytes]) {
  Event e;
  std::memcpy(&e.time_s, in, sizeof(e.time_s));
  std::memcpy(&e.vth_code, in + 8, 1);
  std::memcpy(&e.channel, in + 9, 2);
  return e;
}

void write_events_csv(std::ostream& os, const EventStream& events) {
  os << kCsvHeader << '\n';
  os << std::setprecision(17);
  for (const auto& e : events.events()) {
    os << e.time_s << ',' << static_cast<unsigned>(e.vth_code) << ','
       << static_cast<unsigned>(e.channel) << '\n';
  }
}

bool write_events_csv(const std::string& path, const EventStream& events) {
  std::ofstream f(path);
  if (!f.good()) return false;
  write_events_csv(f, events);
  return f.good();
}

EventStream read_events_csv(std::istream& is) {
  std::string line;
  dsp::require(static_cast<bool>(std::getline(is, line)),
               "read_events_csv: empty stream");
  // Tolerate trailing carriage returns from foreign tools.
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  dsp::require(line == kCsvHeader, "read_events_csv: bad header: " + line);
  EventStream out;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    std::array<std::string, 3> cells;
    std::size_t count = 0;
    // Messages are composed only on failure: these checks run per line.
    while (std::getline(row, cell, ',')) {
      if (count >= 3) {
        throw std::invalid_argument(
            "read_events_csv: too many columns at line " +
            std::to_string(lineno));
      }
      cells[count++] = cell;
    }
    if (count != 3) {
      throw std::invalid_argument(
          "read_events_csv: expected 3 columns at line " +
          std::to_string(lineno));
    }
    try {
      const Real t = std::stod(cells[0]);
      const unsigned long code = std::stoul(cells[1]);
      const unsigned long chan = std::stoul(cells[2]);
      if (code > 255 || chan > 65535) {
        throw std::invalid_argument(
            "read_events_csv: field out of range at line " +
            std::to_string(lineno));
      }
      out.add(t, static_cast<std::uint8_t>(code),
              static_cast<std::uint16_t>(chan));
    } catch (const std::logic_error&) {
      throw std::invalid_argument(
          "read_events_csv: non-numeric field at line " +
          std::to_string(lineno));
    }
  }
  return out;
}

EventStream read_events_csv(const std::string& path) {
  std::ifstream f(path);
  dsp::require(f.good(), "read_events_csv: cannot open " + path);
  return read_events_csv(f);
}

void write_events_binary(std::ostream& os, const EventStream& events) {
  os.write(kMagicV2, sizeof(kMagicV2));
  const std::uint64_t count = events.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  Crc32 crc;
  unsigned char record[kEventRecordBytes];
  for (const auto& e : events.events()) {
    encode_event_record(e, record);
    crc.update(record, sizeof(record));
    os.write(reinterpret_cast<const char*>(record), sizeof(record));
  }
  os.write(kCrcTag, sizeof(kCrcTag));
  const std::uint32_t checksum = crc.value();
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
}

bool write_events_binary(const std::string& path,
                         const EventStream& events) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  write_events_binary(f, events);
  return f.good();
}

EventStream read_events_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  const bool v1 =
      is.good() && std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0;
  const bool v2 =
      is.good() && std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0;
  dsp::require(v1 || v2, "read_events_binary: bad magic");
  std::uint64_t count = 0;
  read_exact(is, &count, sizeof(count), "header count");
  EventStream out;
  // The header carries the exact count; a single allocation serves the
  // whole stream. Clamp the pre-allocation so a corrupt count cannot
  // trigger a huge reserve before the read loop hits EOF.
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, 1u << 22)));
  Crc32 crc;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (v1) {
      Real t = 0.0;
      std::uint8_t code = 0;
      std::uint8_t chan = 0;
      read_exact(is, &t, sizeof(t), "event", i);
      read_exact(is, &code, 1, "event", i);
      read_exact(is, &chan, 1, "event", i);
      out.add(t, code, chan);
    } else {
      unsigned char record[kEventRecordBytes];
      read_exact(is, record, sizeof(record), "event", i);
      crc.update(record, sizeof(record));
      const Event e = decode_event_record(record);
      out.add(e.time_s, e.vth_code, e.channel);
    }
  }
  if (v2) {
    // Optional integrity trailer: absent in checksum-less v2 files (clean
    // EOF right after the last record), verified when present. A partial
    // trailer or a tag mismatch is corruption, not legacy data.
    char tag[sizeof(kCrcTag)];
    is.read(tag, sizeof(tag));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got != 0) {
      dsp::require(got == sizeof(tag) &&
                       std::memcmp(tag, kCrcTag, sizeof(kCrcTag)) == 0,
                   "read_events_binary: bad integrity trailer tag");
      std::uint32_t stored = 0;
      read_exact(is, &stored, sizeof(stored), "integrity trailer");
      dsp::require(stored == crc.value(),
                   "read_events_binary: payload CRC mismatch (stored " +
                       std::to_string(stored) + ", computed " +
                       std::to_string(crc.value()) + ")");
    }
  }
  return out;
}

EventStream read_events_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  dsp::require(f.good(), "read_events_binary: cannot open " + path);
  return read_events_binary(f);
}

void write_events_binary_v1(std::ostream& os, const EventStream& events) {
  for (const auto& e : events.events()) {
    if (e.channel > 255) {
      throw std::invalid_argument(
          "write_events_binary_v1: channel " + std::to_string(e.channel) +
          " does not fit the v1 u8 address field (write v2)");
    }
  }
  os.write(kMagicV1, sizeof(kMagicV1));
  const std::uint64_t count = events.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& e : events.events()) {
    // datc-lint: allow(narrow-channel) — v1's on-disk address field IS u8;
    // the require() above refuses any channel that would truncate.
    const auto chan = static_cast<std::uint8_t>(e.channel);
    os.write(reinterpret_cast<const char*>(&e.time_s), sizeof(e.time_s));
    os.write(reinterpret_cast<const char*>(&e.vth_code), 1);
    os.write(reinterpret_cast<const char*>(&chan), 1);
  }
}

bool write_events_binary_v1(const std::string& path,
                            const EventStream& events) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  write_events_binary_v1(f, events);
  return f.good();
}

}  // namespace datc::core
