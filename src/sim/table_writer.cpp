#include "dsp/types.hpp"
#include "sim/table_writer.hpp"

#include <iomanip>
#include <sstream>

namespace datc::sim {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  dsp::require(!header_.empty(), "Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  dsp::require(cells.size() == header_.size(),
               "Table: row width does not match header");
  rows_.push_back(std::move(cells));
}

std::string Table::num(dsp::Real v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::integer(std::size_t v) { return std::to_string(v); }

std::string Table::to_text() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&os, &width](const std::vector<std::string>& cells) {
    os << "  ";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2)
         << cells[c];
    }
    os << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule += std::string(width[c], '-') + "  ";
  }
  os << "  " << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c ? "," : "") << escape(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "," : "") << escape(row[c]);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace datc::sim
