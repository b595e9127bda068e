#pragma once
// Small text/CSV table formatter used by the benches to print the
// paper-vs-measured rows in a uniform way.

#include <string>
#include <vector>

#include "dsp/types.hpp"

namespace datc::sim {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string num(dsp::Real v, int precision = 2);
  [[nodiscard]] static std::string integer(std::size_t v);

  /// Aligned monospace rendering.
  [[nodiscard]] std::string to_text() const;

  /// RFC-4180-ish CSV rendering.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace datc::sim
