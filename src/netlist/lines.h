// The line scanner both netlist front ends read their text with: the
// SPICE parser (parse_collect) and the gate-level design parser
// (audit::parse_design).  It walks a view of the caller's text and
// hands out views of its lines, so no front end copies the text or
// allocates per line.
//
// Lines follow std::getline: they split at '\n', a '\r' stays in the
// line (each grammar treats it as whitespace), a trailing '\n' yields
// no extra empty line, and empty text has no lines.  Token splitting is
// left to each grammar -- the SPICE cards also split on '(' ')' ','
// and have ';' and '+' rules the design cards do not.
#pragma once

#include <cstddef>
#include <string_view>

namespace awesim::netlist {

class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  /// The next line, without its '\n'; false once the text is used up.
  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t end = text_.find('\n', pos_);
    const std::size_t stop = end == std::string_view::npos ? text_.size() : end;
    line = text_.substr(pos_, stop - pos_);
    pos_ = stop + 1;
    ++number_;
    return true;
  }

  /// 1-based number of the line `next` returned last (0 before it).
  std::size_t number() const { return number_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t number_ = 0;
};

}  // namespace awesim::netlist
