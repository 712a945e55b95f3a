// Shared flag parsing for the tools/ CLIs and the bench binaries.
//
// Every binary used to carry its own copy of the next/nextNumber/nextDouble
// lambdas; this header is the single spelling. Error behaviour is part of
// the CLI contract (scripts grep for it): a missing or malformed value
// prints `<tool>: <flag> needs a ...` to stderr and exits with status 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>

namespace ooc::cli {

/// `token` as an unsigned integer, or nullopt unless the whole token is
/// digits that fit: no sign, no space, so "-1" cannot wrap to 2^64-1
/// (the rule compose::parseU64 applies to files).
inline std::optional<std::uint64_t> parseNumber(const std::string& token) {
  std::uint64_t parsed = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return parsed;
}

/// Cursor-style access to flag values in argv. The methods advance `i`
/// past the consumed value, mirroring the loop variable of the usual
/// `for (int i = 1; i < argc; ++i)` dispatch.
class ArgParser {
 public:
  ArgParser(std::string tool, int argc, char** argv)
      : tool_(std::move(tool)), argc_(argc), argv_(argv) {}

  /// The value following flag argv[i], or exit(2) if argv ends first.
  const char* next(int& i) const {
    if (i + 1 >= argc_) {
      std::cerr << tool_ << ": " << argv_[i] << " needs a value\n";
      std::exit(2);
    }
    return argv_[++i];
  }

  /// next(), parsed by parseNumber().
  std::uint64_t nextNumber(int& i) const {
    const char* flag = argv_[i];
    const std::string value = next(i);
    if (const auto parsed = parseNumber(value)) return *parsed;
    std::cerr << tool_ << ": " << flag << " needs a number, got '" << value
              << "'\n";
    std::exit(2);
  }

  /// next(), parsed as a double (the whole token must parse).
  double nextDouble(int& i) const {
    const char* flag = argv_[i];
    const std::string value = next(i);
    try {
      std::size_t consumed = 0;
      const double parsed = std::stod(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      std::cerr << tool_ << ": " << flag << " needs a number, got '" << value
                << "'\n";
      std::exit(2);
    }
  }

 private:
  std::string tool_;
  int argc_;
  char** argv_;
};

}  // namespace ooc::cli
