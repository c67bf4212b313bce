// Minimal argument parsing for the cfs command-line tool: positional
// arguments plus --key=value / --flag options, with typed accessors and
// unknown-option detection.  Each option may be given once.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace cfs::cli {

class Args {
 public:
  /// Throws on an option given twice: no reading of a repeat is the
  /// obvious one.
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const std::size_t eq = a.find('=');
        const std::string_view key =
            a.substr(2, eq == a.npos ? a.npos : eq - 2);
        if (has(key)) {
          throw Error("option --" + std::string(key) + " given more than once");
        }
        opts_.emplace_back(std::string(key),
                           eq == a.npos ? "" : std::string(a.substr(eq + 1)));
      } else {
        positional_.emplace_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(std::string_view key) const {
    for (const auto& [k, v] : opts_) {
      if (k == key) return true;
    }
    return false;
  }

  std::string get(std::string_view key, std::string def = "") const {
    for (const auto& [k, v] : opts_) {
      if (k == key) return v;
    }
    return def;
  }

  /// --key as an unsigned integer of type T, or `def` when absent or empty.
  /// Decimal digits only -- no sign, space or suffix -- and the value must
  /// fit T (the field it lands in); anything else throws, naming the
  /// option.
  template <typename T = std::uint64_t>
  T get_uint(std::string_view key, std::type_identity_t<T> def) const {
    static_assert(std::is_unsigned_v<T>);
    const std::string v = get(key);
    if (v.empty()) return def;
    T out = 0;
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, out);
    if (ec != std::errc{} || end != last) {
      throw Error("option --" + std::string(key) +
                  " expects a whole number from 0 to " +
                  std::to_string(std::numeric_limits<T>::max()) + ", got '" +
                  v + "'");
    }
    return out;
  }

  /// Throw on options outside the allowed set (typo protection).
  void allow_only(std::initializer_list<std::string_view> keys) const {
    for (const auto& [k, v] : opts_) {
      bool ok = false;
      for (std::string_view key : keys) ok |= k == key;
      if (!ok) throw Error("unknown option --" + k);
    }
  }

 private:
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> opts_;
};

}  // namespace cfs::cli
