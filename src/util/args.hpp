// Minimal command-line flag parser for the tools and examples.
//
// Supports "--key value", "--key=value", and bare positional arguments.
// Typed getters with defaults; unknown-flag detection for helpful errors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpml::util {

class Args {
 public:
  Args(int argc, char** argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def = "") const;
  // Throws util::InvariantError naming the flag when the value is not a
  // whole decimal integer (a bare "--key" parses as "true").
  long long get_int(const std::string& key, long long def) const;
  // get_int that also rejects values below `min`, naming the flag.
  long long get_int_at_least(const std::string& key, long long def,
                             long long min) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def = false) const;
  // A flag naming a file: "" when absent. Throws util::InvariantError
  // naming the flag when it is present without a usable name — a bare
  // "--key" parses as the boolean "true", which must not become a file.
  std::string get_file(const std::string& key) const;

  // Parse a byte size with optional K/M/G suffix ("64K" -> 65536). Throws
  // util::InvariantError quoting the text when it is not one.
  static std::size_t parse_bytes(const std::string& text);
  std::size_t get_bytes(const std::string& key, std::size_t def) const;

  // Parse a size range "4:1M[:4]" (lo:hi[:factor]) into a geometric sweep.
  // Throws util::InvariantError quoting the text when it is not one.
  static std::vector<std::size_t> parse_size_range(const std::string& text);

  // Keys that were provided but never queried (typo detection).
  std::vector<std::string> unused() const;

 private:
  std::string program_;
  // Ordered: unused() reports typos in deterministic (sorted) order.
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace dpml::util
