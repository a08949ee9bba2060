#include "util/args.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

#include "util/error.hpp"

namespace dpml::util {

Args::Args(int argc, char** argv) {
  DPML_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& key) const {
  used_[key] = true;
  return flags_.count(key) != 0;
}

std::string Args::get(const std::string& key, const std::string& def) const {
  used_[key] = true;
  auto it = flags_.find(key);
  return it == flags_.end() ? def : it->second;
}

long long Args::get_int(const std::string& key, long long def) const {
  const std::string v = get(key);
  if (v.empty()) return def;
  long long out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw InvariantError("--" + key + " takes an integer, got '" + v + "'");
  }
  return out;
}

long long Args::get_int_at_least(const std::string& key, long long def,
                                 long long min) const {
  const long long v = get_int(key, def);
  if (v < min) {
    throw InvariantError("--" + key + " must be at least " +
                         std::to_string(min) + ", got " + std::to_string(v));
  }
  return v;
}

double Args::get_double(const std::string& key, double def) const {
  const std::string v = get(key);
  return v.empty() ? def : std::stod(v);
}

bool Args::get_bool(const std::string& key, bool def) const {
  const std::string v = get(key);
  if (v.empty()) return def;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string Args::get_file(const std::string& key) const {
  if (!has(key)) return "";
  const std::string v = get(key);
  for (const char* flag : {"", "true", "false", "1", "0", "yes", "no", "on",
                           "off"}) {
    if (v == flag) {
      throw InvariantError("--" + key + " takes a FILE argument, got " +
                           (v.empty() ? std::string("nothing") : "'" + v + "'"));
    }
  }
  return v;
}

std::size_t Args::parse_bytes(const std::string& text) {
  std::size_t mult = 1;
  std::string_view digits = text;
  const char suffix = text.empty() ? '\0'
                                   : static_cast<char>(std::toupper(
                                         static_cast<unsigned char>(text.back())));
  if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
    mult = suffix == 'K' ? (1ull << 10)
                         : suffix == 'M' ? (1ull << 20) : (1ull << 30);
    digits.remove_suffix(1);
  }
  std::size_t v = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (digits.empty() || ec != std::errc() || ptr != end ||
      v > std::numeric_limits<std::size_t>::max() / mult) {
    throw InvariantError("bad size '" + text +
                         "' (want BYTES with an optional K, M or G suffix)");
  }
  return v * mult;
}

std::size_t Args::get_bytes(const std::string& key, std::size_t def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_bytes(v);
}

std::vector<std::size_t> Args::parse_size_range(const std::string& text) {
  std::vector<std::string> parts;
  std::string cur;
  for (char ch : text) {
    if (ch == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  parts.push_back(cur);
  if (parts.size() != 2 && parts.size() != 3) {
    throw InvariantError("size range must be LO:HI[:FACTOR], got '" + text +
                         "'");
  }
  const std::size_t lo = parse_bytes(parts[0]);
  const std::size_t hi = parse_bytes(parts[1]);
  std::size_t factor = 4;
  if (parts.size() == 3) {
    const std::string& f = parts[2];
    const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), factor);
    if (f.empty() || ec != std::errc() || ptr != f.data() + f.size()) {
      throw InvariantError("size range '" + text +
                           "' has a non-integer FACTOR '" + f + "'");
    }
  }
  if (lo < 1 || hi < lo || factor < 2) {
    throw InvariantError("size range '" + text +
                         "' needs 1 <= LO <= HI and FACTOR >= 2");
  }
  std::vector<std::size_t> out;
  for (std::size_t b = lo;; b *= factor) {
    out.push_back(b);
    if (b > hi / factor) break;  // the next step passes hi (or overflows)
  }
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : flags_) {
    (void)v;
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

}  // namespace dpml::util
