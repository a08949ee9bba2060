#include "util/args.hpp"

#include <cctype>
#include <charconv>
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
  DPML_CHECK_MSG(!text.empty(), "empty size");
  std::size_t mult = 1;
  std::string digits = text;
  const char suffix =
      static_cast<char>(std::toupper(static_cast<unsigned char>(text.back())));
  if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
    mult = suffix == 'K' ? (1ull << 10)
                         : suffix == 'M' ? (1ull << 20) : (1ull << 30);
    digits.pop_back();
  }
  DPML_CHECK_MSG(!digits.empty(), "bad size: " + text);
  return std::stoull(digits) * mult;
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
  DPML_CHECK_MSG(parts.size() == 2 || parts.size() == 3,
                 "size range must be lo:hi[:factor]: " + text);
  const std::size_t lo = parse_bytes(parts[0]);
  const std::size_t hi = parse_bytes(parts[1]);
  const std::size_t factor =
      parts.size() == 3 ? std::stoull(parts[2]) : 4;
  DPML_CHECK_MSG(lo >= 1 && hi >= lo && factor >= 2, "bad size range: " + text);
  std::vector<std::size_t> out;
  for (std::size_t b = lo; b <= hi; b *= factor) out.push_back(b);
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
