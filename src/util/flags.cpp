#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace rnt {

namespace {

bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` form, unless the next token is another flag or absent,
    // in which case it is a boolean `--name`.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  for (const auto& [name, _] : values_) consumed_[name] = false;
}

std::optional<std::string> Flags::raw(const std::string& name) {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  consumed_[name] = true;
  return it->second;
}

std::string Flags::get_string(const std::string& name, std::string def) {
  auto v = raw(name);
  return v ? *v : def;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) {
  auto v = raw(name);
  return v ? parse_number<std::int64_t>(name, *v) : def;
}

std::size_t Flags::get_count(const std::string& name, std::size_t def) {
  return to_count(get_int(name, static_cast<std::int64_t>(def)), name);
}

double Flags::get_double(const std::string& name, double def) {
  auto v = raw(name);
  return v ? parse_number<double>(name, *v) : def;
}

bool Flags::get_bool(const std::string& name, bool def) {
  auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *v + "'");
}

void Flags::finish() const {
  for (const auto& [name, used] : consumed_) {
    if (!used) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
  }
}

std::size_t to_count(std::int64_t value, const std::string& name) {
  if (value < 0) {
    throw std::invalid_argument(name + " must be non-negative, got " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::invalid_argument(
        name + ": bad value '" + text + "' (want " +
        (std::is_floating_point_v<T> ? "a finite number" : "an integer") +
        ")");
  }
  return value;
}

template std::int64_t parse_number<std::int64_t>(const std::string&,
                                                 const std::string&);
template double parse_number<double>(const std::string&, const std::string&);

}  // namespace rnt
