// Minimal command-line flag parsing for bench / example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Unknown flags raise an error so typos in experiment scripts fail loudly
// instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rnt {

/// Parsed command-line flags.  Construct from argc/argv, then read typed
/// values with defaults.  Every flag that the binary understands must be
/// declared through one of the typed getters; finish() then rejects any
/// flag the user passed that was never consumed.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// Typed getters.  Each records the flag as "known".
  std::string get_string(const std::string& name, std::string def);
  std::int64_t get_int(const std::string& name, std::int64_t def);
  /// get_int narrowed by to_count: negative values are rejected.
  std::size_t get_count(const std::string& name, std::size_t def);
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def);

  /// Throws std::invalid_argument if any provided flag was never read.
  void finish() const;

  /// Name of the binary (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

/// Narrows a count read from a flag or request parameter.  A negative
/// value throws std::invalid_argument naming `name`: a plain cast would
/// wrap -1 to 2^64-1 and turn a scenario loop into an endless one.
std::size_t to_count(std::int64_t value, const std::string& name);

}  // namespace rnt
