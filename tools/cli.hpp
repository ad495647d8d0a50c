// Declared command-line flags for the npdp CLI.
//
// A subcommand declares each flag once — name, type, default, help — by
// binding it to the variable the flag sets: the variable's type is the
// flag's type and its value at declaration time is the default. parse()
// then checks the command line against the declarations before the
// subcommand does any work. An undeclared flag, a positional word, a
// repeated flag, a value flag with no value, a number that does not
// wholly parse or does not fit its variable's type, and a value outside a
// choice list are each a UsageError (the CLI's exit code 3). usage() is
// generated from the same declarations.
#pragma once

#include <algorithm>
#include <charconv>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cellnpdp::cli {

/// Bad command-line arguments: reported with the subcommand's flag list
/// and mapped to exit code 3.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses all of `s` into *out. False when nothing parses, anything is
/// left over, or the value does not fit N ("-1" fails for unsigned N).
template <class N>
bool parse_number(std::string_view s, N* out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

/// Splits "host:port,..." into endpoints of type E, which has members
/// host and port and, optionally, name. Only an E with a name accepts
/// an item's "name=" prefix; the name defaults to "host:port". Empty
/// items are skipped, ports run 1..65535, and an empty list is an error.
template <class E>
std::vector<E> parse_endpoint_list(std::string_view spec,
                                   std::string_view flag) {
  const auto bad = [flag](std::string_view item, const char* what) {
    return UsageError("--" + std::string(flag) + ": '" + std::string(item) +
                      "' " + what);
  };
  std::vector<E> out;
  for (std::size_t pos = 0, comma; pos <= spec.size(); pos = comma + 1) {
    comma = std::min(spec.find(',', pos), spec.size());
    std::string_view item = spec.substr(pos, comma - pos);
    if (item.empty()) continue;
    E ep;
    if (const std::size_t eq = item.find('='); eq != item.npos) {
      if constexpr (requires { ep.name; }) ep.name = item.substr(0, eq);
      else throw bad(item, "is not host:port");
      item.remove_prefix(eq + 1);
    }
    const std::size_t colon = item.rfind(':');
    if (colon == item.npos || colon == 0) throw bad(item, "is not host:port");
    ep.host = item.substr(0, colon);
    if (!parse_number(item.substr(colon + 1), &ep.port) || ep.port == 0)
      throw bad(item, "has no port in 1..65535");
    if constexpr (requires { ep.name; })
      if (ep.name.empty()) ep.name = item;
    out.push_back(std::move(ep));
  }
  if (out.empty()) throw bad(spec, "names no endpoint");
  return out;
}

/// The value type a flag bound to a T (or an std::optional<T>) reads.
template <class T> struct flag_value { using type = T; };
template <class T> struct flag_value<std::optional<T>> { using type = T; };

/// One subcommand's declared flags. Declare every flag, then parse().
class Flags {
 public:
  /// The flags of `command`, checked against `args` by parse().
  Flags(std::string command, std::vector<std::string> args)
      : command_(std::move(command)), args_(std::move(args)) {}
  /// Flags that only collect declarations, for usage: parse() returns
  /// false, so a subcommand run with them returns before any work.
  explicit Flags(std::string command)
      : command_(std::move(command)), declarations_only_(true) {}

  // `spec` is the flag's name, optionally followed by a space and the
  // metavar usage shows ("save FILE"); by default that comes from the type.

  /// A flag that takes one value, stored into *dest: an arithmetic T
  /// (range-checked against T), a string, an optional of either (no
  /// default), or a vector of endpoints (see parse_endpoint_list).
  template <class T>
  Flags& value(std::string_view spec, T* dest, std::string help) {
    using V = typename flag_value<T>::type;
    constexpr bool kEndpoints = requires(V v) { v.front().port; };
    std::string metavar = "STR", shown;
    if constexpr (kEndpoints)
      metavar = requires(V v) { v.front().name; } ? "[NAME=]HOST:PORT,..."
                                                  : "HOST:PORT,...";
    else if constexpr (std::is_arithmetic_v<V>)
      metavar = std::is_integral_v<V> ? "N" : "X";
    if constexpr (std::is_same_v<T, std::string>) shown = *dest;
    else if constexpr (std::is_arithmetic_v<T>) shown = show(*dest);
    return add(spec, metavar, std::move(help), shown, true,
               [dest, flag = std::string(name_of(spec))](const std::string& v) {
                 if constexpr (kEndpoints)
                   *dest = parse_endpoint_list<typename V::value_type>(v, flag);
                 else if constexpr (std::is_arithmetic_v<V>)
                   *dest = read_number<V>(flag, v);
                 else
                   *dest = v;
               });
  }
  /// A boolean flag: sets *dest when present; takes no value.
  Flags& flag(std::string_view name, bool* dest, std::string help) {
    return add(name, "", std::move(help), "", false,
               [dest](const std::string&) { *dest = true; });
  }
  /// A flag whose value must be one of `choices`' names; stores the
  /// matching T. Without a metavar in `spec` usage lists the names.
  template <class T>
  Flags& choice(std::string_view spec, T* dest,
                std::vector<std::pair<std::string, T>> choices,
                std::string help) {
    std::string names, shown;
    for (const auto& [name, v] : choices) {
      names += (names.empty() ? "" : "|") + name;
      if (shown.empty() && v == *dest) shown = name;
    }
    return add(spec, names, std::move(help), shown, true,
               [=, flag = std::string(name_of(spec))](const std::string& v) {
                 for (const auto& [name, x] : choices)
                   if (name == v) return void(*dest = x);
                 throw UsageError("--" + flag + ": '" + v + "' is not one of " +
                                  names);
               });
  }
  /// choice() over strings stored as given (overload resolution prefers
  /// this non-template for a list of names).
  Flags& choice(std::string_view spec, std::string* dest,
                const std::vector<std::string>& names, std::string help);
  /// Makes the flag declared last one that must be given.
  Flags& required();

  /// Checks the command line against the declarations and stores every
  /// given value; throws UsageError on the first fault. Returns false,
  /// doing nothing, for declaration-only flags.
  bool parse();
  /// Whether flag `name` was on the command line.
  bool given(std::string_view name) const;
  /// One line per declared flag: name, metavar, help, default.
  std::string usage() const;

 private:
  struct Decl {
    std::string name, metavar, help, shown;
    bool takes_value = true, required = false, seen = false;
    std::function<void(const std::string&)> set;
  };
  static std::string_view name_of(std::string_view spec) {
    return spec.substr(0, spec.find(' '));
  }
  template <class N>
  static std::string show(N v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  template <class N>
  static N read_number(const std::string& flag, const std::string& v) {
    N n{};
    if (parse_number(v, &n)) return n;
    using L = std::numeric_limits<N>;
    throw UsageError("--" + flag + ": '" + v + "' is not " +
                     (std::is_integral_v<N> ? "an integer in [" +
                                                  show(L::min()) + ", " +
                                                  show(L::max()) + "]"
                                            : std::string("a number")));
  }
  Flags& add(std::string_view spec, std::string metavar, std::string help,
             std::string shown, bool takes_value,
             std::function<void(const std::string&)> set);
  Decl* find(std::string_view name);

  std::string command_;
  std::vector<std::string> args_;
  bool declarations_only_ = false;
  std::vector<Decl> decls_;
};

}  // namespace cellnpdp::cli
