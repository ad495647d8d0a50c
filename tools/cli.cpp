#include "cli.hpp"

namespace cellnpdp::cli {

Flags& Flags::choice(std::string_view spec, std::string* dest,
                     const std::vector<std::string>& names, std::string help) {
  std::vector<std::pair<std::string, std::string>> choices;
  for (const std::string& n : names) choices.emplace_back(n, n);
  return choice<std::string>(spec, dest, std::move(choices), std::move(help));
}

Flags& Flags::required() {
  decls_.back().required = true;
  return *this;
}

Flags& Flags::add(std::string_view spec, std::string metavar, std::string help,
                  std::string shown, bool takes_value,
                  std::function<void(const std::string&)> set) {
  const std::string name(name_of(spec));
  if (find(name) != nullptr)
    throw std::logic_error("npdp " + command_ + ": --" + name +
                           " declared twice");
  if (name.size() < spec.size()) metavar = spec.substr(name.size() + 1);
  decls_.push_back({name, metavar, std::move(help), std::move(shown),
                    takes_value, false, false, std::move(set)});
  return *this;
}

Flags::Decl* Flags::find(std::string_view name) {
  for (Decl& d : decls_)
    if (d.name == name) return &d;
  return nullptr;
}

bool Flags::parse() {
  if (declarations_only_) return false;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const std::string& arg = args_[i];
    if (arg.size() <= 2 || arg.compare(0, 2, "--") != 0)
      throw UsageError("unexpected argument '" + arg + "'");
    Decl* d = find(std::string_view(arg).substr(2));
    if (d == nullptr) throw UsageError("unknown flag " + arg);
    if (d->seen) throw UsageError("duplicate flag " + arg);
    d->seen = true;
    const bool has_value = i + 1 < args_.size() &&
                           args_[i + 1].compare(0, 2, "--") != 0;
    if (d->takes_value && !has_value)
      throw UsageError(arg + " needs a value (" + d->metavar + ")");
    d->set(d->takes_value ? args_[++i] : "");
  }
  for (const Decl& d : decls_)
    if (d.required && !d.seen)
      throw UsageError("missing required flag --" + d.name);
  return true;
}

bool Flags::given(std::string_view name) const {
  for (const Decl& d : decls_)
    if (d.name == name) return d.seen;
  return false;
}

std::string Flags::usage() const {
  constexpr std::size_t kHelpColumn = 28;
  std::string out;
  for (const Decl& d : decls_) {
    std::string line = "  --" + d.name + (d.takes_value ? " " + d.metavar : "");
    line += line.size() + 2 > kHelpColumn
                ? "\n" + std::string(kHelpColumn, ' ')
                : std::string(kHelpColumn - line.size(), ' ');
    line += d.help;
    if (d.required) line += " (required)";
    else if (!d.shown.empty()) line += " (default " + d.shown + ")";
    out += line + "\n";
  }
  return out;
}

}  // namespace cellnpdp::cli
