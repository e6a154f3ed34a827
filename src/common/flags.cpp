#include "common/flags.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/number_text.h"

namespace sqvae {

void Flags::add_string(const std::string& name, std::string default_value,
                       std::string help) {
  entries_[name] =
      Entry{Type::kString, default_value, default_value, std::move(help)};
}

void Flags::add_int(const std::string& name, long long default_value,
                    std::string help) {
  const std::string v = std::to_string(default_value);
  entries_[name] = Entry{Type::kInt, v, v, std::move(help)};
}

void Flags::add_double(const std::string& name, double default_value,
                       std::string help) {
  // Shortest round-trip form: a default of 1.0 / 3 reads back exactly.
  const std::string v = number_text::to_text(default_value);
  entries_[name] = Entry{Type::kDouble, v, v, std::move(help)};
}

void Flags::add_bool(const std::string& name, bool default_value,
                     std::string help) {
  const std::string v = default_value ? "true" : "false";
  entries_[name] = Entry{Type::kBool, v, v, std::move(help)};
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument("unknown flag --" + name + "\n" +
                                  usage(argv[0]));
    }
    Entry& e = it->second;
    if (!has_value) {
      if (e.type == Type::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("flag --" + name + " requires a value");
      }
    }
    // Validate typed values eagerly so errors point at the flag: the whole
    // value must be one number, and a double must be finite.
    bool valid = true;
    switch (e.type) {
      case Type::kInt: {
        long long v = 0;
        valid = number_text::parse(value, &v) == number_text::Error::kNone;
        break;
      }
      case Type::kDouble: {
        double v = 0.0;
        valid = number_text::parse(value, &v) == number_text::Error::kNone;
        break;
      }
      case Type::kBool:
        valid = value == "true" || value == "false" || value == "1" ||
                value == "0";
        break;
      case Type::kString:
        break;
    }
    if (!valid) {
      throw std::invalid_argument("bad value for flag --" + name + ": " +
                                  value);
    }
    e.value = value;
  }
  return true;
}

const Flags::Entry& Flags::entry(const std::string& name,
                                 Type expected) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.type != expected) {
    throw std::invalid_argument("flag not registered with this type: " + name);
  }
  return it->second;
}

std::string Flags::get_string(const std::string& name) const {
  return entry(name, Type::kString).value;
}

long long Flags::get_int(const std::string& name) const {
  long long v = 0;
  (void)number_text::parse(entry(name, Type::kInt).value, &v);
  return v;
}

double Flags::get_double(const std::string& name) const {
  // Parsed values were checked finite; a default may be inf on purpose.
  double v = 0.0;
  (void)number_text::parse(entry(name, Type::kDouble).value, &v,
                           number_text::NonFinite::kAllow);
  return v;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string& v = entry(name, Type::kBool).value;
  return v == "true" || v == "1";
}

std::vector<std::string> Flags::get_list(const std::string& name) const {
  std::vector<std::string> items;
  std::stringstream ss(get_string(name));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << " (default: " << e.default_value << ")  "
       << e.help << "\n";
  }
  return os.str();
}

}  // namespace sqvae
