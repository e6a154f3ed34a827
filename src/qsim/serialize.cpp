#include "qsim/serialize.h"

#include <map>
#include <sstream>
#include <string_view>

#include "common/number_text.h"

namespace sqvae::qsim {

std::string circuit_to_text(const Circuit& circuit) {
  std::ostringstream os;
  os << "qubits " << circuit.num_qubits() << '\n';
  os << circuit.to_string();
  return os.str();
}

namespace {

const std::map<std::string, GateKind>& gate_names() {
  static const std::map<std::string, GateKind> kNames = {
      {"RX", GateKind::kRX},     {"RY", GateKind::kRY},
      {"RZ", GateKind::kRZ},     {"H", GateKind::kH},
      {"X", GateKind::kX},       {"Y", GateKind::kY},
      {"Z", GateKind::kZ},       {"S", GateKind::kS},
      {"T", GateKind::kT},       {"CNOT", GateKind::kCNOT},
      {"CZ", GateKind::kCZ},     {"CRX", GateKind::kCRX},
      {"CRY", GateKind::kCRY},   {"CRZ", GateKind::kCRZ},
      {"SWAP", GateKind::kSWAP},
  };
  return kNames;
}

/// Parses "key=value" into (key, value); false on malformed tokens.
bool split_kv(const std::string& token, std::string* key,
              std::string* value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

bool read_int(std::string_view text, int* out) {
  return number_text::parse(text, out) == number_text::Error::kNone;
}

}  // namespace

std::optional<Circuit> circuit_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  // Header.
  if (!std::getline(in, line)) return std::nullopt;
  int num_qubits = 0;
  {
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word != "qubits" || !(ls >> num_qubits)) {
      return std::nullopt;
    }
    if (num_qubits < 1 || num_qubits > 24) return std::nullopt;
  }
  Circuit circuit(num_qubits);

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string name;
    ls >> name;
    const auto it = gate_names().find(name);
    if (it == gate_names().end()) return std::nullopt;
    const GateKind kind = it->second;

    int target = -1, control = -1;
    Param param = Param::value(0.0);
    bool saw_theta = false;
    std::string token;
    while (ls >> token) {
      std::string key, value;
      if (!split_kv(token, &key, &value)) return std::nullopt;
      // Every number must be the whole value: "t=1x", "theta=0.5abc" and
      // a non-finite angle ("nan", "inf") are malformed.
      bool ok = false;
      if (key == "t") {
        ok = read_int(value, &target);
      } else if (key == "c") {
        ok = read_int(value, &control);
      } else if (key == "theta") {
        saw_theta = true;
        if (value.size() > 3 && value.rfind("p[", 0) == 0 &&
            value.back() == ']') {
          int slot = -1;
          ok = read_int(std::string_view(value).substr(2, value.size() - 3),
                        &slot) &&
               slot >= 0;
          param = Param::slot(slot);
        } else {
          double theta = 0.0;
          ok = number_text::parse(value, &theta) == number_text::Error::kNone;
          param = Param::value(theta);
        }
      }
      if (!ok) return std::nullopt;
    }
    if (target < 0 || target >= num_qubits) return std::nullopt;
    if (control >= num_qubits || control == target) return std::nullopt;
    if (is_parameterized(kind) != saw_theta) return std::nullopt;
    if (is_two_qubit(kind) != (control >= 0)) return std::nullopt;

    switch (kind) {
      case GateKind::kRX: circuit.rx(target, param); break;
      case GateKind::kRY: circuit.ry(target, param); break;
      case GateKind::kRZ: circuit.rz(target, param); break;
      case GateKind::kH: circuit.h(target); break;
      case GateKind::kX: circuit.x(target); break;
      case GateKind::kY: circuit.y(target); break;
      case GateKind::kZ: circuit.z(target); break;
      case GateKind::kS: circuit.s(target); break;
      case GateKind::kT: circuit.t(target); break;
      case GateKind::kCNOT: circuit.cnot(control, target); break;
      case GateKind::kCZ: circuit.cz(control, target); break;
      case GateKind::kCRX: circuit.crx(control, target, param); break;
      case GateKind::kCRY: circuit.cry(control, target, param); break;
      case GateKind::kCRZ: circuit.crz(control, target, param); break;
      case GateKind::kSWAP: circuit.swap(control, target); break;
    }
  }
  return circuit;
}

}  // namespace sqvae::qsim
