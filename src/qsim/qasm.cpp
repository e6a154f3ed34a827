#include "qsim/qasm.h"

#include <iomanip>
#include <limits>
#include <sstream>

namespace sqvae::qsim {

namespace {

void emit_op(std::ostringstream& os, const GateOp& op,
             const std::vector<double>& params) {
  const auto q = [](int wire) {
    return "q[" + std::to_string(wire) + "]";
  };
  const double theta = resolve_param(op, params);
  switch (op.kind) {
    case GateKind::kRX:
      os << "rx(" << theta << ") " << q(op.target) << ";\n";
      return;
    case GateKind::kRY:
      os << "ry(" << theta << ") " << q(op.target) << ";\n";
      return;
    case GateKind::kRZ:
      os << "rz(" << theta << ") " << q(op.target) << ";\n";
      return;
    case GateKind::kH:
      os << "h " << q(op.target) << ";\n";
      return;
    case GateKind::kX:
      os << "x " << q(op.target) << ";\n";
      return;
    case GateKind::kY:
      os << "y " << q(op.target) << ";\n";
      return;
    case GateKind::kZ:
      os << "z " << q(op.target) << ";\n";
      return;
    case GateKind::kS:
      os << "s " << q(op.target) << ";\n";
      return;
    case GateKind::kT:
      os << "t " << q(op.target) << ";\n";
      return;
    case GateKind::kCNOT:
      os << "cx " << q(op.control) << "," << q(op.target) << ";\n";
      return;
    case GateKind::kCZ:
      os << "cz " << q(op.control) << "," << q(op.target) << ";\n";
      return;
    case GateKind::kSWAP:
      os << "swap " << q(op.control) << "," << q(op.target) << ";\n";
      return;
    case GateKind::kCRX:
      os << "crx(" << theta << ") " << q(op.control) << "," << q(op.target)
         << ";\n";
      return;
    case GateKind::kCRY:
      os << "cry(" << theta << ") " << q(op.control) << "," << q(op.target)
         << ";\n";
      return;
    case GateKind::kCRZ:
      os << "crz(" << theta << ") " << q(op.control) << "," << q(op.target)
         << ";\n";
      return;
  }
}

std::string qasm_body(const Circuit& circuit,
                      const std::vector<double>& params, bool measurements) {
  std::ostringstream os;
  // Not common/number_text.h: OpenQASM 2 real literals need a decimal
  // point, and the shortest round-trip form drops it ("1e-07").
  // lint-allow(number-text): QASM real literals need a decimal point
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  os << "qreg q[" << circuit.num_qubits() << "];\n";
  if (measurements) {
    os << "creg c[" << circuit.num_qubits() << "];\n";
  }
  for (const GateOp& op : circuit.ops()) {
    emit_op(os, op, params);
  }
  if (measurements) {
    for (int wire = 0; wire < circuit.num_qubits(); ++wire) {
      os << "measure q[" << wire << "] -> c[" << wire << "];\n";
    }
  }
  return os.str();
}

}  // namespace

std::string to_qasm(const Circuit& circuit,
                    const std::vector<double>& params) {
  return qasm_body(circuit, params, /*measurements=*/false);
}

std::string to_qasm_with_measurements(const Circuit& circuit,
                                      const std::vector<double>& params) {
  return qasm_body(circuit, params, /*measurements=*/true);
}

}  // namespace sqvae::qsim
