#include "qsim/circuit.h"

#include <algorithm>
#include <cassert>

namespace sqvae::qsim {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  assert(num_qubits >= 1 && num_qubits <= 24);
}

Circuit& Circuit::push(GateKind kind, int target, int control, Param p) {
  assert(target >= 0 && target < num_qubits_);
  assert(control == -1 || (control >= 0 && control < num_qubits_));
  assert(control != target);
  if (p.is_slot()) {
    assert(is_parameterized(kind));
    num_param_slots_ = std::max(num_param_slots_, p.index + 1);
  }
  ops_.push_back(GateOp{kind, target, control, p});
  return *this;
}

Circuit& Circuit::rx(int target, Param p) {
  return push(GateKind::kRX, target, -1, p);
}
Circuit& Circuit::ry(int target, Param p) {
  return push(GateKind::kRY, target, -1, p);
}
Circuit& Circuit::rz(int target, Param p) {
  return push(GateKind::kRZ, target, -1, p);
}

Circuit& Circuit::rot(int target, Param phi, Param theta, Param omega) {
  // R(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi): RZ(phi) acts first.
  rz(target, phi);
  ry(target, theta);
  rz(target, omega);
  return *this;
}

Circuit& Circuit::h(int target) {
  return push(GateKind::kH, target, -1, Param::value(0));
}
Circuit& Circuit::x(int target) {
  return push(GateKind::kX, target, -1, Param::value(0));
}
Circuit& Circuit::y(int target) {
  return push(GateKind::kY, target, -1, Param::value(0));
}
Circuit& Circuit::z(int target) {
  return push(GateKind::kZ, target, -1, Param::value(0));
}
Circuit& Circuit::s(int target) {
  return push(GateKind::kS, target, -1, Param::value(0));
}
Circuit& Circuit::t(int target) {
  return push(GateKind::kT, target, -1, Param::value(0));
}

Circuit& Circuit::cnot(int control, int target) {
  return push(GateKind::kCNOT, target, control, Param::value(0));
}
Circuit& Circuit::cz(int control, int target) {
  return push(GateKind::kCZ, target, control, Param::value(0));
}
Circuit& Circuit::crx(int control, int target, Param p) {
  return push(GateKind::kCRX, target, control, p);
}
Circuit& Circuit::cry(int control, int target, Param p) {
  return push(GateKind::kCRY, target, control, p);
}
Circuit& Circuit::crz(int control, int target, Param p) {
  return push(GateKind::kCRZ, target, control, p);
}
Circuit& Circuit::swap(int a, int b) {
  return push(GateKind::kSWAP, b, a, Param::value(0));
}

int Circuit::strongly_entangling_layers(int layers, int first_slot) {
  assert(layers >= 0);
  int slot = first_slot;
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < num_qubits_; ++q) {
      rot(q, Param::slot(slot), Param::slot(slot + 1), Param::slot(slot + 2));
      slot += 3;
    }
    if (num_qubits_ >= 2) {
      for (int q = 0; q < num_qubits_; ++q) {
        cnot(q, (q + 1) % num_qubits_);
      }
    }
  }
  return slot;
}

int Circuit::angle_embedding(int first_slot) {
  for (int q = 0; q < num_qubits_; ++q) {
    ry(q, Param::slot(first_slot + q));
  }
  return first_slot + num_qubits_;
}

int Circuit::entangling_layer_param_count(int num_qubits, int layers) {
  return 3 * num_qubits * layers;
}

double resolve_param(const GateOp& op, const std::vector<double>& params) {
  if (op.param.is_slot()) {
    assert(static_cast<std::size_t>(op.param.index) < params.size());
    return params[static_cast<std::size_t>(op.param.index)];
  }
  return op.param.constant;
}

void apply_op(Statevector& state, const GateOp& op,
              const std::vector<double>& params) {
  switch (op.kind) {
    case GateKind::kCNOT:
      state.apply_cnot(op.control, op.target);
      return;
    case GateKind::kCZ:
      state.apply_cz(op.control, op.target);
      return;
    case GateKind::kSWAP:
      state.apply_swap(op.control, op.target);
      return;
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      state.apply_controlled_single(
          gate_matrix(op.kind, resolve_param(op, params)), op.control,
          op.target);
      return;
    default:
      state.apply_single(gate_matrix(op.kind, resolve_param(op, params)),
                         op.target);
      return;
  }
}

void apply_op_dagger(Statevector& state, const GateOp& op,
                     const std::vector<double>& params) {
  switch (op.kind) {
    case GateKind::kCNOT:
      state.apply_cnot(op.control, op.target);  // self-inverse
      return;
    case GateKind::kCZ:
      state.apply_cz(op.control, op.target);  // self-inverse
      return;
    case GateKind::kSWAP:
      state.apply_swap(op.control, op.target);  // self-inverse
      return;
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      state.apply_controlled_single(
          dagger(gate_matrix(op.kind, resolve_param(op, params))), op.control,
          op.target);
      return;
    default:
      state.apply_single(
          dagger(gate_matrix(op.kind, resolve_param(op, params))), op.target);
      return;
  }
}

void run(const Circuit& circuit, const std::vector<double>& params,
         Statevector& state) {
  assert(state.num_qubits() == circuit.num_qubits());
  assert(static_cast<int>(params.size()) >= circuit.num_param_slots());
  for (const auto& op : circuit.ops()) {
    apply_op(state, op, params);
  }
}

Statevector run_from_zero(const Circuit& circuit,
                          const std::vector<double>& params) {
  Statevector state(circuit.num_qubits());
  run(circuit, params, state);
  return state;
}

}  // namespace sqvae::qsim
