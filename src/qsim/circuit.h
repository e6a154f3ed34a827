// Circuit intermediate representation.
//
// A Circuit is a flat list of gate operations on a fixed-width register.
// Parameterized gates either carry a constant angle or reference a slot in
// an external parameter vector supplied at execution time. Referencing an
// external vector (rather than storing values inline) lets one circuit be
// re-executed for every sample in a mini-batch and lets the differentiation
// engines return gradients aligned with the caller's parameter layout —
// including "input" parameters such as angle-embedding rotations, which is
// how hybrid models obtain d(loss)/d(latent) through the quantum decoder.
#pragma once

#include <vector>

#include "qsim/gates.h"
#include "qsim/statevector.h"

namespace sqvae::qsim {

/// Parameter binding for a gate angle: either a fixed constant or an index
/// into the external parameter vector.
struct Param {
  double constant = 0.0;
  int index = -1;  // >= 0: slot in the external parameter vector

  static Param value(double v) { return Param{v, -1}; }
  static Param slot(int i) { return Param{0.0, i}; }
  bool is_slot() const { return index >= 0; }
};

/// One gate application.
struct GateOp {
  GateKind kind;
  int target = 0;
  int control = -1;  // second qubit for CNOT/CZ/CR*/SWAP; -1 for 1-qubit gates
  Param param;       // meaningful only when is_parameterized(kind)
};

class Circuit {
 public:
  explicit Circuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<GateOp>& ops() const { return ops_; }
  std::size_t num_ops() const { return ops_.size(); }

  /// Highest referenced parameter slot + 1 (0 when fully constant).
  int num_param_slots() const { return num_param_slots_; }

  // ---- single-qubit builders -------------------------------------------
  Circuit& rx(int target, Param p);
  Circuit& ry(int target, Param p);
  Circuit& rz(int target, Param p);
  /// General rotation R(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi),
  /// the PennyLane `Rot` convention used by the paper's entangling layers.
  Circuit& rot(int target, Param phi, Param theta, Param omega);
  Circuit& h(int target);
  Circuit& x(int target);
  Circuit& y(int target);
  Circuit& z(int target);
  Circuit& s(int target);
  Circuit& t(int target);

  // ---- two-qubit builders ----------------------------------------------
  Circuit& cnot(int control, int target);
  Circuit& cz(int control, int target);
  Circuit& crx(int control, int target, Param p);
  Circuit& cry(int control, int target, Param p);
  Circuit& crz(int control, int target, Param p);
  Circuit& swap(int a, int b);

  // ---- composite builders ----------------------------------------------

  /// Appends `layers` strongly entangling layers in the paper's Fig. 2(b)
  /// layout: Rot(phi, theta, omega) on every qubit, then a periodic ring of
  /// CNOT(q, (q+1) mod n). Parameters are taken from consecutive slots
  /// starting at `first_slot` (3 per qubit per layer, ordered phi, theta,
  /// omega; qubit-major within a layer). Returns the next free slot index.
  int strongly_entangling_layers(int layers, int first_slot);

  /// Appends RY angle-embedding rotations, one per qubit, reading qubit q's
  /// angle from slot `first_slot + q`. Returns the next free slot.
  int angle_embedding(int first_slot);

  /// Number of parameters used by `layers` entangling layers on this width.
  static int entangling_layer_param_count(int num_qubits, int layers);

 private:
  Circuit& push(GateKind kind, int target, int control, Param p);

  int num_qubits_;
  int num_param_slots_ = 0;
  std::vector<GateOp> ops_;
};

/// Resolves a gate's angle against the external parameter vector.
double resolve_param(const GateOp& op, const std::vector<double>& params);

/// Applies one gate (with resolved parameters) to the state in place.
void apply_op(Statevector& state, const GateOp& op,
              const std::vector<double>& params);

/// Applies the inverse (dagger) of one gate in place.
void apply_op_dagger(Statevector& state, const GateOp& op,
                     const std::vector<double>& params);

/// Runs the whole circuit on `state` in place.
void run(const Circuit& circuit, const std::vector<double>& params,
         Statevector& state);

/// Convenience: runs the circuit from |0...0> and returns the final state.
Statevector run_from_zero(const Circuit& circuit,
                          const std::vector<double>& params);

}  // namespace sqvae::qsim
