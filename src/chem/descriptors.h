// Molecular descriptors over the heavy-atom graph.
//
// These feed the drug-property models (qed.h, logp.h, sa_score.h) used to
// evaluate sampled ligands in Table II. Definitions follow the standard
// cheminformatics conventions (Lipinski HBA/HBD, Veber rotatable bonds,
// Ertl-style TPSA fragment contributions) restricted to the C/N/O/F/S
// alphabet of the molecule-matrix encoding.
#pragma once

#include "chem/molecule.h"
#include "chem/rings.h"

namespace sqvae::chem {

/// Local environment of an atom, shared by TPSA, logP, and QED alerts.
struct AtomEnvironment {
  Element element = Element::kC;
  int implicit_h = 0;
  int degree = 0;
  bool aromatic = false;
  bool in_ring = false;
  int hetero_neighbors = 0;   // bonded N/O/F/S
  int double_bonded_o = 0;    // =O neighbors (carbonyl/sulfonyl oxygens)
  bool has_double_bond = false;
  bool has_triple_bond = false;
};

/// Environments for every atom (one ring perception pass, reused).
std::vector<AtomEnvironment> atom_environments(const Molecule& mol,
                                               const RingInfo& rings);

/// Aggregate descriptor block used by QED and the property benches.
struct Descriptors {
  double molecular_weight = 0.0;
  int heavy_atoms = 0;
  int hba = 0;              // Lipinski acceptors: N + O count
  int hbd = 0;              // Lipinski donors: N/O/S atoms bearing >= 1 H
  double tpsa = 0.0;        // topological polar surface area (approximate)
  int rotatable_bonds = 0;  // acyclic single bonds between non-terminal atoms
  int aromatic_rings = 0;
  int rings = 0;            // cyclomatic number
  int alerts = 0;           // structural-alert count (see qed.cpp)
};

/// Computes all descriptors in one pass.
Descriptors compute_descriptors(const Molecule& mol);

// Single-descriptor entry points. compute_descriptors counts alerts with
// structural_alert_count; the chem tests pin both.
double topological_polar_surface_area(const Molecule& mol);
int structural_alert_count(const Molecule& mol);

}  // namespace sqvae::chem
