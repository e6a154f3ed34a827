// Synthetic molecule generation (QM9-like and PDBbind-ligand-like).
//
// The paper trains on QM9 (<= 9 heavy atoms, C/N/O) and on PDBbind v2019
// refined ligands filtered to <= 32 heavy atoms over C/N/O/F/S. Neither
// dataset ships with this repository, so generate_molecule() synthesises
// valence-correct molecules with the same alphabet, size range, ring
// content, and bond-type distribution: a random
// spanning-tree skeleton grown atom by atom under free-valence
// constraints, aromatic 5/6-rings inserted first, optional aliphatic ring
// closures, and a bond-order upgrade pass. Every emitted molecule
// satisfies chem::is_valid().
#pragma once

#include "chem/molecule.h"
#include "chem/sanitize.h"
#include "common/rng.h"

namespace sqvae::data {

struct MoleculeGenConfig {
  int min_atoms = 4;
  int max_atoms = 9;
  /// Element sampling weights in kAllElements order (C, N, O, F, S).
  /// Zero disables an element (QM9 uses {C, N, O} only).
  std::vector<double> element_weights = {0.70, 0.14, 0.14, 0.01, 0.01};
  /// Expected number of aromatic rings (Poisson-ish via repeated trials).
  double aromatic_ring_rate = 0.8;
  /// Probability of attempting one extra aliphatic ring closure.
  double aliphatic_ring_prob = 0.25;
  /// Probability of upgrading an eligible single bond to a double bond.
  double double_bond_prob = 0.15;
  /// Probability of upgrading an eligible single bond to a triple bond.
  double triple_bond_prob = 0.02;
};

/// QM9-like molecules: C/N/O, small.
MoleculeGenConfig qm9_config(int max_atoms = 8);

/// PDBbind-ligand-like molecules: C/N/O/F/S, drug-sized (12-32 atoms),
/// more aromatic rings.
MoleculeGenConfig pdbbind_config(int max_atoms = 32);

/// One random valid molecule.
chem::Molecule generate_molecule(const MoleculeGenConfig& config,
                                 sqvae::Rng& rng);

/// A batch of random valid molecules.
std::vector<chem::Molecule> generate_molecules(const MoleculeGenConfig& config,
                                               std::size_t count,
                                               sqvae::Rng& rng);

}  // namespace sqvae::data
