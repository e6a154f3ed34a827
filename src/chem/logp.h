// Octanol-water partition coefficient (logP) — Crippen-style atomic
// contribution model.
//
// Wildman & Crippen (1999) estimate logP as a sum of per-atom
// contributions selected by local environment. This implementation carries
// a condensed contribution table covering the environments expressible in
// the C/N/O/F/S heavy-atom alphabet (aromatic vs aliphatic carbon, carbons
// attached to heteroatoms, amine/amide/aromatic nitrogens, hydroxyl/ether/
// carbonyl oxygens, thioethers, fluorine) plus hydrogen contributions
// keyed on the heavy atom they attach to. It stands in for RDKit's
// MolLogP, which a dependency-free library cannot call: deterministic,
// bounded, and monotone in the same structural features, which is what
// Table II's relative comparison requires.
#pragma once

#include "chem/molecule.h"

namespace sqvae::chem {

/// Raw Crippen-style logP estimate.
double crippen_logp(const Molecule& mol);

/// logP remapped to [0, 1] with the MolGAN/molecular-GAN convention used by
/// the paper's evaluation code: clip((logP + 2.12178879609) /
/// (6.0422004495 + 2.12178879609), 0, 1).
double normalized_logp(const Molecule& mol);

}  // namespace sqvae::chem
