// Synthetic Accessibility (SA) score.
//
// Ertl & Schuffenhauer (2009) score synthesis difficulty on [1, 10]
// (1 = easy) as fragment-frequency score plus complexity penalties. Without
// the PubChem fragment-frequency database this implementation keeps the
// complexity-penalty structure (size, ring complexity, macrocycles,
// branching, unusual motifs) and replaces the fragment score with a
// common-environment bonus computed from the same atom environments the
// other property models use (aromatic carbons, plain chains and common
// functional groups score as "easy"; dense heteroatom clusters and unusual
// valences as "hard"). The database does not ship with this repository.
//
// Table II of the paper reports SA normalised to [0, 1] with higher =
// better (more accessible); normalized_sa_score() applies the standard
// (10 - SA) / 9 remapping used by the MolGAN evaluation code.
#pragma once

#include "chem/molecule.h"

namespace sqvae::chem {

/// Raw Ertl-style SA score in [1, 10]; 1 = trivially synthesizable.
double sa_score(const Molecule& mol);

/// (10 - sa_score) / 9, clipped to [0, 1]; higher = more accessible.
double normalized_sa_score(const Molecule& mol);

}  // namespace sqvae::chem
