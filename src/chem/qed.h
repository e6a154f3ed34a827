// Quantitative Estimate of Druglikeness (QED).
//
// Bickerton et al. (Nature Chemistry 2012): QED is the weighted geometric
// mean of eight desirability values, each obtained by passing one molecular
// descriptor (MW, ALOGP, HBA, HBD, PSA, ROTB, AROM, ALERTS) through an
// asymmetric double sigmoid (ADS) fitted to the descriptor's distribution
// over approved drugs. This implementation uses the published ADS parameter
// table (the one shipped in RDKit's qed.py) and the "mean-weights" variant,
// with descriptors computed by this library's own models (descriptors.h,
// logp.h) in place of RDKit's, which a dependency-free library cannot call;
// scores differ from RDKit's wherever the descriptors do. Output is in
// (0, 1], higher = more drug-like.
#pragma once

#include "chem/descriptors.h"
#include "chem/molecule.h"

namespace sqvae::chem {

/// The eight QED descriptor values for a molecule.
struct QedProperties {
  double mw = 0.0;
  double alogp = 0.0;
  double hba = 0.0;
  double hbd = 0.0;
  double psa = 0.0;
  double rotb = 0.0;
  double arom = 0.0;
  double alerts = 0.0;
};

/// Extracts the QED descriptor block.
QedProperties qed_properties(const Molecule& mol);

/// ADS desirability of a single descriptor value; `index` selects the
/// parameter row (0=MW .. 7=ALERTS). Exposed for tests.
double qed_desirability(int index, double value);

/// Weighted-geometric-mean QED with the published mean weights.
double qed(const Molecule& mol);

/// Unweighted QED (all weights 1), exposed for the property ablation bench.
double qed_unweighted(const Molecule& mol);

}  // namespace sqvae::chem
