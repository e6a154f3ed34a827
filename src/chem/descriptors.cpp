#include "chem/descriptors.h"

namespace sqvae::chem {

std::vector<AtomEnvironment> atom_environments(const Molecule& mol,
                                               const RingInfo& rings) {
  std::vector<AtomEnvironment> envs(static_cast<std::size_t>(mol.num_atoms()));
  for (int i = 0; i < mol.num_atoms(); ++i) {
    AtomEnvironment& env = envs[static_cast<std::size_t>(i)];
    env.element = mol.atom(i);
    env.implicit_h = mol.implicit_hydrogens(i);
    env.degree = mol.degree(i);
    env.aromatic = mol.is_aromatic_atom(i);
    env.in_ring = rings.atom_in_ring[static_cast<std::size_t>(i)];
    for (int v : mol.neighbors(i)) {
      const Element ne = mol.atom(v);
      if (ne != Element::kC) ++env.hetero_neighbors;
      const BondType bt = mol.bond_between(i, v);
      if (bt == BondType::kDouble) {
        env.has_double_bond = true;
        if (ne == Element::kO) ++env.double_bonded_o;
      }
      if (bt == BondType::kTriple) env.has_triple_bond = true;
    }
  }
  return envs;
}

namespace {

/// Ertl-style TPSA fragment contribution for one atom environment.
/// Values are the published Ertl (2000) contributions for the most common
/// matching environments of the C/N/O/F/S alphabet.
double tpsa_contribution(const AtomEnvironment& env) {
  switch (env.element) {
    case Element::kC:
    case Element::kF:
      return 0.0;
    case Element::kN:
      if (env.aromatic) {
        return env.implicit_h > 0 ? 15.79 : 12.89;
      }
      if (env.implicit_h >= 2) return 26.02;  // primary amine
      if (env.implicit_h == 1) return 12.03;  // secondary amine
      return 3.24;                            // tertiary amine
    case Element::kO:
      if (env.aromatic) return 13.14;
      if (env.degree == 1 && env.implicit_h == 0) return 17.07;  // carbonyl O
      if (env.implicit_h >= 1) return 20.23;                     // hydroxyl
      return 9.23;                                               // ether
    case Element::kS:
      if (env.aromatic) return 28.24;
      if (env.implicit_h >= 1) return 38.80;  // thiol
      return 25.30;                           // thioether / sulfoxide core
  }
  return 0.0;
}

}  // namespace

Descriptors compute_descriptors(const Molecule& mol) {
  Descriptors d;
  if (mol.empty()) return d;

  const RingInfo rings = perceive_rings(mol);
  const std::vector<AtomEnvironment> envs = atom_environments(mol, rings);

  d.molecular_weight = mol.molecular_weight();
  d.heavy_atoms = mol.num_atoms();
  d.rings = cyclomatic_number(mol);
  d.aromatic_rings = static_cast<int>(aromatic_rings(mol, rings).size());

  for (const AtomEnvironment& env : envs) {
    if (env.element == Element::kN || env.element == Element::kO) {
      ++d.hba;
      if (env.implicit_h > 0) ++d.hbd;
    }
    if (env.element == Element::kS && env.implicit_h > 0) ++d.hbd;
    d.tpsa += tpsa_contribution(env);
  }

  // Rotatable bonds: acyclic single bonds between two non-terminal atoms.
  for (std::size_t bi = 0; bi < mol.bonds().size(); ++bi) {
    const Bond& b = mol.bonds()[bi];
    if (b.type != BondType::kSingle) continue;
    if (rings.bond_in_ring[bi]) continue;
    if (mol.degree(b.a) < 2 || mol.degree(b.b) < 2) continue;
    ++d.rotatable_bonds;
  }

  d.alerts = structural_alert_count(mol);
  return d;
}

double topological_polar_surface_area(const Molecule& mol) {
  return compute_descriptors(mol).tpsa;
}

int structural_alert_count(const Molecule& mol) {
  // A compact structural-alert set expressible in the C/N/O/F/S alphabet.
  // Each alert family counts at most once per occurrence site, mirroring
  // how the Brenk/QED alert list flags unstable or reactive motifs.
  int alerts = 0;

  // Heteroatom-heteroatom single bonds (peroxide O-O, disulfide S-S, N-N).
  for (const Bond& b : mol.bonds()) {
    const Element ea = mol.atom(b.a);
    const Element eb = mol.atom(b.b);
    const bool hetero_a = ea == Element::kO || ea == Element::kN ||
                          ea == Element::kS;
    const bool hetero_b = eb == Element::kO || eb == Element::kN ||
                          eb == Element::kS;
    if (hetero_a && hetero_b) {
      if (ea == Element::kO && eb == Element::kO) ++alerts;          // peroxide
      if (ea == Element::kS && eb == Element::kS) ++alerts;  // disulfide
      if (ea == Element::kN && eb == Element::kN &&
          b.type == BondType::kDouble) {
        ++alerts;  // azo
      }
    }
  }

  const RingInfo rings = perceive_rings(mol);
  for (const Ring& ring : rings.rings) {
    // Strained 3-membered rings containing a heteroatom (epoxide/aziridine).
    if (ring.size() == 3) {
      for (int a : ring) {
        if (mol.atom(a) != Element::kC) {
          ++alerts;
          break;
        }
      }
    }
    // Macrocycles are flagged by the QED alert list as unusual.
    if (ring.size() > 8) ++alerts;
  }

  // Excessive halogenation.
  int fluorines = 0;
  for (int i = 0; i < mol.num_atoms(); ++i) {
    if (mol.atom(i) == Element::kF) ++fluorines;
  }
  if (fluorines > 3) ++alerts;

  // Cumulated double bonds at one carbon (allene-like sp carbon).
  for (int i = 0; i < mol.num_atoms(); ++i) {
    int doubles = 0;
    for (int v : mol.neighbors(i)) {
      if (mol.bond_between(i, v) == BondType::kDouble) ++doubles;
    }
    if (mol.atom(i) == Element::kC && doubles >= 2) ++alerts;
  }
  return alerts;
}

}  // namespace sqvae::chem
