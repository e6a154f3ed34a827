#include "data/molecule_gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "chem/rings.h"

namespace sqvae::data {

using chem::BondType;
using chem::Element;
using chem::Molecule;

namespace {

/// Free valence available for new single bonds at atom i, under the
/// element's *default* valence (growth never makes hypervalent atoms).
int free_valence(const Molecule& mol, int i) {
  const int used = static_cast<int>(std::ceil(mol.valence_used(i) - 1e-9));
  return std::max(0, chem::default_valence(mol.atom(i)) - used);
}

Element sample_element(const MoleculeGenConfig& config, sqvae::Rng& rng,
                       bool ring_member) {
  std::vector<double> w = config.element_weights;
  assert(w.size() == chem::kAllElements.size());
  if (ring_member) {
    // Fluorine is monovalent and cannot sit in a ring; oxygen/sulfur are
    // rarer ring members.
    w[3] = 0.0;
    w[2] *= 0.5;
    w[4] *= 0.5;
  }
  return chem::kAllElements[rng.weighted_choice(w)];
}

/// Adds one aromatic ring (5 or 6 atoms, at most one heteroatom) to `mol`.
/// The ring is fused to an existing atom chain via a single bond when the
/// molecule is non-empty. Returns atoms added.
int add_aromatic_ring(Molecule& mol, const MoleculeGenConfig& config,
                      sqvae::Rng& rng, int budget) {
  const int size = rng.bernoulli(0.25) ? 5 : 6;
  if (budget < size) return 0;

  // Attachment point: an existing atom with free valence.
  int attach = -1;
  if (mol.num_atoms() > 0) {
    std::vector<int> candidates;
    for (int i = 0; i < mol.num_atoms(); ++i) {
      if (free_valence(mol, i) >= 1) candidates.push_back(i);
    }
    if (candidates.empty()) return 0;
    attach = candidates[rng.uniform_index(candidates.size())];
  }

  // Ring atoms: carbons with at most one heteroatom. Only pyridine-type N
  // is used: with aromatic bond order 1.5, an aromatic N consumes exactly
  // its valence of 3, whereas aromatic O/S would be over-valent under this
  // arithmetic, which does not model lone-pair aromaticity.
  std::vector<int> ring;
  const bool hetero = rng.bernoulli(0.35);
  const int hetero_pos = hetero ? rng.uniform_int(0, size - 1) : -1;
  for (int k = 0; k < size; ++k) {
    const Element e = (k == hetero_pos) ? Element::kN : Element::kC;
    ring.push_back(mol.add_atom(e));
  }
  for (int k = 0; k < size; ++k) {
    mol.set_bond(ring[static_cast<std::size_t>(k)],
                 ring[static_cast<std::size_t>((k + 1) % size)],
                 BondType::kAromatic);
  }
  if (attach >= 0) {
    // Attach through an aromatic carbon with a free valence slot
    // (aromatic C uses 3.0 of its 4; N/O/S ring members are full).
    std::vector<int> slots;
    for (int a : ring) {
      if (free_valence(mol, a) >= 1) slots.push_back(a);
    }
    if (!slots.empty()) {
      mol.set_bond(attach, slots[rng.uniform_index(slots.size())],
                   BondType::kSingle);
    }
  }
  (void)config;
  return size;
}

}  // namespace

MoleculeGenConfig qm9_config(int max_atoms) {
  MoleculeGenConfig c;
  c.min_atoms = 4;
  c.max_atoms = max_atoms;
  c.element_weights = {0.72, 0.14, 0.14, 0.0, 0.0};
  c.aromatic_ring_rate = 0.35;  // small molecules: mostly chains
  c.aliphatic_ring_prob = 0.20;
  c.double_bond_prob = 0.20;
  c.triple_bond_prob = 0.04;
  return c;
}

MoleculeGenConfig pdbbind_config(int max_atoms) {
  MoleculeGenConfig c;
  c.min_atoms = 12;
  c.max_atoms = max_atoms;
  c.element_weights = {0.70, 0.12, 0.13, 0.02, 0.03};
  c.aromatic_ring_rate = 1.6;  // drug-like ligands average 1-3 rings
  c.aliphatic_ring_prob = 0.35;
  c.double_bond_prob = 0.12;
  c.triple_bond_prob = 0.01;
  return c;
}

chem::Molecule generate_molecule(const MoleculeGenConfig& config,
                                 sqvae::Rng& rng) {
  assert(config.min_atoms >= 1 && config.min_atoms <= config.max_atoms);
  const int target = rng.uniform_int(config.min_atoms, config.max_atoms);

  Molecule mol;

  // Aromatic rings first (they consume 5-6 atoms each).
  double ring_budget = config.aromatic_ring_rate;
  while (ring_budget > 0.0 && rng.bernoulli(std::min(1.0, ring_budget))) {
    add_aromatic_ring(mol, config, rng, target - mol.num_atoms());
    ring_budget -= 1.0;
  }

  // Seed atom when no ring was placed.
  if (mol.num_atoms() == 0) {
    mol.add_atom(sample_element(config, rng, /*ring_member=*/false));
  }

  // Tree growth: attach new atoms to uniformly chosen atoms with free
  // valence.
  while (mol.num_atoms() < target) {
    std::vector<int> candidates;
    for (int i = 0; i < mol.num_atoms(); ++i) {
      if (free_valence(mol, i) >= 1) candidates.push_back(i);
    }
    if (candidates.empty()) break;  // saturated (e.g. all-F substituents)
    const int parent = candidates[rng.uniform_index(candidates.size())];
    const int child =
        mol.add_atom(sample_element(config, rng, /*ring_member=*/false));
    mol.set_bond(parent, child, BondType::kSingle);
  }

  // Optional aliphatic ring closure: connect two atoms at graph distance
  // >= 3 that both have free valence.
  if (rng.bernoulli(config.aliphatic_ring_prob) && mol.num_atoms() >= 5) {
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < mol.num_atoms(); ++a) {
      if (free_valence(mol, a) < 1) continue;
      for (int b = a + 1; b < mol.num_atoms(); ++b) {
        if (free_valence(mol, b) < 1) continue;
        if (mol.bond_between(a, b) != BondType::kNone) continue;
        // Cheap distance screen: no common neighbor (distance >= 3 gives
        // rings of size >= 4; exact distance check is unnecessary).
        bool share = false;
        for (int u : mol.neighbors(a)) {
          for (int v : mol.neighbors(b)) {
            if (u == v || u == b || v == a) share = true;
          }
        }
        if (!share) pairs.emplace_back(a, b);
      }
    }
    if (!pairs.empty()) {
      const auto [a, b] = pairs[rng.uniform_index(pairs.size())];
      mol.set_bond(a, b, BondType::kSingle);
    }
  }

  // Bond-order upgrades on acyclic single bonds with spare valence on both
  // ends.
  const auto bonds_snapshot = mol.bonds();
  for (const chem::Bond& b : bonds_snapshot) {
    if (b.type != BondType::kSingle) continue;
    const int fa = free_valence(mol, b.a);
    const int fb = free_valence(mol, b.b);
    if (fa >= 2 && fb >= 2 && rng.bernoulli(config.triple_bond_prob)) {
      mol.set_bond(b.a, b.b, BondType::kTriple);
    } else if (fa >= 1 && fb >= 1 && rng.bernoulli(config.double_bond_prob)) {
      mol.set_bond(b.a, b.b, BondType::kDouble);
    }
  }

  assert(chem::is_valid(mol));
  return mol;
}

std::vector<chem::Molecule> generate_molecules(
    const MoleculeGenConfig& config, std::size_t count, sqvae::Rng& rng) {
  std::vector<chem::Molecule> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(generate_molecule(config, rng));
  }
  return out;
}

}  // namespace sqvae::data
