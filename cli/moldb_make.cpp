// moldb_make: stream molecules into a content-addressed shard.
//
// Two sources, both streamed one molecule at a time so peak RSS is bounded
// by the shard index (~44 bytes per unique molecule), never by the corpus:
//
//   * SMILES files (--input=a.smi,b.smi, '-' = stdin): each line is
//     parsed, canonicalized, hashed, and inserted; unparseable lines and
//     molecules over --max_atoms are counted and skipped, not fatal — a
//     corpus build keeps going past dirty input.
//   * the synthetic generators (--gen=qm9|pdbbind --count=N --seed=S):
//     the same molecule stream the in-memory training scenarios use,
//     produced incrementally.
//
// Every record is stored as canonical SMILES keyed by its 128-bit content
// hash (chem/mol_hash.h), so duplicates — including the same molecule
// written with permuted atoms — are detected exactly at insert time.
//
// Examples:
//   moldb_make --out=corpus.moldb --input=chembl.smi --max_atoms=32
//   moldb_make --out=qm9.moldb --gen=qm9 --count=1000000 --seed=1
//   cat *.smi | moldb_make --out=all.moldb --input=-
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "chem/mol_hash.h"
#include "chem/smiles.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/molecule_gen.h"
#include "data/shard_store.h"

namespace {

using namespace sqvae;

struct IngestStats {
  std::size_t read = 0;       // lines / generated molecules seen
  std::size_t invalid = 0;    // unparseable or unserializable
  std::size_t oversize = 0;   // over --max_atoms
  std::size_t duplicates = 0;
  std::size_t written = 0;
  bool ok = true;
};

/// Canonicalizes and inserts one molecule; false only on writer I/O error.
bool ingest(const chem::Molecule& mol, long long max_atoms,
            data::ShardWriter& writer, IngestStats& stats) {
  if (max_atoms > 0 && mol.num_atoms() > max_atoms) {
    ++stats.oversize;
    return true;
  }
  const auto canonical = chem::to_smiles(mol);
  if (!canonical || canonical->empty()) {
    ++stats.invalid;
    return true;
  }
  const chem::MolHash key = chem::hash_bytes(*canonical);
  switch (writer.insert(key, *canonical)) {
    case data::ShardWriter::Insert::kAdded:
      ++stats.written;
      return true;
    case data::ShardWriter::Insert::kDuplicate:
      ++stats.duplicates;
      return true;
    case data::ShardWriter::Insert::kError:
      return false;
  }
  return false;
}

bool ingest_stream(std::istream& in, long long max_atoms,
                   data::ShardWriter& writer, IngestStats& stats) {
  std::string line;
  while (std::getline(in, line)) {
    // Keep only the first whitespace-separated token: .smi files commonly
    // carry a name/comment column after the SMILES.
    std::size_t end = 0;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    const std::string token = line.substr(0, end);
    if (token.empty() || token[0] == '#') continue;
    ++stats.read;
    const auto mol = chem::from_smiles(token);
    if (!mol) {
      ++stats.invalid;
      continue;
    }
    if (!ingest(*mol, max_atoms, writer, stats)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_string("out", "", "output shard path (required)");
  flags.add_string("input", "",
                   "comma-separated SMILES files ('-' = stdin)");
  flags.add_string("gen", "",
                   "synthetic source instead of --input: qm9, pdbbind");
  flags.add_int("count", 100000, "molecules to generate with --gen");
  flags.add_int("seed", 1, "generator seed (--gen)");
  flags.add_int("gen_max_atoms", 0,
                "generator size cap (--gen; 0 = scenario default: qm9 8, "
                "pdbbind 32)");
  flags.add_int("max_atoms", 0,
                "skip molecules with more heavy atoms than this (0 = off)");
  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const std::string out = flags.get_string("out");
  const std::string gen = flags.get_string("gen");
  const auto inputs = flags.get_list("input");
  if (out.empty() || (gen.empty() == inputs.empty())) {
    std::fprintf(stderr,
                 "moldb_make: need --out and exactly one of --input / "
                 "--gen\n");
    return 2;
  }
  const long long max_atoms = flags.get_int("max_atoms");

  data::ShardWriter writer(out);
  IngestStats stats;
  if (!gen.empty()) {
    const long long gen_cap = flags.get_int("gen_max_atoms");
    data::MoleculeGenConfig config;
    if (gen == "qm9") {
      config = data::qm9_config(gen_cap > 0 ? static_cast<int>(gen_cap) : 8);
    } else if (gen == "pdbbind") {
      config =
          data::pdbbind_config(gen_cap > 0 ? static_cast<int>(gen_cap) : 32);
    } else {
      std::fprintf(stderr, "moldb_make: unknown --gen=%s (qm9, pdbbind)\n",
                   gen.c_str());
      return 2;
    }
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    const long long count = flags.get_int("count");
    for (long long i = 0; i < count; ++i) {
      ++stats.read;
      const chem::Molecule mol = data::generate_molecule(config, rng);
      if (!ingest(mol, max_atoms, writer, stats)) {
        stats.ok = false;
        break;
      }
    }
  } else {
    for (const std::string& path : inputs) {
      if (path == "-") {
        if (!ingest_stream(std::cin, max_atoms, writer, stats)) {
          stats.ok = false;
          break;
        }
        continue;
      }
      std::ifstream f(path);
      if (!f) {
        std::fprintf(stderr, "moldb_make: cannot open %s\n", path.c_str());
        return 1;
      }
      if (!ingest_stream(f, max_atoms, writer, stats)) {
        stats.ok = false;
        break;
      }
    }
  }

  std::string error;
  if (!stats.ok || !writer.finish(&error)) {
    std::fprintf(stderr, "moldb_make: shard write failed%s%s\n",
                 error.empty() ? "" : ": ", error.c_str());
    return 1;
  }
  std::printf(
      "moldb_make: %s\n"
      "  read:       %zu\n"
      "  invalid:    %zu\n"
      "  oversize:   %zu\n"
      "  duplicates: %zu\n"
      "  written:    %zu\n",
      out.c_str(), stats.read, stats.invalid, stats.oversize,
      stats.duplicates, stats.written);
  return 0;
}
