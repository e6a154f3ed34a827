// Shared infrastructure for the experiment benches.
//
// Every bench binary reproduces one table or figure of the paper. Binaries
// run with no arguments at "small" scale (reduced dataset sizes and epochs
// so the whole suite finishes in minutes on a laptop); pass --scale=paper
// for the paper's full protocol (2492 ligands, 20 epochs, 1000 samples).
// The learning-dynamics *shape* — who wins, where the crossovers fall — is
// the reproduction target at either scale. Nothing checks the printed
// figures against the paper's yet.
#pragma once

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace sqvae::bench {

struct BenchScale {
  bool paper = false;
  std::size_t qm9_count = 240;
  std::size_t pdbbind_count = 300;
  std::size_t digits_count = 300;
  std::size_t cifar_count = 200;
  std::size_t epochs = 10;
  std::size_t sweep_epochs = 5;    // per-configuration sweeps (Figs. 6, 7)
  std::size_t table2_samples = 200;
  std::size_t batch_size = 32;
};

inline BenchScale paper_scale() {
  BenchScale s;
  s.paper = true;
  s.qm9_count = 1000;
  s.pdbbind_count = 2492;  // PDBbind v2019 refined, filtered (paper §IV-A)
  s.digits_count = 1797;   // sklearn Digits size
  s.cifar_count = 1000;
  s.epochs = 20;
  s.sweep_epochs = 10;
  s.table2_samples = 1000;
  return s;
}

/// Registers the common flags (--scale, --seed, --csv) on top of any
/// bench-specific ones.
inline void add_common_flags(Flags& flags) {
  flags.add_string("scale", "small",
                   "experiment scale: small (fast) or paper (full protocol)");
  flags.add_int("seed", 7, "master random seed");
  flags.add_string("csv", "", "optional path to write the result table CSV");
}

/// Parses flags; returns false when --help was requested. Exits with a
/// message on malformed input.
inline bool parse_or_die(Flags& flags, int argc, char** argv) {
  try {
    return flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline BenchScale scale_from_flags(const Flags& flags) {
  const std::string s = flags.get_string("scale");
  if (s == "paper") return paper_scale();
  if (s != "small") {
    std::fprintf(stderr, "unknown --scale=%s (use small or paper)\n",
                 s.c_str());
    std::exit(2);
  }
  return BenchScale{};
}

/// Prints a section header, the table, and optionally writes the CSV.
inline void emit(const std::string& title, const Table& table,
                 const Flags& flags) {
  std::printf("== %s ==\n%s\n", title.c_str(), table.to_text().c_str());
  const std::string csv = flags.get_string("csv");
  if (!csv.empty()) {
    if (table.write_csv(csv)) {
      std::printf("(csv written to %s)\n", csv.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", csv.c_str());
    }
  }
}

}  // namespace sqvae::bench
