// moldb_merge: k-way merge of molecule shards with exact cross-shard
// deduplication.
//
// Every input shard's index is sorted by content key, so the merge streams
// the union in global key order: memory stays bounded by the output index
// regardless of corpus size, and the output is itself a well-formed shard
// (same format, same ordering guarantee). Records sharing a key across
// shards are written once; a key carried by *different* canonical SMILES
// (a hash collision or a corrupt-but-checksummed input) aborts the merge
// rather than silently picking one.
//
// Example:
//   moldb_merge --out=corpus.moldb --inputs=a.moldb,b.moldb,c.moldb
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/shard_store.h"

int main(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_string("out", "", "output shard path (required)");
  flags.add_string("inputs", "", "comma-separated input shards (required)");
  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::string out = flags.get_string("out");
  const auto inputs = flags.get_list("inputs");
  if (out.empty() || inputs.empty()) {
    std::fprintf(stderr, "moldb_merge: need --out and --inputs\n");
    return 2;
  }

  sqvae::data::MergeStats stats;
  std::string error;
  if (!sqvae::data::merge_shards(inputs, out, &stats, &error)) {
    std::fprintf(stderr, "moldb_merge: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "moldb_merge: %s\n"
      "  inputs:           %zu shards, %zu records\n"
      "  cross duplicates: %zu\n"
      "  written:          %zu\n",
      out.c_str(), stats.inputs, stats.input_records, stats.cross_duplicates,
      stats.written);
  return 0;
}
