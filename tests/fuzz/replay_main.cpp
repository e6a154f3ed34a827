// Replays fuzz inputs through a harness's LLVMFuzzerTestOneInput without
// libFuzzer, so the checked-in corpora run as ordinary tests under any
// compiler and in every sanitizer lane (CMakeLists.txt registers one
// `fuzz_<target>_replay` test per corpus directory). Arguments are files
// or directories; a directory contributes every regular file directly
// inside it, in name order. A property violation traps, failing the run.
//
// Usage: fuzz_<target>_replay PATH...
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path arg(argv[i]);
    if (!fs::is_directory(arg)) {
      inputs.push_back(arg);
      continue;
    }
    for (const fs::directory_entry& entry : fs::directory_iterator(arg)) {
      if (entry.is_regular_file()) inputs.push_back(entry.path());
    }
  }
  std::sort(inputs.begin(), inputs.end());
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s PATH... (no inputs found)\n", argv[0]);
    return 2;
  }
  for (const fs::path& path : inputs) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    // Named before the run (stderr is unbuffered): a trap must not hide
    // which input tripped it.
    std::fprintf(stderr, "replay %s (%zu bytes)\n", path.c_str(),
                 bytes.size());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  }
  std::printf("replayed %zu input(s)\n", inputs.size());
  return 0;
}
