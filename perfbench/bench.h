// Shared pieces of perfbench_cli: workload geometry, inputs made
// from the workload seed, the request plan of the load generator, spans
// and a small JSON writer. Everything the program under test receives is
// built here from --seed, so the same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "models/autoencoder.h"
#include "serve/batch_queue.h"
#include "serve/loaded_model.h"

namespace perfbench {

using sqvae::Matrix;

/// Seconds on CLOCK_MONOTONIC, the clock Python's time.monotonic() reads,
/// so the runner can time a child process from its own launch.
double mono_s();
double mono_us();

/// The paper's ligand corpus: 2492 PDBbind-like molecules as 32 x 32
/// matrices (1024 features).
constexpr std::size_t kCorpus = 2492;
constexpr std::size_t kMatrixDim = 32;

/// Steal-aware measurement: an epoch or sub-window is clean at no more
/// than kStealLimit host steal. Speed and latency come from the least-stolen
/// 1/kKeepOf of the nominal count of them, and a run goes on past its
/// nominal length until that many were clean: up to kExtend times the
/// nominal length, or, once the run has seen a storm (in_storm: two seconds
/// that averaged kStormSteal or more), up to kStormExtend times. On shared
/// hosts such storms of steal last minutes and leave no quiet window; a
/// run that meets a storm's end waits for the quiet part that follows and
/// reports from it. kStormExtend keeps the longest run well inside the
/// benchmark's per-run time limit. Traced runs, whose figures have no
/// bound, do not wait (--storm_wait=false).
constexpr double kStealLimit = 0.03;
constexpr double kStormSteal = 0.10;
constexpr double kExtend = 1.25;
constexpr double kStormExtend = 4.0;
constexpr std::size_t kKeepOf = 3;

/// Load shape of the serving workload (and of the in-process probes): 4
/// connections (= nproc on the reference host), 8 requests in flight each.
constexpr std::size_t kConns = 4;
constexpr std::size_t kWindow = 8;

/// One model family and its training hyperparameters.
struct Geometry {
  sqvae::serve::ModelSpec spec;  // as sqvae_serve's model flags give it
  double quantum_lr = 0.03;
  double classical_lr = 0.01;
};

/// "sq-vae-ligand" (the only model family); throws on others.
Geometry geometry(const std::string& name);

struct Corpus {
  Matrix train;
  Matrix test;
};

/// The generated corpus split 85/15 with the seed's shuffle; with
/// train_rows > 0 the training side keeps only its first train_rows rows.
Corpus make_corpus(std::uint64_t seed, std::size_t train_rows);

/// Freshly initialised model of the family, weights drawn from the seed.
std::unique_ptr<sqvae::models::Autoencoder> make_model(const Geometry& g,
                                                       std::uint64_t seed);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Aggregate CPU jiffies of the host (/proc/stat): steal and the total.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the hypervisor between two reads.
double steal_share(const CpuTimes& a, const CpuTimes& b);
/// True when the mean steal share of the last `n` epochs or sub-windows is
/// at least kStormSteal.
bool in_storm(const std::vector<double>& steal, std::size_t n);

// ---- requests -------------------------------------------------------------

/// Request payloads: held-out feature rows and latent rows, kept both as
/// numbers and as the exact text the requests carry.
struct Payloads {
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> latents;
  std::vector<std::string> feature_text;
  std::vector<std::string> latent_text;
};

/// Reads the file gen-serve writes ("F v,v,..." and "Z v,v,..." lines).
bool load_payloads(const std::string& path, Payloads* out);

/// Comma-joined values printed with max_digits10 (round-trips exactly).
std::string join_values(const std::vector<double>& v);

/// Traffic shape: "mix" (the serving workload) sends all four endpoints in
/// equal shares with a fresh seed per request; "hot" (the traced run's
/// response-cache probe) cycles kHotKeys (payload, seed) keys over
/// encode/decode/reconstruct, so nearly every request is a cache hit.
constexpr std::size_t kHotKeys = 48;

struct PlannedRequest {
  sqvae::serve::Endpoint endpoint = sqvae::serve::Endpoint::kEncode;
  std::size_t payload = 0;  // index into features (or latents for decode)
  std::uint64_t seed = 0;
};

/// Request `j` of connection `conn` (deterministic in all arguments).
PlannedRequest plan_request(const std::string& traffic, std::size_t conn,
                            std::size_t conns, std::uint64_t j,
                            std::size_t rows, std::uint64_t seed);

/// The wire line (with trailing newline) of a planned request.
std::string request_line(const PlannedRequest& r, std::uint64_t id,
                         const Payloads& p);

// ---- spans ----------------------------------------------------------------

/// In-memory span log, one buffer per thread slot so OpenMP workers record
/// without locks; written out once as Chrome trace-event JSON.
class SpanLog {
 public:
  explicit SpanLog(int threads);

  /// Records a finished span; returns its index within the thread's buffer
  /// (pass it as `parent` of spans it caused on the same thread, or -1).
  int add(int tid, const char* name, double start_us, double end_us,
          std::uint64_t id, int parent = -1);
  /// Opens a span whose end is filled in by close().
  int open(int tid, const char* name, std::uint64_t id, int parent = -1);
  void close(int tid, int index);

  /// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": other}.
  bool write_chrome(const std::string& path,
                    const std::string& other_json) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::uint64_t id;
    int parent;
  };
  std::vector<std::vector<Span>> threads_;
};

// ---- JSON -----------------------------------------------------------------

/// Minimal JSON object writer (numbers with max_digits10).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  std::string done() const { return "{" + body_.str() + "}"; }

 private:
  void key(const std::string& k);
  std::ostringstream body_;
  bool first_ = true;
};

bool write_text(const std::string& path, const std::string& text);

// ---- subcommands ----------------------------------------------------------

int cmd_train(int argc, char** argv);
int cmd_load(int argc, char** argv);
int cmd_trace(int argc, char** argv);

}  // namespace perfbench
