// perfbench_cli: the benchmark's compiled half. perfbench/run.py calls
//   host       ISA and OpenMP team size of this build
//   gen-serve  write a served model's checkpoint and request payloads
//   train      one training run through Trainer::fit (train.cpp)
//   load       the closed-loop TCP load generator (loadgen.cpp)
//   trace      the traced per-layer probes (trace.cpp)
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/flags.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/molecule_dataset.h"
#include "bench.h"
#include "models/checkpoint.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"
#include "qsim/kernels.h"

namespace perfbench {

using sqvae::Rng;
using sqvae::serve::Endpoint;

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double mono_us() { return mono_s() * 1e6; }

Geometry geometry(const std::string& name) {
  Geometry g;
  if (name == "sq-vae-ligand") {
    g.spec.kind = "sq-vae";
    g.spec.input_dim = 1024;
    g.spec.entangling_layers = 5;
    g.spec.patches = 8;
  } else {
    throw std::invalid_argument("unknown geometry " + name);
  }
  return g;
}

Corpus make_corpus(std::uint64_t seed, std::size_t train_rows) {
  Rng rng(seed);
  const sqvae::data::MoleculeDataset mols =
      sqvae::data::make_pdbbind_like(kCorpus, kMatrixDim, rng);
  sqvae::data::TrainTestSplit split =
      sqvae::data::train_test_split(mols.features(), 0.15, rng);
  Matrix& train = split.train.samples;
  if (train_rows > 0 && train_rows < train.rows()) {
    Matrix head(train_rows, train.cols());
    std::memcpy(head.data(), train.data(),
                train_rows * train.cols() * sizeof(double));
    train = std::move(head);
  }
  return Corpus{std::move(train), std::move(split.test.samples)};
}

std::unique_ptr<sqvae::models::Autoencoder> make_model(const Geometry& g,
                                                       std::uint64_t seed) {
  Rng rng(seed ^ 0x6d6f64656cull);
  const sqvae::serve::ModelSpec& s = g.spec;
  sqvae::models::ScalableQuantumConfig c;
  c.input_dim = s.input_dim;
  c.patches = s.patches;
  c.entangling_layers = s.entangling_layers;
  return sqvae::models::make_sq_vae(c, rng);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest is inside user).
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0.0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

bool in_storm(const std::vector<double>& steal, std::size_t n) {
  n = std::min(n, steal.size());
  if (n == 0) return false;
  double sum = 0.0;
  for (std::size_t i = steal.size() - n; i < steal.size(); ++i) sum += steal[i];
  return sum / static_cast<double>(n) >= kStormSteal;
}

// ---- requests ---------------------------------------------------------------

std::string join_values(const std::vector<double>& v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  return os.str();
}

namespace {

std::vector<double> split_values(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) break;
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

}  // namespace

bool load_payloads(const std::string& path, Payloads* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const std::string text = line.substr(2);
    if (line[0] == 'F') {
      out->features.push_back(split_values(text));
      out->feature_text.push_back(text);
    } else if (line[0] == 'Z') {
      out->latents.push_back(split_values(text));
      out->latent_text.push_back(text);
    }
  }
  return !out->features.empty() && !out->latents.empty();
}

PlannedRequest plan_request(const std::string& traffic, std::size_t conn,
                            std::size_t conns, std::uint64_t j,
                            std::size_t rows, std::uint64_t seed) {
  const std::uint64_t g = j * conns + conn;
  const std::uint64_t base = seed * 1000003ull;
  PlannedRequest r;
  if (traffic == "hot") {
    const std::uint64_t key = g % kHotKeys;
    static constexpr Endpoint kHot[3] = {Endpoint::kEncode, Endpoint::kDecode,
                                         Endpoint::kReconstruct};
    r.endpoint = kHot[key % 3];
    r.payload = static_cast<std::size_t>((key / 3) % rows);
    r.seed = base + key;
  } else {
    static constexpr Endpoint kMix[4] = {Endpoint::kEncode, Endpoint::kDecode,
                                         Endpoint::kReconstruct,
                                         Endpoint::kLatentSample};
    r.endpoint = kMix[(j + conn) % 4];
    r.payload = static_cast<std::size_t>(g % rows);
    r.seed = base + g;
  }
  return r;
}

std::string request_line(const PlannedRequest& r, std::uint64_t id,
                         const Payloads& p) {
  std::string line = "{\"op\": \"";
  line += sqvae::serve::endpoint_name(r.endpoint);
  line += "\", \"seed\": " + std::to_string(r.seed) +
          ", \"id\": " + std::to_string(id);
  if (r.endpoint == Endpoint::kDecode) {
    line += ", \"x\": [" + p.latent_text[r.payload % p.latents.size()] + "]";
  } else if (r.endpoint != Endpoint::kLatentSample) {
    line += ", \"x\": [" + p.feature_text[r.payload] + "]";
  }
  line += "}\n";
  return line;
}

// ---- spans ------------------------------------------------------------------

SpanLog::SpanLog(int threads)
    : threads_(static_cast<std::size_t>(threads > 0 ? threads : 1)) {
  for (auto& t : threads_) t.reserve(1 << 14);
}

int SpanLog::add(int tid, const char* name, double start_us, double end_us,
                 std::uint64_t id, int parent) {
  auto& buf = threads_[static_cast<std::size_t>(tid)];
  buf.push_back(Span{name, start_us, end_us, id, parent});
  return static_cast<int>(buf.size()) - 1;
}

int SpanLog::open(int tid, const char* name, std::uint64_t id, int parent) {
  return add(tid, name, mono_us(), 0.0, id, parent);
}

void SpanLog::close(int tid, int index) {
  threads_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(index)]
      .end_us = mono_us();
}

bool SpanLog::write_chrome(const std::string& path,
                           const std::string& other_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_json
      << ", \"traceEvents\": [";
  bool first = true;
  std::size_t offset = 0;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    const auto& buf = threads_[t];
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const Span& s = buf[i];
      const long long parent =
          s.parent < 0 ? -1
                       : static_cast<long long>(offset) + s.parent;
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << t
          << ", \"ts\": " << s.start_us
          << ", \"dur\": " << (s.end_us - s.start_us)
          << ", \"args\": {\"span\": " << (offset + i)
          << ", \"parent\": " << parent << ", \"id\": " << s.id << "}}";
      first = false;
    }
    offset += buf.size();
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- JSON -------------------------------------------------------------------

void JsonObject::key(const std::string& k) {
  if (!first_) body_ << ", ";
  first_ = false;
  body_ << '"' << k << "\": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (std::isfinite(v)) {
    body_ << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  } else {
    body_ << "null";
  }
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long v) {
  key(k);
  body_ << v;
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ << '"';
  for (char c : v) {
    if (c == '"' || c == '\\') body_ << '\\';
    body_ << (c == '\n' ? ' ' : c);
  }
  body_ << '"';
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ << json;
  return *this;
}

JsonObject& JsonObject::nums(const std::string& k,
                             const std::vector<double>& v) {
  key(k);
  body_ << '[';
  body_ << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) body_ << ", ";
    if (std::isfinite(v[i])) {
      body_ << v[i];
    } else {
      body_ << "null";
    }
  }
  body_ << ']';
  return *this;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

namespace {

int cmd_host() {
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::printf("%s\n",
              JsonObject()
                  .str("isa", sqvae::qsim::kernels::isa_name(
                                  sqvae::qsim::kernels::active_isa()))
                  .integer("omp_max_threads", omp_threads)
                  .done()
                  .c_str());
  return 0;
}

/// Writes <dir>/model.ckpt and <dir>/payloads.txt (held-out rows and
/// N(0, I) latent rows). The served model is trained briefly first (2
/// epochs on 1024 training rows, about 2 s): a freshly initialised decoder
/// emits no valid molecule at all, and the longer the training, the less
/// its quality figures vary from seed to seed.
int cmd_gen_serve(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_string("geometry", "sq-vae-ligand", "model family");
  flags.add_int("seed", 1, "workload seed");
  flags.add_string("dir", "", "output directory");
  if (!flags.parse(argc, argv)) return 0;
  const Geometry g = geometry(flags.get_string("geometry"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::string dir = flags.get_string("dir");

  const Corpus corpus = make_corpus(seed, 1024);
  auto model = make_model(g, seed);
  sqvae::models::TrainConfig config;
  config.epochs = 2;
  config.quantum_lr = g.quantum_lr;
  config.classical_lr = g.classical_lr;
  Rng train_rng(seed ^ 0x747261696eull);
  sqvae::models::Trainer(*model, config).fit(corpus.train, nullptr, train_rng);
  if (!sqvae::models::save_checkpoint(*model, dir + "/model.ckpt")) {
    std::fprintf(stderr, "gen-serve: cannot write %s/model.ckpt\n",
                 dir.c_str());
    return 1;
  }
  std::ostringstream os;
  for (std::size_t r = 0; r < corpus.test.rows(); ++r) {
    os << "F " << join_values(corpus.test.row(r)) << "\n";
  }
  Rng rng(seed ^ 0x6c6174656e74ull);
  for (std::size_t r = 0; r < corpus.test.rows(); ++r) {
    std::vector<double> z(model->latent_dim());
    for (double& v : z) v = rng.normal();
    os << "Z " << join_values(z) << "\n";
  }
  if (!write_text(dir + "/payloads.txt", os.str())) {
    std::fprintf(stderr, "gen-serve: cannot write payloads\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_cli host|gen-serve|train|load|trace "
                 "[--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "host") return perfbench::cmd_host();
    if (cmd == "gen-serve") return perfbench::cmd_gen_serve(argc - 1, argv + 1);
    if (cmd == "train") return perfbench::cmd_train(argc - 1, argv + 1);
    if (cmd == "load") return perfbench::cmd_load(argc - 1, argv + 1);
    if (cmd == "trace") return perfbench::cmd_trace(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_cli: unknown command %s\n", cmd.c_str());
  return 2;
}
