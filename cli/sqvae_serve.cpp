// sqvae_serve: batched inference serving over a line protocol.
//
// Loads a checkpoint (any file sqvae_train writes; training state is
// ignored — models/checkpoint.h load_params_only) into an immutable
// LoadedModel, publishes it as "default" in a ModelRegistry, and answers
// encode / decode / reconstruct / latent_sample requests through the
// micro-batching InferenceService. One JSON-ish request per line in, one
// response per line out (see src/serve/protocol.h for the exact format).
// {"op": "stats"} returns the live ServerStats counters as one JSON line;
// {"op": "stats", "format": "prometheus"} returns the Prometheus text
// exposition (multi-line, terminated by a "# EOF" line), which is also
// what --stats_port serves over plain HTTP for scrapers.
//
// Transports (both run lines through src/serve/frontend.h and answer in
// request order):
//   * stdin/stdout (default) — a reader thread submits requests while
//     the main thread writes responses, so a piped client gets real
//     micro-batch coalescing and may write everything before reading;
//   * TCP (--port=N) — a single-threaded epoll event loop
//     (src/serve/event_loop.h) owns every connection: incremental frame
//     parsing, bounded output queues, --max_conns admission control,
//     --idle_ms timeouts, and a full queue sheds instead of blocking.
//     Compute runs on the InferenceService worker pool, so concurrent
//     connections still coalesce into shared micro-batches.
//     SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish and
//     flush in-flight responses, then exit 0. SIGHUP triggers a
//     zero-downtime checkpoint rollout: the checkpoint file is re-loaded
//     and republished through the ModelRegistry while in-flight traffic
//     stays pinned to the generation it started with.
//   * multi-process TCP (--workers=N, N > 1) — a thread-free supervisor
//     (src/serve/supervisor.h) forks N shard processes *before* any
//     worker thread exists; every shard binds the same --port with
//     SO_REUSEPORT (the kernel load-balances accepts), runs its own full
//     serving stack, and answers any request bit-identically to any
//     other shard (the determinism contract makes responses a pure
//     function of the request + checkpoint). The supervisor restarts
//     crashed shards, fans SIGTERM out for a coordinated graceful drain,
//     and fans SIGHUP out for a fleet-wide rollout.
//
// --cache_mb enables the content-addressed response cache
// (src/serve/response_cache.h): repeated (model generation, endpoint,
// payload, seed) requests are answered from memory, bit-identical to a
// fresh execution by the determinism contract.
//
// --reference bypasses the service stack entirely and answers each request
// in-process through serve::execute_single — the determinism contract's
// reference implementation. Piping the same requests through a normal
// (multi-worker, micro-batched, cached, even multi-process) server and
// through --reference must produce byte-identical output; ci/serve_smoke.sh
// and ci/serve_soak.sh diff exactly that against freshly trained
// checkpoints.
//
// Examples:
//   sqvae_serve --checkpoint=run.ckpt --input_dim=64 < requests.jsonl
//   sqvae_serve --checkpoint=run.ckpt --input_dim=64 --port=7071
//       --cache_mb=64 --max_conns=5000
//   sqvae_serve --checkpoint=run.ckpt --input_dim=64 --port=7071
//       --workers=4 --stats_port=9100   # shards scrape at 9100..9103
//   echo '{"op": "stats"}' | sqvae_serve --checkpoint=run.ckpt
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/thread_budget.h"
#include "models/model_spec.h"
#include "serve/event_loop.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "serve/stats_http.h"
#include "serve/supervisor.h"

#ifdef __unix__
#include <csignal>
#define SQVAE_SERVE_HAS_SIGNALS 1
#endif

namespace {

using namespace sqvae;

/// --reference: answers each request in-process, no queue, no workers.
int run_reference(const std::shared_ptr<const serve::LoadedModel>& loaded,
                  std::istream& in, std::ostream& out) {
  std::unique_ptr<models::Autoencoder> replica = loaded->make_replica();
  if (replica == nullptr) {
    std::fprintf(stderr, "internal error: replica build failed\n");
    return 1;
  }
  std::string line;
  while (std::getline(in, line)) {
    serve::WireRequest request;
    std::string error;
    if (!serve::parse_request_line(line, &request, &error)) {
      if (error.empty()) continue;
      out << serve::format_parse_error(error) << '\n';
      continue;
    }
    if (request.is_stats) continue;  // transport-layer op; nothing to replay
    const serve::InferenceResult result = serve::execute_single(
        *loaded, *replica, request.endpoint, request.x, request.seed);
    out << serve::format_response(request, result) << '\n';
  }
  out.flush();
  return 0;
}

#ifdef SQVAE_SERVE_HAS_SIGNALS
// Signal handlers may only touch these pointers and call the
// async-signal-safe request_* methods (eventfd / self-pipe writes).
serve::EventLoopServer* g_server = nullptr;
serve::ShardSupervisor* g_supervisor = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
  if (g_supervisor != nullptr) g_supervisor->request_drain();
}

void handle_reload_signal(int) {
  if (g_server != nullptr) g_server->request_reload();
  if (g_supervisor != nullptr) g_supervisor->request_rollout();
}
#endif

int run_event_loop(serve::InferenceService& service,
                   serve::ServerStats& stats,
                   const serve::EventLoopConfig& config, int shard,
                   int workers) {
  serve::EventLoopServer server(service, config, stats);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "sqvae_serve: %s\n", error.c_str());
    return 1;
  }
#ifdef SQVAE_SERVE_HAS_SIGNALS
  // A client that disconnects before reading its response must not kill
  // the server: writes to its dead socket return EPIPE (tearing that
  // connection down) instead of raising fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  g_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGHUP, handle_reload_signal);
#endif
  std::fprintf(stderr, "sqvae_serve: shard %d/%d listening on 127.0.0.1:%d\n",
               shard, workers, server.port());
  const int status = server.run();
#ifdef SQVAE_SERVE_HAS_SIGNALS
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  g_server = nullptr;
#endif
  // Workers must be joined before `server` is destroyed: their completion
  // callbacks post into it.
  service.shutdown();
  return status;
}

/// One serving process end to end: load the checkpoint, build the
/// registry/service stack, serve (stdin or TCP), shut down. In
/// multi-process mode this runs inside each forked shard — nothing above
/// it may create threads before the fork.
int serve_process(const Flags& flags, const serve::ModelSpec& spec, int shard,
                  int workers) {
  const std::string checkpoint = flags.get_string("checkpoint");
  std::string error;
  const std::shared_ptr<const serve::LoadedModel> loaded =
      serve::LoadedModel::from_checkpoint_file(spec, checkpoint, &error);
  if (loaded == nullptr) {
    std::fprintf(stderr, "sqvae_serve: %s\n", error.c_str());
    return 1;
  }

  serve::ModelRegistry registry;
  registry.publish("default", loaded);
  serve::ServerStats stats;
  serve::ServeConfig config;
  config.max_batch = static_cast<std::size_t>(flags.get_int("max_batch"));
  config.max_batch_wait_us =
      static_cast<std::uint64_t>(flags.get_int("max_wait_us"));
  config.threads = thread_budget::shard_budget(
      thread_budget::process_threads(), workers,
      static_cast<int>(flags.get_int("threads")));
  config.max_queue = static_cast<std::size_t>(flags.get_int("max_queue"));
  const int port = static_cast<int>(flags.get_int("port"));
  config.shed_on_full = port != 0;
  config.cache_bytes =
      static_cast<std::size_t>(flags.get_int("cache_mb")) << 20;
  serve::InferenceService service(registry, config, &stats);

  // Per-shard Prometheus scrape endpoint on stats_port + shard: per-shard
  // metrics need per-shard addresses (a shared SO_REUSEPORT scrape port
  // would hand each scrape to a random shard).
  std::unique_ptr<serve::StatsHttpServer> stats_http;
  const int stats_port = static_cast<int>(flags.get_int("stats_port"));
  if (stats_port != 0) {
    stats_http = std::make_unique<serve::StatsHttpServer>(
        stats_port + shard, [&stats, &service, shard] {
          return serve::render_stats_prometheus(
              stats, service.queue().depth(),
              service.registry().generation("default"), shard);
        });
    std::string http_error;
    if (!stats_http->start(&http_error)) {
      std::fprintf(stderr, "sqvae_serve: %s\n", http_error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "sqvae_serve: shard %d stats on http://127.0.0.1:%d/\n",
                 shard, stats_http->port());
  }

  int status = 0;
  if (port != 0) {
    serve::EventLoopConfig loop_config;
    loop_config.port = port;
    loop_config.reuse_port = workers > 1;
    loop_config.shard = shard;
    loop_config.max_conns =
        static_cast<std::size_t>(flags.get_int("max_conns"));
    loop_config.idle_timeout_ms =
        static_cast<std::uint64_t>(flags.get_int("idle_ms"));
    // SIGHUP rollout: re-load the checkpoint file and republish it. Runs
    // on the loop thread; in-flight batches stay pinned to the old
    // generation (registry.h), new batches (and new cache keys) see the
    // new one — zero downtime, no mixed responses.
    loop_config.on_reload = [&registry, &spec, checkpoint, shard] {
      std::string reload_error;
      const std::shared_ptr<const serve::LoadedModel> fresh =
          serve::LoadedModel::from_checkpoint_file(spec, checkpoint,
                                                   &reload_error);
      if (fresh == nullptr) {
        // Keep serving the old generation: a bad checkpoint on disk must
        // not take down a healthy fleet.
        std::fprintf(stderr, "sqvae_serve: shard %d reload failed: %s\n",
                     shard, reload_error.c_str());
        return;
      }
      const std::uint64_t generation = registry.publish("default", fresh);
      std::fprintf(stderr,
                   "sqvae_serve: shard %d reloaded checkpoint "
                   "(generation %llu)\n",
                   shard, static_cast<unsigned long long>(generation));
    };
    status = run_event_loop(service, stats, loop_config, shard, workers);
  } else {
    serve::serve_stream(service, stats, /*in_fd=*/0, /*out_fd=*/1);
  }

  service.shutdown();
  if (stats_http != nullptr) stats_http->stop();
  std::fprintf(stderr,
               "sqvae_serve: shard %d: %llu request(s) in %llu batch(es), "
               "%d worker(s) x team %d, max_batch %zu, %llu cache hit(s), "
               "%llu shed\n",
               shard,
               static_cast<unsigned long long>(
                   service.queue().total_requests()),
               static_cast<unsigned long long>(service.queue().total_batches()),
               service.num_workers(), service.worker_team(), config.max_batch,
               static_cast<unsigned long long>(
                   stats.cache_hits.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   stats.requests_shed.load(std::memory_order_relaxed) +
                   stats.connections_shed.load(std::memory_order_relaxed)));
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  // Model spec (must match the checkpoint's architecture).
  flags.add_string("checkpoint", "", "checkpoint path (v1 or v2; required)");
  flags.add_int("input_dim", 64, "model input dimension", 1);
  models::add_model_flags(flags);
  // Serving knobs.
  flags.add_int("max_batch", 16, "micro-batch size cap (1 = no batching)",
                0);
  flags.add_int("max_wait_us", 0,
                "micro-batch straggler wait in microseconds (0 = "
                "opportunistic coalescing only)",
                0);
  flags.add_int("threads", 0,
                "compute budget of each shard: one worker thread per unit, "
                "each at a team of 1 (0 = process CPUs / --workers)",
                0);
  flags.add_int("max_queue", 1024,
                "queued-request bound; when full, stdin mode blocks "
                "(backpressure) and TCP mode sheds (0 = unbounded)",
                0);
  flags.add_int("cache_mb", 0,
                "content-addressed response cache budget in MiB (0 = off)", 0);
  flags.add_int("port", 0, "TCP port on 127.0.0.1 (0 = stdin/stdout mode)");
  flags.add_int("workers", 1,
                "shard processes sharing --port via SO_REUSEPORT (TCP mode "
                "only; a supervisor restarts crashed shards and coordinates "
                "SIGTERM drain / SIGHUP rollout)",
                1);
  flags.add_int("stats_port", 0,
                "plain-HTTP Prometheus scrape port; shard i serves on "
                "stats_port + i (0 = off)");
  flags.add_int("max_conns", 10000,
                "TCP connection admission limit; connections beyond it get "
                "one overloaded error line and are closed",
                0);
  flags.add_int("idle_ms", 0,
                "close TCP connections idle this long (0 = never)", 0);
  flags.add_bool("reference", false,
                 "answer requests in-process without the service stack (the "
                 "determinism reference; for diffing)");

  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const std::string checkpoint = flags.get_string("checkpoint");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n");
    return 2;
  }
  serve::ModelSpec spec;
  std::string spec_error;
  if (!models::spec_from_flags(flags, &spec, &spec_error)) {
    std::fprintf(stderr, "sqvae_serve: %s\n", spec_error.c_str());
    return 2;
  }
  spec.input_dim = static_cast<std::size_t>(flags.get_int("input_dim"));

  if (flags.get_bool("reference")) {
    std::string error;
    const std::shared_ptr<const serve::LoadedModel> loaded =
        serve::LoadedModel::from_checkpoint_file(spec, checkpoint, &error);
    if (loaded == nullptr) {
      std::fprintf(stderr, "sqvae_serve: %s\n", error.c_str());
      return 1;
    }
    return run_reference(loaded, std::cin, std::cout);
  }

  const int port = static_cast<int>(flags.get_int("port"));
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port=%d is out of range (1-65535, 0 = stdin)\n",
                 port);
    return 2;
  }
  const int workers = static_cast<int>(flags.get_int("workers"));
  if (workers > 1 && port == 0) {
    std::fprintf(stderr,
                 "--workers=%d requires --port (SO_REUSEPORT sharding is "
                 "TCP-only)\n",
                 workers);
    return 2;
  }
  const int stats_port = static_cast<int>(flags.get_int("stats_port"));
  if (stats_port < 0 || stats_port + workers - 1 > 65535) {
    std::fprintf(stderr,
                 "--stats_port=%d is out of range (shard %d would scrape at "
                 "%d)\n",
                 stats_port, workers - 1, stats_port + workers - 1);
    return 2;
  }

  if (workers > 1) {
#ifdef SQVAE_SERVE_HAS_SIGNALS
    // Fork BEFORE any thread exists: each shard builds its worker pool
    // (and everything else) inside the child. The supervisor itself
    // stays thread-free.
    serve::SupervisorConfig sup_config;
    sup_config.workers = workers;
    serve::ShardSupervisor supervisor(sup_config);
    g_supervisor = &supervisor;
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGHUP, handle_reload_signal);
    std::string error;
    const int status = supervisor.run(
        [&flags, &spec, workers](int shard) {
          return serve_process(flags, spec, shard, workers);
        },
        &error);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGHUP, SIG_DFL);
    g_supervisor = nullptr;
    if (!error.empty()) {
      std::fprintf(stderr, "sqvae_serve: %s\n", error.c_str());
    }
    std::fprintf(stderr,
                 "sqvae_serve: supervisor exiting %d (%llu shard "
                 "restart(s))\n",
                 status,
                 static_cast<unsigned long long>(supervisor.restarts()));
    return status;
#else
    std::fprintf(stderr, "--workers > 1 requires fork (unix)\n");
    return 2;
#endif
  }

  return serve_process(flags, spec, /*shard=*/0, /*workers=*/1);
}
