#!/usr/bin/env python3
"""End-to-end benchmark of sqvae on the paper's workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
the CLIs and perfbench_cli into .bench_build/; run files go to
.bench_out/. Workloads and metrics are listed in BENCHMARK.json and
explained in perfbench/README.md:

  train-ligand-sqvae  SQ-VAE on PDBbind-like ligands through Trainer::fit
  serve-ligand-mix    sqvae_serve, ligand SQ-VAE, all endpoints, no repeats

Every binary runs with its defaults: no thread-count flag and no
OMP_NUM_THREADS or SQVAE_* environment override. Output: one
"name value unit" line per metric, fail_frac, a "host" line and an "info"
line, then (last line) the JSON result. --trace 0 reports the end-to-end
metrics of an untraced run; --trace 1 the per-layer metrics of a traced
run, whose Chrome trace goes to .bench_out/. A failed check exits 1; a
missing source tree or a failed build exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402
import selftest  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
CLI = os.path.join(BUILD, "perfbench_cli")
SERVE = os.path.join(BUILD, "sqvae", "sqvae_serve")

# Training runs a fixed sample budget sized from --seconds with a nominal
# rate (samples/s on a 4-vCPU host), so the trained model and its quality
# figures depend only on the arguments, never on speed. Training uses a
# fixed prefix of the 85% training split (the held-out 15% stays whole),
# which keeps an epoch near one second, the granularity of the steal-aware
# selection.
WORKLOADS = {
    "train-ligand-sqvae": {"kind": "train", "geometry": "sq-vae-ligand",
                           "train_rows": 1024, "nominal_rate": 1000.0},
    "serve-ligand-mix": {"kind": "serve", "geometry": "sq-vae-ligand"},
}

# sqvae_serve flags of each model family; geometry() in main.cpp builds
# the same models.
SERVE_MODEL_FLAGS = {
    "sq-vae-ligand": ["--model=sq-vae", "--input_dim=1024", "--layers=5",
                      "--patches=8"],
}

SETUP_LAUNCHES = 15


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def read(path):
    with open(path) as f:
        return f.read()


# ---- build ----------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no sqvae source tree at %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def cli(*args):
    res = subprocess.run([CLI] + list(args), stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=170)
    if res.returncode != 0:
        raise BenchError("perfbench_cli %s exited %d"
                         % (args[0], res.returncode))
    return res.stdout


# ---- host -----------------------------------------------------------------

def host_info():
    info = json.loads(cli("host"))
    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    info.update({"nproc": len(os.sched_getaffinity(0)),
                 "loadavg_1m": float(read("/proc/loadavg").split()[0]),
                 "cpu_model": model})
    return {"host." + k: v for k, v in info.items()}


def proc_stat():
    return bl.parse_proc_stat(read("/proc/stat"))


class ProcessUsage:
    """CPU seconds and context switches (all threads) of a live process."""

    def __init__(self, pid):
        self.pid = pid

    def sample(self):
        cpu = bl.parse_pid_stat(read("/proc/%d/stat" % self.pid),
                                os.sysconf("SC_CLK_TCK"))
        ctx = 0
        for tid in os.listdir("/proc/%d/task" % self.pid):
            try:
                st = bl.parse_status(
                    read("/proc/%d/task/%s/status" % (self.pid, tid)))
            except OSError:
                continue
            ctx += st.get("voluntary_ctxt_switches", 0)
            ctx += st.get("nonvoluntary_ctxt_switches", 0)
        return cpu, ctx

    def peak_rss_mb(self):
        status = bl.parse_status(read("/proc/%d/status" % self.pid))
        return status["VmHWM"] / 1024.0


# ---- training ---------------------------------------------------------------

def storm_flag(wait):
    """Untraced runs wait out a storm of steal (bench.h); traced ones not."""
    return "--storm_wait=%s" % ("true" if wait else "false")


def run_training(spec, seed, seconds, out, checkpoint="", storm_wait=True):
    """One untraced training run plus set-up-only launches."""
    budget = max(4, int(round(seconds * spec["nominal_rate"]
                              / spec["train_rows"])))
    common = ["--geometry=" + spec["geometry"], "--seed=%d" % seed,
              "--train_rows=%d" % spec["train_rows"], "--epochs=%d" % budget,
              "--seconds=%g" % seconds, storm_flag(storm_wait)]
    result_path = os.path.join(out, "train.json")
    t0 = time.monotonic()
    cli("train", *common, "--out=" + result_path,
           "--checkpoint_out=" + checkpoint)
    res = json.loads(read(result_path))
    setups = [res["first_step_mono"] - t0]
    for _ in range(SETUP_LAUNCHES - 1):
        t0 = time.monotonic()
        first = json.loads(cli("train", *common, "--setup_only"))
        setups.append(first["first_step_mono"] - t0)
    res["setups"] = setups
    res["budget"] = budget
    return res


def training_metrics(res):
    """End-to-end metrics, attempted, failed, latency sample count."""
    epochs = bl.least_stolen(res["epoch_steal"], res["keep_epochs"])
    rates = [res["train_rows"] / res["epoch_s"][e] for e in epochs]
    attempted = len(res["epoch_s"]) + 1  # every epoch loss + held-out MSE
    failed = res["non_finite"] + (1 if res["generated"] < 1 else 0)
    lat = (res["sample_ms"], res["sample_epoch"], epochs)
    return {
        "setup_s": statistics.median(res["setups"]),
        "throughput_per_s": statistics.median(rates),
        "lat_p50_ms": bl.window_percentile(*lat, 50),
        "lat_p90_ms": bl.window_percentile(*lat, 90),
        "peak_rss_mb": res["peak_rss_mb"],
        "recon_mse": res["recon_mse"],
        "valid_frac": res["valid"] / max(1, res["generated"]),
    }, attempted, failed, len(bl.select(*lat))


# ---- serving ----------------------------------------------------------------

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """sqvae_serve on a loopback port; drained (or killed) and reaped."""

    def __init__(self, flags, probe):
        self.port = free_port()
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [SERVE, "--port=%d" % self.port] + flags,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            self.setup_s = self._first_answer(probe)
        except BaseException:
            self.stop()
            raise

    def _first_answer(self, line):
        deadline = self.t0 + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("sqvae_serve exited %d: %s" % (
                    self.proc.returncode, self.proc.stderr.read()[-400:]))
            try:
                conn = socket.create_connection(("127.0.0.1", self.port),
                                                timeout=30)
            except OSError:
                time.sleep(0.001)
                continue
            with conn:
                conn.sendall(line.encode())
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = conn.recv(1 << 16)
                    if not chunk:
                        break
                    buf += chunk
            if not buf.startswith(b'{"ok": true'):
                raise BenchError("probe request failed: %r" % buf[:200])
            return time.monotonic() - self.t0
        raise BenchError("sqvae_serve did not answer within 60 s")

    def stop(self):
        """Graceful drain (SIGTERM); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        return self.proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def probe_line(payload_path):
    with open(payload_path) as f:
        first = f.readline()[2:].strip()
    return '{"op": "encode", "seed": 0, "id": 0, "x": [%s]}\n' % first


def serve_flags(geometry, checkpoint):
    return ["--checkpoint=" + checkpoint] + SERVE_MODEL_FLAGS[geometry]


def run_load(server, payloads, seed, seconds, out, tag, trace=False,
             storm_wait=True):
    paths = {k: os.path.join(out, "%s.%s" % (tag, k))
             for k in ("json", "req", "resp", "trace.json")}
    usage = ProcessUsage(server.proc.pid)
    cpu0, ctx0 = usage.sample()
    st0 = proc_stat()
    args = ["--port=%d" % server.port, "--payloads=" + payloads,
            "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--out=" + paths["json"], "--ref_requests=" + paths["req"],
            "--ref_responses=" + paths["resp"], storm_flag(storm_wait)]
    if trace:
        args.append("--trace_out=" + paths["trace.json"])
    cli("load", *args)
    cpu1, ctx1 = usage.sample()
    res = json.loads(read(paths["json"]))
    res["steal_frac"] = bl.steal_frac(st0, proc_stat())
    res["server_cpu_s"] = cpu1 - cpu0
    res["server_ctx"] = ctx1 - ctx0
    res["paths"] = paths
    return res


def load_rate(res):
    """OK responses/s: median over the least-stolen sub-windows."""
    windows = bl.least_stolen(res["window_steal"], res["keep_windows"])
    return bl.window_rate([res["window_counts"][w] for w in windows],
                          res["sub_window_s"]), windows


def reference_mismatches(geometry, checkpoint, req_path, resp_path):
    """Sampled responses that differ from sqvae_serve --reference."""
    with open(req_path) as f:
        res = subprocess.run(
            [SERVE, "--reference"] + serve_flags(geometry, checkpoint),
            stdin=f, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170)
    if res.returncode != 0:
        raise BenchError("sqvae_serve --reference exited %d"
                         % res.returncode)
    want = res.stdout.splitlines()
    got = read(resp_path).splitlines()
    bad = sum(1 for a, b in zip(want, got) if a != b)
    return bad + abs(len(want) - len(got)), len(got)


def load_failures(res):
    """Failed checks of a load run plus what the server shed or rejected."""
    return int(res["failed"] + (res["requests_shed"] or 0)
               + (res["connections_shed"] or 0)
               + (res["protocol_errors"] or 0))


def serving_metrics(res, setups, rss):
    """End-to-end metrics, attempted, failed, latency sample count."""
    rate, windows = load_rate(res)
    failed = load_failures(res) + res["reference_mismatches"]
    if res["generated"] < 1 or res["recon_mse"] is None:
        failed += 1
    lat = (res["latency_ms"], res["latency_window"], windows)
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": rate,
        "lat_p50_ms": bl.window_percentile(*lat, 50),
        "lat_p90_ms": bl.window_percentile(*lat, 90),
        "peak_rss_mb": rss,
        "recon_mse": res["recon_mse"],
        "valid_frac": res["valid"] / max(1, res["generated"]),
    }, res["attempted"], failed, len(bl.select(*lat))


def run_serving(spec, seed, seconds, out, trace=False):
    geometry = spec["geometry"]
    cli("gen-serve", "--geometry=" + geometry, "--seed=%d" % seed,
           "--dir=" + out)
    checkpoint = os.path.join(out, "model.ckpt")
    payloads = os.path.join(out, "payloads.txt")
    flags = serve_flags(geometry, checkpoint)
    probe = probe_line(payloads)
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        with Server(flags, probe) as s:
            setups.append(s.setup_s)
    with Server(flags, probe) as server:
        setups.append(server.setup_s)
        res = run_load(server, payloads, seed, seconds, out, "load", trace,
                       storm_wait=not trace)
        rss = ProcessUsage(server.proc.pid).peak_rss_mb()
        code = server.stop()
    if code != 0:
        raise BenchError("sqvae_serve drain exited %d" % code)
    bad, checked = reference_mismatches(geometry, checkpoint,
                                        res["paths"]["req"],
                                        res["paths"]["resp"])
    res["reference_checked"] = checked
    res["reference_mismatches"] = bad
    return res, setups, rss, checkpoint, payloads


# ---- traced run -------------------------------------------------------------

def run_traced(spec, seed, seconds, out):
    """Per-layer metrics; perfbench/README.md defines each one."""
    layer = {}
    if spec["kind"] == "train":
        checkpoint = os.path.join(out, "trained.ckpt")
        res = run_training(spec, seed, seconds, out, checkpoint,
                           storm_wait=False)
        _, attempted, failed, _ = training_metrics(res)
        samples = res["train_rows"] * len(res["epoch_s"])
        st0 = proc_stat()
        # The trained model, served briefly, for the network-side figures.
        gen_dir = os.path.join(out, "serve")
        os.makedirs(gen_dir)
        cli("gen-serve", "--geometry=" + spec["geometry"],
               "--seed=%d" % seed, "--dir=" + gen_dir)
        payloads = os.path.join(gen_dir, "payloads.txt")
        flags = serve_flags(spec["geometry"], checkpoint)
        with Server(flags, probe_line(payloads)) as server:
            tcp = run_load(server, payloads, seed, max(1.0, seconds / 4), out,
                           "serve", storm_wait=False)
        failed += load_failures(tcp)
        attempted += tcp["attempted"]
        epoch_s = statistics.median(res["epoch_s"])
        layer["host.steal_frac"] = bl.steal_frac(st0, proc_stat())
        layer["host.cpu_ms_per_op"] = 1e3 * res["cpu_s"] / samples
        layer["host.ctx_switches_per_op"] = res["ctx_switches"] / samples
    else:
        tcp, setups, rss, checkpoint, payloads = run_serving(
            spec, seed, seconds, out, trace=True)
        _, attempted, failed, _ = serving_metrics(tcp, setups, rss)
        layer["host.trace_overhead_frac"] = bl.alternating_ratio(
            tcp["window_counts"])
        layer["host.steal_frac"] = tcp["steal_frac"]
        layer["host.cpu_ms_per_op"] = 1e3 * tcp["server_cpu_s"] / max(
            1, tcp["ok"])
        layer["host.ctx_switches_per_op"] = tcp["server_ctx"] / max(
            1, tcp["ok"])

    trace_path = os.path.join(out, "trace.json")
    cli("trace", "--geometry=" + spec["geometry"], "--seed=%d" % seed,
           "--checkpoint=" + checkpoint, "--payloads=" + payloads,
           "--mode=" + spec["kind"], "--out=" + trace_path)
    spans, other = bl.load_trace(trace_path)
    layer.update(layer_metrics(spans, other, tcp, spec["kind"]))
    # Training: the workload's own epochs; serving: the served model's fit.
    layer["models.epoch_s"] = (epoch_s if spec["kind"] == "train"
                               else other["untraced_epoch_s"])
    return layer, attempted, failed, trace_path, self_time_ms(spans)


def self_time_ms(spans):
    """Summed self time per span name, in ms."""
    self_us = bl.self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_us[s["span"]] / 1e3
    return {k: round(v, 3) for k, v in sorted(out.items())}


def layer_metrics(spans, other, tcp, kind):
    m = {}
    run_b = bl.per_id_sum(spans, "qsim.run_batch")
    adj_b = bl.per_id_sum(spans, "qsim.adjoint_batch")
    m["qsim.run_batch_us"] = statistics.median(run_b.values())
    m["qsim.adjoint_batch_us"] = statistics.median(adj_b.values())
    m["qsim.plan_ops"] = other["plan_ops"]
    m["qsim.amp_updates_per_sample"] = other["amp_updates_per_sample"]
    m["qsim.bytes_per_sample"] = 32.0 * other["amp_updates_per_sample"]

    backward = {s["id"]: s["end"] - s["start"]
                for s in bl.by_name(spans, "autodiff.backward")}
    build = {s["id"]: s["end"] - s["start"]
             for s in bl.by_name(spans, "models.build_loss")}
    # An SQ model's adjoint sweeps run inside Tape::backward; they were
    # timed per sample through the patch executors, so subtract them.
    inside = adj_b if other["quantum_model"] else {}
    m["autodiff.backward_us"] = statistics.median(
        backward[i] - inside.get(i, 0.0) for i in backward)
    m["autodiff.tape_nodes"] = other["tape_nodes"]
    m["nn.linear_us"] = statistics.median(
        bl.per_id_sum(spans, "nn.linear").values())
    m["nn.macs_per_sample"] = other["macs_per_sample"]
    m["nn.adam_step_ms"] = statistics.median(
        bl.durations(spans, "nn.adam_step")) / 1e3
    m["models.build_loss_us"] = statistics.median(build.values())
    per_sample = [build[i] + backward[i] for i in backward]
    busy_s = statistics.mean(per_sample) * other["fit_rows"] / 1e6
    m["models.engine_overhead_frac"] = 1.0 - busy_s / (
        other["threads"] * other["untraced_epoch_s"])
    m["models.grad_bytes_per_batch"] = other["params"] * 8.0 * other["batch"]
    m["models.checkpoint_load_ms"] = statistics.median(
        bl.durations(spans, "models.checkpoint_load")) / 1e3
    m["data.generate_ms"] = statistics.median(
        bl.durations(spans, "data.generate")) / 1e3

    m["serve.parse_us"] = statistics.median(bl.durations(spans, "serve.parse"))
    m["serve.format_us"] = statistics.median(
        bl.durations(spans, "serve.format"))
    m["serve.cache_key_us"] = statistics.median(
        bl.durations(spans, "serve.cache_key"))
    endpoints = ["encode", "decode", "reconstruct", "latent_sample"]
    execute = {ep: statistics.median(
        bl.durations(spans, "serve.execute." + ep)) for ep in endpoints}
    for ep in endpoints:
        m["serve.execute_us." + ep] = execute[ep]
    waits = []
    sent = {ep: 0 for ep in endpoints}
    for s in bl.by_name(spans, "serve.submit_to_done"):
        ep = endpoints[s["id"] % 4]
        sent[ep] += 1
        waits.append(s["end"] - s["start"] - execute[ep])
    m["serve.queue_wait_us"] = statistics.median(waits)
    m["serve.batch_size_mean"] = other["batch_size_mean"]
    m["serve.cache_hit_frac"] = other["hot_cache_hit_frac"]
    shed = (tcp["requests_shed"] or 0) + (tcp["connections_shed"] or 0)
    m["serve.shed_frac"] = shed / max(1, tcp["attempted"])
    inproc = bl.durations(spans, "serve.submit_to_done")
    m["serve.net_loop_us"] = (1e3 * bl.percentile(tcp["latency_ms"], 50)
                              - statistics.median(inproc))
    if kind == "train":
        m["host.trace_overhead_frac"] = (other["traced_rows_per_s"]
                                         / other["untraced_rows_per_s"])
        # Span time of the traced batches against the untraced epoch on
        # the same rows: per-sample spans run on every thread at once.
        span_s = (sum(per_sample) / other["threads"]
                  + sum(bl.durations(spans, "models.reduce"))
                  + sum(bl.durations(spans, "nn.adam_step"))) / 1e6
        m["trace.coverage_frac"] = span_s / other["untraced_epoch_s"]
    else:
        # Server CPU per response that the spans account for: the loop
        # thread's parse and format plus the traffic's mean execute time.
        mean_execute = sum(execute[ep] * sent[ep] for ep in endpoints) / max(
            1, sum(sent.values()))
        span_us = m["serve.parse_us"] + m["serve.format_us"] + mean_execute
        m["trace.coverage_frac"] = span_us / (
            1e6 * tcp["server_cpu_s"] / max(1, tcp["ok"]))
    return m


# ---- main -------------------------------------------------------------------

def drop_bulky_files(out):
    """Deletes a finished run's checkpoints, payloads and sampled lines,
    keeping its result JSON and traces."""
    for base, _, names in os.walk(out):
        for name in names:
            if name.endswith((".ckpt", ".req", ".resp", "payloads.txt")):
                os.remove(os.path.join(base, name))


def declared_metrics(trace):
    """name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    if not selftest.arithmetic_ok():
        log("perfbench: the benchmark's arithmetic self-test failed "
            "(run perfbench/selftest.py)")
        return 2
    try:
        units = declared_metrics(args.trace)
        build()
        out = os.path.join(OUT_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                   args.trace))
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        host = host_info()
        st0 = proc_stat()
        info = {}
        if args.trace:
            metrics, attempted, failed, trace_path, self_ms = run_traced(
                spec, args.seed, args.seconds, out)
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
            info["self_time_ms"] = self_ms
        elif spec["kind"] == "train":
            res = run_training(spec, args.seed, args.seconds, out)
            metrics, attempted, failed, n = training_metrics(res)
            samples = res["train_rows"] * len(res["epoch_s"])
            info.update({
                "latency_samples": n, "threads": res["threads"],
                "epochs": len(res["epoch_s"]), "budget_epochs": res["budget"],
                "epoch_steal": [round(s, 4) for s in res["epoch_steal"]],
                "cpu_ms_per_op": 1e3 * res["cpu_s"] / samples,
                "ctx_switches_per_op": res["ctx_switches"] / samples})
        else:
            res, setups, rss, _, _ = run_serving(spec, args.seed,
                                                 args.seconds, out)
            metrics, attempted, failed, n = serving_metrics(res, setups, rss)
            info.update({
                "latency_samples": n,
                "sub_windows": len(res["window_steal"]),
                "reference_checked": res["reference_checked"],
                "reference_mismatches": res["reference_mismatches"],
                "failures": res["failures"],
                "cpu_ms_per_op": 1e3 * res["server_cpu_s"] / max(1, res["ok"]),
                "ctx_switches_per_op": res["server_ctx"] / max(1, res["ok"])})
        host["host.steal_frac"] = bl.steal_frac(st0, proc_stat())
        drop_bulky_files(out)
        if set(metrics) != set(units):
            raise BenchError("metrics %s differ from BENCHMARK.json"
                             % sorted(set(metrics) ^ set(units)))
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, ValueError, KeyError, OSError) as e:
        log("perfbench: %s" % e)
        return 2

    for name in units:
        value = metrics[name]  # None when the program produced a non-number
        print("%-34s %.6g %s" % (name, float("nan") if value is None else value,
                                 units[name]))
    print("%-34s %.6g %s" % ("fail_frac", failed / max(1, attempted), "1"))
    print("host " + json.dumps(host, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
