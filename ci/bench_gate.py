#!/usr/bin/env python3
"""Bench regression gate (run AFTER ci/check_bench_schema.py).

Usage: bench_gate.py BENCH_qsim_micro.json BENCH_train_micro.json \\
                     BENCH_serve_micro.json

Thresholds sit well under the checked-in numbers so only a real regression
— not runner noise — trips them. Where a measurement is hardware-bound the
bar tiers by the runner's core count (recorded as hardware_threads in the
report), mirroring the exemption the training gate has always had for
small containers:

  * executor A/B (fused batch vs naive loop): both sides now run the same
    dispatched SIMD kernels, so on a single core only the fusion win
    remains (~1.5-2x measured); with >= 4 cores the OpenMP batch path
    clears 2.0x with margin. Bars: >= 2.0x at >= 4 threads, else >= 1.3x.
  * adjoint A/B (interpreter adjoint_gradient vs the executor's plan
    walk, adjoint_batch): max_grad_diff <= 1e-10 in every row on ANY
    hardware — both compute the same gradients, so a larger difference is
    a correctness bug. The times are recorded only; a speed bar waits for
    a recalibration of the bars on >= 4-core runners.
  * trajectory A/B at >= 8 qubits: >= 5.0x over the exact density matrix
    (checked-in: several hundred x — the trajectory side is vectorised,
    the density channel is not).
  * kernel A/B: when the dispatcher picked avx2, the compute-bound classes
    (single, single_t0, controlled, diag) must be >= 1.5x over scalar at
    >= 8 qubits (checked-in: 2.5-10x). The move/phase-flip classes
    (cnot/cz/swap) are memory-bound and only recorded. Scalar-only
    runners (no AVX2, SQVAE_FORCE_SCALAR, -DSQVAE_SIMD=OFF) record the
    A/B at ~1.0x and are exempt.
  * dispatcher sanity: a SIMD-enabled binary on a host whose
    /proc/cpuinfo advertises avx2+fma must NOT report scalar — that would
    mean the runtime dispatch silently fell back and CI stopped testing
    the vectorised path.
  * scaling (amplitude-parallel vs serial on one large state):
    bit_identical must hold in EVERY row on ANY hardware — the parallel
    kernels and the blocked executor promise bitwise determinism, so a
    single differing bit is a correctness bug, not a perf miss. The
    speedup bar (>= 2.0x at >= 16 qubits) applies only on >= 4-core
    runners with an OpenMP build; 1-core containers record ~1.0x and are
    exempt, as is a build without OpenMP (the parallel table degrades to
    the serial chunk loop there).
  * training engine: bit-identical across thread counts everywhere;
    sq-ae sharded speedup >= 2.0x at >= 8 cores, >= 1.5x at 4-7, exempt
    below.
  * serving dispatch A/B (rows with >= 4 clients): micro-batched
    throughput >= 2.0x over single-worker per-request dispatch on >= 4-core
    runners — there batching buys both coalescing amortisation and one
    parallel worker per thread of the process budget (each worker runs its
    run_batch calls on one thread; src/common/thread_budget.h). Below 4
    cores only the coalescing amortisation remains (~1.2-1.4x checked in
    from a 1-core container), so the bar tiers down to >= 1.05x — batching
    must at minimum not regress throughput there. The
    1-client row is recorded but never gated: a synchronous single client
    cannot coalesce, so ~1.0x is its expected value.
  * event-loop front-end A/B (epoll vs thread-per-connection over real
    loopback TCP): >= 1.1x at >= 256 connections on >= 4-core runners;
    recorded-only below (see gate_serve).
  * response cache A/B: cached >= 2.0x over uncached on any hardware, and
    the hit rate of the repeated-key workload must stay >= 0.5 — a
    collapsed hit rate means response keying broke even if throughput
    survived.
"""

import json
import sys

KERNEL_GATED_CLASSES = {"single", "single_t0", "controlled", "diag"}
KERNEL_MIN_SPEEDUP = 1.5
KERNEL_MIN_QUBITS = 8
ADJOINT_MAX_GRAD_DIFF = 1e-10


def host_has_avx2_fma():
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
    except OSError:
        return False  # non-Linux host: skip the dispatcher sanity check
    flag_lines = [l for l in info.splitlines() if l.startswith("flags")]
    if not flag_lines:
        return False
    flags = flag_lines[0].split()
    return "avx2" in flags and "fma" in flags


def gate_qsim(report, failures):
    threads = report["hardware_threads"]
    executor_bar = 2.0 if threads >= 4 else 1.3
    for row in report["rows"]:
        if row["speedup"] < executor_bar:
            failures.append(
                f"executor A/B at {row['qubits']} qubits: "
                f"{row['speedup']:.2f}x < {executor_bar}x "
                f"({threads} hardware threads)")
    for row in report["adjoint_ab"]["rows"]:
        if not row["max_grad_diff"] <= ADJOINT_MAX_GRAD_DIFF:
            failures.append(
                f"adjoint A/B at {row['qubits']} qubits: plan-walk "
                f"gradients differ from the interpreter by "
                f"{row['max_grad_diff']:.3g} > {ADJOINT_MAX_GRAD_DIFF}")
    for row in report["trajectory_ab"]["rows"]:
        if row["qubits"] >= 8 and row["speedup"] < 5.0:
            failures.append(f"trajectory A/B at {row['qubits']} qubits: "
                            f"{row['speedup']:.2f}x < 5.0x")

    kernel = report["kernel_ab"]
    if kernel["simd_compiled"] and kernel["isa"] != "avx2" \
            and host_has_avx2_fma():
        failures.append(
            "kernel dispatcher reports scalar on an AVX2+FMA host with "
            "SIMD compiled in — the vectorised path is not being tested")
    if kernel["isa"] == "avx2":
        for row in kernel["rows"]:
            if row["gate"] in KERNEL_GATED_CLASSES \
                    and row["qubits"] >= KERNEL_MIN_QUBITS \
                    and row["speedup"] < KERNEL_MIN_SPEEDUP:
                failures.append(
                    f"kernel A/B ({row['gate']}) at {row['qubits']} qubits: "
                    f"{row['speedup']:.2f}x < {KERNEL_MIN_SPEEDUP}x")
    else:
        print(f"kernel gate skipped (dispatched isa: {kernel['isa']})")

    scaling = report["scaling"]
    for row in scaling["rows"]:
        if not row["bit_identical"]:
            failures.append(
                f"scaling at {row['qubits']} qubits: amplitude-parallel "
                f"result is not bit-identical to serial")
    if scaling["openmp"] and threads >= 4:
        for row in scaling["rows"]:
            if row["qubits"] >= 16 and row["speedup"] < 2.0:
                failures.append(
                    f"scaling A/B at {row['qubits']} qubits: "
                    f"{row['speedup']:.2f}x < 2.0x "
                    f"({threads} hardware threads)")
    else:
        print(f"scaling speedup gate skipped (openmp={scaling['openmp']}, "
              f"{threads} hardware threads); bit-identity still enforced")


def gate_train(report, failures):
    for row in report["rows"]:
        if not row["bit_identical_1t_vs_nt"]:
            failures.append(f"sharded training not bit-identical across "
                            f"thread counts ({row['model']})")
    cores = report["hardware_threads"]
    bar = 2.0 if cores >= 8 else 1.5 if cores >= 4 else None
    if bar is not None:
        for row in report["rows"]:
            if row["model"] == "sq-ae" and row["speedup"] < bar:
                failures.append(f"train A/B (sq-ae): "
                                f"{row['speedup']:.2f}x < {bar}x at "
                                f"{row['threads']} threads ({cores} cores)")


def gate_serve(report, failures):
    cores = report["hardware_threads"]
    bar = 2.0 if cores >= 4 else 1.05
    for row in report["rows"]:
        if row["clients"] >= 4 and row["speedup"] < bar:
            failures.append(
                f"serve dispatch A/B at {row['clients']} clients: "
                f"{row['speedup']:.2f}x < {bar}x ({cores} hardware threads, "
                f"max_batch {row['max_batch']})")

    # Event-loop front end vs thread-per-connection: the epoll win is
    # connection-scaling (no thread pair per socket), so the bar applies
    # at >= 256 connections and only on >= 4-core runners — on one core
    # both transports serialize onto the same compute and the contrast is
    # scheduler noise (though a 1-core container still measured 1.5-2.9x,
    # growing with connection count). Linux-only section: absent = skipped
    # host, nothing to gate.
    if cores >= 4:
        for row in report.get("event_loop_ab", {}).get("rows", []):
            if row["conns"] >= 256 and row["speedup"] < 1.1:
                failures.append(
                    f"event-loop A/B at {row['conns']} conns: "
                    f"{row['speedup']:.2f}x < 1.1x over thread-per-conn "
                    f"({cores} hardware threads)")

    # Response cache: a hit skips the entire circuit execution, so the
    # >= 2.0x bar is hardware-independent (checked in from a 1-core
    # container: ~9x at 0.99 hit rate). A collapsed hit rate fails even
    # if throughput squeaks by — it means the keying broke.
    for row in report["cache_ab"]["rows"]:
        if row["speedup"] < 2.0:
            failures.append(
                f"cache A/B: {row['speedup']:.2f}x < 2.0x "
                f"(hit rate {row['hit_rate']:.3f}, {row['unique_keys']} "
                f"unique keys over {row['requests']} requests)")
        if row["hit_rate"] < 0.5:
            failures.append(
                f"cache A/B: hit rate {row['hit_rate']:.3f} < 0.5 — "
                f"response keying or lookup is broken")


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        qsim = json.load(f)
    with open(argv[2]) as f:
        train = json.load(f)
    with open(argv[3]) as f:
        serve = json.load(f)

    failures = []
    gate_qsim(qsim, failures)
    gate_train(train, failures)
    gate_serve(serve, failures)

    for failure in failures:
        print("REGRESSION:", failure)
    if failures:
        return 1
    print("bench gate passed:",
          "executor", [round(r["speedup"], 2) for r in qsim["rows"]],
          "adjoint",
          [round(r["speedup"], 2) for r in qsim["adjoint_ab"]["rows"]],
          "trajectory",
          [round(r["speedup"], 2) for r in qsim["trajectory_ab"]["rows"]],
          "kernel(" + qsim["kernel_ab"]["isa"] + ")",
          [round(r["speedup"], 2) for r in qsim["kernel_ab"]["rows"]
           if r["gate"] in KERNEL_GATED_CLASSES
           and r["qubits"] >= KERNEL_MIN_QUBITS],
          "scaling",
          [round(r["speedup"], 2) for r in qsim["scaling"]["rows"]],
          "train", [round(r["speedup"], 2) for r in train["rows"]],
          "serve", [round(r["speedup"], 2) for r in serve["rows"]
                    if r["clients"] >= 4],
          "event_loop",
          [round(r["speedup"], 2)
           for r in serve.get("event_loop_ab", {}).get("rows", [])],
          "cache",
          [round(r["speedup"], 2) for r in serve["cache_ab"]["rows"]])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
