#!/usr/bin/env python3
"""Simulator benchmark: host time, memory and allocations per simulated second.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload udp_overload|tcp_bulk|http_synflood \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary (its own Cargo package, against the
repository's crates by path), then runs it as fresh processes, one per
repetition, until S seconds have passed (at least MIN_REPS repetitions):
every repetition starts from the same allocator and frame-arena state, so
allocation counts repeat exactly. Each repetition runs the workload on all
four architectures in turn, each after a warm-up window.

--trace 0 reports the end-to-end metrics: host time as the sum over the
windows' 1 s simulated chunks of each chunk's fastest repetition, the
median set-up time, and the exact figures (allocations, heap, simulated
outcomes), which must be identical in every repetition.

--trace 1 reports the per-layer metrics: interleaved rounds of a plain run,
a run sliced into 10 ms simulated spans (written to
<target dir>/perfbench/spans-<workload>-<seed>.jsonl) and a run with host
telemetry off, then timed calls into each layer's public functions (the
event queue's with one world's event rates from the plain run).
See perfbench/README.md for what each metric means.

Every run checks the simulator's outputs; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Any failed check, build error or crash exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp_overload", "tcp_bulk", "http_synflood")
ARCHS = ("bsd", "soft-lrp", "ni-lrp", "early-demux")
MIN_REPS = 3
MIN_ROUNDS = 2
# Stop starting repetitions past this point, whatever --seconds says, so a
# run ends well within its time limit even on a slow machine.
HARD_STOP_S = 120
MODES = ("plain", "sliced", "telemetry-off")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing: run from the root of a checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr: stdout carries only the results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary, target


def invoke(binary, *args):
    r = subprocess.run([binary, *args], capture_output=True, text=True, timeout=150, cwd=ROOT)
    if r.returncode != 0:
        fail(f"{' '.join(args)} exited with {r.returncode}: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def total(rep, key):
    return sum(a[key] for a in rep["archs"])


def fastest(reps, archs=range(len(ARCHS))):
    """Host seconds of the measured windows, each window chunk at its fastest
    over the repetitions. Every repetition simulates exactly the same work,
    chunk by chunk, and other tenants' load on the machine only ever adds
    time, in phases of a few seconds: the sum of the chunks' minima is the
    steadiest estimate of the simulator's own cost."""
    return sum(min(r["archs"][i]["step_host_ns"][k] for r in reps)
               for i in archs for k in range(len(reps[0]["archs"][i]["step_host_ns"]))) / 1e9


def exact_view(rep):
    """The parts of a run that must repeat exactly."""
    return [(a["arch"], a["digest"], a["allocs"], a["alloc_bytes"]) for a in rep["archs"]] + [
        rep["peak_heap_bytes"], rep["latency"]]


def check(reps, errors, what):
    for rep in reps:
        errors.extend(rep["errors"])
    first = exact_view(reps[0])
    if any(exact_view(r) != first for r in reps[1:]):
        errors.append(f"{what}: simulated statistics or allocation counts differ between repetitions")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, w, seed, seconds):
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or (time.monotonic() - start < seconds
                                   and time.monotonic() - start < HARD_STOP_S):
        reps.append(invoke(binary, "run", "--workload", w, "--seed", str(seed), "--mode", "plain"))
    errors = []
    check(reps, errors, "plain runs")
    rep = reps[0]
    sim_s = rep["sim_s"]
    host = fastest(reps)
    setup = statistics.median(total(r, "setup_s") for r in reps)
    lat = rep["latency"]
    metrics = {
        "host_s_per_sim_s": metric(host / sim_s, "s/s"),
        "setup_s": metric(setup, "s"),
        "peak_heap_mb": metric(rep["peak_heap_bytes"] / 1e6, "MB"),
        "allocs_per_sim_s": metric(total(rep, "allocs") / sim_s, "1/s"),
        "alloc_mb_per_sim_s": metric(total(rep, "alloc_bytes") / 1e6 / sim_s, "MB/s"),
        "sim_goodput_mbps": metric(total(rep, "window_bytes") * 8 / 1e6 / sim_s, "Mbit/s"),
        "sim_latency_p50_ms": metric(lat["p50_ns"] / 1e6, "ms"),
        "sim_latency_p99_ms": metric(lat["p99_ns"] / 1e6, "ms"),
    }
    print(f"{w} seed {seed}: {len(reps)} repetitions, {sim_s:g} simulated s measured per architecture")
    print(f"  {'arch':<12} {'host_s':>9} {'setup_s':>9} {'heap_MB':>8} {'allocs':>10} {'events':>9} "
          f"{'ops':>7} {'offered':>8} {'modelled failures':>18}")
    for i, arch in enumerate(ARCHS):
        a = [r["archs"][i] for r in reps]
        print(f"  {arch:<12} {statistics.median(x['host_s'] for x in a):9.4f} "
              f"{statistics.median(x['setup_s'] for x in a):9.4f} {a[0]['heap_peak'] / 1e6:8.3f} "
              f"{a[0]['allocs']:10d} "
              f"{a[0]['events']:9d} {a[0]['ops']:7d} {a[0]['offered']:8d} {a[0]['modelled_failures']:18d}")
    print("  host_s per repetition: " + " ".join(f"{total(r, 'host_s'):.4f}" for r in reps))
    offered = total(rep, "offered")
    modelled = total(rep, "modelled_failures")
    print(f"  latency samples {lat['samples']}; offered operations {offered}, of which the model "
          f"dropped, refused or left undelivered {modelled} ({modelled / max(offered, 1):.1%})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics, offered, errors


def per_layer(binary, target, w, seed, seconds):
    start = time.monotonic()
    spans = os.path.join(target, "perfbench", f"spans-{w}-{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    rounds = []
    while len(rounds) < MIN_ROUNDS or (time.monotonic() - start < seconds
                                       and time.monotonic() - start < HARD_STOP_S):
        # Rotate the order within a round so no mode always runs first.
        k = len(rounds) % len(MODES)
        rnd = {}
        for mode in MODES[k:] + MODES[:k]:
            extra = ["--spans", spans] if mode == "sliced" else []
            rnd[mode] = invoke(binary, "run", "--workload", w, "--seed", str(seed), "--mode", mode, *extra)
        rounds.append(rnd)
    # One world's event rates per simulated second, for the event queue's
    # hold model.
    first = rounds[0]["plain"]
    worlds = len(ARCHS) * first["sim_s"]
    queue_rates = [total(first, k) / worlds for k in ("events", "injected")] + [
        (total(first, "tx_frames") - total(first, "injected")) / worlds,
        total(first, "ticks") / worlds, total(first, "cpu_busy_ns") / worlds]
    layers = invoke(binary, "layers", "--workload", w, "--seed", str(seed),
                    "--queue-rates", ",".join(repr(float(x)) for x in queue_rates))

    errors = []
    for mode in MODES:
        check([r[mode] for r in rounds], errors, f"{mode} runs")
    digests = {mode: [a["digest"] for a in rounds[0][mode]["archs"]] for mode in MODES}
    if not digests["plain"] == digests["sliced"] == digests["telemetry-off"]:
        errors.append("sliced or telemetry-off runs simulated differently from the plain run")

    plain = [r["plain"] for r in rounds]
    rep = plain[0]
    sim_s = rep["sim_s"]
    host = fastest(plain)

    def rate(key):
        return total(rep, key) / sim_s

    def frac(num, den):
        return num / den if den else 0.0

    def share(ns_per_op, ops_per_sim_s):
        return ns_per_op * ops_per_sim_s / 1e9 / (host / sim_s)

    m = {}
    m["world.events_per_sim_s"] = metric(rate("events"), "1/s")
    m["world.host_ns_per_event"] = metric(host * 1e9 / total(rep, "events"), "ns")
    m["world.slice_host_ms_p50"] = metric(
        statistics.median(r["sliced"]["slices"]["p50_ns"] for r in rounds) / 1e6, "ms")
    m["world.slice_host_ms_p99"] = metric(
        statistics.median(r["sliced"]["slices"]["p99_ns"] for r in rounds) / 1e6, "ms")
    for i, arch in enumerate(ARCHS):
        m[f"world.{arch}.host_s_per_sim_s"] = metric(
            fastest(plain, [i]) / sim_s, "s/s")
        m[f"world.{arch}.allocs_per_sim_s"] = metric(rep["archs"][i]["allocs"] / sim_s, "1/s")

    q = layers["sim.queue_ns_per_event"]
    m["sim.queue_ns_per_event"] = metric(q, "ns")
    m["sim.queue_share"] = metric(share(q, rate("events")), "frac")

    parse, build = layers["wire.parse_ns_per_frame"], layers["wire.build_ns_per_frame"]
    m["wire.parse_ns_per_frame"] = metric(parse, "ns")
    m["wire.build_ns_per_frame"] = metric(build, "ns")
    m["wire.allocs_per_frame"] = metric(layers["wire.allocs_per_frame"], "count")
    m["wire.arena_reuse_frac"] = metric(frac(total(rep, "arena_reuses"), total(rep, "arena_checkouts")), "frac")
    m["wire.share"] = metric(share(parse, rate("rx_frames")) + share(build, rate("tx_frames")), "frac")

    classify = layers["demux.classify_ns_per_frame"]
    m["demux.classify_ns_per_frame"] = metric(classify, "ns")
    m["demux.share"] = metric(share(classify, rate("classified")), "frac")

    # Each architecture's frames at its own adaptor mode's cost, in ns
    # over the windows.
    nic_ns = sum(layers[f"nic.{arch}.rx_ns_per_frame"] * rep["archs"][i]["rx_frames"]
                 for i, arch in enumerate(ARCHS))
    m["nic.rx_ns_per_frame"] = metric(frac(nic_ns, total(rep, "rx_frames")), "ns")
    m["nic.early_discard_frac"] = metric(frac(total(rep, "early_discards"), total(rep, "rx_frames")), "frac")
    m["nic.frames_per_interrupt"] = metric(frac(total(rep, "rx_frames"), total(rep, "interrupts")), "count")
    m["nic.share"] = metric(nic_ns / 1e9 / host, "frac")

    seg, cookie = layers["stack.tcp_ns_per_segment"], layers["stack.cookie_ns_per_syn"]
    m["stack.tcp_ns_per_segment"] = metric(seg, "ns")
    m["stack.tcp_allocs_per_segment"] = metric(layers["stack.tcp_allocs_per_segment"], "count")
    m["stack.segs_per_sim_s"] = metric(rate("segs_in"), "1/s")
    m["stack.retransmit_frac"] = metric(frac(total(rep, "retransmits"), total(rep, "segs_out")), "frac")
    m["stack.cookie_ns_per_syn"] = metric(cookie, "ns")
    m["stack.cookie_valid_frac"] = metric(
        frac(total(rep, "cookies_validated"), total(rep, "cookies_sent")), "frac")
    m["stack.share"] = metric(share(seg, rate("segs_in")) + share(cookie, rate("cookies_sent")), "frac")

    pick = layers["sched.ns_per_pick"]
    m["sched.ns_per_pick"] = metric(pick, "ns")
    m["sched.sim_interrupt_frac"] = metric(frac(total(rep, "interrupt_ns"), total(rep, "cpu_ns")), "frac")
    m["sched.share"] = metric(share(pick, rate("ctx_switches")), "frac")

    m["core.late_drop_frac"] = metric(frac(total(rep, "late_drops"), total(rep, "rx_frames")), "frac")
    scan = layers["core.timer_scan_ns"]
    m["core.timer_scan_ns"] = metric(scan, "ns")
    m["core.timer_scan_share"] = metric(share(scan, rate("events")), "frac")
    # Share of telemetry-on host time that telemetry costs: the median of
    # the paired ratios of interleaved on/off runs, one pair per round and
    # architecture.
    m["core.telemetry_overhead_frac"] = metric(statistics.median(
        1 - off["host_s"] / on["host_s"]
        for r in rounds for on, off in zip(r["plain"]["archs"], r["telemetry-off"]["archs"])), "frac")
    tele_off = rounds[0]["telemetry-off"]
    m["core.telemetry_alloc_mb_per_sim_s"] = metric(
        (total(rep, "alloc_bytes") - total(tele_off, "alloc_bytes")) / 1e6 / sim_s, "MB/s")
    # The event queue's share is left out: its hold model rests on a delay
    # for CPU completions and kernel timers that the world's counters do
    # not give, so its cost stays in the unattributed rest.
    attributed = sum(m[k]["value"] for k in ("wire.share", "demux.share", "nic.share",
                                             "stack.share", "sched.share", "core.timer_scan_share",
                                             "core.telemetry_overhead_frac"))
    m["core.unattributed_share"] = metric(1 - attributed, "frac")
    m["trace.overhead_frac"] = metric(statistics.median(
        traced["host_s"] / untraced["host_s"] - 1
        for r in rounds for untraced, traced in zip(r["plain"]["archs"], r["sliced"]["archs"])), "frac")

    print(f"{w} seed {seed}: {len(rounds)} traced rounds (plain, sliced, telemetry off); spans in {spans}")
    print(f"  event-queue hold model: {layers['sim.queue_pending']:g} events pending (Little's law) at "
          f"{queue_rates[0]:.6g} events per world per simulated s")
    for name, v in m.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    return m, total(rep, "offered"), errors


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits")
    binary, target = build()
    if args.trace:
        metrics, attempted, errors = per_layer(binary, target, args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, errors = end_to_end(binary, args.workload, args.seed, args.seconds)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else max(attempted, 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
