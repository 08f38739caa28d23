#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of originscan.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-2e20 --seed 1 --seconds 40 --trace 0

It builds the `perfbench` binary from source (into `$CARGO_TARGET_DIR`,
default `.bench_build`) and measures in fresh processes of it:

* `--trace 0` repeats rounds of the workload's timed processes until
  `--seconds` have passed and prints the median over rounds of each
  end-to-end metric;
* `--trace 1` runs one timed round and, each in its own process, the
  traced pass and the layer splits. It prints the per-layer metrics,
  logs the figures only one workload has to standard error, writes the
  spans as JSONL under `$CARGO_TARGET_DIR/perfbench-spans/`, and fails
  the run when named layers account for less than 90% of the time of
  the workload's calls into the program.

Every workload prints every metric of its mode.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROTOCOLS = ["HTTP", "HTTPS", "SSH"]

WORKLOADS = ("study-2e20", "scan-2e22", "serve")

# End-to-end metrics, with units. Every workload reports every one; see
# perfbench/README.md for what each means on each workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}

# Below this share of the time of the workload's calls into the program
# in named layer spans, the traced run fails.
MIN_SPAN_COVERAGE = 0.90
# Rounds a timed run makes even when they take longer than its seconds:
# a scan round that a busy host slows past half the run is still one of
# two.
MIN_ROUNDS = 2
# Every process of a run must end within this many seconds in total.
RUN_BUDGET_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """A process of the run crashed, timed out or printed no result."""


def build(target_dir):
    """Build the benchmark binary; its path, or None when the build fails."""
    if not os.path.isfile(os.path.join(HERE, "..", "crates", "core", "Cargo.toml")):
        log("the originscan crates are not beside perfbench/; nothing to build")
        return None
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(target_dir, "release", "perfbench")
    if proc.returncode != 0 or not os.path.isfile(binary):
        log("build failed")
        return None
    return binary


class Runner:
    """Starts benchmark processes for one run and keeps their results."""

    def __init__(self, binary, args, target_dir):
        self.binary = binary
        self.args = args
        self.work_dir = os.path.join(target_dir, "perfbench-work")
        self.spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(self.work_dir, exist_ok=True)
        os.makedirs(self.spans_dir, exist_ok=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.outs = []

    def run(self, part, proto=None):
        w, seed = self.args.workload, self.args.seed
        tag = f"{w}-{seed}-{part}" + (f"-{proto}" if proto else "")
        cmd = [self.binary, w, part, "--seed", str(seed), "--dir", self.work_dir]
        cmd += ["--spans", os.path.join(self.spans_dir, tag + ".jsonl")]
        if proto:
            cmd += ["--proto", proto]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise Failure(f"no time left for {tag}")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=left, text=True)
        except subprocess.TimeoutExpired:
            raise Failure(f"{tag} timed out")
        if proc.returncode != 0:
            raise Failure(f"{tag} exited with {proc.returncode}")
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise Failure(f"{tag} printed no result")
        # Digests that must agree: the study's report, traced or not; a
        # supervised scan and its plain check; repeats of any other part.
        if w == "study-2e20":
            out["group"] = "report"
        elif part in ("main", "check"):
            out["group"] = f"{w}-{seed}-{proto}"
        else:
            out["group"] = tag
        self.outs.append(out)
        return {k: v["value"] for k, v in out["metrics"].items()}


def need(m, name):
    if name not in m:
        raise Failure(f"metric {name} missing")
    return m[name]


def scan_pass(runner, part):
    """One scan per protocol, each in a fresh process; summed figures."""
    ms = [runner.run(part, p) for p in PROTOCOLS]
    total = lambda name: sum(need(m, name) for m in ms)
    wall = total("wall_s")
    return {
        "setup_s": statistics.median(need(m, "setup_s") for m in ms),
        "wall_s": wall,
        "ops_per_s": total("scanner.probes") / wall,
        "peak_rss_mib": max(need(m, "peak_rss_mib") for m in ms),
        "ns_per_probe": wall * 1e9 / total("scanner.probes"),
        "scanner.probes": total("scanner.probes"),
        "scanner.records": total("scanner.records"),
        "scanner.checkpoints": total("scanner.checkpoints"),
        "scanner.synack_hosts": total("scanner.synack_hosts"),
        "scanner.l7_successes": total("scanner.l7_successes"),
        "telemetry.events": total("telemetry.events"),
    }


def timed_round(runner):
    """One round of the timed processes: its end-to-end figures, and the
    process's other figures by their own names."""
    w = runner.args.workload
    if w == "scan-2e22":
        return scan_pass(runner, "main")
    m = runner.run("main")
    # Work per second: probes sent per second of scanning in the study;
    # requests per second of a warm phase, where the HTTP path does the
    # work, on serve (the cold phases' time is most of its wall_s).
    m["ops_per_s"] = need(m, "probes_per_s" if w == "study-2e20" else "warm_req_per_s")
    return m


def timed(runner):
    """Repeat rounds until the run's seconds are spent, and at least
    MIN_ROUNDS; medians."""
    if runner.args.workload == "scan-2e22":
        for p in PROTOCOLS:
            runner.run("check", p)
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(timed_round(runner))
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > runner.args.seconds:
            break
    metrics = {}
    for name, unit in END_TO_END.items():
        value = statistics.median(need(r, name) for r in rounds)
        metrics[name] = {"value": value, "unit": unit}
    log(f"{runner.args.workload}: {len(rounds)} rounds: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()))
    if runner.args.workload == "serve":
        r = rounds[0]
        detail = {n: statistics.median(need(r, n) for r in rounds) for n in SERVE_LATENCY}
        log("serve: " + ", ".join(f"{k}={v:.6g}" for k, v in detail.items()))
        log(
            "serve: percentiles per phase (p50 the median phase, p99 the best), median over rounds; each process "
            f"serves {r['cold_phases']:.0f} cold phases of {r['cold_samples']:.0f} requests "
            f"and {r['warm_phases']:.0f} warm phases of {r['warm_samples']:.0f}"
        )
    return metrics


# Serve's per-phase client figures, logged with the end-to-end metrics.
SERVE_LATENCY = ("cold_req_per_s", "warm_req_per_s", "cold_p50_us", "cold_p99_us", "warm_p50_us", "warm_p99_us")


# Per-layer metrics, with units. Every workload reports every one. None
# is a time: a layer's busy time is given as busy seconds per second of
# the traced workload's wall time, so that a layer a workload does not
# use reads 0 there, as its counts and rates do (see IDLE).
PER_LAYER = {
    "netmodel.syn_calls": "count",
    "netmodel.l7_calls": "count",
    "netmodel.syn_busy_ratio": "ratio",
    "netmodel.l7_busy_ratio": "ratio",
    "scanner.probes": "count",
    "scanner.records": "count",
    "scanner.checkpoints": "count",
    "scanner.checkpoint_busy_ratio": "ratio",
    "scanner.l7_per_synack": "ratio",
    "telemetry.events": "count",
    "core.matrix_busy_ratio": "ratio",
    "core.report_busy_ratio": "ratio",
    "store.bytes": "bytes",
    "store.encode_busy_ratio": "ratio",
    "store.open_setup_ratio": "ratio",
    "serve.cold_req_per_s": "1/s",
    "serve.plan_hit_ratio": "ratio",
    "serve.plan_lookups": "count",
    "serve.set_hit_ratio": "ratio",
    "serve.set_lookups": "count",
    "serve.kernel_ops": "count",
    "serve.kernel_words": "count",
    "serve.write_share": "ratio",
    "serve.rejected": "count",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}

# Per-layer metrics (by prefix) of work a workload does not do; they read
# 0 on it. The study encodes a store but opens none; serve opens the
# store that set-up wrote and encodes none; the scans touch neither.
IDLE = {
    "study-2e20": ("serve.", "store.open"),
    "scan-2e22": ("core.", "store.", "serve."),
    "serve": ("netmodel.", "scanner.", "core.", "store.encode"),
}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(runner):
    """The traced run: per-layer metrics, with units. The figures that only
    one workload has (per-call costs, the layer splits, latencies) are
    logged to standard error."""
    w = runner.args.workload
    if w == "scan-2e22":
        for p in PROTOCOLS:
            runner.run("check", p)
    main = timed_round(runner)
    pick = lambda m, names: {n: need(m, n) for n in names}
    out, detail = {}, {}
    if w in ("study-2e20", "scan-2e22"):
        detail["netmodel.generate_s"] = main["setup_s"]
    if w == "study-2e20":
        tr = runner.run("traced")
        wall = need(tr, "traced_wall_s")
        out.update(pick(tr, ["netmodel.syn_calls", "netmodel.l7_calls", "scanner.probes", "scanner.records"]))
        out.update(pick(tr, ["scanner.checkpoints", "telemetry.events", "store.bytes", "trace.span_coverage"]))
        out["netmodel.syn_busy_ratio"] = need(tr, "netmodel.syn_ns") * need(tr, "netmodel.syn_calls") / 1e9 / wall
        out["netmodel.l7_busy_ratio"] = need(tr, "netmodel.l7_ns") * need(tr, "netmodel.l7_calls") / 1e9 / wall
        out["scanner.checkpoint_busy_ratio"] = need(tr, "scanner.loop_checkpoint_s") / wall
        out["scanner.l7_per_synack"] = ratio(need(tr, "scanner.l7_successes"), need(tr, "scanner.synack_hosts"))
        out["core.matrix_busy_ratio"] = need(tr, "core.matrix_s") / wall
        out["core.report_busy_ratio"] = need(tr, "core.report_s") / wall
        out["store.encode_busy_ratio"] = need(tr, "store.encode_s") / wall
        names = ["netmodel.syn_ns", "netmodel.l7_ns", "netmodel.busy_s", "scanner.loop_checkpoint_s"]
        names += ["core.scan_s", "core.matrix_s", "core.report_s", "core.straggler_ratio", "store.encode_s"]
        detail.update(pick(tr, names + ["scanner.synack_hosts"]))
    elif w == "scan-2e22":
        small = scan_pass(runner, "main-2e20")
        trs = [runner.run("traced", p) for p in PROTOCOLS]
        split = {s: need(runner.run("split-" + s), "split_s") for s in ("null", "plain", "supervised", "hub")}
        total = lambda name: sum(need(m, name) for m in trs)
        wall = total("traced_wall_s")
        syn, l7 = total("netmodel.syn_calls"), total("netmodel.l7_calls")
        syn_busy = sum(need(m, "netmodel.syn_ns") * need(m, "netmodel.syn_calls") for m in trs) / 1e9
        l7_busy = sum(need(m, "netmodel.l7_ns") * need(m, "netmodel.l7_calls") for m in trs) / 1e9
        out.update(pick(main, ["scanner.probes", "scanner.records", "scanner.checkpoints", "telemetry.events"]))
        out.update(
            {
                "netmodel.syn_calls": syn,
                "netmodel.l7_calls": l7,
                "netmodel.syn_busy_ratio": syn_busy / wall,
                "netmodel.l7_busy_ratio": l7_busy / wall,
                "scanner.checkpoint_busy_ratio": total("scanner.loop_checkpoint_s") / wall,
                "scanner.l7_per_synack": ratio(main["scanner.l7_successes"], main["scanner.synack_hosts"]),
                "trace.span_coverage": min(need(m, "trace.span_coverage") for m in trs),
            }
        )
        detail.update(
            {
                "netmodel.syn_ns": syn_busy * 1e9 / syn,
                "netmodel.l7_ns": l7_busy * 1e9 / l7,
                "netmodel.busy_s": total("netmodel.busy_s"),
                "scanner.synack_hosts": main["scanner.synack_hosts"],
                "scanner.engine_s": split["null"],
                "scanner.simnet_s": split["plain"],
                "scanner.checkpoint_s": split["supervised"] - split["plain"],
                "scanner.loop_checkpoint_s": total("scanner.loop_checkpoint_s"),
                "telemetry.overhead_s": split["hub"] - split["supervised"],
                "scanner.ns_per_probe_2e22": main["ns_per_probe"],
                "scanner.ns_per_probe_2e20": small["ns_per_probe"],
                "scanner.scale_ratio": main["ns_per_probe"] / small["ns_per_probe"],
            }
        )
    else:
        tr = runner.run("traced")
        wall = need(tr, "traced_wall_s")
        out.update(pick(main, ["telemetry.events", "store.bytes", "serve.plan_hit_ratio", "serve.plan_lookups"]))
        out.update(pick(main, ["serve.set_hit_ratio", "serve.set_lookups", "serve.kernel_ops", "serve.kernel_words"]))
        out["serve.rejected"] = need(main, "serve.rejected")
        out["serve.cold_req_per_s"] = need(main, "cold_req_per_s")
        out.update(pick(tr, ["trace.span_coverage"]))
        out["store.open_setup_ratio"] = need(main, "store.open_s") / main["setup_s"]
        spans = [need(main, f"serve.span.{s}_self_us") for s in ("read", "execute", "write")]
        out["serve.write_share"] = ratio(spans[2], sum(spans))
        names = ["store.open_s", "serve.engine_cold_us", "serve.engine_warm_us", "serve.http_cold_overhead_us"]
        names += ["serve.http_warm_overhead_us", "serve.connect_us", "serve.span.read_self_us"]
        names += ["serve.span.execute_self_us", "serve.span.write_self_us", *SERVE_LATENCY]
        detail.update(pick(main, names))
        detail.update(pick(tr, ["store.load_us", "store.lazy_lookup_us", "serve.warm_client_share", "serve.cold_client_share"]))
    out["trace.overhead_ratio"] = wall / main["wall_s"]
    for name in PER_LAYER:
        if name.startswith(IDLE[w]):
            if name in out:
                raise Failure(f"{name} is measured on {w}, which should not use it")
            out[name] = 0.0
        elif name not in out:
            raise Failure(f"metric {name} missing")
    for name, v in sorted(detail.items()):
        log(f"{w}: {name} = {v:.6g}")
    for name, v in sorted(out.items()):
        log(f"{w}: {name} = {v:.6g} {PER_LAYER[name]}")
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    if binary is None:
        return 1
    runner = Runner(binary, args, target_dir)
    try:
        metrics = per_layer(runner) if args.trace else timed(runner)
    except Failure as e:
        log(str(e))
        return 1

    attempted = sum(o["attempted"] for o in runner.outs)
    failed = sum(o["failed"] for o in runner.outs)
    # Processes of one seed must agree: repeats of a part, and the
    # study's report whether traced or not.
    groups = {}
    for o in runner.outs:
        if o["digest"]:
            groups.setdefault(o["group"], set()).add(o["digest"])
    for group, digests in sorted(groups.items()):
        attempted += 1
        if len(digests) > 1:
            log(f"{group}: outputs differ between processes on one seed: {sorted(digests)}")
            failed += 1
    if args.trace:
        attempted += 1
        coverage = metrics["trace.span_coverage"]["value"]
        if coverage < MIN_SPAN_COVERAGE:
            log(f"named layers account for {coverage:.1%} of the calls into the program, below {MIN_SPAN_COVERAGE:.0%}")
            failed += 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
