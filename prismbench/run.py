#!/usr/bin/env python3
"""The PRISM benchmark.

Builds the prismbench binary from source (first use only), runs one workload
in a process of its own, checks the oracle's verdict and prints every metric
by name and unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 prismbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 prismbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 prismbench/run.py --self-test
    python3 prismbench/run.py --write-manifest

--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload twice,
untraced and then traced (spans around every call into a layer, plus a
queue-depth sampler), and reports the per-layer metrics of the traced run and
the tracing overhead (traced minus untraced) of every end-to-end metric.

This file is the single source of the benchmark's manifest: --write-manifest
regenerates BENCHMARK.json from MANIFEST below, and --self-test fails when
the two differ.  README.md next to this file explains the workloads and the
layer -> metric -> workload map.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"

LIVE = ("flat_burst", "online_causal", "fed_200")
ALL_WORKLOADS = LIVE + ("model_sweep",)

MANIFEST = {
    "command": ["python3", "prismbench/run.py"],
    "paths": ["prismbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "flat_burst",
         "why": "closed loop, 4 buffered LIS, shm, SISO, causal on: saturates "
                "the single ISM output path over a framed link, no hold-back"},
        {"name": "online_causal",
         "why": "open loop at 200k rec/s, forwarding LIS, pipe, MISO, 1 in 8 "
                "a recv before its send: latency through the ISM hold-back path"},
        {"name": "fed_200",
         "why": "closed loop, 200 buffered LIS, 4 shards, shm clusters, socket "
                "root: aggregator tier, shard routing and the root merge"},
        {"name": "model_sweep",
         "why": "PICL, ROCC and Vista sweeps through sim::replicate: the "
                "modelling layers no live workload touches"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_rec_per_s", "unit": "rec/s", "better": "higher",
         "bound": 0.25},
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "latency_p90_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "app_ns_per_record", "unit": "ns", "better": "lower",
         "bound": 0.25},
        {"name": "is_cpu_s_per_mrec", "unit": "s/Mrec", "better": "lower",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
        {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [],  # filled in below
}

# Per-layer metrics: (name, unit, better, workloads it applies to).  On the
# other workloads the metric reads 0.
_PER_LAYER = [
    ("lis.record_ns_mean", "ns", "lower", LIVE),
    ("lis.record_ns_p99", "ns", "lower", LIVE),
    ("lis.flushes", "count", "lower", LIVE),
    ("lis.records_per_flush", "rec", "higher", LIVE),
    ("lis.flush_ns", "ns", "lower", ("flat_burst", "fed_200")),
    ("lis.dropped", "count", "lower", ()),
    ("tp.batches", "count", "lower", LIVE),
    ("tp.records_per_batch", "rec", "higher", LIVE),
    ("tp.link_max_depth", "batches", "lower", LIVE),
    ("tp.producer_block_ns", "ns", "lower", ("flat_burst", "fed_200")),
    ("tp.wire_frames", "count", "lower", ("flat_burst", "fed_200")),
    ("tp.wire_bytes", "B", "lower", ("flat_burst", "fed_200")),
    ("tp.wire_writes", "count", "lower", ("fed_200",)),
    ("ism.processing_latency_mean_ns", "ns", "lower", LIVE),
    ("ism.processing_latency_p95_ns", "ns", "lower", LIVE),
    ("ism.dispatch_latency_mean_ns", "ns", "lower", LIVE),
    ("ism.hold_back_ratio", "fraction", "lower", ("online_causal",)),
    ("ism.still_held", "count", "lower", ()),
    ("tool.consume_ns", "ns", "lower", LIVE),
    ("tool.dispatch_gap_ns", "ns", "lower", LIVE),
    ("agg.records_skew", "ratio", "lower", ("fed_200",)),
    ("agg.batches_forwarded", "count", "lower", ("fed_200",)),
    ("agg.held_back", "count", "lower", ()),
    ("root.records_received", "count", "higher", ("fed_200",)),
    ("env.drain_s", "s", "lower", LIVE),
    ("proc.ctx_switches_per_krec", "1/krec", "lower", LIVE),
    ("proc.busiest_thread_frac", "fraction", "lower", LIVE),
    ("proc.runq_wait_frac", "fraction", "lower", LIVE),
    ("gen.lag_p99_us", "us", "lower", ("online_causal",)),
    ("gen.offered_rate", "rec/s", "higher", LIVE),
    ("latency_p99_us", "us", "lower", LIVE),
    ("latency_p999_us", "us", "lower", LIVE),
    ("latency.samples", "count", "higher", LIVE),
    ("queue.link_depth_p50", "batches", "lower", ("flat_burst", "fed_200")),
    ("queue.link_depth_max", "batches", "lower", LIVE),
    ("queue.ism_output_p50", "rec", "lower", ("flat_burst", "fed_200")),
    ("queue.ism_output_max", "rec", "lower", LIVE),
    ("span.setup_self_ms", "ms", "lower", ALL_WORKLOADS),
    ("span.generate_self_ms", "ms", "lower", LIVE),
    ("span.record_self_ns", "ns", "lower", LIVE),
    ("span.consume_self_ns", "ns", "lower", LIVE),
    ("span.stop_self_ms", "ms", "lower", LIVE),
    ("span.replicate_self_ms", "ms", "lower", ("model_sweep",)),
    ("sim.events_executed", "count", "lower", ("model_sweep",)),
    ("sim.rep_ms_p50", "ms", "lower", ("model_sweep",)),
    ("sim.rep_ms_max", "ms", "lower", ("model_sweep",)),
    ("sim.worker_utilization", "fraction", "higher", ("model_sweep",)),
    ("sim.queue_wait_ms", "ms", "lower", ("model_sweep",)),
    ("picl.sweep_s", "s", "lower", ("model_sweep",)),
    ("rocc.sweep_s", "s", "lower", ("model_sweep",)),
    ("vista.sweep_s", "s", "lower", ("model_sweep",)),
]
APPLIES = {name: set(ws) for name, _, _, ws in _PER_LAYER}
for _name, _unit, _better, _ws in _PER_LAYER:
    MANIFEST["per_layer"].append({"name": _name, "unit": _unit, "better": _better})
# Tracing overhead, traced minus untraced, of every end-to-end metric.
for _m in MANIFEST["end_to_end"]:
    MANIFEST["per_layer"].append(
        {"name": "overhead." + _m["name"], "unit": _m["unit"], "better": "lower"})

E2E = [m["name"] for m in MANIFEST["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}


def log(*a):
    print(*a, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "prismbench"


def ensure_built():
    """Configures and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"prismbench: no PRISM sources at {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(bdir), "--target", "prismbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log("prismbench: build failed: " + " ".join(cmd))
                sys.exit(2)
    return bdir / "prismbench"


def run_binary(binary, args, timeout=170):
    """Runs the binary; returns (exit code, parsed last line or None)."""
    p = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=timeout)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


# ------------------------------------------------------------------- run

def fmt(v):
    return f"{v:.6g}"


def measure(workload, seed, seconds, trace):
    """One benchmark run.  Returns (exit code, result dict or None)."""
    binary = ensure_built()
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    code, plain = run_binary(binary, base + ["--trace", "0"])
    if plain is None:
        log(f"prismbench: {workload} produced no result (exit {code})")
        return code or 2, None
    for key in ("nproc", "affinity", "build_type", "prism_obs", "input_hash",
                "sweep_threads", "flagged_lifetimes"):
        if key in plain["info"]:
            print(f"# {key}: {plain['info'][key]}")
    if "flagged" in plain["info"]:
        # An open-loop latency taken while the generator ran late measures the
        # generator, not the IS: not reported.
        log(f"prismbench: {workload} flagged, not reported: {plain['info']['flagged']}")
        return 3, None

    result = {"correct": bool(plain["correct"]) and code == 0,
              "attempted": int(plain["attempted"]),
              "failed": int(plain["failed"]), "metrics": {}}
    failed_ratio = result["failed"] / max(1, result["attempted"])
    print(f"# failed_ratio: {fmt(failed_ratio)} fraction "
          f"({result['failed']} of {result['attempted']})")
    for p in plain.get("problems", []):
        print(f"# FAIL: {p}")

    samples = plain["metrics"].get("latency.samples")
    if samples:
        print(f"# latency samples: {int(samples)} per lifetime (median)")
    if not trace:
        for name in E2E:
            v = plain["metrics"][name]
            result["metrics"][name] = {"value": v, "unit": UNITS[name]}
            print(f"{name} = {fmt(v)} {UNITS[name]}")
        return (0 if result["correct"] else 1), result

    spans = build_dir() / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    code_t, traced = run_binary(binary, base + ["--trace", "1", "--spans", str(spans)])
    if traced is None:
        log(f"prismbench: traced {workload} produced no result (exit {code_t})")
        return code_t or 2, None
    if "flagged" in traced["info"]:
        log(f"prismbench: traced {workload} flagged, not reported: "
            f"{traced['info']['flagged']}")
        return 3, None
    result["correct"] = result["correct"] and bool(traced["correct"]) and code_t == 0
    result["failed"] += int(traced["failed"])
    result["attempted"] += int(traced["attempted"])
    for p in traced.get("problems", []):
        print(f"# FAIL (traced): {p}")
    for m in MANIFEST["per_layer"]:
        name = m["name"]
        if name.startswith("overhead."):
            e2e = name[len("overhead."):]
            v = traced["metrics"][e2e] - plain["metrics"][e2e]
        else:
            v = traced["metrics"].get(name, 0.0)
        result["metrics"][name] = {"value": v, "unit": m["unit"]}
        print(f"{name} = {fmt(v)} {m['unit']}")
    print(f"# spans: {spans}")
    return (0 if result["correct"] else 1), result


def cmd_all(seed, seconds):
    """Runs every workload untraced and prints one table."""
    rows, ok = {}, True
    for w in ALL_WORKLOADS:
        print(f"## {w}")
        code, res = measure(w, seed, seconds, False)
        ok = ok and code == 0
        rows[w] = res
    print()
    print("metric".ljust(24) + "unit".ljust(9) + "".join(w.rjust(16) for w in ALL_WORKLOADS))
    for name in E2E:
        cells = []
        for w in ALL_WORKLOADS:
            r = rows[w]
            cells.append(fmt(r["metrics"][name]["value"]) if r else "-")
        print(name.ljust(24) + UNITS[name].ljust(9) + "".join(c.rjust(16) for c in cells))
    failed = sum(r["failed"] for r in rows.values() if r)
    attempted = sum(r["attempted"] for r in rows.values() if r)
    print(f"failed_ratio: {failed} of {attempted}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


# ------------------------------------------------------------- manifest

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest_problems(m):
    """Checks the manifest against the benchmark contract's limits."""
    out = []
    if set(m) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        out.append("unexpected top-level keys")
    if not 1 <= len(m["paths"]) <= 16:
        out.append("paths: 1 to 16 entries")
    for p in m["paths"]:
        if not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) or p.startswith("/") or ".." in p:
            out.append(f"bad path {p!r}")
    if not (isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60):
        out.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(m["workloads"]) <= 8:
        out.append("2 to 8 workloads")
    if not 1 <= len(m["end_to_end"]) <= 16 or not 1 <= len(m["per_layer"]) <= 128:
        out.append("metric counts out of range")
    names = []
    for w in m["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            out.append(f"bad workload entry {w.get('name')}")
        names.append(w["name"])
    for e in m["end_to_end"]:
        if set(e) != {"name", "unit", "better", "bound"} or not 0 < e["bound"] <= 0.25:
            out.append(f"bad end_to_end entry {e.get('name')}")
    for e in m["per_layer"]:
        if set(e) != {"name", "unit", "better"}:
            out.append(f"bad per_layer entry {e.get('name')}")
    for e in m["end_to_end"] + m["per_layer"]:
        names.append(e["name"])
        if not UNIT_RE.match(e["unit"]) or e["better"] not in ("higher", "lower"):
            out.append(f"bad unit or direction on {e['name']}")
    for n in names:
        if not NAME_RE.match(n):
            out.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        out.append("a name is used twice")
    if {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(e["bound"] for e in m["end_to_end"])} not in m["end_to_end"]:
        out.append("setup_s must be present, in s, lower-better, with the largest bound")
    if len(m["command"]) > 32 or any(len(c) > 200 for c in m["command"]):
        out.append("command too long")
    if len(json.dumps(m, indent=2)) > 64 * 1024:
        out.append("manifest over 64 KiB")
    return out


def write_manifest():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(MANIFEST, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


# ------------------------------------------------------------- self-test

def self_test():
    """Tiny-size checks of the benchmark itself."""
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not ok else ""))

    probs = manifest_problems(MANIFEST)
    check("manifest within the contract's limits", not probs, "; ".join(probs))
    try:
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        check("BENCHMARK.json parses and matches the manifest", on_disk == MANIFEST,
              "run --write-manifest")
    except (OSError, json.JSONDecodeError) as e:
        check("BENCHMARK.json parses and matches the manifest", False, str(e))

    binary = ensure_built()
    code, res = run_binary(binary, ["--oracle-selftest"])
    check("oracle passes an in-order stream and trips on each broken one",
          code == 0 and res is not None and res["correct"],
          str(res and res.get("problems")))

    me = [sys.executable, str(Path(__file__).resolve())]
    for w in ALL_WORKLOADS:
        for trace in (0, 1):
            p = subprocess.run(me + ["--workload", w, "--seed", "7", "--seconds", "0.4",
                                     "--trace", str(trace)],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               timeout=170, cwd=ROOT)
            try:
                res = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                check(f"{w} trace={trace} prints a result", False, p.stderr[-300:])
                continue
            want = E2E if not trace else [m["name"] for m in MANIFEST["per_layer"]]
            got = res["metrics"]
            check(f"{w} trace={trace}: correct, exit 0",
                  p.returncode == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, p.stderr[-300:])
            check(f"{w} trace={trace}: every metric printed with its unit",
                  set(got) == set(want) and all(got[n]["unit"] == UNITS[n] for n in want)
                  and set(res) == {"correct", "attempted", "failed", "metrics"})
            if not trace:
                zero = [n for n in want if not got.get(n, {}).get("value")]
                check(f"{w}: no end-to-end metric reads 0", not zero, str(zero))
            else:
                missing = [n for n, ws in APPLIES.items()
                           if w in ws and not got.get(n, {}).get("value")]
                check(f"{w}: every per-layer metric that applies is measured",
                      not missing, str(missing))
                hb = got["ism.hold_back_ratio"]["value"]
                if w == "online_causal":
                    check("online_causal holds back about 1 record in 8",
                          0.09 < hb < 0.16, f"hold_back_ratio={hb}")
                if w == "flat_burst":
                    check("flat_burst never holds back", hb == 0, f"hold_back_ratio={hb}")

    p = subprocess.run(me + ["--workload", "oracle_violation", "--seed", "7",
                             "--seconds", "0.3", "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=170, cwd=ROOT)
    check("a causally violating stream makes the command exit non-zero",
          p.returncode != 0, f"exit {p.returncode}")

    # Without the PRISM sources the benchmark must refuse, not report.
    bare = build_dir().parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "prismbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run([sys.executable, "prismbench/run.py", "--workload", "flat_burst",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=170, cwd=bare, env=env)
    check("a checkout without the sources exits non-zero with no result",
          p.returncode != 0 and '"correct"' not in p.stdout, f"exit {p.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    ok = all(checks)
    print(f"self-test: {sum(checks)}/{len(checks)} passed")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS + ("oracle_violation",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    a = ap.parse_args()
    if a.write_manifest:
        return write_manifest()
    if a.self_test:
        return self_test()
    if a.all:
        return cmd_all(a.seed, a.seconds)
    if not a.workload or a.seed < 0 or not 0 < a.seconds <= 60:
        ap.error("--workload, a non-negative --seed and 0 < --seconds <= 60 are required")
    code, result = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
