"""Benchmark of the doubling pipelines: seeded workloads, timed from outside.

    python3 perfbench/run.py --workload build-planar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Run from anywhere; it measures the checkout it sits in (``src/doubling``).
Each workload runs in a fresh child process (``worker.py``) with OpenBLAS,
OMP and MKL pinned to one thread. Set-up is measured in ``SETUP_PROBES``
further fresh processes as well, and reported as the median. The table
lists every end-to-end figure by name and unit; the last line is one JSON
object whose metrics are those ``BENCHMARK.json`` names: ``end_to_end``
with ``--trace 0``, ``per_layer`` with ``--trace 1``.

Exit status: 0 when every op passed its check, 1 when an op failed that is
not a recorded known failure (the JSON line is still printed), 2 when the
benchmark cannot run here (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # the whole command must end within 180 s
PIPELINES = ("spanner", "complete_tree", "dim", "certify")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CannotRun(Exception):
    pass


def _child(args: list[str], out: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out", out, *args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise CannotRun("no time left for the worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **PINNED}, capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired:
        raise CannotRun(f"worker did not finish within {left:.0f} s") from None
    if proc.returncode != 0:
        raise CannotRun(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes, then the measured worker run; returns raw records."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    try:
        setups = [
            _child([*common, "--setup-only"], os.path.join(workdir + "-setup.json"), deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        raw = _child(common, os.path.join(workdir + "-run.json"), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for suffix in ("-setup.json", "-run.json"):
            if os.path.exists(workdir + suffix):
                os.remove(workdir + suffix)
    setups.append(raw["import_s"] + raw["iterations"][0]["setup_s"])
    raw["setup_samples"] = setups
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return raw


def summarize(name: str, raw: dict) -> dict:
    """Medians over iterations, failure counts and the checks on the run itself."""
    its = raw["iterations"]
    plain = [it for it in its if not it["traced"]]
    traced = [it for it in its if it["traced"]]
    ops = [op for it in its for op in it["ops"]]
    probes = [p for it in its for p in it["probes"]]
    problems = [f"{op['op']}: {op['error']}" for op in ops if "error" in op]
    problems += [f"{p['op']}: {p.get('error', 'passes')} (not the known failure)" for p in probes if not p["as_known"]]
    for it in traced:
        problems += [f"traced run never called {fn}" for fn in it["missing_calls"]]
    # a traced iteration shares its instance seed with the plain one before it
    for a, b in zip(its[::2], its[1::2]):
        if b["traced"]:
            for x, y in zip(a["ops"], b["ops"]):
                if x.get("digest") != y.get("digest"):
                    problems.append(f"{x['op']}: tracing changed the output digest")

    def per_it(fn):
        return [fn(it) for it in plain]

    def summed(key):
        return lambda it: sum(op.get(key, 0) for op in it["ops"])

    series: dict[str, list[float]] = {
        "wall_s": per_it(lambda it: it["wall_s"]),
        "setup_s": raw["setup_samples"],
        # the high-water mark after the first iteration's ops, so that it does
        # not grow with the number of iterations a fast machine fits in
        "peak_rss_mb": [its[0]["peak_rss_mb"]],
        "spanner_edges": per_it(summed("spanner_edges")),
        "spanner_max_degree": per_it(lambda it: max((op.get("spanner_max_degree", 0) for op in it["ops"]), default=0)),
        "dim_gap": per_it(summed("dim_gap")),
    }
    for pipe in PIPELINES:
        series[f"{pipe}_s"] = per_it(lambda it, p=pipe: sum(op["s"] for op in it["ops"] if op["pipeline"] == p))
    still_failing = sum(p["still_fails"] for p in probes)
    failed = sum("error" in op for op in ops)
    series["failed_frac"] = [(failed + still_failing) / max(1, len(ops) + len(probes))]
    if traced:
        for key in traced[0]["figures"]:
            series[key] = [it["figures"][key] for it in traced]
        series["trace.overhead_ratio"] = [b["wall_s"] / a["wall_s"] for a, b in zip(its[::2], its[1::2])]
    return {
        "name": name,
        "series": series,
        "ops": ops,
        "iterations": its,
        "probes": probes,
        "problems": problems,
        "attempted": len(ops),
        "failed": failed,
    }


UNITS = {"peak_rss_mb": "MiB", "dim_gap": "dim", "failed_frac": "ratio"}


def unit_of(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_ratio") else "count"


def print_table(summary: dict, trace: int) -> None:
    its = summary["iterations"]
    seeds = sorted({it["sub_seed"] for it in its})
    print(f"== {summary['name']}: {len(its)} iterations on instance seeds {seeds[0]}..{seeds[-1]}"
          f"{' (plain and traced pairs)' if trace else ''}")
    series = summary["series"]
    pipelines = {op["pipeline"] for op in summary["ops"]}
    print(f"{'end-to-end':24} {'unit':6} {'median':>12} {'min':>12} {'max':>12} {'n':>3}")
    for key in ("wall_s", *(f"{p}_s" for p in PIPELINES if p in pipelines), "setup_s", "peak_rss_mb",
                "failed_frac", "spanner_max_degree", "spanner_edges", *(("dim_gap",) if "dim" in pipelines else ())):
        _row(key, series[key])  # figures the workload has no op for are left out
    by_op: dict[str, list[float]] = {}
    for op in summary["ops"]:
        by_op.setdefault(op["op"], []).append(op["s"])
    print("ops (seconds per call):")
    for op, times in by_op.items():
        print(f"  {op:30} median {statistics.median(times):.4f}  n {len(times)}")
    for it in its:
        combined = hashlib.sha256(" ".join(op.get("digest", "-") for op in it["ops"]).encode()).hexdigest()[:16]
        print(f"output digest, instance seed {it['sub_seed']}{' traced' if it['traced'] else ''}: {combined}")
    if summary["probes"]:
        still = [p for p in summary["probes"] if p["still_fails"]]
        print(f"known failures run untimed: {len(still)} of {len(summary['probes'])} still fail")
        for p in summary["probes"][: len(summary["probes"]) // max(1, len(its))]:
            print(f"  {p['op']}: {p.get('error', 'now passes its check')}")
    if trace and "trace.overhead_ratio" in series:
        print(f"{'per-layer':34} {'unit':6} {'median':>12} {'min':>12} {'max':>12} {'n':>3}")
        for key in sorted(k for k in series if "." in k):
            _row(key, series[key], width=34)
        wall = statistics.median(series["wall_s"]) if series["wall_s"] else 0.0
        shares = sorted(
            ((statistics.median(v), k[: -len(".self_s")]) for k, v in series.items() if k.endswith(".self_s")),
            reverse=True,
        )
        total = sum(s for s, _ in shares) or 1.0
        print("self time by layer: " + ", ".join(f"{layer} {100 * s / total:.1f}%" for s, layer in shares if s > 0))
        print(f"dominant layer: {shares[0][1]} (untraced wall_s median {wall:.3f} s)")
    for problem in summary["problems"]:
        print(f"FAILED {problem}")


def _row(key: str, values: list[float], width: int = 24) -> None:
    print(f"{key:{width}} {unit_of(key):6} {statistics.median(values):12.6g} {min(values):12.6g} "
          f"{max(values):12.6g} {len(values):3d}")


def result_line(summary: dict, metrics: list[dict]) -> dict:
    values = {}
    for m in metrics:
        if m["name"] not in summary["series"]:
            raise CannotRun(f"{summary['name']} measured no {m['name']}")
        values[m["name"]] = {"value": statistics.median(summary["series"][m["name"]]), "unit": m["unit"]}
    return {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "doubling", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} needs src/doubling and BENCHMARK.json to measure", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    correct = True
    for name in names if args.workload == "all" else [args.workload]:
        try:
            summary = summarize(name, measure(name, args.seed, args.seconds, args.trace))
            line = result_line(summary, spec["per_layer" if args.trace else "end_to_end"])
        except CannotRun as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_table(summary, args.trace)
        print(json.dumps(line), flush=True)
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
