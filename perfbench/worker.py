"""One workload in a fresh process: set up, time the ops, check them.

Started by ``run.py`` with BLAS pinned to one thread. It imports the
package from ``<root>/src``, so it measures the checkout it sits in. The
raw record of every iteration goes to ``--out`` as JSON; ``run.py`` turns
it into medians.

Iteration k of a run uses instance seed ``seed * 1000 + k``. Each iteration
first builds its inputs (timed as set-up), then runs the ops back to back
(timed, each on its own and all together), notes the process's peak RSS so
far, then checks every output. A traced run alternates untraced and traced
iterations on the same instance seed, so their ratio is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time


def instance_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def import_package(root: str):
    """Import ``doubling`` from the checkout; returns (package, seconds)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import doubling
    import doubling.cli  # noqa: F401  (the package does not import it itself)

    seconds = time.perf_counter() - t0
    if not os.path.realpath(doubling.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported doubling from {doubling.__file__}, not from {src}")
    return doubling, seconds


def run_iteration(workload, dbl, sub_seed: int, workdir: str, tracer=None) -> dict:
    import tracing
    from check import CheckFailed

    os.makedirs(workdir)
    install = None
    if tracer is not None:
        install = tracing.Installation(tracer, dbl)
        setup_span = tracer.open("bench.setup")
    record: dict = {"sub_seed": sub_seed, "traced": tracer is not None, "ops": []}
    t0 = time.perf_counter()
    try:
        ops = workload.setup(dbl, sub_seed, workdir)
        setup_error = None
    except Exception as exc:  # the set-up is an op too: record it and go on
        ops, setup_error = [], f"{type(exc).__name__}: {exc}"
    record["setup_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(setup_span)
    if setup_error is not None:
        record["ops"].append({"op": "setup", "pipeline": None, "s": record["setup_s"], "error": setup_error})

    timed = [op for op in ops if op.known_error is None]
    results = []
    t_start = time.perf_counter()
    for op in timed:
        span = tracer.open(f"bench.{op.name}") if tracer is not None else None
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # counted as a failed op
            out, err = None, exc
        dt = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        results.append((op, out, err, dt))
    record["wall_s"] = time.perf_counter() - t_start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        install.remove()
        calls = tracer.calls()
        record["figures"] = tracing.figures(tracer)
        record["missing_calls"] = [name for name in workload.expects if not calls.get(name)]
        record["spans"] = tracer.dump()
        tracer.reset()

    for op, out, err, dt in results:
        entry = {"op": op.name, "pipeline": op.pipeline, "s": dt}
        if err is not None:
            entry["error"] = f"{type(err).__name__}: {err}"
        else:
            try:
                entry.update(op.check(out))
            except CheckFailed as exc:
                entry["error"] = f"check: {exc}"
            except Exception as exc:  # a crash in the check fails the op too
                entry["error"] = f"check crashed: {type(exc).__name__}: {exc}"
        record["ops"].append(entry)

    record["probes"] = [_probe(op) for op in ops if op.known_error is not None]

    os.chdir(os.path.dirname(workdir))
    shutil.rmtree(workdir)
    return record


def _probe(op) -> dict:
    """Run an op known to fail, untimed; say whether it still fails the same way."""
    from check import CheckFailed

    entry = {"op": op.name, "known_error": op.known_error}
    try:
        out = op.run()
    except Exception as exc:  # the known failure, or a new one
        message = f"{type(exc).__name__}: {exc}"
        entry["still_fails"] = True
        entry["error"] = message
        entry["as_known"] = str(exc).startswith(op.known_error)
        return entry
    entry["still_fails"] = False
    try:
        entry.update(op.check(out))
        entry["as_known"] = True  # fixed: now passes its check
    except CheckFailed as exc:
        entry["error"] = f"check: {exc}"
        entry["as_known"] = False
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    dbl, import_s = import_package(args.root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)

    if args.setup_only:
        setup_dir = os.path.join(args.workdir, "setup")
        os.makedirs(setup_dir)
        t0 = time.perf_counter()
        workload.setup(dbl, instance_seed(args.seed, 0), setup_dir)
        result = {"setup_s": import_s + time.perf_counter() - t0}
        os.chdir(args.root)
        shutil.rmtree(setup_dir)
    else:
        result = {"import_s": import_s, "iterations": _measure(args, workload, dbl)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, workload, dbl) -> list[dict]:
    """Iterations until the next one would end past ``--seconds``.

    A traced run measures pairs (untraced, traced) on one instance seed and
    always completes at least one pair.
    """
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    iterations: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        t = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        sub = instance_seed(args.seed, k // 2 if args.trace else k)
        iterations.append(
            run_iteration(workload, dbl, sub, os.path.join(args.workdir, f"it{k}"), tracer if traced else None)
        )
        durations.append(time.perf_counter() - t)
        k += 1
        if args.trace and k % 2 == 1:
            continue  # finish the pair
        step = statistics.median(durations) * (2 if args.trace else 1)
        if time.perf_counter() - start + step > args.seconds:
            return iterations


if __name__ == "__main__":
    sys.exit(main())
