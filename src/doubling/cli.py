"""Command-line experiment driver.

Subcommands generate instances, run the spanner / completion pipelines with
their verifications, audit long edges, estimate dimensions, emit the two
lower-bound certificates, and collect report files into plot tables. Exit
status: 0 when every enabled verification passed, 1 on a verification or
pipeline failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass

from . import closure, completion, instances, metric, spanner
from .errors import ConfigError, DoublingError, TooFewLeaves
from .report import RunReport, emit_plot_data

__all__ = ["RunConfig", "run", "main"]

PIPELINES = ("spanner", "complete-tree", "audit-only", "dim", "certify-star", "certify-lcp")


@dataclass
class RunConfig:
    pipeline: str
    instance: instances.InstanceSpec | None = None
    input_path: str | None = None
    epsilon: float | None = None
    samples_per_edge: int = 2
    exact_max_n: int = 64
    output: str | None = None

    def validate(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.epsilon is not None and not 0.0 < self.epsilon <= 0.25:
            raise ConfigError(f"epsilon must lie in (0, 1/4], got {self.epsilon!r}")
        if self.samples_per_edge < 0:
            raise ConfigError("samples-per-edge must be nonnegative")
        if self.exact_max_n < 1:
            raise ConfigError("exact-dim-max-n must be positive")


def _load_input(path: str) -> metric.WeightedGraph | metric.FiniteMetric:
    """Load a graph or metric file; a missing or malformed file is a usage error."""
    loaders = {"graph": metric.load_graph, "metric": metric.load_metric}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            kind = next((parts[0] for _, parts in metric._data_lines(fh)), None)
        if kind is None:
            raise ConfigError(f"{path}: empty input file")
        if kind not in loaders:
            raise ConfigError(f"{path}: unrecognized file header {kind!r}")
        return loaders[kind](path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        msg = str(exc)
        if not msg.startswith(f"{path}:"):
            msg = f"{path}: {msg}"
        raise ConfigError(msg) from exc


def _build(spec: instances.InstanceSpec) -> metric.WeightedGraph | metric.FiniteMetric:
    """Build a generated instance; a size its generator refuses is a usage error."""
    try:
        return spec.build()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(config: RunConfig) -> metric.WeightedGraph | metric.FiniteMetric:
    if config.instance is not None:
        return _build(config.instance)
    if config.input_path is None:
        raise ConfigError("no instance and no input file given")
    return _load_input(config.input_path)


def _config_echo(config: RunConfig) -> dict[str, object]:
    echo: dict[str, object] = {"pipeline": config.pipeline}
    if config.instance is not None:
        echo.update(config.instance.describe())
    if config.input_path is not None:
        echo["input"] = config.input_path
    if config.epsilon is not None:
        echo["epsilon"] = config.epsilon
    echo["samples_per_edge"] = config.samples_per_edge
    echo["exact_max_n"] = config.exact_max_n
    return echo


def _need_epsilon(config: RunConfig) -> float:
    if config.epsilon is None:
        raise ConfigError(f"pipeline {config.pipeline!r} requires --epsilon")
    return config.epsilon


def _as_metric(obj: metric.WeightedGraph | metric.FiniteMetric) -> metric.FiniteMetric:
    if isinstance(obj, metric.WeightedGraph):
        return metric.shortest_path_metric(obj)
    return obj


def _audit_section(audit: closure.AuditResult) -> dict[str, object]:
    u, r, edges = audit.witness
    return {
        "max": audit.max_count,
        "witness_vertex": u,
        "witness_radius": r,
        "witness_edges": [list(e) for e in edges],
    }


def _stretch_section(rep: metric.StretchReport) -> dict[str, object]:
    return {"min": rep.min_ratio, "max": rep.max_ratio, "pass": rep.passed}


def _dims(
    m: metric.FiniteMetric, g: metric.WeightedGraph | None, config: RunConfig
) -> dict[str, object]:
    """Dimension bounds of the input metric and, given a graph, of its closure's
    sample, which runs first: its memory preflight refuses before the input sweep.
    Pipelines call it once the graph is built, before its audit and verifier."""
    conv: dict[str, object] = {}
    if g is not None:
        est = closure.sampled_conv_dimension(g, config.samples_per_edge, config.exact_max_n)
        conv = {"conv_sampled_upper": est.dim_upper, "conv_sampled_lower": est.dim_lower}
    est = metric.doubling_estimate(m, exact_max_n=config.exact_max_n)
    est = est.merged_with_lower(metric.packing_lower_bound(m))
    dims = {"input_upper": est.dim_upper, "input_lower": est.dim_lower, "input_mode": est.mode}
    return {**dims, **conv}


def run(config: RunConfig) -> tuple[RunReport, bool]:
    """Execute one pipeline; returns the report and overall pass/fail."""
    config.validate()
    report = RunReport(config=_config_echo(config))
    t0 = time.perf_counter()
    passed = True

    if config.pipeline == "spanner":
        m = _as_metric(_resolve(config))
        eps = _need_epsilon(config)
        s = spanner.build_spanner(m, eps)
        assert s.net_tree is not None and s.stretch is not None
        dims = _dims(m, s.graph, config)
        report.add("scale", {"scale": s.net_tree.scale})
        report.add("stretch", _stretch_section(s.stretch))
        report.add(
            "degree",
            {
                "max_degree": s.max_degree,
                "n_edges": s.graph.w.size,
                "raw_max_degree": s.raw_max_degree,
                "raw_n_edges": s.raw_n_edges,
            },
        )
        report.add("long_edges", _audit_section(closure.long_edge_audit(s.graph)))
        report.add("dim", dims)
        passed = s.stretch.passed
        if config.output:
            spanner.save_spanner(s, config.output + ".spanner")

    elif config.pipeline == "complete-tree":
        g = _resolve(config)
        if not isinstance(g, metric.WeightedGraph):
            raise ConfigError("complete-tree needs a graph input")
        eps = _need_epsilon(config)
        c = completion.complete_tree(g, eps)
        dims = _dims(metric.shortest_path_metric(g), c.output, config)
        rep = completion.verify_completion(g, c, eps)
        report.add("scale", {"scale": c.scale})
        report.add("stretch", _stretch_section(rep.stretch))
        report.add(
            "tree",
            {"input_is_tree": c.input_is_tree, "output_is_tree": rep.tree_ok},
        )
        report.add("long_edges", _audit_section(closure.long_edge_audit(c.output)))
        report.add("dim", dims)
        passed = rep.passed
        if config.output:
            completion.save_completion(c, config.output + ".completion")

    elif config.pipeline == "audit-only":
        g = _resolve(config)
        if not isinstance(g, metric.WeightedGraph):
            raise ConfigError("audit needs a graph input")
        report.add("long_edges", _audit_section(closure.long_edge_audit(g)))

    elif config.pipeline == "dim":
        obj = _resolve(config)
        g = obj if isinstance(obj, metric.WeightedGraph) else None
        report.add("dim", _dims(_as_metric(obj), g, config))

    elif config.pipeline == "certify-star":
        if config.instance is None or config.instance.family != "exponential-star":
            raise ConfigError("certify-star needs an exponential-star instance")
        eps = _need_epsilon(config)
        g = _build(config.instance)
        assert isinstance(g, metric.WeightedGraph)
        c = completion.complete_tree(g, eps)
        try:
            cert = instances.star_lb_certificate(c, eps)
        except TooFewLeaves as exc:
            raise ConfigError(str(exc)) from exc
        report.add("scale", {"scale": c.scale})
        report.add("certificate", _packing_section(cert))
        passed = cert.ok

    elif config.pipeline == "certify-lcp":
        if config.instance is None or config.instance.family != "lcp-hypercube":
            raise ConfigError("certify-lcp needs an lcp-hypercube instance")
        m = _build(config.instance)
        p = config.instance.p
        eps = config.epsilon if config.epsilon is not None else 2.0 ** -(p + 1)
        s = spanner.build_spanner(m, eps)
        assert s.stretch is not None
        crossing = instances.lcp_crossing_check(s.graph, p)
        packing = instances.crossing_midpoint_packing(s.graph, p)
        report.config["epsilon"] = eps
        report.add("stretch", _stretch_section(s.stretch))
        report.add(
            "crossing",
            {
                "present": crossing.present,
                "total": crossing.total,
                "all_present": crossing.all_present,
                "missing": "-" if crossing.missing is None else list(crossing.missing),
            },
        )
        report.add("midpoint_packing", _packing_section(packing))
        passed = s.stretch.passed and crossing.all_present and packing.ok

    report.timings["total_s"] = time.perf_counter() - t0
    return report, passed


def _packing_section(cert: instances.PackingCertificate) -> dict[str, object]:
    return {
        "size": cert.size,
        "min_pairwise": cert.min_pairwise,
        "max_pairwise": cert.max_pairwise,
        "ball_radius": cert.ball_radius,
        "dim_lower": cert.dim_lower,
        "ok": cert.ok,
    }


@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubling",
        description="Build and verify doubling-preserving spanners and tree completions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, epsilon: bool = True) -> None:
        if epsilon:
            p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--samples-per-edge", type=int, default=2)
        p.add_argument("--exact-dim-max-n", type=int, default=64)
        p.add_argument("--output", default=None)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--family", required=True, choices=instances.FAMILIES)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--p", type=int, default=None)
    g.add_argument("--ambient-dim", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", required=True)

    for name in ("spanner", "complete-tree", "audit", "dim"):
        p = sub.add_parser(name, help=f"run the {name} pipeline on an input file")
        p.add_argument("--input", required=True)
        add_common(p, epsilon=name in ("spanner", "complete-tree"))

    p = sub.add_parser("certify-star", help="completed-star packing certificate")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("certify-lcp", help="crossing-edge certificate on prefix strings")
    p.add_argument("--p", type=int, required=True)
    add_common(p)

    p = sub.add_parser("report", help="merge report JSON files into a plot table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", default=None)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = instances.InstanceSpec(
        family=args.family, n=args.n, p=args.p, ambient_dim=args.ambient_dim, seed=args.seed
    )
    built = _build(spec)
    if isinstance(built, metric.WeightedGraph):
        metric.save_graph(built, args.output)
    else:
        metric.save_metric(built, args.output)
    print(args.output)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    reports = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: not JSON: {exc}") from exc
        if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
            raise ConfigError(f"{path}: a report file holds one JSON object of sections")
        rep = RunReport(config=data.pop("config", {}))
        timings = data.pop("timings", {})
        rep.sections = list(data.items())
        rep.timings = timings
        reports.append(rep)
    table = emit_plot_data(reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "report":
            return _cmd_report(args)

        instance = None
        if args.command == "certify-star":
            instance = instances.InstanceSpec(family="exponential-star", n=args.n)
        elif args.command == "certify-lcp":
            instance = instances.InstanceSpec(family="lcp-hypercube", p=args.p)
        config = RunConfig(
            pipeline="audit-only" if args.command == "audit" else args.command,
            instance=instance,
            input_path=getattr(args, "input", None),
            epsilon=getattr(args, "epsilon", None),
            samples_per_edge=args.samples_per_edge,
            exact_max_n=args.exact_dim_max_n,
            output=args.output,
        )
        report, passed = run(config)
        sys.stdout.write(report.render_text())
        if config.output:
            report.save(config.output)
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DoublingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
