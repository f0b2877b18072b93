"""The three workloads, with the reasons for their ops and sizes.

Each workload turns one instance seed into inputs (``setup``) and a list of
ops. An op's ``run`` is what the worker times; its ``check`` re-measures the
output with :mod:`check` afterwards, outside the timed region, and returns
a digest of the output plus the figures the end-to-end table reports.
Every op builds on inputs made afresh for it, so the shortest-path cache a
``WeightedGraph`` carries never crosses from one op to the next.

Measurements quoted below are single runs on a 2-core, 7.8 GB x86 VM with
BLAS pinned to one thread. One call repeated there varied by up to 15%, and
the machine's speed drifted by up to 40% over tens of minutes.

Sizes left out, and why (candidates for new workloads once the roadmap's
closure work lands):

* the README's ``spanner`` on euclidean-random n = 100 does not finish;
  n = 20 took 50 s, n = 40 ran past 250 s, n = 14 took 9.3 s;
* ``complete-tree`` beyond n = 8: 17.5 s at n = 10 and 94 s at n = 20, all
  of it in the closure's dimension sweep;
* a completion of a 2000-vertex random tree: its 27,704-vertex dense
  shortest-path matrix was killed for running out of memory on 7.8 GB;
* euclidean-random n = 800 for ``build-planar`` (not run): its build alone
  took 6.5 s in the roadmap's stage times and the audit grows with n times
  the edge count, about 7.6 times the n = 400 audit, too long to repeat
  inside one run.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import check
from check import require

EPS = 0.25


@dataclass
class Op:
    name: str
    pipeline: str | None  # the end-to-end *_s figure its time adds to
    run: Callable[[], object]
    check: Callable[[object], dict]
    known_error: str | None = None  # prefix of a failure known at this commit


class Workload:
    name = ""
    expects: tuple[str, ...] = ()  # functions a traced iteration must call

    def setup(self, dbl, seed: int, workdir: str) -> list[Op]:
        raise NotImplementedError


class BuildPlanar(Workload):
    """``random_euclidean(400, 2, seed)``, ``build_spanner(m, 1/4)``, then
    ``long_edge_audit`` of the spanner, called as a library.

    Why: the only workload where the construction layers (``net_tree``,
    ``spanner``, ``metric`` APSP and stretch) and the audit do real work,
    and no dimension sweep runs. Path-greedy pruning (ROADMAP item 2) and
    array-based net-trees (item 4) should show here; net-restricted
    estimators (item 3) should not.

    Measured: build 1.8-2.3 s and audit 7.7-8.5 s over seeds 1-3; the
    spanners had 75-77k edges and max degree 395-397.
    Traced (seeds 1-2): self time ``closure`` 76-79% (all of it the
    audit), ``spanner`` 12-13% (donation plus candidates ~10%), ``metric``
    6-7% (one APSP), ``instances`` 3%, ``net_tree`` 1%, ``cover`` 0; tracing
    costs nothing measurable here.
    """

    name = "build-planar"
    n = 400
    expects = (
        "instances.random_euclidean",
        "spanner.build_spanner",
        "net_tree.build_net_tree",
        "metric.greedy_net",
        "spanner.build_base_edge_sets",
        "spanner.assign_directions",
        "spanner.donate_edges",
        "metric.verify_stretch",
        "metric.shortest_path_metric",
        "closure.long_edge_audit",
    )

    def setup(self, dbl, seed, workdir):
        m = dbl.instances.random_euclidean(self.n, 2, seed)
        built = {}

        def build():
            built["s"] = dbl.spanner.build_spanner(m, EPS)
            return built["s"]

        def audit():
            return dbl.closure.long_edge_audit(built["s"].graph)

        def check_build(s):
            require(s.stretch is not None and s.stretch.passed, "stretch report did not pass")
            figures = check.check_spanner(m.dist, s.graph.edges, EPS, s.max_degree)
            return {"digest": check.digest(check.edge_lines(s.graph.edges)), **figures}

        def check_audit(a):
            u, r, witness = a.witness
            check.check_long_edge_witness(self.n, built["s"].graph.edges, a.max_count, u, r, witness)
            return {"digest": check.digest([f"audit {a.max_count} {u} {r!r}"])}

        return [
            Op("build_spanner", "spanner", build, check_build),
            Op("long_edge_audit", "spanner", audit, check_audit),
        ]


def _cli(dbl, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dbl.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class CliReadme(Workload):
    """The README's commands through ``doubling.cli.main(argv)`` with real
    files in a scratch directory: ``gen`` (set-up), then ``spanner`` on
    euclidean-random n = 12 and ``complete-tree`` on random-tree n = 6 (both
    eps = 1/4, with ``--output``), ``dim`` on euclidean-random n = 100 and
    on a random-tree n = 40 graph, ``audit`` and ``dim`` on the 16-leaf
    exponential star, and ``report`` over the two saved JSON files.

    Why these sizes: they are what the README pipelines reach today (see
    the module docstring for the sizes that do not finish).
    Why this workload: nearly all of its time is ``doubling_estimate`` and
    ``packing_lower_bound`` over closure samples, that is ``cover``'s
    greedy scans; the build layers take under 1%, the mirror image of
    ``build-planar``. It is the only workload that parses files, renders
    reports and saves artifacts.

    Measured: 10.8-15.5 s per instance over seeds 1-7; ``complete-tree``
    alone spans 3.8-7.7 s because the completion has 66-89 vertices.
    Traced (seeds 1-2): self time ``cover`` 83-84% and ``metric`` 15-16%;
    ``metric.estimate_s`` plus ``metric.packing_s`` are 99.5% of
    ``cli.run_s``; tracing adds ~15% (190k-270k greedy scans).
    """

    name = "cli-readme"
    expects = (
        "cli.main",
        "cli.run",
        "instances.random_euclidean",
        "instances.random_tree",
        "instances.exponential_star",
        "metric.save_metric",
        "metric.save_graph",
        "metric.load_metric",
        "metric.load_graph",
        "spanner.build_spanner",
        "spanner.save_spanner",
        "completion.complete_tree",
        "completion.verify_completion",
        "completion.save_completion",
        "closure.long_edge_audit",
        "closure.sample_metric",
        "closure.sampled_conv_dimension",
        "metric.doubling_estimate",
        "metric.packing_lower_bound",
        "cover.greedy_ball_cover",
        "cover.greedy_packing",
        "cover.min_ball_cover",
        "report.RunReport.render_text",
        "report.RunReport.save",
        "report.emit_plot_data",
    )

    GEN = (
        ("pts12.metric", ["--family", "euclidean-random", "--n", "12"]),
        ("tree6.graph", ["--family", "random-tree", "--n", "6"]),
        ("pts100.metric", ["--family", "euclidean-random", "--n", "100"]),
        ("tree40.graph", ["--family", "random-tree", "--n", "40"]),
        ("star16.graph", ["--family", "exponential-star", "--n", "16"]),
    )

    def setup(self, dbl, seed, workdir):
        os.chdir(workdir)  # relative paths keep the reports' [config] reproducible
        for path, args in self.GEN:
            rc, _ = _cli(dbl, ["gen", *args, "--seed", str(seed), "--output", path])
            require(rc == 0, f"gen {path} exited {rc}")
        pts12 = check.read_metric("pts12.metric")
        tree6 = check.read_graph("tree6.graph")
        star = check.read_graph("star16.graph")
        eps = repr(EPS)

        def cli(argv):
            return lambda: _cli(dbl, argv)

        def report_of(out, base=None):
            rc, stdout = out
            require(rc == 0, f"exit code {rc}")
            sections = check.parse_report(check.hashable_part(stdout))
            if base is not None:
                check.check_report_files(base, stdout)
            return sections, check.digest([check.hashable_part(stdout)])

        def check_spanner(out):
            sections, dg = report_of(out, "run1")
            require(sections["stretch"]["pass"] == "true", "stretch did not pass")
            n, edges = check.read_graph("run1.spanner")
            loaded = dbl.spanner.load_spanner("run1.spanner", EPS)
            require(list(loaded.graph.edges) == edges, "run1.spanner does not round-trip")
            require(int(sections["degree"]["n_edges"]) == len(edges), "n_edges disagrees with the file")
            figures = check.check_spanner(pts12, edges, EPS, int(sections["degree"]["max_degree"]))
            return {"digest": dg, **figures}

        def check_completion(out):
            sections, dg = report_of(out, "run2")
            require(sections["stretch"]["pass"] == "true", "stretch did not pass")
            require(sections["tree"]["output_is_tree"] == "true", "output is not a tree")
            n, edges = check.read_graph("run2.completion")
            loaded = dbl.completion.load_completion("run2.completion")
            require(list(loaded.output.edges) == edges, "run2.completion does not round-trip")
            require(check.is_tree(n, edges), "completion is not a tree")
            base = check.apsp(tree6[0], tree6[1])
            check.stretch(base, check.apsp(n, edges), EPS, contraction=True)
            return {"digest": dg}

        def check_dim(out):
            sections, dg = report_of(out)
            dims = {k: float(v) for k, v in sections["dim"].items() if k != "input_mode"}
            gap = 0.0
            for kind in ("input", "conv_sampled"):
                if f"{kind}_upper" in dims:
                    lo, hi = dims[f"{kind}_lower"], dims[f"{kind}_upper"]
                    require(0.0 <= lo <= hi, f"{kind} bounds [{lo}, {hi}] out of order")
                    gap += hi - lo
            return {"digest": dg, "dim_gap": gap}

        def check_audit(out):
            rc, stdout = out
            sections, dg = report_of(out)
            le = sections["long_edges"]
            witness = [tuple(int(x) for x in item.split()) for item in check.report_list(stdout, "witness_edges")]
            check.check_long_edge_witness(
                star[0], star[1], int(le["max"]), int(le["witness_vertex"]), float(le["witness_radius"]), witness
            )
            return {"digest": dg}

        def check_table(out):
            rc, stdout = out
            require(rc == 0, f"exit code {rc}")
            with open("table.tsv", "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            require(lines[0] == "family\tn\tepsilon\tmetric\tvalue", "bad table header")
            expected = check.numeric_rows("run1.json") + check.numeric_rows("run2.json")
            require(len(lines) - 1 == expected, f"table has {len(lines) - 1} rows, reports hold {expected}")
            return {"digest": check.digest(lines)}

        return [
            Op("spanner pts12", "spanner", cli(["spanner", "--input", "pts12.metric", "--epsilon", eps, "--output", "run1"]), check_spanner),
            Op("complete-tree tree6", "complete_tree", cli(["complete-tree", "--input", "tree6.graph", "--epsilon", eps, "--output", "run2"]), check_completion),
            Op("dim pts100", "dim", cli(["dim", "--input", "pts100.metric"]), check_dim),
            Op("dim tree40", "dim", cli(["dim", "--input", "tree40.graph"]), check_dim),
            Op("audit star16", None, cli(["audit", "--input", "star16.graph"]), check_audit),
            Op("dim star16", "dim", cli(["dim", "--input", "star16.graph"]), check_dim),
            Op("report", None, cli(["report", "--inputs", "run1.json", "run2.json", "--output", "table.tsv"]), check_table),
        ]


class Certify(Workload):
    """The two certificate pipelines, called as a library the way
    ``cli.run`` calls them: ``certify-lcp`` at p = 5 and p = 6 (eps =
    2^-(p+1)), and ``certify-star`` on the 16-leaf star at eps = 2^-2 ...
    2^-17 (16 ops).

    Why: ``closure`` is used through point queries here, not a dense sample
    matrix. ``crossing_midpoint_packing`` at p = 6 makes 523,776
    ``conv_distance`` calls (5.5 of 6.5 s) while the spanner on 64 points
    takes 0.05 s, so a cheaper ``conv_distance`` should move only this
    workload. The instances are parameter-free families, so the seed does
    not change them.

    Known failures: ``certify-star`` raises ``AssertionError: no feasible
    step`` in ``closure._lex_min_path`` for every eps <= 2^-14 at this
    commit. Those four ops stay in the sweep but run outside the timed
    region, so that no timed op fails; the table counts them in
    ``failed_frac`` (4 of 18), and a fix shows there. The whole star sweep
    costs about 0.3 s.
    Traced (seeds 2-3): self time ``closure`` 83%, ``instances`` 12%,
    ``metric`` 4%; 556,936 ``conv_distance`` calls per iteration; tracing
    adds ~40% (the per-call wrapper on ``conv_distance`` and the cached
    ``shortest_path_metric`` it calls).
    """

    name = "certify"
    expects = (
        "instances.lcp_metric",
        "instances.exponential_star",
        "spanner.build_spanner",
        "instances.lcp_crossing_check",
        "instances.crossing_midpoint_packing",
        "closure.conv_distance",
        "completion.complete_tree",
        "instances.star_lb_certificate",
        "closure.conv_geodesic_point",
    )
    STAR_LEAVES = 16
    KNOWN_FAILING_FROM = 14  # eps = 2^-14 and smaller

    def setup(self, dbl, seed, workdir):
        ops = [self._lcp(dbl, p, dbl.instances.lcp_metric(p)) for p in (5, 6)]
        for k in range(2, 18):
            star = dbl.instances.exponential_star(self.STAR_LEAVES)
            ops.append(self._star(dbl, k, star))
        return ops

    def _lcp(self, dbl, p, m):
        eps = 2.0 ** -(p + 1)

        def run():
            s = dbl.spanner.build_spanner(m, eps)
            return s, dbl.instances.lcp_crossing_check(s.graph, p), dbl.instances.crossing_midpoint_packing(s.graph, p)

        def verify(out):
            s, crossing, packing = out
            require(s.stretch is not None and s.stretch.passed, "stretch report did not pass")
            figures = check.check_spanner(check.lcp_distances(p), s.graph.edges, eps, s.max_degree)
            check.check_lcp(p, s.graph.edges, crossing, packing)
            lines = check.edge_lines(s.graph.edges) + [f"packing {packing.size} {packing.min_pairwise!r} {packing.max_pairwise!r}"]
            return {"digest": check.digest(lines), **figures}

        return Op(f"certify-lcp p={p}", "certify", run, verify)

    def _star(self, dbl, k, g):
        eps = 2.0**-k

        def run():
            c = dbl.completion.complete_tree(g, eps)
            return c, dbl.instances.star_lb_certificate(c, eps)

        def verify(out):
            c, cert = out
            check.check_star_certificate(c.output.edges, c.output.n_vertices, cert, eps)
            return {"digest": check.digest([repr(pt) for pt in cert.points])}

        known = "no feasible step" if k >= self.KNOWN_FAILING_FROM else None
        return Op(f"certify-star eps=2^-{k}", "certify", run, verify, known_error=known)


WORKLOADS = {w.name: w for w in (BuildPlanar(), CliReadme(), Certify())}
