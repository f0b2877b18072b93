import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    InstanceSpec,
    exponential_star,
    lcp_metric,
    load_graph,
    load_metric,
    random_euclidean,
    random_tree,
    save_graph,
    save_metric,
)
from doubling import closure, completion, metric, spanner
from doubling.cli import RunConfig, main, run
from doubling.errors import ConfigError
from doubling.report import RunReport, emit_plot_data


# the path 0 - 1 - 2 measures 1.797e308 + 1e300 from 0 to 2: inf in float64
OVERFLOW_GRAPH = "graph 3\ne 0 1 1.7976931348623157e308\ne 1 2 1e300\n"


def star_spec(n: int) -> InstanceSpec:
    return InstanceSpec(family="exponential-star", n=n)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pipeline": "frobnicate"},
            {"pipeline": "spanner", "epsilon": 0.5},
            {"pipeline": "spanner", "epsilon": 0.0},
            {"pipeline": "dim", "samples_per_edge": -1},
            {"pipeline": "dim", "exact_max_n": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_boundary_epsilon_is_fine(self):
        RunConfig(pipeline="spanner", epsilon=0.25).validate()


class TestRun:
    def test_spanner_pipeline_sections(self):
        config = RunConfig(
            pipeline="spanner",
            instance=InstanceSpec(family="euclidean-random", n=12, seed=3),
            epsilon=0.25,
            samples_per_edge=1,
        )
        report, passed = run(config)
        assert passed
        assert [name for name, _ in report.sections] == [
            "scale",
            "stretch",
            "degree",
            "long_edges",
            "dim",
        ]
        assert report.section("stretch")["pass"] is True
        degree = report.section("degree")
        assert 1 <= degree["max_degree"] <= degree["raw_max_degree"]
        assert degree["n_edges"] <= degree["raw_n_edges"]
        assert "total_s" in report.timings

    def test_completion_pipeline_on_a_star(self):
        config = RunConfig(pipeline="complete-tree", instance=star_spec(4), epsilon=0.25)
        report, passed = run(config)
        assert passed
        tree = report.section("tree")
        assert tree == {"input_is_tree": True, "output_is_tree": True}

    def test_completion_needs_a_graph(self):
        config = RunConfig(
            pipeline="complete-tree",
            instance=InstanceSpec(family="lcp-hypercube", p=2),
            epsilon=0.25,
        )
        with pytest.raises(ConfigError):
            run(config)

    def test_audit_only(self):
        report, passed = run(RunConfig(pipeline="audit-only", instance=star_spec(5)))
        assert passed
        assert report.section("long_edges")["max"] == 5

    def test_dim_on_a_metric_has_no_closure_numbers(self):
        config = RunConfig(pipeline="dim", instance=InstanceSpec(family="lcp-hypercube", p=2))
        report, _ = run(config)
        dims = report.section("dim")
        assert dims["input_upper"] == 1.0
        assert "conv_sampled_upper" not in dims

    def test_dim_on_a_graph_adds_closure_numbers(self):
        report, _ = run(RunConfig(pipeline="dim", instance=star_spec(3)))
        assert "conv_sampled_upper" in report.section("dim")

    def test_epsilon_is_required_for_builders(self):
        with pytest.raises(ConfigError):
            run(RunConfig(pipeline="spanner", instance=star_spec(3)))

    def test_certify_star_needs_the_star_family(self):
        config = RunConfig(
            pipeline="certify-star",
            instance=InstanceSpec(family="lcp-hypercube", p=2),
            epsilon=0.25,
        )
        with pytest.raises(ConfigError):
            run(config)

    def test_certify_lcp_needs_the_lcp_family(self):
        config = RunConfig(
            pipeline="certify-lcp", instance=InstanceSpec(family="exponential-star", n=3, p=2)
        )
        with pytest.raises(ConfigError):
            run(config)

    def test_certify_lcp_defaults_epsilon_by_size(self):
        config = RunConfig(
            pipeline="certify-lcp", instance=InstanceSpec(family="lcp-hypercube", p=2)
        )
        report, passed = run(config)
        assert passed
        assert report.config["epsilon"] == 0.125
        assert report.section("crossing")["all_present"] is True

    def test_needs_some_input(self):
        with pytest.raises(ConfigError):
            run(RunConfig(pipeline="dim"))


class TestMain:
    def test_gen_writes_a_graph_file(self, tmp_path, capsys):
        out = str(tmp_path / "star.graph")
        assert main(["gen", "--family", "exponential-star", "--n", "3", "--output", out]) == 0
        assert capsys.readouterr().out.strip() == out
        assert load_graph(out).edges == exponential_star(3).edges

    def test_gen_writes_a_metric_file(self, tmp_path):
        out = str(tmp_path / "prefix.metric")
        assert main(["gen", "--family", "lcp-hypercube", "--p", "2", "--output", out]) == 0
        assert load_metric(out).dist.tolist() == lcp_metric(2).dist.tolist()

    def test_gen_missing_parameter_is_a_usage_error(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["gen", "--family", "lcp-hypercube", "--output", out]) == 2

    def test_one_process_parses_command_after_command(self, tmp_path, capsys):
        """The parser is built once per process: a usage error or another
        command in between leaves the next parse as a first one would be."""
        src = str(tmp_path / "tree.graph")
        assert main(["gen", "--family", "random-tree", "--n", "5", "--seed", "3", "--output", src]) == 0
        assert main(["dim", "--input", src]) == 0
        first = capsys.readouterr().out.split("[timings]")[0]
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--input", src, "--samples-per-edge", "many"])
        assert exc.value.code == 2
        assert main(["gen", "--family", "lcp-hypercube", "--output", src]) == 2
        assert main(["audit", "--input", str(tmp_path / "missing.graph")]) == 2
        capsys.readouterr()
        assert main(["gen", "--family", "random-tree", "--n", "5", "--seed", "3", "--output", src]) == 0
        assert main(["dim", "--input", src]) == 0
        assert capsys.readouterr().out.split("[timings]")[0] == first

    def test_spanner_command_writes_artifacts(self, tmp_path, capsys):
        src = str(tmp_path / "m.metric")
        main(["gen", "--family", "lcp-hypercube", "--p", "2", "--output", src])
        base = str(tmp_path / "runout")
        code = main(["spanner", "--input", src, "--epsilon", "0.25", "--output", base])
        assert code == 0
        text = capsys.readouterr().out
        assert "[stretch]" in text and "[timings]" in text
        assert (tmp_path / "runout.report").exists()
        assert (tmp_path / "runout.json").exists()
        assert (tmp_path / "runout.spanner").exists()
        saved = json.loads((tmp_path / "runout.json").read_text())
        assert saved["stretch"]["pass"] is True

    def test_audit_command_reports_the_star_count(self, tmp_path, capsys):
        src = str(tmp_path / "g.graph")
        main(["gen", "--family", "exponential-star", "--n", "5", "--output", src])
        assert main(["audit", "--input", src]) == 0
        assert "max = 5" in capsys.readouterr().out

    def test_out_of_range_epsilon_is_a_usage_error(self, tmp_path):
        src = str(tmp_path / "g.graph")
        main(["gen", "--family", "exponential-star", "--n", "3", "--output", src])
        assert main(["spanner", "--input", src, "--epsilon", "0.5"]) == 2

    def test_disconnected_input_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "g.graph"
        src.write_text("graph 3\ne 0 1 1.0\n", encoding="utf-8")
        assert main(["spanner", "--input", str(src), "--epsilon", "0.25"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unrecognized_header_is_a_usage_error(self, tmp_path):
        src = tmp_path / "g.points"
        src.write_text("points 3\n0 0\n1 0\n2 0\n", encoding="utf-8")
        assert main(["dim", "--input", str(src)]) == 2

    @pytest.mark.parametrize(
        "name,text,reason,line",
        [
            ("bad.metric", "metric 2\nd 0 1 abc\n", "could not convert", 2),
            ("loop.graph", "graph 2\ne 0 1 1.0\ne 0 0 1.0\n", "self-loop", 3),
            ("gap.metric", "metric 3\nd 0 1 1.0\nd 1 2 1.0\n", "missing distance", 3),
            (
                "bent.metric",
                "metric 3\nd 0 1 1.0\nd 0 2 5.0\nd 1 2 1.0\n",
                "triangle inequality fails: d(0,2)=5.0 > d(0,1)+d(1,2)=2.0\n",
                3,
            ),
            ("dup.metric", "metric 2\nd 0 1 1.0\nd 0 1 2.0\n", "a second distance for pair (0,1)\n", 3),
            ("neg.metric", "# two points\nmetric 2\n\nd 0 1 -1.0\n", "positive finite", 4),
            ("head.graph", "\ngraph two\ne 0 1 1.0\n", "header", 2),
            ("twice.graph", "graph 3\ne 0 1 1.0 # first\ne 1 2 1.0\ne 1 0 2.0\n", "duplicate", 4),
            ("late.graph", "graph 3\ne 0 1 1.0\ne 2 2 1.0\ne 1 2 x\nbogus\n", "self-loop", 3),
            ("huge.graph", "graph 2\ne 1 1" + "0" * 400 + " 1.0\n", "too large", 2),
        ],
    )
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, name, text, reason, line):
        src = tmp_path / name
        src.write_text(text, encoding="utf-8")
        assert main(["dim", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:{line}: ") and reason in err
        assert "Traceback" not in err and err.count(str(src)) == 1

    @pytest.mark.parametrize(
        "command,name,text,fault",
        [
            ("complete-tree", "tiny.graph", "graph 2\ne 0 1 5e-324\n", "smallest distance 5e-324"),
            ("spanner", "tiny.metric", "metric 2\nd 0 1 5e-324\n", "smallest distance 5e-324"),
            ("complete-tree", "wide.graph", "graph 3\ne 0 1 1e-300\ne 1 2 1e300\n", "largest distance 1e+300"),
            ("dim", "long.graph", "graph 2\ne 0 1 1e308\n", "edge of length 1e+308"),
            *(
                (command, "overflow.graph", OVERFLOW_GRAPH, "shortest-path distance (0,2) overflows float64")
                for command in ("dim", "spanner", "complete-tree")
            ),
        ],
    )
    def test_distances_beyond_float_range_are_a_usage_error(
        self, tmp_path, capsys, command, name, text, fault
    ):
        """A net-tree rescale, closure sample offset or shortest-path sum
        that overflows float64 is refused with exit 2, not a traceback or an
        invalid point."""
        src = tmp_path / name
        src.write_text(text, encoding="utf-8")
        eps = [] if command == "dim" else ["--epsilon", "0.25"]
        assert main([command, "--input", str(src), *eps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fault in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["dim"], ["audit"], ["spanner", "--epsilon", "0.25"]]
    )
    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys, command):
        path = str(tmp_path / "nope.metric")
        assert main(command + ["--input", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text", [None, "{bad", "[1]", '{"stretch": 5}', '{"config": [1, 2]}']
    )
    def test_report_on_a_missing_or_malformed_file_is_a_usage_error(self, tmp_path, capsys, text):
        path = str(tmp_path / "run.json")
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        assert main(["report", "--inputs", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err

    def test_certify_lcp_refuses_a_matrix_beyond_memory(self, monkeypatch, capsys):
        """p = 40 asks for 8 * 4**40 bytes; the guard refuses before any
        distance is written."""
        monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
        assert main(["certify-lcp", "--p", "40"]) == 2
        assert "memory" in capsys.readouterr().err

    def test_dim_refuses_a_metric_header_beyond_memory(self, tmp_path, monkeypatch, capsys):
        """A ``metric 1000000`` header asks for 8 * 10**12 bytes; the loader
        refuses at the header, before the matrix is allocated."""
        src = tmp_path / "big.metric"
        src.write_text("metric 1000000\nd 0 1 1.0\n")
        monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
        assert main(["dim", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:1: ") and "memory" in err

    def test_complete_tree_refuses_an_all_pairs_matrix_beyond_memory(
        self, tmp_path, monkeypatch, capsys
    ):
        """A 200,000-vertex path asks for a 3.2 * 10**11-byte all-pairs
        matrix; it is refused before Dijkstra and the connectivity check."""
        n = 200_000
        src = tmp_path / "path.graph"
        src.write_text(f"graph {n}\n" + "".join(f"e {i} {i + 1} 1.0\n" for i in range(n - 1)))
        monkeypatch.setattr(metric, "_dijkstra", lambda *a, **k: pytest.fail("searched"))
        monkeypatch.setattr(metric, "_require_connected", lambda *a: pytest.fail("checked"))
        assert main(["complete-tree", "--input", str(src), "--epsilon", "0.25"]) == 2
        assert "memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spanner", "certify-lcp"])
    def test_spanner_build_beyond_memory_is_refused(self, tmp_path, monkeypatch, capsys, command):
        """With room for eight 8 x 8 matrices the metric loads (it counts
        four) but the build, which counts fifteen, is refused before its
        net-tree."""
        src = str(tmp_path / "lcp3.metric")
        main(["gen", "--family", "lcp-hypercube", "--p", "3", "--output", src])
        monkeypatch.setattr(metric, "_physical_memory", lambda: 8 * 8 * 8 * 8)
        monkeypatch.setattr(spanner, "build_net_tree", lambda *a: pytest.fail("built a net-tree"))
        argv = {
            "spanner": ["spanner", "--input", src, "--epsilon", "0.25"],
            "certify-lcp": ["certify-lcp", "--p", "3"],
        }
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a spanner on 8 points peaks near 15 float64 arrays of 8 x 8 ")
        assert "Traceback" not in err

    def test_gen_euclidean_refuses_a_matrix_beyond_memory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("allocated"))
        argv = ["gen", "--family", "euclidean-random", "--n", "1000000"]
        assert main(argv + ["--output", str(tmp_path / "pts.metric")]) == 2
        assert "memory" in capsys.readouterr().err

    def test_gen_euclidean_refuses_points_beyond_memory(self, tmp_path, monkeypatch, capsys):
        """10 points in 10**9 dimensions ask for 8 * 10**10 bytes of
        coordinates; the guard refuses before the points are drawn."""
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("drew points"))
        out = tmp_path / "pts.metric"
        argv = ["gen", "--family", "euclidean-random", "--n", "10", "--ambient-dim", "1000000000"]
        assert main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "10 x 1000000000" in err
        assert "memory" in err and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "exponential-star", "--n", "1100", "--output"],
            ["certify-star", "--n", "1100", "--epsilon", "0.25", "--output"],
        ],
    )
    def test_a_star_beyond_float_range_is_refused(self, tmp_path, capsys, argv):
        """The edge to leaf 1100 would be 2**1100: the generator refuses it
        before any edge is built, and nothing is written."""
        out = tmp_path / "star"
        assert main(argv + [str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exponential-star n = 1100: ") and err.count("\n") == 1
        assert "float range" in err and not os.listdir(tmp_path)

    @pytest.mark.parametrize("length", ["5e-324", "1e-323"])
    def test_dim_on_a_subnormal_edge(self, tmp_path, capsys, length):
        """Sample offsets that round onto an endpoint or onto each other are
        dropped, and halved radii that round are stepped the safe way, so
        every upper bound stays above its lower bound."""
        src = tmp_path / "tiny.graph"
        src.write_text(f"graph 2\ne 0 1 {length}\n")
        assert main(["dim", "--input", str(src)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        dims = dict(line.split(" = ") for line in out.split("[dim]\n")[1].split("[")[0].splitlines())
        assert float(dims["input_upper"]) >= float(dims["input_lower"]) > 0.0
        assert float(dims["conv_sampled_upper"]) >= float(dims["conv_sampled_lower"]) > 0.0

    def test_dim_refuses_a_closure_sample_beyond_memory(self, tmp_path, monkeypatch, capsys):
        """10^8 samples on one edge ask for a (10^8 + 2)-point sample; the
        guard refuses before any sample point is built."""
        src = tmp_path / "two.graph"
        src.write_text("graph 2\ne 0 1 1.0\n")
        monkeypatch.setattr(closure, "_sample_offsets", lambda *a: pytest.fail("built points"))
        argv = ["dim", "--input", str(src), "--samples-per-edge", "100000000"]
        assert main(argv) == 2
        assert "memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spanner", "complete-tree"])
    def test_closure_sample_beyond_memory_is_refused_before_the_input_sweep(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """Every pipeline that measures a closure runs the sample's preflight
        before the input metric's dimension sweep, the audit and the verifier."""
        src = tmp_path / "two.graph"
        src.write_text("graph 2\ne 0 1 1.0\n")
        monkeypatch.setattr(metric, "doubling_estimate", lambda *a, **k: pytest.fail("swept"))
        monkeypatch.setattr(closure, "long_edge_audit", lambda *a: pytest.fail("audited"))
        monkeypatch.setattr(completion, "verify_completion", lambda *a: pytest.fail("verified"))
        argv = [command, "--input", str(src), "--epsilon", "0.25", "--samples-per-edge", "100000000"]
        assert main(argv) == 2
        assert "memory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["certify-star", "--n", "0", "--epsilon", "0.25"], "need at least one leaf"),
            (["certify-lcp", "--p", "0"], "need strings of positive length"),
            (["certify-lcp", "--p", "-3"], "need strings of positive length"),
            (
                ["certify-star", "--n", "3", "--epsilon", "0.0009765625"],
                "certificate needs 9 leaves, the star has 3",
            ),
        ],
    )
    def test_certify_size_the_generator_refuses_is_a_usage_error(self, capsys, argv, reason):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_certificate_commands(self, capsys):
        assert main(["certify-star", "--n", "4", "--epsilon", "0.25"]) == 0
        assert main(["certify-lcp", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "[certificate]" in out and "[midpoint_packing]" in out

    def test_report_merges_json_runs(self, tmp_path, capsys):
        src = str(tmp_path / "m.metric")
        main(["gen", "--family", "lcp-hypercube", "--p", "2", "--output", src])
        base = str(tmp_path / "r1")
        main(["spanner", "--input", src, "--epsilon", "0.25", "--output", base])
        capsys.readouterr()

        table_a = str(tmp_path / "a.tsv")
        table_b = str(tmp_path / "b.tsv")
        assert main(["report", "--inputs", base + ".json", "--output", table_a]) == 0
        assert main(["report", "--inputs", base + ".json", "--output", table_b]) == 0
        text = (tmp_path / "a.tsv").read_text()
        assert text.startswith("family\tn\tepsilon\tmetric\tvalue\n")
        assert "degree.max_degree" in text
        assert text == (tmp_path / "b.tsv").read_text()

    def test_report_to_stdout(self, tmp_path, capsys):
        src = str(tmp_path / "m.metric")
        main(["gen", "--family", "lcp-hypercube", "--p", "2", "--output", src])
        base = str(tmp_path / "r1")
        main(["spanner", "--input", src, "--epsilon", "0.25", "--output", base])
        capsys.readouterr()
        assert main(["report", "--inputs", base + ".json"]) == 0
        assert "stretch.max" in capsys.readouterr().out


def saved_text(save, obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved")
        save(obj, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


@functools.cache
def saved_files() -> dict[str, str]:
    return {
        "star.graph": saved_text(save_graph, exponential_star(4)),
        "tree.graph": saved_text(save_graph, random_tree(6, 1)),
        "prefix.metric": saved_text(save_metric, lcp_metric(2)),
        "points.metric": saved_text(save_metric, random_euclidean(4, 2, 1)),
    }


LETTERS = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


@st.composite
def mutated_files(draw):
    """(name, text): a saved file with one line changed so that it is
    malformed: a field replaced by letters, a field dropped or added, a
    non-positive length, an endpoint out of range or equal to the other;
    for graphs a repeated edge line, for metrics a deleted line or a pair
    out of order."""
    name = draw(st.sampled_from(sorted(saved_files())))
    lines = saved_files()[name].splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split()
    kinds = ["letters", "drop", "extra"]
    if k > 0:
        kinds += ["length", "range", "loop"]
        kinds += ["repeat"] if name.endswith(".graph") else ["delete", "swap"]
    kind = draw(st.sampled_from(kinds))
    if kind == "letters":
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(LETTERS.filter(lambda token: token != fields[i]))
    elif kind == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "extra":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["1", "x", "1.0"])))
    elif kind == "length":
        fields[3] = draw(st.sampled_from(["0", "0.0", "-0.0", "-1.5", "-" + fields[3]]))
    elif kind == "range":
        n = int(lines[0].split()[1])
        fields[draw(st.sampled_from([1, 2]))] = str(n + draw(st.integers(0, 10**30)))
    elif kind == "loop":
        fields[2] = fields[1]
    elif kind == "swap":
        fields[1], fields[2] = fields[2], fields[1]
    lines[k] = " ".join(fields)
    if kind == "repeat":
        lines.insert(k, lines[k])
    elif kind == "delete":
        del lines[k]
    return name, "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(case=mutated_files())
def test_a_malformed_saved_file_is_a_usage_error(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["dim", "--input", path])
    assert code == 2, text
    assert err.getvalue().startswith(f"error: {path}:") and "Traceback" not in err.getvalue()


def fresh_python(cwd, *args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports ``doubling``
    from this checkout; fails on a nonzero exit."""
    src = os.path.dirname(os.path.dirname(metric.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )


# Runs each argv list through ``main`` and prints the exit codes, then the
# scipy modules loaded by the end.
MAIN_THEN_LIST_SCIPY = """
import contextlib, io, json, sys
from doubling.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestColdStart:
    def test_commands_without_a_graph_search_load_no_scipy(self, tmp_path):
        commands = [
            ["gen", "--family", "euclidean-random", "--n", "30", "--seed", "1", "--output", "pts.metric"],
            ["gen", "--family", "lcp-hypercube", "--p", "2", "--output", "prefix.metric"],
            ["gen", "--family", "exponential-star", "--n", "16", "--output", "star.graph"],
            ["gen", "--family", "random-tree", "--n", "30", "--seed", "1", "--output", "tree.graph"],
            ["dim", "--input", "pts.metric", "--output", "run"],
            ["report", "--inputs", "run.json", "--output", "table.tsv"],
            ["--help"],
            ["dim"],  # no --input: argparse's usage error
            ["dim", "--input", "missing.metric"],
        ]
        proc = fresh_python(tmp_path, "-c", MAIN_THEN_LIST_SCIPY, json.dumps(commands))
        codes, loaded = json.loads(proc.stdout)
        assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2]
        assert loaded == []
        assert (tmp_path / "table.tsv").exists()

    def test_dim_on_a_graph_in_a_fresh_process_matches_in_process(self, tmp_path):
        """The first search imports scipy inside ``dim``; the report it
        prints is the in-process one outside its timings."""
        graph = str(tmp_path / "tree.graph")
        save_graph(random_tree(100, 1), graph)
        fresh = fresh_python(tmp_path, "-m", "doubling.cli", "dim", "--input", graph)
        report, passed = run(RunConfig(pipeline="dim", input_path=graph))
        assert passed
        assert fresh.stdout.split("[timings]\n")[0] == report.hashable_text()


class TestReportRendering:
    def test_section_lookup(self):
        rep = RunReport(config={})
        rep.add("alpha", {"x": 1})
        assert rep.section("alpha") == {"x": 1}
        with pytest.raises(KeyError):
            rep.section("beta")

    def test_hashable_text_excludes_timings(self):
        rep = RunReport(config={"pipeline": "dim"})
        rep.add("dim", {"input_upper": 2.0})
        rep.timings["total_s"] = 1.23
        text = rep.hashable_text()
        assert "total_s" not in text
        assert "[dim]" in text and "input_upper = 2.0" in text

    def test_plot_rows_keep_numbers_only(self):
        rep = RunReport(config={"family": "demo", "n": 3, "epsilon": 0.25})
        rep.add("s", {"a": 1, "flag": True, "name": "x", "b": 2.5})
        table = emit_plot_data([rep])
        lines = table.strip().split("\n")
        assert lines[0] == "family\tn\tepsilon\tmetric\tvalue"
        assert lines[1:] == ["demo\t3\t0.25\ts.a\t1", "demo\t3\t0.25\ts.b\t2.5"]
