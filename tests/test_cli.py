"""CLI contract: output formats, exit codes, determinism, manifest sidecar."""

import contextlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lucewalks.arrangements
import lucewalks.cli
from lucewalks import RngStream
from lucewalks.cli import (build_parser, main, read_csv_text, read_json_text,
                           read_jsonl_text)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    """Invoke main() in-process from a scratch directory."""
    monkeypatch.chdir(tmp_path)

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestPmf:
    def test_spec_example(self, run):
        code, out, _ = run("pmf", "--weights", "[1,2,3]", "--sigma", "3,2,1")
        assert code == 0
        doc = read_json_text(out)
        assert doc["pmf"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert doc["pmf"] == float(f"{1.0 / 3.0:.9g}")

    def test_csv(self, run):
        code, out, _ = run("pmf", "--weights", "[1,2,3]", "--sigma", "3,2,1",
                           "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 1
        assert float(rows[0]["pmf"]) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_bracketed_sigma(self, run):
        code, out, _ = run("pmf", "--weights", "[1,2,3]", "--sigma", "[3,2,1]")
        assert code == 0

    def test_overflowing_total_exit_3(self, run):
        # the total 2e308 is inf, which printed a pmf of 0.0 where the truth is 0.5
        code, out, err = run("pmf", "--weights", "[1e308,1e308]", "--sigma", "1,2")
        assert code == 3
        assert out == ""
        assert "finite total" in err


class TestSample:
    def test_zero_samples_empty(self, run):
        code, out, _ = run("sample", "--weights", "[1,1]", "--n-samples", "0")
        assert code == 0
        assert out == ""

    def test_rows_are_permutations(self, run):
        code, out, _ = run("sample", "--weights", "[1,2,3]", "--n-samples", "5",
                           "--seed", "7", "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 5
        for row in rows:
            drawn = sorted(int(row[f"p{j}"]) for j in (1, 2, 3))
            assert drawn == [1, 2, 3]

    def test_method_exponential(self, run):
        code, out, _ = run("sample", "--weights", "[1,2]", "--n-samples", "3",
                           "--seed", "1", "--method", "exponential")
        assert code == 0
        doc = read_json_text(out)
        assert doc["method"] == "exponential"
        assert len(doc["samples"]) == 3
        for row in doc["samples"]:
            assert sorted(row) == [1, 2]

    def test_determinism(self, run):
        a = run("sample", "--weights", "[1,2,3,4]", "--n-samples", "50", "--seed", "99")
        b = run("sample", "--weights", "[1,2,3,4]", "--n-samples", "50", "--seed", "99")
        assert a == b
        c = run("sample", "--weights", "[1,2,3,4]", "--n-samples", "50", "--seed", "98")
        assert c[1] != a[1]


class TestTopk:
    def test_report_fields(self, run):
        code, out, _ = run("topk", "--weights", "[1,1,1,1]", "--normalize",
                           "--k", "2")
        assert code == 0
        doc = read_json_text(out)
        assert doc["tv_exact"] == pytest.approx(0.25, abs=1e-9)
        assert set(doc) >= {"k", "d_inf_exact", "d_inf_bound", "tv_exact", "lambda"}

    def test_heavy_weight_exit_3(self, run):
        code, _, err = run("topk", "--weights", "[0.6,0.2,0.2]", "--k", "2")
        assert code == 3
        assert "1/2" in err or "weight" in err

    def test_csv_row(self, run):
        code, out, _ = run("topk", "--weights", "[1,1,1,1]", "--normalize",
                           "--k", "2", "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 1
        assert float(rows[0]["tv_exact"]) == pytest.approx(0.25, abs=1e-9)


class TestBottomTable:
    def test_table_values_csv(self, run):
        code, out, _ = run("bottom-table", "--family", "linear", "--max-label", "10",
                           "--tol", "1e-6", "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert [int(r["label"]) for r in rows] == list(range(1, 11))
        expected = [0.516094, 0.213212, 0.107310, 0.0597505, 0.0354888,
                    0.0220716, 0.0142167, 0.00941619, 0.00638121, 0.00440862]
        for row, want in zip(rows, expected):
            assert abs(float(row["probability"]) - want) <= 1e-5

    def test_unreachable_tol_exit_2(self, run):
        code, _, err = run("bottom-table", "--family", "linear", "--max-label", "1",
                           "--tol", "1e-30")
        assert code == 2

    def test_defective_family_noted(self, run):
        code, out, err = run("bottom-table", "--family", "log-loglog",
                             "--max-label", "2", "--tol", "1e-4")
        assert code == 0
        assert "defective" in err.lower()

    def test_unknown_family_exit(self, run):
        code, _, err = run("bottom-table", "--family", "cubic", "--max-label", "3")
        assert code in (1, 3)

    def test_beta_flag_is_usage_error(self, run, tmp_path):
        # bottom-card values are scale-free, so --beta could change no row
        code, out, _ = run("bottom-table", "--family", "log", "--max-label", "1",
                           "--beta", "2")
        assert code == 1 and out == ""
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 1


class TestConvergeTest:
    @pytest.mark.parametrize(
        "family,converges,x0",
        [
            ("linear", True, 0.0),
            ("constant", False, None),
            ("log", True, 1.0),
            ("log-loglog", False, 1.0),
        ],
    )
    def test_families(self, run, family, converges, x0):
        code, out, _ = run("converge-test", "--family", family)
        assert code == 0
        doc = read_json_text(out)
        assert doc["converges"] is converges
        if x0 is None:
            assert doc["x0"] == "inf"
        else:
            assert float(doc["x0"]) == pytest.approx(x0, abs=1e-9)

    def test_log_beta(self, run):
        code, out, _ = run("converge-test", "--family", "log", "--beta", "4")
        doc = read_json_text(out)
        assert float(doc["x0"]) == pytest.approx(0.25)

    def test_log_beta2_output(self, run):
        code, out, _ = run("converge-test", "--family", "log", "--beta", "2")
        assert code == 0
        assert out == ('{"x0": 0.5, "f_at_x0": "infinite", "converges": true, '
                       '"method": "analytic", "caveat": null}\n')

    @pytest.mark.parametrize("family,beta", [("log-loglog", "-3"), ("linear", "5")])
    def test_beta_other_family_exit_3(self, run, tmp_path, family, beta):
        # only the log family has a scale; elsewhere --beta would be ignored
        code, out, err = run("converge-test", "--family", family, "--beta", beta)
        assert code == 3 and out == ""
        assert "--beta applies to --family log only" in err
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 3

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_exit_3(self, run, beta):
        code, out, err = run("converge-test", "--family", "log", "--beta", beta)
        assert code == 3
        assert out == ""
        assert "beta must be positive and finite" in err


class TestArrangement:
    def test_sim_stream_parses(self, run):
        code, out, _ = run("arrangement", "sim", "--model", "tsetlin",
                           "--weights", "[0.5,0.3,0.2]", "--steps", "5", "--seed", "3")
        assert code == 0
        lines = read_jsonl_text(out)
        assert len(lines) == 6  # includes step 0
        assert lines[0]["step"] == 0
        for doc in lines:
            assert sorted(doc["chamber"]) == [1, 2, 3]

    def test_sim_boolean_start(self, run):
        code, out, _ = run("arrangement", "sim", "--model", "ehrenfest", "--dim", "3",
                           "--steps", "4", "--start", "+-+", "--seed", "5")
        assert code == 0
        lines = read_jsonl_text(out)
        assert lines[0]["chamber"] == "+-+"
        assert all(set(doc["chamber"]) <= {"+", "-"} for doc in lines)

    @pytest.mark.parametrize(
        "model_args,start",
        [(("--model", "tsetlin", "--weights", "[0.5,0.3,0.2]"), "1,2,3"),
         (("--model", "ehrenfest", "--dim", "3", "--start", "+-+"), "+-+")],
    )
    def test_sim_csv(self, run, model_args, start):
        args = ("arrangement", "sim", *model_args, "--steps", "5", "--seed", "3")
        code, out, _ = run(*args, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "step,chamber"
        rows = read_csv_text(out)
        assert [r["step"] for r in rows] == [str(t) for t in range(6)]
        assert rows[0]["chamber"] == start
        # the same walk as the default JSON lines
        _, json_out, _ = run(*args)
        for row, doc in zip(rows, read_jsonl_text(json_out)):
            chamber = doc["chamber"]
            want = chamber if isinstance(chamber, str) else ",".join(map(str, chamber))
            assert row["chamber"] == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sim_memory_flat_in_steps(self, monkeypatch, tmp_path, fmt):
        # rows are printed as the walk makes them, so ten times the steps adds no memory
        monkeypatch.chdir(tmp_path)

        def peak(steps):
            argv = ["arrangement", "sim", "--model", "ehrenfest", "--dim", "3",
                    "--steps", str(steps), "--seed", "1", "--format", fmt]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1)  # first-use allocations
        small = peak(1000)
        assert peak(10000) < small + (1 << 19)  # a walk kept in a list grows 1-2.5 MiB more

    def test_stationary_tsetlin_csv(self, run):
        code, out, _ = run("arrangement", "stationary", "--model", "tsetlin",
                           "--weights", "[0.5,0.3333333333333333,0.16666666666666666]",
                           "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 6
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-6)
        lookup = {r["chamber"]: float(r["probability"]) for r in rows}
        assert lookup["1,2,3"] == pytest.approx(0.5 * (1 / 3) / 0.5, abs=1e-6)

    def test_stationary_coloring_graph_file(self, run, tmp_path):
        graph = tmp_path / "path4.txt"
        graph.write_text("# path on four vertices\n1 2\n2 3\n3 4\n")
        code, out, _ = run("arrangement", "stationary", "--model", "coloring",
                           "--graph", str(graph))
        assert code == 0
        doc = read_json_text(out)
        lookup = {row["chamber"]: row["probability"] for row in doc["stationary"]}
        assert lookup["++++"] == pytest.approx(lookup["----"], abs=1e-9)
        assert lookup["+-+-"] == 0.0

    def test_stationary_manifest_residual(self, run, tmp_path):
        code, _, _ = run("arrangement", "stationary", "--model", "riffle", "--dim", "4",
                         "--tol", "1e-11")
        assert code == 0
        tolerances = json.loads((tmp_path / "run_manifest.json").read_text())["tolerances"]
        assert tolerances["tol"] == 1e-11
        assert 0.0 <= tolerances["residual"] <= 1e-11

    def test_sample_bd(self, run):
        code, out, _ = run("arrangement", "sample-bd", "--model", "ehrenfest",
                           "--dim", "2", "--samples", "4", "--seed", "11",
                           "--format", "csv")
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 4

    @pytest.mark.parametrize("action", [("sim", "--steps", "1"), ("stationary",),
                                        ("sample-bd", "--samples", "1")],
                             ids=["sim", "stationary", "sample-bd"])
    def test_unnormalized_tsetlin_names_normalize(self, run, action):
        code, out, err = run("arrangement", action[0], "--model", "tsetlin",
                             "--weights", "[1,2,3]", *action[1:], "--seed", "1")
        assert code == 3 and out == ""
        assert "--normalize" in err.splitlines()[-1]
        assert run("arrangement", action[0], "--model", "tsetlin", "--weights", "[1,2,3]",
                   "--normalize", *action[1:], "--seed", "1")[0] == 0

    def test_sample_bd_determinism(self, run):
        args = ("arrangement", "sample-bd", "--model", "tsetlin",
                "--weights", "[0.5,0.3,0.2]", "--samples", "20", "--seed", "13")
        assert run(*args) == run(*args)

    def test_kind_flag_is_usage_error(self, run, tmp_path):
        # the model fixes the arrangement kind, so there is no --kind to pass
        code, out, _ = run("arrangement", "sim", "--kind", "braid",
                           "--model", "tsetlin", "--weights", "[0.5,0.5]",
                           "--steps", "1")
        assert code == 1 and out == ""
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 1

    def test_bad_graph_exit_3(self, run, tmp_path):
        graph = tmp_path / "bad.txt"
        graph.write_text("1 1\n")
        code, _, err = run("arrangement", "stationary", "--model", "coloring",
                           "--graph", str(graph))
        assert code == 3

    def _assert_precondition_exit(self, run, tmp_path, graph):
        code, out, err = run("arrangement", "stationary", "--model", "coloring",
                             "--graph", graph)
        assert (code, out) == (3, "")
        assert "precondition error: graph file" in err
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["traceback"] is None

    def test_graph_non_integer_token_exit_3(self, run, tmp_path):
        graph = tmp_path / "letters.txt"
        graph.write_text("1 2\na b\n")
        self._assert_precondition_exit(run, tmp_path, str(graph))

    def test_graph_directory_exit_3(self, run, tmp_path):
        self._assert_precondition_exit(run, tmp_path, str(tmp_path))


class TestWeightSpecs:
    def test_object_with_weights(self, run):
        code, out, _ = run("pmf", "--weights", '{"weights":[1,2,3]}',
                           "--sigma", "3,2,1")
        assert code == 0
        assert read_json_text(out)["pmf"] == pytest.approx(1 / 3, abs=1e-9)

    def test_object_family_sukhatme(self, run):
        code, out, _ = run("pmf", "--weights",
                           '{"family":"sukhatme","n":3,"orientation":"ascending"}',
                           "--sigma", "3,2,1")
        assert code == 0
        assert read_json_text(out)["pmf"] == pytest.approx(1 / 3, abs=1e-9)

    def test_family_name_with_n(self, run):
        code, out, _ = run("pmf", "--weights", "uniform", "--n", "3",
                           "--sigma", "1,2,3")
        assert code == 0
        assert read_json_text(out)["pmf"] == pytest.approx(1 / 6, abs=1e-9)

    def test_family_zipf(self, run):
        code, out, _ = run("pmf", "--weights", "zipf", "--n", "2", "--zipf-s", "1",
                           "--sigma", "1,2")
        assert code == 0
        assert read_json_text(out)["pmf"] == pytest.approx(2 / 3, abs=1e-9)

    def test_weights_file(self, run, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text("[1, 2, 3]")
        code, out, _ = run("pmf", "--weights", str(wfile), "--sigma", "3,2,1")
        assert code == 0
        assert read_json_text(out)["pmf"] == pytest.approx(1 / 3, abs=1e-9)

    def test_missing_file_named_in_error(self, run):
        code, _, err = run("pmf", "--weights", "/no/such/file.json", "--sigma", "1")
        assert code == 3
        assert "weight spec" in err

    def test_family_needs_n(self, run):
        code, _, err = run("pmf", "--weights", "uniform", "--sigma", "1,2")
        assert code == 3
        assert "--n" in err

    def test_zipf_exponent_zero(self, run):
        # s = 0 is the uniform law, whichever way the spec is written
        for spec in (("zipf", "--n", "2", "--zipf-s", "0"), ('{"family":"zipf","n":2,"s":0}',)):
            code, out, _ = run("pmf", "--weights", *spec, "--sigma", "1,2")
            assert code == 0
            assert read_json_text(out)["pmf"] == 0.5

    @pytest.mark.parametrize("argv", [
        ("pmf", "--weights", "uniform", "--n", "0", "--sigma", "1"),
        ("sample", "--weights", "uniform", "--n", "-2", "--n-samples", "4"),
        ("pmf", "--weights", '{"family":"uniform","n":0}', "--sigma", "1"),
        ("pmf", "--weights", '{"family":"zipf","n":-1}', "--sigma", "1"),
    ])
    def test_family_size_below_one_exit_3(self, run, tmp_path, argv):
        code, _, err = run(*argv)
        assert code == 3
        assert "n >= 1" in err
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["error"] == "PreconditionError" and doc["traceback"] is None

    def test_bad_entries_exit_3_inline_and_file(self, run, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text('["a"]')
        for spec in ('["a"]', str(wfile), str(tmp_path)):
            code, _, err = run("pmf", "--weights", spec, "--sigma", "1")
            assert code == 3
            assert "weight spec" in err

    def test_files_closed(self, run, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1 2 3\n")
        graph = tmp_path / "path3.txt"
        graph.write_text("1 2\n2 3\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run("pmf", "--weights", str(wfile), "--sigma", "3,2,1")[0] == 0
            assert run("arrangement", "stationary", "--model", "coloring",
                       "--graph", str(graph))[0] == 0
        assert [str(w.message) for w in caught] == []


class TestInputChecks:
    @pytest.mark.parametrize("argv, flag", [
        (("sample", "--weights", "[1,2]", "--n-samples", "-1"), "--n-samples"),
        (("bottom-table", "--family", "linear", "--max-label", "0"), "--max-label"),
        (("bottom-table", "--family", "linear", "--max-label", "1", "--tol", "nan"), "tol"),
        (("bottom-table", "--family", "linear", "--max-label", "1", "--tol", "0"), "tol"),
        (("bottom-table", "--family", "linear", "--max-label", "1", "--tol", "-1"), "tol"),
        (("arrangement", "stationary", "--model", "ehrenfest", "--dim", "2", "--tol", "nan"), "tol"),
        (("arrangement", "stationary", "--model", "ehrenfest", "--dim", "2", "--tol", "0"), "tol"),
        (("arrangement", "stationary", "--model", "ehrenfest", "--dim", "2", "--tol", "-1"), "tol"),
        (("arrangement", "stationary", "--model", "riffle"), "--dim"),
        (("arrangement", "stationary", "--model", "ehrenfest"), "--dim"),
        (("arrangement", "stationary", "--model", "coloring"), "--graph"),
        (("arrangement", "sim", "--model", "ehrenfest", "--dim", "2", "--steps", "-1"), "--steps"),
        (("arrangement", "sample-bd", "--model", "ehrenfest", "--dim", "2", "--samples", "-1"),
         "--samples"),
    ], ids=["n_samples", "max_label", "table_tol_nan", "table_tol_zero", "table_tol_negative",
            "stationary_tol_nan", "stationary_tol_zero", "stationary_tol_negative",
            "riffle_no_dim", "ehrenfest_no_dim", "coloring_no_graph", "steps", "samples"])
    def test_exit_3_with_manifest(self, run, tmp_path, argv, flag):
        code, out, err = run(*argv, "--seed", "1")
        assert code == 3
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("precondition error: ") and flag in last
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["error"] == "PreconditionError"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_stationary_bad_tol_builds_no_kernel(self, run, tmp_path, monkeypatch, tol):
        def refuse(table):
            raise AssertionError("transition_matrix called before the --tol check")

        monkeypatch.setattr(lucewalks.cli, "transition_matrix", refuse)
        code, out, _ = run("arrangement", "stationary", "--model", "riffle", "--dim", "8",
                           "--tol", tol, "--seed", "1")
        assert code == 3
        assert out == ""
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 3


class TestUnreadFlags:
    """A flag that the command or the model does not read is refused, not ignored."""

    @pytest.mark.parametrize("argv, flags", [
        (("arrangement", "sample-bd", "--model", "ehrenfest", "--dim", "3", "--weights", "[1,2]",
          "--samples", "4"), "--weights"),
        (("arrangement", "sample-bd", "--model", "tsetlin", "--weights", "[0.5,0.5]", "--dim", "7",
          "--samples", "4"), "--dim"),
        (("arrangement", "sample-bd", "--model", "riffle", "--dim", "3", "--graph", "nofile.txt",
          "--samples", "4"), "--graph"),
        (("arrangement", "stationary", "--model", "riffle", "--dim", "3", "--normalize"),
         "--normalize"),
        (("arrangement", "sim", "--model", "coloring", "--graph", "g.txt", "--n", "3",
          "--steps", "1"), "--n"),
        (("pmf", "--weights", '{"family":"zipf","n":2}', "--n", "5", "--zipf-s", "3",
          "--sigma", "1,2"), "--n, --zipf-s"),
        (("pmf", "--weights", "[1,2]", "--n", "2", "--sigma", "1,2"), "--n"),
        (("sample", "--weights", "uniform", "--n", "2", "--zipf-s", "3", "--n-samples", "2"),
         "--zipf-s"),
    ], ids=["ehrenfest_weights", "tsetlin_dim", "riffle_graph", "riffle_normalize",
            "coloring_n", "spec_n_zipf_s", "list_n", "uniform_zipf_s"])
    def test_exit_3_with_manifest(self, run, tmp_path, argv, flags):
        code, out, err = run(*argv, "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].endswith(f"does not read {flags}")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["error"] == "PreconditionError"

    def test_zipf_reads_its_exponent(self, run):
        code, out, _ = run("pmf", "--weights", "zipf", "--n", "2", "--zipf-s", "3",
                           "--sigma", "1,2")
        assert code == 0
        assert out == '{"pmf": 0.888888889}\n'


class TestIntegerLabels:
    @pytest.mark.parametrize("argv", [
        ("pmf", "--weights", "[1,2,3]", "--sigma", "[1.5,2,3]"),
        ("pmf", "--weights", "[1,2]", "--sigma", "[1e400,2]"),
        ("pmf", "--weights", "[1,2]", "--sigma", "[null,2]"),
        ("pmf", "--weights", "[1,2]", "--sigma", "[true,2]"),
        ("arrangement", "sim", "--model", "tsetlin", "--weights", "[0.5,0.5]", "--steps", "1",
         "--start", "[null,1]"),
        ("pmf", "--weights", '{"family":"uniform","n":1e400}', "--sigma", "1"),
        ("pmf", "--weights", '{"family":"sukhatme","n":2.5}', "--sigma", "1,2"),
    ], ids=["fraction", "inf", "null", "bool", "start_null", "spec_n_inf", "spec_n_fraction"])
    def test_exit_3_with_manifest(self, run, tmp_path, argv):
        code, out, err = run(*argv, "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].endswith("is not an integer")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["error"] == "PreconditionError" and doc["traceback"] is None

    def test_integral_float_label_accepted(self, run):
        assert run("pmf", "--weights", "[1,2,3]", "--sigma", "[3.0,2,1]")[1] == \
            run("pmf", "--weights", "[1,2,3]", "--sigma", "3,2,1")[1]


def test_weight_spec_prefix_once(run):
    code, _, err = run("pmf", "--weights", '{"size": 3}', "--sigma", "1")
    assert code == 3
    assert err.splitlines()[-1] == \
        "precondition error: weight spec: object needs 'weights' or 'family'"


class TestWorkCaps:
    """Inputs whose work would not fit the host are refused with exit 3, not run."""

    @pytest.mark.parametrize("argv", [
        ("pmf", "--weights", "uniform", "--n", "100000000000000", "--sigma", "1"),
        ("sample", "--weights", "zipf", "--n", "10000001", "--n-samples", "1"),
        ("topk", "--weights", '{"family":"sukhatme","n":10000001}', "--k", "2"),
        ("bottom-table", "--family", "linear", "--max-label", "100000"),
        ("bottom-table", "--family", "log", "--max-label", "1001"),
    ], ids=["pmf_n_1e14", "sample_n_over_cap", "topk_spec_n_over_cap", "max_label_1e5",
            "max_label_over_cap"])
    def test_exit_3_with_manifest(self, run, tmp_path, monkeypatch, argv):
        def refuse(*a, **k):
            raise AssertionError("work started before the cap was checked")

        monkeypatch.setattr(lucewalks.cli.np, "full", refuse)
        monkeypatch.setattr(lucewalks.cli, "limit_bottom_pmf", refuse)
        code, out, err = run(*argv, "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].startswith("precondition error: ")
        assert ("10000000" if argv[0] != "bottom-table" else "1000") in err
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["error"] == "PreconditionError"

    def test_caps_are_inclusive(self, run, monkeypatch):
        monkeypatch.setattr(lucewalks.cli, "_FAMILY_N_MAX", 3)
        monkeypatch.setattr(lucewalks.cli, "_MAX_LABEL_MAX", 2)
        assert run("pmf", "--weights", "uniform", "--n", "3", "--sigma", "1,2,3")[0] == 0
        assert run("pmf", "--weights", "uniform", "--n", "4", "--sigma", "1,2,3,4")[0] == 3
        code, out, _ = run("bottom-table", "--family", "linear", "--max-label", "2",
                           "--format", "csv")
        assert code == 0 and len(read_csv_text(out)) == 2
        assert run("bottom-table", "--family", "linear", "--max-label", "3")[0] == 3

    @pytest.mark.parametrize("model", [
        ("--model", "tsetlin", "--weights", "uniform", "--n", "1449", "--normalize"),
        ("--model", "ehrenfest", "--dim", "1025"),
        ("--model", "coloring", "--graph", "cycle1025.txt"),
    ], ids=["tsetlin_n_1449", "ehrenfest_d_1025", "coloring_cycle_1025"])
    def test_face_table_over_cap_exit_3(self, run, tmp_path, monkeypatch, model):
        # one past the cap: n * n, 2d * d and 2|E| * n each just over 2**21
        (tmp_path / "cycle1025.txt").write_text(
            "".join(f"{i} {i % 1025 + 1}\n" for i in range(1, 1026)))

        def refuse(*a, **k):
            raise AssertionError("faces listed before the cap was checked")

        monkeypatch.setattr(lucewalks.arrangements, "FaceWeightTable", refuse)
        code, out, err = run("arrangement", "sample-bd", *model, "--samples", "1",
                             "--seed", "1")
        assert code == 3 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("precondition error: ") and last.endswith("the cap of 2097152")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["error"] == "PreconditionError"

    def test_readme_states_caps(self):
        text = README.read_text()
        assert f"{lucewalks.cli._FAMILY_N_MAX:,}" in text
        assert f"between 1 and {lucewalks.cli._MAX_LABEL_MAX}" in text
        assert f"at most {lucewalks.arrangements.TABLE_ENTRIES_MAX:,}" in text


class TestOverflowWarnings:
    """Overflow to inf is part of the arithmetic on these paths, not a fault to report."""

    def test_tiny_weight_sample_exit_0(self, run, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("sample", "--weights", "[1e-320,1]", "--n-samples", "40",
                                 "--seed", "7")
        assert code == 0 and "Warning" not in err
        weights = np.array([1e-320, 1.0])
        with np.errstate(divide="ignore", over="ignore"):
            clocks = -np.log(RngStream(7).random((40, 2))) / weights  # the first is +inf
        want = np.argsort(clocks, axis=1, kind="stable") + 1
        assert read_json_text(out)["samples"] == want.tolist()
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 0

    def test_zipf_power_overflow_exit_3(self, run, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("pmf", "--weights", '{"family":"zipf","n":10,"s":1e308}',
                                 "--sigma", "1", "--seed", "7")
        assert code == 3 and out == "" and "Warning" not in err
        assert err.splitlines()[-1] == ("precondition error: weight spec: "
                                        "weights must be strictly positive")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3 and doc["error"] == "PreconditionError"


class TestPublicPaths:
    """CLI paths that no other test runs: braid --start forms and zero BD samples."""

    @pytest.mark.parametrize("argv, first_line", [
        (("sim", "--model", "tsetlin", "--weights", "[0.5,0.3,0.2]", "--steps", "2",
          "--start", "2,1,3"), '{"step": 0, "chamber": [2, 1, 3]}'),
        (("sim", "--model", "tsetlin", "--weights", "[0.5,0.3,0.2]", "--steps", "2",
          "--start", "[2,1,3]"), '{"step": 0, "chamber": [2, 1, 3]}'),
        (("sample-bd", "--model", "ehrenfest", "--dim", "3", "--samples", "0"), None),
    ], ids=["start_commas", "start_json", "bd_zero_samples"])
    def test_exit_0_with_manifest(self, run, tmp_path, argv, first_line):
        code, out, _ = run("arrangement", *argv, "--seed", "1")
        assert code == 0
        assert (out.splitlines()[0] if out else None) == first_line
        assert json.loads((tmp_path / "run_manifest.json").read_text())["exit_code"] == 0


def _readme_command_lines():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("lucewalks ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert lines, "README has no lucewalks lines under 'Command line'"
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_python_quick_start_runs():
    text = README.read_text()
    block = text.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["pi"].sum() == pytest.approx(1.0)


class TestUsageErrors:
    def test_unknown_subcommand(self, run):
        code, _, err = run("frobnicate")
        assert code == 1

    def test_missing_required_flag(self, run):
        code, _, err = run("pmf", "--weights", "[1,2]")
        assert code == 1

    def test_no_arguments(self, run):
        assert run()[0] == 1

    def test_version_exit_zero(self, run):
        code, out, _ = run("--version")
        assert code == 0


class TestManifestAndSeed:
    def test_manifest_written(self, run, tmp_path):
        run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--seed", "4")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["seed"] == 4
        assert doc["exit_code"] == 0
        assert doc["argv"][0] == "pmf"
        assert "version" in doc and "duration_s" in doc and "tolerances" in doc

    def test_no_threads_flag(self, run, tmp_path):
        run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--seed", "4")
        assert "threads" not in json.loads((tmp_path / "run_manifest.json").read_text())
        assert run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--threads", "2")[0] == 1

    def test_no_report_or_exact_flag(self, run):
        assert run("topk", "--weights", "[1,1,1,1]", "--normalize", "--k", "2",
                   "--report")[0] == 1
        assert run("arrangement", "stationary", "--model", "ehrenfest", "--dim", "2",
                   "--exact")[0] == 1

    def test_manifest_on_usage_error(self, run, tmp_path):
        code, out, _ = run("sample", "--weights", "[1,2,3]", "--seed", "5")
        assert code == 1
        assert out == ""
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 1
        assert doc["seed"] is None
        assert doc["tolerances"] == {}

    @pytest.mark.parametrize("seed, want", [("-5", 3), (str(2**64), 3), (str(2**64 - 1), 0)],
                             ids=["negative", "2_64", "2_64_minus_1"])
    def test_seed_range(self, run, tmp_path, seed, want):
        code, out, err = run("sample", "--weights", "[1,2]", "--n-samples", "2", "--seed", seed)
        assert code == want and "Traceback" not in err
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == want and doc["seed"] == int(seed)
        if want:
            assert out == "" and doc["traceback"] is None
            assert doc["error"] == "PreconditionError"
            assert err.splitlines()[-1] == ("precondition error: seed must be an integer "
                                            "in [0, 2**64)")
        else:
            assert doc["error"] is None and len(read_json_text(out)["samples"]) == 2

    def test_manifest_on_version_exit(self, run, tmp_path):
        assert run("--version")[0] == 0
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 0
        assert doc["seed"] is None

    def test_manifest_on_failure(self, run, tmp_path):
        code, _, _ = run("topk", "--weights", "[0.6,0.2,0.2]", "--k", "2")
        assert code == 3
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 3

    def test_manifest_records_error_class(self, run, tmp_path):
        assert run("topk", "--weights", "[0.6,0.2,0.2]", "--k", "2")[0] == 3
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["error"] == "PreconditionError" and doc["traceback"] is None
        assert run("pmf", "--weights", "[1,2]", "--sigma", "1,2")[0] == 0
        assert json.loads((tmp_path / "run_manifest.json").read_text())["error"] is None

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 12.1 GiB"),
                                     RuntimeError("two\nlines")])
    def test_unexpected_exception_exit_4(self, run, tmp_path, monkeypatch, exc):
        import lucewalks.cli

        def boom(args, rng):
            raise exc

        monkeypatch.setattr(lucewalks.cli, "_cmd_pmf", boom)
        code, out, err = run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--seed", "4")
        assert code == 4
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "seed: 4" and len(lines) == 2
        assert lines[1].startswith(f"internal error: {type(exc).__name__}: ")
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["exit_code"] == 4
        assert doc["error"] == type(exc).__name__
        assert "in boom" in doc["traceback"]
        assert doc["seed"] == 4

    def test_keyboard_interrupt_propagates(self, run, monkeypatch):
        import lucewalks.cli

        def interrupted(args, rng):
            raise KeyboardInterrupt

        monkeypatch.setattr(lucewalks.cli, "_cmd_pmf", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("pmf", "--weights", "[1,2]", "--sigma", "1,2")

    def test_output_dir_env(self, run, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        outdir.mkdir()
        monkeypatch.setenv("LUCEWALKS_OUTPUT_DIR", str(outdir))
        run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--seed", "4")
        assert (outdir / "run_manifest.json").exists()

    def test_seed_logged(self, run):
        _, _, err = run("pmf", "--weights", "[1,2]", "--sigma", "1,2", "--seed", "123")
        assert "seed: 123" in err

    def test_default_seed_logged(self, run):
        _, _, err = run("pmf", "--weights", "[1,2]", "--sigma", "1,2")
        assert "seed:" in err


class TestRoundTripReaders:
    def test_csv_reader(self):
        rows = read_csv_text("a,b\n1,2\n3,4\n")
        assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]

    def test_jsonl_reader(self):
        docs = read_jsonl_text('{"x": 1}\n{"x": 2}\n')
        assert [d["x"] for d in docs] == [1, 2]

    def test_every_form_round_trips(self, run):
        _, out, _ = run("converge-test", "--family", "linear", "--format", "csv")
        assert read_csv_text(out)[0]["converges"] == "true"
        _, out, _ = run("converge-test", "--family", "linear")
        assert read_json_text(out)["converges"] is True


class TestConsoleEntry:
    def test_module_execution(self, tmp_path, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "lucewalks", "pmf", "--weights", "[1,2,3]",
             "--sigma", "3,2,1"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pmf"] == pytest.approx(1 / 3, abs=1e-9)
        assert "seed:" in proc.stderr

    def test_console_script(self, tmp_path, child_env):
        import re
        import shutil
        from pathlib import Path

        import lucewalks

        # the [project.scripts] target runs whether or not the package is installed;
        # read with a regex, since tomllib is 3.11+ and the package supports 3.10
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        target = re.search(r'^lucewalks\s*=\s*"([^"]+)"\s*$', scripts, re.M).group(1)
        module, func = target.split(":")
        runs = [[sys.executable, "-c", f"import sys; from {module} import {func}; "
                                       f"sys.exit({func}())", "--version"]]
        exe = shutil.which("lucewalks")
        if exe is not None:
            runs.append([exe, "--version"])
        for argv in runs:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path,
                                  env=child_env)
            assert proc.returncode == 0
            assert proc.stdout.strip() == lucewalks.__version__
