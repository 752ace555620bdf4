import io
import json
import sys
import textwrap

import pytest

from sgchrom.cli import EXIT_INCONCLUSIVE, EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main
from sgchrom.catalog import build
from sgchrom.core import NEG, format_graph_text, make_graph

from conftest import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(format_graph_text(graph), encoding="utf-8")
    return str(path)


class TestChiC:
    def test_petersen_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, "petersen.sg", build("PETERSEN").graph)
        code, out, _ = run_cli(capsys, "chi-c", path, "--q-max", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["chi_c"] == {"num": 10, "den": 3}
        assert doc["q_max"] == 3
        assert len(doc["witness"]) == 10

    def test_round_trip_emit_to_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "catalog", "emit", "T")
        assert code == EXIT_OK
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out2, _ = run_cli(capsys, "chi-c", "-")
        assert code == EXIT_OK
        assert json.loads(out2)["chi_c"] == {"num": 10, "den": 3}

    def test_ceiling_exhausted_is_math_fail(self, tmp_path, capsys):
        path = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        code, out, _ = run_cli(capsys, "chi-c", path, "--ceiling", "3/1")
        assert code == EXIT_MATH_FAIL

    def test_zero_denominator_ceiling_is_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        for ceiling in ("1/0", "x", "3/", "1/2/3"):
            code, out, err = run_cli(capsys, "chi-c", path, "--ceiling", ceiling)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == f"error: --ceiling takes an integer or a fraction p/q with q != 0, not {ceiling!r}\n", err

    def test_deadline_inconclusive(self, tmp_path, capsys):
        # chi_c of the all-negative K9 at q_max=3 takes ~2 s undisturbed.
        k9 = make_graph(9, [(u, v, NEG) for u in range(9) for v in range(u + 1, 9)])
        path = write_graph(tmp_path, "k9.sg", k9)
        code, out, _ = run_cli(capsys, "chi-c", path, "--q-max", "3", "--deadline-s", "0.05")
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["status"] == "inconclusive"


class TestCheckHom:
    def test_found_and_not_found(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.sg", build("K4_MINUS").graph)
        code, out, _ = run_cli(capsys, "check-hom", path, "8", "2")
        assert code == EXIT_OK and json.loads(out)["found"] is True
        code, out, _ = run_cli(capsys, "check-hom", path, "10", "3")
        assert code == EXIT_OK and json.loads(out)["found"] is False


class TestVerifyColoring:
    def test_valid_labels(self, tmp_path, capsys):
        ng = build("H1")
        gpath = write_graph(tmp_path, "h1.sg", ng.graph)
        cpath = tmp_path / "h1.coloring"
        lines = [
            f"{i} {ng.golden_labels[name]}" for i, name in enumerate(ng.vertex_names)
        ]
        cpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify-coloring", gpath, str(cpath))
        assert code == EXIT_OK and json.loads(out)["valid"] is True

    def test_invalid_coloring_fails(self, tmp_path, capsys):
        g = build("DIGON").graph
        gpath = write_graph(tmp_path, "digon.sg", g)
        cpath = tmp_path / "bad.coloring"
        cpath.write_text("0 1\n1 1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify-coloring", gpath, str(cpath))
        assert code == EXIT_MATH_FAIL and json.loads(out)["valid"] is False


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == EXIT_OK
        doc = json.loads(out)
        names = {row["name"] for row in doc["graphs"]}
        assert {"T", "T_PLUS", "PETERSEN", "DIGON", "EIGHT_V_4"} <= names

    def test_emit_parses_back(self, capsys):
        from sgchrom.core import parse_graph_text

        code, out, _ = run_cli(capsys, "emit", "CUBE_NEG")
        assert code == EXIT_OK
        assert parse_graph_text(out) == build("CUBE_NEG").graph

    def test_emit_matches_catalog_emit(self, capsys):
        assert run_cli(capsys, "emit", "T") == run_cli(capsys, "catalog", "emit", "T")

    def test_unknown_name_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "emit", "NOPE")
        assert code == EXIT_USAGE
        assert (out, err) == ("", "error: unknown catalog name 'NOPE'\n")


def numpy_modules_after(code):
    """The numpy modules a fresh interpreter has loaded after running
    ``code`` with its stdout discarded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + textwrap.indent(code, "    ")
        + "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))\n"
    )
    return json.loads(run_fresh(probe))


class TestNumpyStaysUnloaded:
    """Only bucket elimination and the numpy lemmas import numpy, so a
    command that runs neither never maps its code."""

    @pytest.mark.parametrize(
        "code",
        [
            "import sgchrom.cli",
            "import sgchrom.lists",
            "import sgchrom.campaigns",
            "from sgchrom import cli\nassert cli.main(['campaign', 'T_SURJECTIVE']) == 0",
        ],
        ids=["import-cli", "import-lists", "import-campaigns", "campaign-T_SURJECTIVE"],
    )
    def test_unloaded(self, code):
        assert numpy_modules_after(code) == []

    def test_chi_c_on_t(self, tmp_path):
        path = write_graph(tmp_path, "t.sg", build("T").graph)
        assert numpy_modules_after(f"from sgchrom import cli\nassert cli.main(['chi-c', {path!r}]) == 0") == []

    def test_numpy_lemma_loads_it(self):
        # The probe can tell: a numpy lemma does load numpy.
        code = "from sgchrom import cli\nassert cli.main(['verify-lemma', 'UNION_X4']) == 0"
        assert "numpy" in numpy_modules_after(code)


class TestLemmaAndCampaign:
    def test_verify_lemma(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemma", "OBS_K2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True and doc["cases_checked"] == 20

    def test_campaign_negative_cycles(self, capsys):
        code, out, _ = run_cli(capsys, "campaign", "NEGATIVE_CYCLES", "--n-max", "4")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_failing_campaign_exit_code_and_witnesses(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "SMALL_CRITICAL",
            "--emit-witnesses",
            str(tmp_path / "wit"),
        )
        assert code == EXIT_MATH_FAIL  # the expected-but-colorable chord class
        assert (tmp_path / "wit").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("campaign", "NEGATIVE_CYCLES", "--n-max", "0"),
            ("campaign", "NEGATIVE_CYCLES", "--n-max", "1"),
            ("campaign", "BROOKS", "--n-max", "0"),
            ("campaign", "BROOKS", "--n-max", "11"),
            ("campaign", "DENSITY_FAMILY", "--n-max", "0"),
            ("campaign", "DENSITY_FAMILY", "--n-max", "-3"),
            ("campaign", "PETERSEN", "--n-max", "3"),
            ("campaign", "T_SURJECTIVE", "--n-max", "1"),
            ("--threads", "0", "campaign", "NEGATIVE_CYCLES"),
            ("--threads", "-2", "campaign", "SMALL_3COLORABLE"),
        ],
    )
    def test_bad_campaign_size_or_threads_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_campaign_size_bounds_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "campaign", "NEGATIVE_CYCLES", "--n-max", "2")
        assert code == EXIT_OK and json.loads(out)["cases_checked"] == 1
        code, out, _ = run_cli(capsys, "campaign", "BROOKS", "--n-max", "1")
        assert code == EXIT_OK and json.loads(out)["budget_notes"] == ["n_max=1"]


class TestCriticalCheck:
    def test_digon(self, tmp_path, capsys):
        path = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        code, out, _ = run_cli(capsys, "critical-check", path, "10", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["critical"] is True
        assert len(doc["per_edge"]) == 2
        assert all(row["colorable_without"] for row in doc["per_edge"])

    def test_k4_minus_solves_each_graph_once(self, tmp_path, capsys, monkeypatch):
        import sgchrom.solver as solver

        calls = []
        real = solver.find_sp_hom

        def counting(g, params, **kwargs):
            calls.append(g)
            return real(g, params, **kwargs)

        monkeypatch.setattr(solver, "find_sp_hom", counting)
        path = write_graph(tmp_path, "k4.sg", build("K4_MINUS").graph)
        code, out, _ = run_cli(capsys, "critical-check", path, "10", "3")
        assert code == EXIT_OK
        assert len(calls) == 7  # the graph and its six single-edge deletions
        assert json.loads(out) == {
            "schema": 1,
            "p": 10,
            "q": 3,
            "colorable": False,
            "critical": True,
            "per_edge": [
                {"edge": [u, v, -1], "colorable_without": True}
                for (u, v) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            ],
        }

    def test_colorable_graph_has_no_per_edge_rows(self, tmp_path, capsys):
        path = write_graph(tmp_path, "tplus.sg", build("T_PLUS").graph)
        code, out, _ = run_cli(capsys, "critical-check", path, "10", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["colorable"], doc["critical"], doc["per_edge"]) == (True, False, [])


class TestTextFormatFlag:
    def test_text_output(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t.sg", build("T").graph)
        code, out, _ = run_cli(capsys, "--format", "text", "chi-c", path)
        assert code == EXIT_OK
        assert "chi_c:" in out and "schema: 1" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_graph_file(self, tmp_path, capsys):
        self.assert_usage_error(capsys, "chi-c", str(tmp_path / "missing.sg"))

    def test_directory_as_graph_file(self, tmp_path, capsys):
        self.assert_usage_error(capsys, "chi-c", str(tmp_path))

    def test_missing_coloring_file(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        self.assert_usage_error(capsys, "verify-coloring", gpath, str(tmp_path / "missing.coloring"))

    def test_bad_params_name_the_given_q(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        cpath = tmp_path / "digon.coloring"
        cpath.write_text("0 0\n1 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-coloring", gpath, str(cpath), "--p", "7", "--q", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "q=2" in err

    def test_uncreatable_witness_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        self.assert_usage_error(capsys, "campaign", "SMALL_CRITICAL", "--emit-witnesses", str(blocker / "wit"))

    def test_q_max_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        self.assert_usage_error(capsys, "chi-c", path, "--q-max", "0")

    def test_malformed_graph_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.sg"
        path.write_text("2 1\n0 1 ?\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "chi-c", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nothing but a comment\n", "empty graph file"),
            ("3\n", "line 1: expected 'n m'"),
            ("2 x\n", "line 1: expected integers 'n m'"),
            ("2 1\n0 b +\n", "line 2: bad vertex index"),
            ("2 1\n0 2 +\n", "line 2: vertex out of range"),
            ("-1 0\n", "vertex count must be nonnegative"),
        ],
        ids=["empty", "header-fields", "header-integers", "vertex-index", "vertex-range", "negative-count"],
    )
    def test_malformed_graph_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.sg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "chi-c", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv", [("chi-c",), ("check-hom", "10", "3"), ("critical-check", "10", "3")]
    )
    def test_nan_deadline(self, tmp_path, capsys, argv):
        # NaN compares false with every time, so it would never expire.
        path = write_graph(tmp_path, "k4.sg", build("K4_MINUS").graph)
        self.assert_usage_error(capsys, argv[0], path, *argv[1:], "--deadline-s", "nan")

    @pytest.mark.parametrize("seconds, code", [("inf", EXIT_OK), ("-1", EXIT_INCONCLUSIVE)])
    @pytest.mark.parametrize(
        "argv", [("chi-c",), ("check-hom", "10", "3"), ("critical-check", "10", "3")], ids=lambda argv: argv[0]
    )
    def test_infinite_and_negative_deadlines(self, tmp_path, capsys, argv, seconds, code):
        # A deadline that has already passed stops every command before it
        # searches, even one whose search never reaches a checkpoint.
        path = write_graph(tmp_path, "k4.sg", build("K4_MINUS").graph)
        assert run_cli(capsys, argv[0], path, *argv[1:], "--deadline-s", seconds)[0] == code

    @pytest.mark.parametrize(
        "argv", [("chi-c",), ("check-hom", "10", "3"), ("critical-check", "10", "3")]
    )
    def test_negative_loop_is_usage_error(self, tmp_path, capsys, argv):
        path = write_graph(tmp_path, "loop.sg", make_graph(2, [(0, 1, NEG), (1, 1, NEG)]))
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "negative loop" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("0 a\n1 2\n", "line 1: expected integers"),
            ("0 1\n1 2.5\n", "line 2: expected integers"),
            ("0 1\n\n0 2\n1 1\n", "line 3: vertex 0 already colored on line 1"),
            ("# labels\n1 1\n0 2\n1 -1\n", "line 4: vertex 1 already colored on line 2"),
            ("0 1 2\n1 1\n", "line 1: expected 'v c'"),
            ("0 1\n2 1\n", "line 2: vertex 2 out of range"),
            ("0 0\n1 1\n", "line 1: color label 0 not in +-1..+-5"),
        ],
        ids=["letter", "fraction", "repeat", "repeat-after-comment", "fields", "vertex-range", "label-zero"],
    )
    def test_malformed_coloring_reports_line(self, tmp_path, capsys, text, where):
        gpath = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        cpath = tmp_path / "bad.coloring"
        cpath.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-coloring", gpath, str(cpath))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: line") and where in err

    @pytest.mark.parametrize(
        "text, params, message",
        [
            ("0 12\n1 1\n", ("--p", "12", "--q", "5"), "line 1: color 12 out of range"),
            ("0 1\n", (), "coloring missing vertices [1]"),
        ],
        ids=["color-range", "missing-vertex"],
    )
    def test_coloring_out_of_range_or_incomplete(self, tmp_path, capsys, text, params, message):
        gpath = write_graph(tmp_path, "digon.sg", build("DIGON").graph)
        cpath = tmp_path / "bad.coloring"
        cpath.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-coloring", gpath, str(cpath), *params)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"
