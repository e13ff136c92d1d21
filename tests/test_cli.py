"""End-to-end CLI checks, run in process through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedposets
from signedposets import cli, jordan, posetfile, posets, verify
from signedposets.errors import InternalInconsistency, ParseError
from signedposets.posetfile import PosetDocument, parse_poset
from signedposets.posets import SignedPoset
from signedposets.roots import all_roots, parse_root
from signedposets.verify import CheckResult


@pytest.fixture
def fig1(tmp_path):
    path = tmp_path / "fig1.poset"
    path.write_text("name = fig1\nn = 2\nroots: -1+2 +1+2\n")
    return str(path)


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert "timing_ms" in rep
    return rep


def test_validate(capsys, fig1):
    code, out, err = run(capsys, ["validate", fig1])
    assert code == 0
    rep = report_of(out)
    assert rep["command"] == "validate"
    assert rep["results"]["closure"] == ["-1+2", "+1+2", "+2"]
    assert rep["results"]["generators_already_closed"] is False
    assert rep["input"]["document"]["name"] == "fig1"
    assert "valid signed poset on [2] with 3 roots" in err


def test_json_flag_indents(capsys, fig1):
    _, compact, _ = run(capsys, ["validate", fig1])
    _, pretty, _ = run(capsys, ["validate", fig1, "--json"])
    assert compact.count("\n") == 1
    assert pretty.startswith("{\n")
    a, b = json.loads(compact), json.loads(pretty)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_closure(capsys, fig1):
    code, out, _ = run(capsys, ["closure", fig1])
    assert code == 0
    assert report_of(out)["results"]["added"] == ["+2"]


def test_minrep(capsys, fig1):
    code, out, _ = run(capsys, ["minrep", fig1])
    assert code == 0
    rep = report_of(out)
    assert sorted(rep["results"]["minimal"]) == ["+1+2", "-1+2"]
    assert rep["verification"] == {"regenerates": True}


def test_hdesc(capsys, fig1):
    code, out, _ = run(capsys, ["hdesc", fig1])
    assert code == 0
    rep = report_of(out)
    assert rep["verification"]["irredundant_rows_all_necessary"] is True
    assert len(rep["results"]["irredundant"]["rows"]) <= len(rep["results"]["full"]["rows"])


def test_filters_and_vertices(capsys, fig1):
    code, out, _ = run(capsys, ["filters", fig1])
    rep = report_of(out)
    assert code == 0 and rep["results"]["count"] == 4
    assert rep["verification"]["matches_lattice_count"] is True

    code, out, _ = run(capsys, ["vertices", fig1])
    rep = report_of(out)
    assert code == 0 and rep["results"]["count"] == 3
    assert rep["verification"]["vertices_are_filters"] is True


def test_jh(capsys, fig1):
    code, out, _ = run(capsys, ["jh", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["jh"] == [[-1, 2], [1, 2]]
    assert rep["results"]["naturally_labeled"] is True
    assert rep["results"]["descents"] == {"0": 1, "1": 1}


def test_hstar(capsys, fig1):
    code, out, err = run(capsys, ["hstar", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["hstar"] == [1, 1]
    assert rep["results"]["by_counts"] == rep["results"]["by_descents"]
    assert "agree" in err


def test_ehrhart_with_extra_dilate(capsys, fig1):
    code, out, _ = run(capsys, ["ehrhart", fig1, "--t", "2"])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["coefficients"] == ["1", "2", "1"]
    assert rep["results"]["counts"] == {"0": 1, "1": 4, "2": 9}
    assert rep["results"]["count_at_t"] == 9
    assert rep["verification"]["reciprocity"] is True


def test_gorenstein(capsys, fig1):
    code, out, _ = run(capsys, ["gorenstein", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["gorenstein"] is True
    assert rep["results"]["counting_index"] == 2
    assert rep["results"]["canonical_point"] == [0, 1]
    assert rep["results"]["hstar"] == [1, 1]


def test_fischer_writes_dot(capsys, fig1, tmp_path):
    dot = tmp_path / "fischer.dot"
    code, out, _ = run(capsys, ["fischer", fig1, "--dot", str(dot)])
    rep = report_of(out)
    assert code == 0
    assert rep["verification"]["centrally_symmetric"] is True
    assert rep["verification"]["halfspaces_match_order_polytope"] is True
    assert dot.read_text().startswith("digraph fischer {")


def test_chain_polytope(capsys, fig1):
    code, out, _ = run(capsys, ["chain-polytope", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["verification"]["reflexive"] is True
    assert rep["verification"]["origin_interior"] is True
    assert rep["results"]["chain_count"] == len(rep["results"]["chains"])


def test_antichains(capsys, fig1):
    code, out, _ = run(capsys, ["antichains", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["count"] == 5
    assert rep["results"]["characterization"]["match"] is True


def test_compare(capsys, fig1):
    code, out, err = run(capsys, ["compare", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["ehrhart_equal"] is False
    assert "different" in err


def test_compare_finishes_at_rank_4(capsys, tmp_path):
    path = tmp_path / "chain4.poset"
    path.write_text("n = 4\nroots: -1+2 -2+3 -3+4 +1\n")
    code, out, _ = run(capsys, ["compare", str(path)])
    assert code == 0
    assert report_of(out)["results"]["chain_vertex_count"] >= 5


def test_verify_single_file(capsys, fig1):
    code, out, err = run(capsys, ["verify", fig1])
    rep = report_of(out)
    assert code == 0
    assert rep["verification"]["passed"] is True
    assert err.count("ok  ") == len(rep["results"]["checks"])


def test_check_that_raises_fails_verify(capsys, fig1, monkeypatch):
    def broken(p):
        raise ValueError("viewpoint is not generic")

    monkeypatch.setattr(verify, "ALL_CHECKS", verify.ALL_CHECKS[:-1] + (("homogenization", broken),))
    code, out, err = run(capsys, ["verify", fig1])
    assert code == 1
    rep = report_of(out)
    assert rep["verification"]["passed"] is False
    assert rep["results"]["checks"][-1]["detail"]["exception"] == "ValueError"
    assert "FAIL homogenization" in err


def test_verify_catalog(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "1"])
    rep = report_of(out)
    assert code == 0
    assert rep["results"]["posets"] == 3
    assert rep["verification"]["passed"] is True


def test_enumerate_stream(capsys):
    code, out, err = run(capsys, ["enumerate", "--n", "1"])
    assert code == 0
    assert out.splitlines() == [
        '{"n":1,"roots":[]}',
        '{"n":1,"roots":["+1"]}',
        '{"n":1,"roots":["-1"]}',
    ]
    assert "3 signed posets" in err


def test_enumerate_up_to_iso(capsys):
    code, out, err = run(capsys, ["enumerate", "--n", "1", "--up-to-iso"])
    assert code == 0
    assert len(out.splitlines()) == 2
    assert "2 isomorphism classes" in err


def test_export_dot_stdout(capsys, fig1):
    code, out, _ = run(capsys, ["export-dot", fig1])
    assert code == 0
    assert out.startswith("graph signed_poset {")


def test_export_dot_file(capsys, fig1, tmp_path):
    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, ["export-dot", fig1, "--dot", str(dot)])
    assert code == 0
    assert report_of(out)["results"]["dot"] == str(dot)
    assert dot.read_text().startswith("graph signed_poset {")


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("n = 2\nroots: wibble\n")
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 2 and out == ""
    assert "input error" in err


def test_duplicate_name_line_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("name = a\nname = b\nn = 2\nroots: +1\n")
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 2 and out == ""
    assert "duplicate name line" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", str(tmp_path / "nope.poset")])
    assert code == 2
    assert "input error" in err


def test_empty_path_exits_2(capsys):
    code, _, err = run(capsys, ["validate", ""])
    assert code == 2
    assert "input error" in err


def test_enumerate_guard_exits_2(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "4"])
    assert code == 2
    assert "input error" in err and "--force" in err


def test_a_group_too_large_to_build_exits_2(capsys, tmp_path):
    path = tmp_path / "n10.poset"
    path.write_text("n = 10\nroots: -1+2\n")
    code, out, err = run(capsys, ["jh", str(path)])
    assert code == 2 and out == ""
    assert "input error" in err and "S_10^B" in err


def test_verify_with_a_file_and_n_exits_2(capsys, fig1):
    code, out, err = run(capsys, ["verify", fig1, "--n", "3"])
    assert code == 2 and out == ""
    assert "input error" in err and "not both" in err


def test_verify_without_target_exits_2(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "input error" in err


def test_failed_verification_exits_1(capsys, fig1, monkeypatch):
    def disagreeing(p):
        return CheckResult("hstar-oracles", False, {"by_descents": [1, 1], "by_counts": [1, 2]})

    monkeypatch.setattr(verify, "check_hstar_oracles", disagreeing)
    code, out, err = run(capsys, ["hstar", fig1])
    assert code == 1
    assert report_of(out)["verification"] == {"oracles_agree": False}
    assert "DISAGREE" in err


def test_unclosed_poset_fails_validate_and_a_wrong_m_fails_minrep(capsys, fig1, monkeypatch):
    # The certificates decide the fields: P without +2 is not closed, and
    # {−1+2} does not regenerate fig1.
    monkeypatch.setattr(posets, "minimal_representation", lambda p: {parse_root("-1+2")})
    code, out, _ = run(capsys, ["minrep", fig1])
    assert code == 1
    assert report_of(out)["verification"] == {"regenerates": False}
    monkeypatch.setattr(posetfile, "from_generators", lambda n, gens: SignedPoset(n, gens))
    code, out, _ = run(capsys, ["validate", fig1])
    assert code == 1
    assert report_of(out)["verification"] == {"closed": False}


def test_internal_inconsistency_exits_3(capsys, fig1, monkeypatch):
    def boom(p):
        raise InternalInconsistency("triangulation lost a cell")

    monkeypatch.setattr(verify, "verify_poset", boom)
    code, _, err = run(capsys, ["verify", fig1])
    assert code == 3
    assert "internal inconsistency" in err


@pytest.mark.parametrize("error", [KeyError("jh"), ValueError("not generic"), ZeroDivisionError()])
def test_unexpected_exception_in_a_command_exits_3(capsys, fig1, monkeypatch, error):
    def broken(p):
        raise error

    monkeypatch.setattr(jordan, "jordan_holder", broken)
    code, out, err = run(capsys, ["jh", fig1])
    assert code == 3 and out == ""
    assert err.startswith(f"internal inconsistency: {type(error).__name__}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "0"],
    ["enumerate", "--n", "0", "--up-to-iso"],
    ["verify", "--n", "0"],
    ["verify", "--n", "4"],
])
def test_bad_ground_size_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "input error" in err


def test_negative_dilate_exits_2(capsys, fig1):
    code, out, err = run(capsys, ["ehrhart", fig1, "--t", "-1"])
    assert code == 2 and out == ""
    assert "--t" in err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.poset"
    path.write_bytes("name = caf\xe9\nn = 1\nroots: +1\n".encode("latin-1"))
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2 and out == ""
    assert "input error" in err


def test_asymmetry_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "clash.poset"
    path.write_text("n = 2\nroots: -1+2 -2 +1\n")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2 and out == ""
    assert "input error" in err


@given(st.text())
def test_parse_poset_returns_a_document_or_raises_parse_error(text):
    try:
        assert isinstance(parse_poset(text), PosetDocument)
    except ParseError:
        pass


TOKENS = [alpha.token() for alpha in all_roots(4)] + ["+5", "0", "+1+1", "x", "#"]


@given(
    st.integers(min_value=1, max_value=4),
    st.one_of(st.text(), st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)),
)
@settings(max_examples=60, deadline=None)
def test_validate_exits_only_0_or_2(tmp_path_factory, n, roots):
    # n <= 4 keeps root_kernel(n), a (2n^2)^2 table, small.
    path = tmp_path_factory.getbasetemp() / "fuzz.poset"
    path.write_text(f"n = {n}\nroots: {roots}\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert code in (0, 2), err.getvalue()
    assert (code == 0) == out.getvalue().startswith("{")


def _cli_env():
    # stdout block-buffered, as on any pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(signedposets.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _loaded(argv, cwd):
    """The package modules that `python -m signedposets.cli *argv` imports."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "signedposets.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), cwd=cwd, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


WHOLE_PACKAGE = {f"signedposets.{m}" for m in ("verify", "chains", "jordan", "ehrhart", "catalog")}


@pytest.mark.parametrize("command", ["validate", "closure", "minrep", "export-dot"])
def test_light_commands_load_no_cross_checks(tmp_path, fig1, command):
    loaded = _loaded([command, fig1, *(["--dot", "out.dot"] if command == "export-dot" else [])],
                     tmp_path)
    assert "signedposets.posets" in loaded
    assert not loaded & WHOLE_PACKAGE
    assert "signedposets.linalg" not in loaded


def test_verify_loads_the_cross_checks(tmp_path, fig1):
    assert WHOLE_PACKAGE <= _loaded(["verify", fig1], tmp_path)


def test_closed_stdout_exits_141_without_an_error(tmp_path):
    # `signedposets enumerate --n 3 | head -1`: the reader goes away after one
    # line.  The pipe is shrunk to one page where Linux allows it, so the
    # writer is still writing when the reader closes (47 KB of output).
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set here")
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "signedposets.cli", "enumerate", "--n", "3"],
        stdout=write_fd, stderr=subprocess.PIPE, env=_cli_env(), cwd=tmp_path,
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        first = reader.readline()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first) == {"n": 3, "roots": []}
    assert proc.returncode == 141
    assert err == b""


def test_stdout_closed_before_start_exits_141(tmp_path):
    # The 1 KB of `enumerate --n 2` sits in stdout's buffer until `run`
    # flushes it, so the write fails only there.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "signedposets.cli", "enumerate", "--n", "2"],
            stdout=write_fd, stderr=subprocess.PIPE, env=_cli_env(), cwd=tmp_path,
            timeout=60,
        )
    finally:
        os.close(write_fd)
    assert proc.returncode == 141
    assert proc.stderr == b""
