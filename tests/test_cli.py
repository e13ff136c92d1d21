"""End-to-end CLI checks, run in process through main(argv)."""

import json
from argparse import Namespace

import pytest

from signedposets import cli
from signedposets.errors import InternalInconsistency


@pytest.fixture
def fig1(tmp_path):
    path = tmp_path / "fig1.poset"
    path.write_text("name = fig1\nn = 2\nroots: -1+2 +1+2\n")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
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
    from signedposets import verify

    def broken(p, t_max=3):
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


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", str(tmp_path / "nope.poset")])
    assert code == 2
    assert "input error" in err


def test_enumerate_guard_exits_2(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "4"])
    assert code == 2
    assert "input error" in err


def test_verify_without_target_exits_2(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "input error" in err


def test_failed_verification_exits_1(capsys):
    args = Namespace(json=False)
    code = cli._emit(args, "demo", {}, {}, {"broken": False, "fine": True}, 0.0, "")
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verification"]["broken"] is False


def test_internal_inconsistency_exits_3(capsys, fig1, monkeypatch):
    def boom(p):
        raise InternalInconsistency("triangulation lost a cell")

    monkeypatch.setattr(cli, "verify_poset", boom)
    code, _, err = run(capsys, ["verify", fig1])
    assert code == 3
    assert "internal inconsistency" in err
