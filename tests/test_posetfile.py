"""The text format for posets on disk."""

import pytest
from hypothesis import given, strategies as st

from signedposets.errors import ParseError
from signedposets.posetfile import PosetDocument, format_poset, parse_poset
from signedposets.roots import all_roots, parse_root


def test_parse_basic_document():
    doc = parse_poset("# demo\nname = fig1\nn = 2\nroots: -1+2 +1+2  # gens\n")
    assert doc == PosetDocument(2, (parse_root("-1+2"), parse_root("+1+2")), name="fig1")
    assert doc.to_poset().n == 2


def test_comments_and_blank_lines_ignored():
    text = "\n# header\n\nn = 1\n   # indented comment\nroots: +1\n\n"
    doc = parse_poset(text)
    assert doc.n == 1 and doc.generators == (parse_root("+1"),)
    assert doc.name is None


def test_empty_roots_line_is_the_trivial_poset():
    doc = parse_poset("n = 3\nroots:\n")
    assert doc.generators == ()
    assert len(doc.to_poset().roots) == 0


def test_format_round_trip():
    doc = PosetDocument(2, (parse_root("-1+2"), parse_root("+1+2")), name="fig1")
    assert format_poset(doc) == "name = fig1\nn = 2\nroots: -1+2 +1+2\n"
    assert parse_poset(format_poset(doc)) == doc


@given(st.data())
def test_round_trip_random_documents(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    pool = sorted(all_roots(n), key=lambda a: a.token())
    gens = tuple(data.draw(st.permutations(pool)).__iter__())[
        : data.draw(st.integers(min_value=0, max_value=len(pool)))
    ]
    name = data.draw(st.one_of(st.none(), st.just("sample")))
    doc = PosetDocument(n, gens, name)
    assert parse_poset(format_poset(doc)) == doc


def err(text):
    with pytest.raises(ParseError) as info:
        parse_poset(text)
    return info.value


def test_roots_before_n():
    e = err("roots: +1\n")
    assert (e.line, e.column) == (1, 1)
    assert "before n" in str(e)


def test_duplicate_n_line():
    e = err("n = 2\nn = 2\nroots: +1\n")
    assert (e.line, e.column) == (2, 1)


def test_duplicate_name_line():
    e = err("name = a\nn = 2\n  name = b\nroots: +1\n")
    assert (e.line, e.column) == (3, 3)
    assert "duplicate name line" in str(e)


def test_bad_token_position_points_at_the_token():
    e = err("n = 2\nroots: +1 bogus\n")
    assert (e.line, e.column) == (2, 11)
    assert "bogus" in str(e)


def test_out_of_range_index():
    e = err("n = 2\nroots: +1 +3\n")
    assert (e.line, e.column) == (2, 11)
    assert "index 3 > n = 2" in str(e)


def test_duplicate_root():
    e = err("n = 2\nroots: +1 +1\n")
    assert (e.line, e.column) == (2, 11)


def test_missing_sections():
    assert "missing roots" in str(err("n = 2\n"))
    assert "missing n" in str(err(""))
    assert "missing n" in str(err("# only a comment\n"))


def test_n_must_be_a_positive_integer():
    e = err("n = x\nroots: +1\n")
    assert (e.line, e.column) == (1, 4)
    assert "n must be at least 1" in str(err("n = 0\nroots:\n"))


def test_unrecognized_line():
    e = err("wibble\n")
    assert "wibble" in str(e) and e.line == 1


def test_json_dict_shape():
    doc = parse_poset("n = 2\nroots: -1+2\n")
    assert doc.to_json_dict() == {"n": 2, "roots": ["-1+2"]}
    named = PosetDocument(1, (), name="void")
    assert named.to_json_dict() == {"n": 1, "roots": [], "name": "void"}
