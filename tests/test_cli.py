"""Command-line interface: input grammar, subcommands, exit codes."""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

from regulartri import cli, search
from regulartri import (
    canonical_form,
    cube,
    cube_symmetry_generators,
    enumerate_triangulations,
    expand_group,
    format_triangulation,
    gkz,
    parse_triangulation,
    placing_triangulation,
    simplex_product,
    simplex_product_symmetry_generators,
    square,
    validate,
)
from regulartri.search import DEFAULT_CACHE_CAPACITY
from regulartri.symmetry import group_trie

SQUARE_INPUT = "points: [[0,0],[1,0],[1,1],[0,1]]\nsymmetry: [[1,2,3,0]]\n"
TRIANGLE_INPUT = "points: [[0,0],[3,0],[0,3],[1,1]]\n"
NESTED_INPUT = (
    "points: [[0,0],[4,0],[0,4],[1,1],[2,1],[1,2]]\n"
    "symmetry: [[1,2,0,4,5,3],[0,2,1,3,5,4]]\n"
)
PINWHEEL = "{{0,1,4},{0,3,4},{1,2,5},{1,4,5},{0,2,3},{2,3,5},{3,4,5}}"


def _input(points, gens):
    def literal(rows):
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"

    return f"points: {literal(points)}\nsymmetry: {literal(gens)}\n"


D2D2_INPUT = _input(simplex_product(2, 2).points, simplex_product_symmetry_generators(2, 2))
CUBE3_INPUT = _input(cube(3).points, cube_symmetry_generators(3))


def _run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- input grammar -------------------------------------------------------


def test_parse_input_minimal():
    doc = cli.parse_input("points: [[0,0],[1,0],[1,1],[0,1]]")
    assert doc["points"] == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert doc["symmetry"] is None


def test_parse_input_with_symmetry_and_comments():
    text = (
        "# the unit square\n"
        "points: [[0,0],[1,0],[1,1],[0,1]]  # corners\n"
        "symmetry: [[1,2,3,0]]\n"
    )
    doc = cli.parse_input(text)
    assert doc["symmetry"] == [[1, 2, 3, 0]]


def test_parse_input_whitespace_and_negatives():
    doc = cli.parse_input("points: [ [ -1, 2 ] ,\n [0,-3] ]")
    assert doc["points"] == [[-1, 2], [0, -3]]


def test_parse_input_rejects_floats_with_position():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("points: [[0,0],[1.5,0]]")
    assert "floating point" in str(err.value)
    assert err.value.line == 1
    assert err.value.column > 1


def test_parse_input_reports_line_numbers():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("# comment line\npoints: [[0,0],[1,x]]")
    assert err.value.line == 2


def test_parse_input_rejects_unknown_and_duplicate_keys():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("corners: [[0,0]]")
    assert "unknown key" in str(err.value)
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("points: [[0,0],[1,0]]\npoints: [[0,1]]")
    assert "duplicate key" in str(err.value)


def test_parse_input_requires_points():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("symmetry: [[0,1]]")
    assert "points" in str(err.value)
    with pytest.raises(cli.ParseError):
        cli.parse_input("")


def test_parse_input_rejects_unclosed_list():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input("points: [[0,0],[1,0]")
    assert "expected" in str(err.value)


@pytest.mark.parametrize("text, line, column, message", (
    pytest.param("points: [[0,0],[1,0", 1, 20, "expected ']', found end of input",
                 id="unclosed-inner-list"),
    pytest.param("points: [[0,0] [1,0]]", 1, 16, "expected ']', found '['",
                 id="missing-comma"),
    pytest.param("points: [[0 0],[1,0]]", 1, 13, "expected ']', found '0'",
                 id="missing-inner-comma"),
    pytest.param("points: [[0,0],\n  [1,0.5]]", 2, 7,
                 "floating point numbers are not supported; use integers",
                 id="float-in-inner-list"),
    pytest.param("points: [] 7", 1, 12,
                 "expected a key ('points' or 'symmetry'), found '7'",
                 id="empty-list-then-junk"),
    pytest.param("points: [[0,0],[1,0],]", 1, 22, "expected '[', found ']'",
                 id="trailing-comma"),
    pytest.param("points: [[0,\u00b2]]", 1, 13, "expected an integer, found '\u00b2'",
                 id="superscript-digit"),
))
def test_parse_error_positions(text, line, column, message):
    # All but the last were recorded before the two list parsers became one.
    with pytest.raises(cli.ParseError) as err:
        cli.parse_input(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"parse error at line {line}, column {column}: {message}"


# -- enumerate ------------------------------------------------------------


def test_enumerate_square(tmp_path):
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, text = _run(["enumerate", "--input", path, "--regular"])
    assert code == 0
    assert text == "triangulations: 2\n"


def test_enumerate_print_round_trip(tmp_path):
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, text = _run(["enumerate", "--input", path, "--regular", "--print"])
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "triangulations: 2"
    body = lines[:-1]
    assert len(body) == 2
    sq = square()
    for line in body:
        literal, gkz_text = line.split(" ", 1)
        t = parse_triangulation(literal)
        assert validate(sq, t).ok
        assert gkz_text.startswith("(") and gkz_text.endswith(")")
    assert body == sorted(body)
    assert any("(2,1,2,1)" in line for line in body)
    assert any("(1,2,1,2)" in line for line in body)


def test_enumerate_orbits_and_stats(tmp_path):
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, text = _run(
        ["enumerate", "--input", path, "--regular", "--orbits", "--stats"]
    )
    assert code == 0
    lines = text.splitlines()
    assert "triangulations: 2" in lines
    assert "orbits: 1" in lines
    assert "lps_solved: 0" in lines
    assert any(line.startswith("nodes: ") for line in lines)
    assert any(line.startswith("flips_evaluated: ") for line in lines)
    assert any(line.startswith("cache_hits: ") for line in lines)


def test_enumerate_orbits_requires_symmetry(tmp_path):
    path = _write(tmp_path, "tri.txt", TRIANGLE_INPUT)
    code, _ = _run(["enumerate", "--input", path, "--orbits"])
    assert code == cli.EXIT_SEMANTIC


def test_enumerate_orbits_under_no_generators(tmp_path):
    # An empty generator list is the trivial group, one orbit per
    # triangulation; only a missing key is refused.
    path = _write(tmp_path, "square.txt", "points: [[0,0],[1,0],[1,1],[0,1]]\nsymmetry: []\n")
    for extra in ([], ["--baseline"], ["--all"]):
        assert _run(["enumerate", "--input", path, "--orbits"] + extra) == (
            0, "triangulations: 2\norbits: 2\n")


def test_enumerate_all_baseline(tmp_path):
    path = _write(tmp_path, "nested.txt", NESTED_INPUT)
    code, text = _run(["enumerate", "--input", path, "--all", "--baseline"])
    assert code == 0
    assert "triangulations: 18" in text
    code, text = _run(["enumerate", "--input", path, "--regular"])
    assert "triangulations: 16" in text


def test_enumerate_deterministic_output(tmp_path):
    path = _write(tmp_path, "nested.txt", NESTED_INPUT)
    argv = [
        "enumerate", "--input", path, "--regular",
        "--print", "--stats", "--orbits",
    ]
    first = _run(argv)
    second = _run(argv)
    assert first == second
    assert first[0] == 0


def test_enumerate_cache_capacity_flag(tmp_path):
    path = _write(tmp_path, "nested.txt", NESTED_INPUT)
    base = _run(["enumerate", "--input", path, "--regular", "--print"])
    nocache = _run(
        ["enumerate", "--input", path, "--regular", "--print", "--flip-cache", "0"]
    )
    assert base == nocache


def test_enumerate_rejects_negative_flip_cache(tmp_path, capsys):
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, text = _run(["enumerate", "--input", path, "--flip-cache", "-1"])
    assert (code, text) == (cli.EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: regulartri enumerate")
    assert err.endswith("argument --flip-cache: cache capacity must be nonnegative, got -1\n")
    code, _ = _run(["enumerate", "--input", path, "--flip-cache", "x"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("--flip-cache: invalid int value: 'x'\n")


def test_enumerate_help_names_the_default_cache_capacity(capsys):
    assert _run(["enumerate", "--help"]) == (0, "")
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(0 disables caching; default {DEFAULT_CACHE_CAPACITY})" in help_text
    assert DEFAULT_CACHE_CAPACITY == 40000


def test_enumerate_product_of_triangles_counts(tmp_path):
    config = simplex_product(2, 2)
    gens = simplex_product_symmetry_generators(2, 2)
    group = expand_group(config, gens)
    forms = set()
    count, _ = enumerate_triangulations(
        config, visitor=lambda t, g, d: forms.add(canonical_form(t, group))
    )
    assert (count, len(forms)) == (108, 5)

    path = _write(tmp_path, "d2d2.txt", D2D2_INPUT)
    code, text = _run(["enumerate", "--input", path, "--orbits"])
    assert (code, text) == (0, "triangulations: 108\norbits: 5\n")


@pytest.mark.parametrize(
    "text", (SQUARE_INPUT, NESTED_INPUT, D2D2_INPUT), ids=("square", "nested", "d2d2")
)
def test_enumerate_orbit_search_agrees_with_full_enumeration(tmp_path, text):
    path = _write(tmp_path, "input.txt", text)
    for extra in ([], ["--print"]):
        argv = ["enumerate", "--input", path, "--orbits", *extra]
        orbit_search = _run(argv)
        assert orbit_search[0] == 0
        # --baseline takes the full enumeration with canonical forms.
        assert _run(argv + ["--baseline"]) == orbit_search
        assert _run(argv + ["--flip-cache", "0"]) == orbit_search


def test_enumerate_orbit_print_gkz_vectors(tmp_path):
    # --orbits --print permutes the representative's GKZ vector for each
    # member; every printed vector must be the member's own.
    path = _write(tmp_path, "d2d2.txt", D2D2_INPUT)
    code, text = _run(["enumerate", "--input", path, "--orbits", "--print"])
    assert code == 0
    config = simplex_product(2, 2)
    lines = text.splitlines()[:-2]
    assert len(lines) == 108
    for line in lines:
        literal, vector = line.split(" ")
        assert vector == cli._format_tuple(gkz(config, parse_triangulation(literal)))


def _stats_lines(nodes, flips, r1, kernel, hits, misses):
    return (
        f"nodes: {nodes}\nflips_evaluated: {flips}\nreductions_r1: {r1}\n"
        f"reductions_r2: 0\nreductions_r3: 0\nreductions_r4: 0\nkernel_decided: {kernel}\n"
        f"signed_confirmed: 0\nscalar_tests: 0\nlps_solved: 0\nlp_generators: 0\n"
        f"lp_generators_max: 0\n"
        f"cache_hits: {hits}\ncache_misses: {misses}\n"
    )


@pytest.mark.parametrize(
    "text, count, orbits, walk, plain",
    (
        (SQUARE_INPUT, 2, 1, (1, 1, 1, 0, 0, 1), (2, 2, 2, 0, 0, 2)),
        (CUBE3_INPUT, 74, 6, (6, 26, 20, 6, 0, 6), (74, 304, 280, 24, 79, 74)),
        (D2D2_INPUT, 108, 5, (5, 22, 16, 6, 1, 5), (108, 444, 408, 36, 115, 108)),
    ),
    ids=("square", "cube3", "d2d2"),
)
def test_enumerate_stats_lines(tmp_path, text, count, orbits, walk, plain):
    path = _write(tmp_path, "input.txt", text)
    assert _run(["enumerate", "--input", path, "--orbits", "--stats"]) == (
        0, f"triangulations: {count}\norbits: {orbits}\n" + _stats_lines(*walk))
    assert _run(["enumerate", "--input", path, "--stats"]) == (
        0, f"triangulations: {count}\n" + _stats_lines(*plain))


def test_enumerate_orbit_search_checks_orbit_sizes(tmp_path, monkeypatch):
    # A relabelling that loses members makes the orbit disagree with the
    # stabiliser of its GKZ vector; only --print runs the check.
    path = _write(tmp_path, "nested.txt", NESTED_INPUT)
    monkeypatch.setattr(cli, "relabel", lambda t, perm: t)
    code, _ = _run(["enumerate", "--input", path, "--orbits"])
    assert code == 0
    code, _ = _run(["enumerate", "--input", path, "--orbits", "--print"])
    assert code == cli.EXIT_SEMANTIC


def test_enumerate_orbit_print_builds_one_group_trie(tmp_path, monkeypatch):
    # --orbits --print takes its orbit-size check from the group loop it
    # already runs: the orbit search's trie is the only one built.
    built = []

    def counting(group):
        built.append(len(group))
        return group_trie(group)

    monkeypatch.setattr(search, "group_trie", counting)
    monkeypatch.setattr(cli, "group_trie", counting, raising=False)
    path = _write(tmp_path, "d2d2.txt", D2D2_INPUT)
    code, text = _run(["enumerate", "--input", path, "--orbits", "--print"])
    assert code == 0 and text.endswith("triangulations: 108\norbits: 5\n")
    assert built == [36]


@pytest.mark.parametrize("options, visits", (
    pytest.param([], False, id="count"),
    pytest.param(["--stats", "--all", "--baseline"], False, id="stats"),
    pytest.param(["--orbits"], False, id="orbit-walk"),
    pytest.param(["--print"], True, id="print"),
    pytest.param(["--orbits", "--baseline"], True, id="canonicalise"),
))
def test_enumerate_passes_a_visitor_only_with_work_for_it(tmp_path, monkeypatch,
                                                          options, visits):
    # A run that neither prints nor canonicalises each node passes no
    # visitor, so no node pays a call.
    visitors = []

    def recording(config, visitor=None, **kwargs):
        visitors.append(visitor)
        return enumerate_triangulations(config, visitor=visitor, **kwargs)

    monkeypatch.setattr(cli, "enumerate_triangulations", recording)
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, text = _run(["enumerate", "--input", path] + options)
    assert code == 0 and "triangulations: 2\n" in text
    assert [visitor is not None for visitor in visitors] == [visits]


# -- regular --------------------------------------------------------------


def test_regular_square_diagonal(tmp_path):
    inp = _write(tmp_path, "square.txt", SQUARE_INPUT)
    tri = _write(tmp_path, "t.txt", "{{0,1,2},{0,2,3}}")
    code, text = _run(["regular", "--input", inp, "--triangulation", tri])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "regular"
    assert lines[1].startswith("heights: (")
    assert text == "regular\nheights: (0,1,0,0)\n"


def test_regular_pinwheel_certificate(tmp_path):
    inp = _write(tmp_path, "nested.txt", NESTED_INPUT)
    tri = _write(tmp_path, "pin.txt", PINWHEEL)
    code, text = _run(["regular", "--input", inp, "--triangulation", tri])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "non-regular"
    assert lines[1].startswith("certificate: (")
    assert text == "non-regular\ncertificate: (0,1,0,1,1,0,0,0,0)\n"


@pytest.mark.parametrize("text, tri, expected", [
    (SQUARE_INPUT, "{{0,1,3},{1,2,3}}", "regular\nheights: (1,0,0,0)\n"),
    (CUBE3_INPUT, format_triangulation(placing_triangulation(cube(3))),
     "regular\nheights: (5,2,2,0,1,0,0,0)\n"),
], ids=["square-other-diagonal", "cube3-placing"])
def test_regular_output(tmp_path, text, tri, expected):
    inp = _write(tmp_path, "input.txt", text)
    tri = _write(tmp_path, "t.txt", tri)
    assert _run(["regular", "--input", inp, "--triangulation", tri]) == (0, expected)


def test_regular_rejects_invalid_triangulation(tmp_path):
    inp = _write(tmp_path, "square.txt", SQUARE_INPUT)
    tri = _write(tmp_path, "bad.txt", "{{0,1,2}}")
    code, _ = _run(["regular", "--input", inp, "--triangulation", tri])
    assert code == cli.EXIT_SEMANTIC


def test_regular_rejects_malformed_literal_with_position(tmp_path, capsys):
    # A space inside an index list is a missing comma, not part of "12".
    inp = _write(tmp_path, "square.txt", SQUARE_INPUT)
    tri = _write(tmp_path, "bad.txt", "{{0,1 2},{0,2,3}}\n")
    code, text = _run(["regular", "--input", inp, "--triangulation", tri])
    assert (code, text) == (cli.EXIT_SEMANTIC, "")
    assert capsys.readouterr().err == (
        "error: parse error at line 1, column 7: expected '}', found '2'\n")


# -- flips ----------------------------------------------------------------


def test_flips_square(tmp_path):
    inp = _write(tmp_path, "square.txt", SQUARE_INPUT)
    tri = _write(tmp_path, "t.txt", "{{0,1,2},{0,2,3}}")
    code, text = _run(["flips", "--input", inp, "--triangulation", tri])
    assert code == 0
    assert text == "circuit: {1,3}|{}|{0,2} delta: (-1,1,-1,1) regular: yes\n"


def test_flips_insertion(tmp_path):
    inp = _write(tmp_path, "tri.txt", TRIANGLE_INPUT)
    tri = _write(tmp_path, "t.txt", "{{0,1,2}}")
    code, text = _run(["flips", "--input", inp, "--triangulation", tri])
    assert code == 0
    assert "delta: (-3,-3,-3,9)" in text
    assert "regular: yes" in text


def test_flips_simplex_empty(tmp_path):
    inp = _write(tmp_path, "simplex.txt", "points: [[0,0],[1,0],[0,1]]\n")
    tri = _write(tmp_path, "t.txt", "{{0,1,2}}")
    code, text = _run(["flips", "--input", inp, "--triangulation", tri])
    assert code == 0
    assert text == ""


# -- exit codes -----------------------------------------------------------


def test_exit_usage():
    code, _ = _run([])
    assert code == cli.EXIT_USAGE
    code, _ = _run(["enumerate"])  # missing --input
    assert code == cli.EXIT_USAGE
    code, _ = _run(["enumerate", "--input", "x", "--nonsense"])
    assert code == cli.EXIT_USAGE
    code, _ = _run(["enumerate", "--input", "x", "--regular", "--all"])
    assert code == cli.EXIT_USAGE


def test_exit_parse(tmp_path):
    path = _write(tmp_path, "bad.txt", "points: [[0.5,0]]")
    code, _ = _run(["enumerate", "--input", path])
    assert code == cli.EXIT_PARSE


def test_exit_semantic(tmp_path):
    dup = _write(tmp_path, "dup.txt", "points: [[0,0],[0,0]]")
    code, _ = _run(["enumerate", "--input", dup])
    assert code == cli.EXIT_SEMANTIC
    badperm = _write(
        tmp_path, "perm.txt", "points: [[0,0],[1,0],[1,1],[0,1]]\nsymmetry: [[1,0,2,3]]\n"
    )
    code, _ = _run(["enumerate", "--input", badperm, "--orbits"])
    assert code == cli.EXIT_SEMANTIC
    missing = str(tmp_path / "does-not-exist.txt")
    code, _ = _run(["enumerate", "--input", missing])
    assert code == cli.EXIT_SEMANTIC


def test_exit_semantic_on_non_utf8_files(tmp_path, capsys):
    good_inp = _write(tmp_path, "square.txt", SQUARE_INPUT)
    good_tri = _write(tmp_path, "t.txt", "{{0,1,2},{0,2,3}}")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# caf\xe9\n")
    for argv in (
        ["enumerate", "--input", str(latin1)],
        ["regular", "--input", good_inp, "--triangulation", str(latin1)],
        ["regular", "--input", str(latin1), "--triangulation", good_tri],
    ):
        assert _run(argv) == (cli.EXIT_SEMANTIC, "")
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9")


def test_exit_resource(tmp_path, monkeypatch):
    from regulartri import symmetry

    monkeypatch.setattr(symmetry, "GROUP_ORDER_CAP", 2)
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    code, _ = _run(["enumerate", "--input", path, "--orbits"])
    assert code == cli.EXIT_RESOURCE


# -- installed entry point --------------------------------------------------


def test_module_entry_point(tmp_path):
    path = _write(tmp_path, "square.txt", SQUARE_INPUT)
    proc = subprocess.run(
        [sys.executable, "-m", "regulartri.cli", "enumerate", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "triangulations: 2\n"
