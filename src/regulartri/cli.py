"""Command-line interface.

Input files use a small key/value grammar::

    # integer points, one configuration per file
    points: [[0,0],[1,0],[1,1],[0,1]]
    symmetry: [[1,2,3,0]]          # optional label permutations (generators)

and a triangulation file (`regular`, `flips`) holds one literal such as
`{{0,1,2},{0,2,3}}`.  One scanner reads both: whitespace and `#` comments
may stand between tokens, numbers are integers, and a syntax error reports
its line and column.  It exits with code 2 in an input file and with code 3
in a triangulation file, like other semantically bad input (duplicate
points, invalid permutations or triangulations, unreadable or non-UTF-8
files); usage errors exit 1; explicit resource-budget breaches exit 4.
All output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    InvalidInputError,
    ParseError,
    RegulartriError,
    ResourceLimitError,
)
from .flips import find_flips
from .points import PointConfiguration, as_count
from .regularity import is_regular, regular_flips
from .search import DEFAULT_CACHE_CAPACITY, SearchMode, enumerate_triangulations
from .symmetry import canonical_form, expand_group, relabel
from .triangulation import Scanner, parse_triangulation, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_RESOURCE = 4


def _parse_key(sc: Scanner) -> str:
    word = ""
    while sc.peek().isalpha() or sc.peek() == "_":
        word += sc.advance()
    if not word:
        sc.error(f"expected a key ('points' or 'symmetry'), found {sc.found()}")
    return word


def parse_input(text: str) -> dict:
    """Parse an input file into {'points': [...], 'symmetry': [...] or None}."""
    sc = Scanner(text)
    seen = {}
    while sc.skip_blank():
        key = _parse_key(sc)
        if key not in ("points", "symmetry"):
            sc.error(f"unknown key {key!r} (expected 'points' or 'symmetry')")
        if key in seen:
            sc.error(f"duplicate key {key!r}")
        sc.expect(":")
        seen[key] = sc.parse_list(lambda: sc.parse_list(sc.parse_int, "[]"), "[]")
    if "points" not in seen:
        sc.error("missing required key 'points'")
    return {"points": seen["points"], "symmetry": seen.get("symmetry")}


def _load(path: str, parse=parse_input):
    """`parse` applied to the text of the file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise InvalidInputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"cannot read {path}: {e}") from None


def _config_and_triangulation(args):
    """The configuration and the validated triangulation of `regular`/`flips`."""
    config = PointConfiguration(_load(args.input)["points"])
    t = _load(args.triangulation, parse_triangulation)
    check = validate(config, t)
    if not check:
        raise InvalidInputError(f"invalid triangulation ({check.kind}): {check.detail}")
    return config, t


def _format_tuple(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _format_index_set(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


# -- subcommands --------------------------------------------------------


def cmd_enumerate(args, out) -> int:
    data = _load(args.input)
    config = PointConfiguration(data["points"])
    group = None
    if args.orbits:
        if data["symmetry"] is None:
            raise InvalidInputError("--orbits requires a 'symmetry' key in the input")
        group = expand_group(config, data["symmetry"])

    mode = SearchMode.ALL_FLIPS if args.all else SearchMode.REGULAR_ONLY
    lines = []
    forms = set()
    # Regular-mode --orbits walks one representative per orbit; --all and
    # --baseline enumerate every triangulation and canonicalise each one,
    # which also serves as the cross-check of the orbit walk.
    orbit_walk = group is not None and not args.all and not args.baseline
    if orbit_walk:
        def print_orbit(rep, gkz_vec, depth):
            # One permutation per distinct member; relabelling by perm moves
            # GKZ entry i to position perm[i].  The stabiliser counts the
            # perms that fix the GKZ vector, independently of the members.
            members = {}
            stabiliser = 0
            for perm in group:
                members.setdefault(relabel(rep, perm), perm)
                stabiliser += all(gkz_vec[j] == x for j, x in zip(perm, gkz_vec))
            if len(members) * stabiliser != len(group):
                raise RegulartriError(
                    f"orbit of {rep.canonical()} has {len(members)} members, "
                    f"expected |G|/|Stab| = {len(group)}/{stabiliser}"
                )
            image = [0] * len(gkz_vec)
            for t, perm in members.items():
                for i, x in enumerate(gkz_vec):
                    image[perm[i]] = x
                lines.append(f"{t.canonical()} {_format_tuple(image)}")

        visitor = print_orbit if args.print_triangulations else None
    elif args.print_triangulations or group is not None:
        def visitor(t, gkz_vec, depth):
            if args.print_triangulations:
                lines.append(f"{t.canonical()} {_format_tuple(gkz_vec)}")
            if group is not None:
                forms.add(canonical_form(t, group))
    else:
        visitor = None  # nothing to print or canonicalise

    count, stats = enumerate_triangulations(
        config,
        mode=mode,
        visitor=visitor,
        cache_capacity=args.flip_cache,
        baseline=args.baseline,
        group=group if orbit_walk else None,
    )
    for line in sorted(lines):
        out.write(line + "\n")
    out.write(f"triangulations: {count}\n")
    if group is not None:
        out.write(f"orbits: {stats.nodes if orbit_walk else len(forms)}\n")
    if args.stats:
        out.write(f"nodes: {stats.nodes}\n")
        out.write(f"flips_evaluated: {stats.flips_evaluated}\n")
        out.write(f"reductions_r1: {stats.rays.r1}\n")
        out.write(f"reductions_r2: {stats.rays.r2}\n")
        out.write(f"reductions_r3: {stats.rays.r3}\n")
        out.write(f"reductions_r4: {stats.rays.r4}\n")
        out.write(f"kernel_decided: {stats.rays.kernel}\n")
        out.write(f"signed_confirmed: {stats.rays.signed}\n")
        out.write(f"scalar_tests: {stats.rays.scalar_tests}\n")
        out.write(f"lps_solved: {stats.rays.lps_solved}\n")
        out.write(f"lp_generators: {stats.rays.lp_generators}\n")
        out.write(f"lp_generators_max: {stats.rays.lp_generators_max}\n")
        out.write(f"cache_hits: {stats.cache_hits}\n")
        out.write(f"cache_misses: {stats.cache_misses}\n")
    return EXIT_OK


def cmd_regular(args, out) -> int:
    config, t = _config_and_triangulation(args)
    verdict = is_regular(config, t)
    if verdict.regular:
        out.write("regular\n")
        out.write(f"heights: {_format_tuple(verdict.heights)}\n")
    else:
        out.write("non-regular\n")
        out.write(f"certificate: {_format_tuple(verdict.certificate)}\n")
    return EXIT_OK


def cmd_flips(args, out) -> int:
    config, t = _config_and_triangulation(args)
    flips = find_flips(config, t)
    verdicts = None
    if is_regular(config, t).regular:
        good = regular_flips(config, t, flips)
        verdicts = [f in good for f in flips]
    for k, f in enumerate(flips):
        circuit = (
            f"{_format_index_set(f.circuit.plus)}"
            f"|{_format_index_set(f.circuit.zero)}"
            f"|{_format_index_set(f.circuit.minus)}"
        )
        line = f"circuit: {circuit} delta: {_format_tuple(f.delta)}"
        if verdicts is not None:
            line += f" regular: {'yes' if verdicts[k] else 'no'}"
        out.write(line + "\n")
    return EXIT_OK


# -- entry point ---------------------------------------------------------


def _cache_capacity(text: str) -> int:
    try:
        return as_count(int(text), "cache capacity")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    except InvalidInputError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regulartri",
        description="Enumerate triangulations of integer point configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate triangulations by reverse search")
    enum.add_argument("--input", required=True, help="input file with points/symmetry")
    scope = enum.add_mutually_exclusive_group()
    scope.add_argument(
        "--regular", action="store_true",
        help="enumerate regular triangulations only (default)",
    )
    scope.add_argument(
        "--all", action="store_true",
        help="follow all flips, not only those with regular targets "
             "(reverse search then covers one sink's tree; combine with "
             "--baseline for the full connected component)",
    )
    enum.add_argument(
        "--print", dest="print_triangulations", action="store_true",
        help="print one canonical triangulation and GKZ-vector per line",
    )
    enum.add_argument("--stats", action="store_true", help="print run counters")
    enum.add_argument(
        "--flip-cache", type=_cache_capacity, metavar="N",
        default=DEFAULT_CACHE_CAPACITY,
        help="flip-list cache capacity (0 disables caching; default %(default)s)",
    )
    enum.add_argument(
        "--orbits", action="store_true",
        help="count orbits under the input's symmetry group",
    )
    enum.add_argument(
        "--baseline", action="store_true",
        help="use the visited-set DFS instead of reverse search (cross-check)",
    )

    reg = sub.add_parser("regular", help="decide regularity of one triangulation")
    reg.add_argument("--input", required=True)
    reg.add_argument("--triangulation", required=True,
                     help="file containing a {{...},{...}} triangulation literal")

    fl = sub.add_parser("flips", help="list the flips of one triangulation")
    fl.add_argument("--input", required=True)
    fl.add_argument("--triangulation", required=True)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args, out)
        if args.command == "regular":
            return cmd_regular(args, out)
        return cmd_flips(args, out)
    except ParseError as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_PARSE
    except ResourceLimitError as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return EXIT_RESOURCE
    except RegulartriError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
