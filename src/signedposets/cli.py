"""Command-line front end.

COMMANDS is the one table that both builds the parser and dispatches.  Each
command is ``cmd_x(args, doc, p) -> (results, verification, summary)``;
`run` reads and closes the poset file, times the command, and prints the
report as JSON on stdout (one object, ``"schema": 1``; compact unless --json
asks for indentation) and the summary on stderr.  ``verify --n`` reports on
a whole catalog, with input ``{"n": n}``.  ``enumerate`` (JSON lines) and
``export-dot`` without --dot (raw DOT) print their own output and return no
results; their summary carries the elapsed time.

A process loads only the modules its command uses: each ``cmd_x``, and
`run`, imports what it calls in its own body, and the module level imports
nothing of the package but `errors`.  So ``validate``, ``closure``,
``minrep`` and ``export-dot`` load `posetfile` and `posets` and what those
import; ``hstar``, ``gorenstein``, ``fischer`` and ``verify`` load the whole
package through `verify`, where their cross-checks live.

Exit codes, decided in `main` alone: 0 ok; 1 a verification field is false;
2 bad input (an unreadable or non-UTF-8 file, a parse error, asymmetric
generators, a bad argument, ``verify`` given both a file and --n, or n ≥ 4
without --force); 3 anything else, an internal inconsistency, reported
without a traceback; 141, silently, when the reader of stdout goes away (as
a shell reports SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .errors import InputError


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_validate(args, doc, p):
    from .posets import closed_by_filters

    results = {
        "n": p.n,
        "generators": [a.token() for a in doc.generators],
        "closure": p.tokens(),
        "size": len(p.roots),
        "generators_already_closed": frozenset(doc.generators) == p.roots,
    }
    return (results, {"closed": closed_by_filters(p)},
            f"valid signed poset on [{p.n}] with {len(p.roots)} roots")


def cmd_closure(args, doc, p):
    added = sorted(p.roots - frozenset(doc.generators))
    results = {"closure": p.tokens(), "added": [a.token() for a in added]}
    return results, {}, f"closure has {len(p.roots)} roots ({len(added)} beyond the generators)"


def cmd_minrep(args, doc, p):
    from .posets import derives, minimal_representation

    m = minimal_representation(p)
    results = {"minimal": sorted(a.token() for a in m), "size": len(m)}
    return (results, {"regenerates": derives(m, p)},
            f"minimal representation has {len(m)} of {len(p.roots)} roots")


def cmd_hdesc(args, doc, p):
    from .geometry import order_polytope, order_polytope_irredundant, pos_neg_max, row_is_necessary

    full = order_polytope(p)
    irr = order_polytope_irredundant(p)
    pmax, nmax = pos_neg_max(p)
    necessary = all(row_is_necessary(irr, i) for i in range(len(irr.rows)))
    results = {
        "full": full.to_json_dict(),
        "irredundant": irr.to_json_dict(),
        "pmax": sorted(pmax),
        "nmax": sorted(nmax),
    }
    return (results, {"irredundant_rows_all_necessary": necessary},
            f"{len(full.rows)} rows total, {len(irr.rows)} after pruning")


def cmd_filters(args, doc, p):
    from .ehrhart import count_points
    from .geometry import order_polytope, signed_filters

    f = signed_filters(p)
    results = {"filters": [list(x) for x in f], "count": len(f)}
    return (results, {"matches_lattice_count": len(f) == count_points(order_polytope(p), 1)},
            f"{len(f)} signed filters")


def cmd_vertices(args, doc, p):
    from .geometry import signed_filters, vertices

    v = vertices(p)
    filter_set = set(signed_filters(p))
    results = {"vertices": [list(x) for x in v], "count": len(v)}
    return (results, {"vertices_are_filters": set(v) <= filter_set},
            f"{len(v)} vertices among {len(filter_set)} filters")


def cmd_jh(args, doc, p):
    from .jordan import is_naturally_labeled, jh_representative, jordan_holder, natdes

    jh = jordan_holder(p)
    results = {
        "jh": [list(w.images) for w in jh],
        "count": len(jh),
        "naturally_labeled": is_naturally_labeled(p),
        "representative": list(jh_representative(p).images),
        "descents": {str(i): sum(1 for w in jh if natdes(w).natdes == i)
                     for i in sorted({natdes(w).natdes for w in jh})},
    }
    return results, {"nonempty": len(jh) >= 1}, f"|JH| = {len(jh)}"


def cmd_hstar(args, doc, p):
    from .verify import check_hstar_oracles

    check = check_hstar_oracles(p)
    results = {
        "hstar": check.detail["by_descents"],
        "by_descents": check.detail["by_descents"],
        "by_counts": check.detail["by_counts"],
    }
    return (results, {"oracles_agree": check.passed},
            f"h* = {check.detail['by_descents']} (descents vs counts: "
            f"{'agree' if check.passed else 'DISAGREE'})")


def cmd_ehrhart(args, doc, p):
    from .ehrhart import (
        count_points, ehrhart_polynomial, hstar_from_counts, poly_to_json, reciprocity_check,
    )
    from .geometry import order_polytope

    system = order_polytope(p)
    ehr = ehrhart_polynomial(system)
    results = {
        "coefficients": poly_to_json(ehr),
        "counts": {str(t): count_points(system, t) for t in range(0, p.n + 1)},
        "hstar": list(hstar_from_counts(system)),
    }
    if args.t is not None:
        results["count_at_t"] = count_points(system, args.t)
        results["t"] = args.t
    return (results, {"reciprocity": reciprocity_check(system)},
            f"ehr(O_P) = {' + '.join(f'{c}t^{i}' for i, c in enumerate(poly_to_json(ehr)))}")


def cmd_gorenstein(args, doc, p):
    from .ehrhart import hstar_from_counts
    from .geometry import order_polytope
    from .verify import check_gorenstein_triple

    check = check_gorenstein_triple(p)
    results = dict(check.detail)
    results["gorenstein"] = bool(check.detail["graded"])
    results["hstar"] = list(hstar_from_counts(order_polytope(p)))
    return (results, {"triple_consistent": check.passed},
            f"Gorenstein: {results['gorenstein']} (index {check.detail.get('counting_index')})")


def cmd_fischer(args, doc, p):
    from .gorenstein import (
        check_fischer_symmetry, fischer_representation, hasse_dot, is_graded,
        minimal_fischer_representation,
    )
    from .verify import check_fischer_halfspaces

    q = minimal_fischer_representation(p)
    report = is_graded(q)
    results = {
        "poset": q.to_json_dict(),
        "graded": report.graded,
        "max_chain_length": report.max_chain_length,
        "rank": {str(k): v for k, v in sorted(report.rank.items())} if report.rank else None,
    }
    if args.dot:
        _write(args.dot, hasse_dot(q))
        results["dot"] = args.dot
    verification = {
        "centrally_symmetric": check_fischer_symmetry(fischer_representation(p)),
        "halfspaces_match_order_polytope": check_fischer_halfspaces(p).passed,
    }
    return results, verification, f"Fischer poset: {len(q.lt)} relations, graded = {report.graded}"


def cmd_chain_polytope(args, doc, p):
    from .chains import chain_polytope, enumerate_chains, is_reflexive
    from .ehrhart import ehrhart_polynomial, poly_to_json

    cp = chain_polytope(p)
    chains = enumerate_chains(p)
    results = {
        "system": cp.to_json_dict(),
        "chains": [c.to_json_dict() for c in chains],
        "chain_count": len(chains),
        "ehrhart": poly_to_json(ehrhart_polynomial(cp)),
    }
    verification = {
        "reflexive": is_reflexive(cp),
        "origin_interior": cp.contains((0,) * p.n, strict=True),
    }
    return results, verification, f"{len(chains)} chains, {len(cp.rows)} rows"


def cmd_antichains(args, doc, p):
    from .chains import antichains, verify_antichain_characterization

    anti = antichains(p)
    characterization = verify_antichain_characterization(p)
    results = {
        "antichains": [list(a) for a in anti],
        "count": len(anti),
        "characterization": characterization,
    }
    return (results, {"lattice_points_of_chain_polytope": characterization["match"]},
            f"{len(anti)} antichains")


def cmd_compare(args, doc, p):
    from .chains import compare_order_chain

    results = compare_order_chain(p)
    return (results, {},
            "O_P vs C_P: Ehrhart " + ("equal" if results["ehrhart_equal"] else "different"))


def cmd_export_dot(args, doc, p):
    from .posets import bidirected_dot

    dot = bidirected_dot(p)
    if not args.dot:
        print(dot, end="")
        return None, {}, ""
    _write(args.dot, dot)
    return {"dot": args.dot, "edges": len(p.roots)}, {}, f"wrote {args.dot}"


def cmd_verify(args, doc, p):
    from .verify import verify_catalog, verify_poset

    if p is not None:
        if args.n is not None:
            raise InputError("verify takes a poset file or --n, not both")
        report = verify_poset(p)
        lines = [f"  {'ok  ' if c.passed else 'FAIL'} {c.name}" for c in report.checks]
        lines.append(f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
        return report.to_json_dict(), {"passed": report.passed}, "\n".join(lines)
    if args.n is None:
        raise InputError("verify needs a poset file or --n")
    catalog = verify_catalog(args.n, force=args.force,
                             log=lambda msg: print(msg, file=sys.stderr))
    return (catalog.to_json_dict(), {"passed": catalog.passed},
            f"{catalog.poset_count} posets on [{args.n}] verified: "
            + ("all checks passed" if catalog.passed else "FAILURES FOUND"))


def cmd_enumerate(args, doc, p):
    from .catalog import enumerate_signed_posets, iter_signed_posets

    if args.up_to_iso:
        posets = enumerate_signed_posets(args.n, up_to_iso=True, force=args.force)
    else:
        posets = iter_signed_posets(args.n, force=args.force)
    count = 0
    for q in posets:
        print(json.dumps({"n": args.n, "roots": q.tokens()},
                         sort_keys=True, separators=(",", ":")))
        count += 1
    label = "isomorphism classes" if args.up_to_iso else "signed posets"
    return None, {}, f"{count} {label} on [{args.n}]"


def _dilate(text: str) -> int:
    """argparse type of --t: a dilation factor, an integer t ≥ 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer t >= 0, got {text!r}")
    return int(text)


_FILE = ("posetfile", {"help": "poset file (n = ..., roots: ...)"})
_JSON = ("--json", {"action": "store_true", "help": "indent the JSON report"})
_DOT = ("--dot", {"metavar": "PATH", "default": None, "help": "write DOT here"})
_FORCE = ("--force", {"action": "store_true", "help": "allow n >= 4"})
_FILE_ARGS = (_FILE, _JSON)

# name -> (command, help, arguments as (flag, add_argument keywords))
COMMANDS = {
    "validate": (cmd_validate, "parse, close, and validate a poset file", _FILE_ARGS),
    "closure": (cmd_closure, "positive linear closure of the generators", _FILE_ARGS),
    "minrep": (cmd_minrep, "minimal representation (analogue of cover relations)", _FILE_ARGS),
    "hdesc": (cmd_hdesc, "full and irredundant halfspace descriptions of O_P", _FILE_ARGS),
    "filters": (cmd_filters, "signed filters = lattice points of O_P", _FILE_ARGS),
    "vertices": (cmd_vertices, "vertices of O_P", _FILE_ARGS),
    "jh": (cmd_jh, "Jordan-Holder set and descent statistics", _FILE_ARGS),
    "hstar": (cmd_hstar, "h* by descents and by lattice counts", _FILE_ARGS),
    "ehrhart": (cmd_ehrhart, "Ehrhart polynomial of O_P", _FILE_ARGS + (
        ("--t", {"type": _dilate, "default": None, "help": "also count at this dilate"}),)),
    "gorenstein": (cmd_gorenstein, "Gorenstein test with the cross-checked triple", _FILE_ARGS),
    "fischer": (cmd_fischer, "Fischer poset of the minimal representation", _FILE_ARGS + (_DOT,)),
    "chain-polytope": (cmd_chain_polytope, "signed chains and C_P", _FILE_ARGS),
    "antichains": (cmd_antichains, "antichains and the C_P lattice-point match", _FILE_ARGS),
    "compare": (cmd_compare, "O_P versus C_P", _FILE_ARGS),
    "export-dot": (cmd_export_dot, "bidirected-graph DOT export", _FILE_ARGS + (_DOT,)),
    "verify": (cmd_verify, "cross-oracle suite for a file or a whole catalog", (
        ("posetfile", {"nargs": "?", "default": None}),
        ("--n", {"type": int, "default": None, "help": "verify every signed poset on [n]"}),
        _FORCE,
        _JSON,
    )),
    "enumerate": (cmd_enumerate, "stream every signed poset on [n] as JSON lines", (
        ("--n", {"type": int, "required": True}),
        ("--up-to-iso", {"action": "store_true",
                         "help": "one representative per isomorphism class"}),
        _FORCE,
        ("--json", {"action": "store_true", "help": argparse.SUPPRESS}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedposets",
        description="Signed posets and their order, cone, and chain geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
        cmd.set_defaults(func=fn)
    return parser


def run(args) -> int:
    """Load the poset file if one is named, run the command, print its report."""
    from .posetfile import parse_poset

    started = time.monotonic()
    doc = p = None
    if getattr(args, "posetfile", None) is not None:
        with open(args.posetfile, encoding="utf-8") as handle:
            doc = parse_poset(handle.read())
        p = doc.to_poset()
    results, verification, summary = args.func(args, doc, p)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if results is None:
        if summary:
            summary += f" ({elapsed_ms} ms)"
    else:
        report = {
            "schema": 1,
            "command": args.command,
            "input": {"n": args.n} if doc is None
            else {"path": args.posetfile, "document": doc.to_json_dict()},
            "results": results,
            "verification": verification,
            "timing_ms": elapsed_ms,
        }
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    # Flush here, not at interpreter shutdown, so a reader that has gone away
    # raises BrokenPipeError inside `main`'s try.
    sys.stdout.flush()
    if summary:
        print(summary, file=sys.stderr)
    return 1 if any(v is False for v in verification.values()) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except BrokenPipeError:
        # The reader closed stdout early (`... | head -1`); the input is fine.
        # Point stdout at devnull so the flush at interpreter shutdown does
        # not raise again, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal inconsistency: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
