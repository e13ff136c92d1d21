"""Command-line front end.

Reports are JSON on stdout (one object, ``"schema": 1``; compact unless
--json asks for indentation) with a human summary on stderr.  Two commands
differ: ``enumerate`` streams one JSON object per poset, and ``export-dot``
without --dot prints the raw DOT text.  Exit codes:
0 ok, 1 verification failure, 2 input error, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .catalog import enumerate_signed_posets, iter_signed_posets
from .chains import (
    antichains,
    chain_polytope,
    compare_order_chain,
    enumerate_chains,
    is_reflexive,
    verify_antichain_characterization,
)
from .ehrhart import (
    count_points,
    ehrhart_polynomial,
    hstar_from_counts,
    poly_to_json,
    reciprocity_check,
)
from .errors import (
    AsymmetryViolation,
    CycleDetected,
    InternalInconsistency,
    NegativeHstar,
    NonIntegralHstar,
    OracleMismatch,
    ParseError,
    UnboundedSystem,
)
from .geometry import (
    order_polytope,
    order_polytope_irredundant,
    pos_neg_max,
    row_is_necessary,
    signed_filters,
    vertices,
)
from .gorenstein import check_fischer_symmetry, fischer_representation, hasse_dot, is_graded
from .jordan import is_naturally_labeled, jh_representative, jordan_holder, natdes
from .posetfile import PosetDocument, parse_poset
from .posets import SignedPoset, minimal_representation, to_bidirected_graph, bidirected_dot
from .verify import (
    check_fischer_halfspaces,
    check_gorenstein_triple,
    check_hstar_oracles,
    verify_catalog,
    verify_poset,
)

_INTERNAL = (InternalInconsistency, CycleDetected, NonIntegralHstar, NegativeHstar, UnboundedSystem)


def _load(args) -> tuple[PosetDocument, SignedPoset]:
    with open(args.posetfile, encoding="utf-8") as handle:
        doc = parse_poset(handle.read())
    return doc, doc.to_poset()


def _emit(args, command: str, input_echo: dict, results: dict,
          verification: dict, started: float, summary: str) -> int:
    report = {
        "schema": 1,
        "command": command,
        "input": input_echo,
        "results": results,
        "verification": verification,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    if summary:
        print(summary, file=sys.stderr)
    failed = [k for k, v in verification.items() if v is False]
    return 1 if failed else 0


def _echo(args, doc: PosetDocument) -> dict:
    return {"path": args.posetfile, "document": doc.to_json_dict()}


def cmd_validate(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    closed_input = frozenset(doc.generators) == p.roots
    results = {
        "n": p.n,
        "generators": [a.token() for a in doc.generators],
        "closure": p.tokens(),
        "size": len(p.roots),
        "generators_already_closed": closed_input,
    }
    verification = {"asymmetric": True, "closed": True}
    return _emit(args, "validate", _echo(args, doc), results, verification, started,
                 f"valid signed poset on [{p.n}] with {len(p.roots)} roots")


def cmd_closure(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    added = sorted(p.roots - frozenset(doc.generators))
    results = {"closure": p.tokens(), "added": [a.token() for a in added]}
    return _emit(args, "closure", _echo(args, doc), results, {}, started,
                 f"closure has {len(p.roots)} roots ({len(added)} beyond the generators)")


def cmd_minrep(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    m = minimal_representation(p)
    results = {"minimal": sorted(a.token() for a in m), "size": len(m)}
    return _emit(args, "minrep", _echo(args, doc), results,
                 {"regenerates": True}, started,
                 f"minimal representation has {len(m)} of {len(p.roots)} roots")


def cmd_hdesc(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
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
    return _emit(args, "hdesc", _echo(args, doc), results,
                 {"irredundant_rows_all_necessary": necessary}, started,
                 f"{len(full.rows)} rows total, {len(irr.rows)} after pruning")


def cmd_filters(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    f = signed_filters(p)
    results = {"filters": [list(x) for x in f], "count": len(f)}
    return _emit(args, "filters", _echo(args, doc), results,
                 {"matches_lattice_count": len(f) == count_points(order_polytope(p), 1)},
                 started, f"{len(f)} signed filters")


def cmd_vertices(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    v = vertices(p)
    filter_set = set(signed_filters(p))
    results = {"vertices": [list(x) for x in v], "count": len(v)}
    return _emit(args, "vertices", _echo(args, doc), results,
                 {"vertices_are_filters": set(v) <= filter_set}, started,
                 f"{len(v)} vertices among {len(filter_set)} filters")


def cmd_jh(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    jh = jordan_holder(p)
    results = {
        "jh": [list(w.images) for w in jh],
        "count": len(jh),
        "naturally_labeled": is_naturally_labeled(p),
        "representative": list(jh_representative(p).images),
        "descents": {str(i): sum(1 for w in jh if natdes(w).natdes == i)
                     for i in sorted({natdes(w).natdes for w in jh})},
    }
    return _emit(args, "jh", _echo(args, doc), results, {"nonempty": len(jh) >= 1},
                 started, f"|JH| = {len(jh)}")


def cmd_hstar(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    check = check_hstar_oracles(p)
    results = {
        "hstar": check.detail["by_descents"],
        "by_descents": check.detail["by_descents"],
        "by_counts": check.detail["by_counts"],
    }
    return _emit(args, "hstar", _echo(args, doc), results,
                 {"oracles_agree": check.passed}, started,
                 f"h* = {check.detail['by_descents']} (descents vs counts: "
                 f"{'agree' if check.passed else 'DISAGREE'})")


def cmd_ehrhart(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    system = order_polytope(p)
    ehr = ehrhart_polynomial(system, p.n)
    results = {
        "coefficients": poly_to_json(ehr),
        "counts": {str(t): count_points(system, t) for t in range(0, p.n + 1)},
        "hstar": list(hstar_from_counts(system, p.n)),
    }
    if args.t is not None:
        results["count_at_t"] = count_points(system, args.t)
        results["t"] = args.t
    return _emit(args, "ehrhart", _echo(args, doc), results,
                 {"reciprocity": reciprocity_check(system, p.n)}, started,
                 f"ehr(O_P) = {' + '.join(f'{c}t^{i}' for i, c in enumerate(poly_to_json(ehr)))}")


def cmd_gorenstein(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    check = check_gorenstein_triple(p)
    hstar = list(hstar_from_counts(order_polytope(p), p.n))
    results = dict(check.detail)
    results["gorenstein"] = bool(check.detail["graded"])
    results["hstar"] = hstar
    return _emit(args, "gorenstein", _echo(args, doc), results,
                 {"triple_consistent": check.passed}, started,
                 f"Gorenstein: {results['gorenstein']} (index {check.detail.get('counting_index')})")


def cmd_fischer(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    q = fischer_representation(p)
    report = is_graded(q)
    halfspace_check = check_fischer_halfspaces(p)
    results = {
        "poset": q.to_json_dict(),
        "graded": report.graded,
        "max_chain_length": report.max_chain_length,
        "rank": {str(k): v for k, v in sorted(report.rank.items())} if report.rank else None,
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(hasse_dot(q))
        results["dot"] = args.dot
    return _emit(args, "fischer", _echo(args, doc), results,
                 {"centrally_symmetric": check_fischer_symmetry(q),
                  "halfspaces_match_order_polytope": halfspace_check.passed},
                 started,
                 f"Fischer poset: {len(q.lt)} relations, graded = {report.graded}")


def cmd_chain_polytope(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    cp = chain_polytope(p)
    chains = enumerate_chains(p)
    results = {
        "system": cp.to_json_dict(),
        "chains": [c.to_json_dict() for c in chains],
        "chain_count": len(chains),
        "ehrhart": poly_to_json(ehrhart_polynomial(cp, p.n)),
    }
    return _emit(args, "chain-polytope", _echo(args, doc), results,
                 {"reflexive": is_reflexive(cp),
                  "origin_interior": cp.contains((0,) * p.n, strict=True)},
                 started, f"{len(chains)} chains, {len(cp.rows)} rows")


def cmd_antichains(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    anti = antichains(p)
    characterization = verify_antichain_characterization(p)
    results = {
        "antichains": [list(a) for a in anti],
        "count": len(anti),
        "characterization": characterization,
    }
    return _emit(args, "antichains", _echo(args, doc), results,
                 {"lattice_points_of_chain_polytope": characterization["match"]},
                 started, f"{len(anti)} antichains")


def cmd_compare(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    results = compare_order_chain(p)
    return _emit(args, "compare", _echo(args, doc), results, {}, started,
                 "O_P vs C_P: Ehrhart "
                 + ("equal" if results["ehrhart_equal"] else "different"))


def cmd_verify(args) -> int:
    started = time.monotonic()
    if args.posetfile:
        doc, p = _load(args)
        report = verify_poset(p)
        for c in report.checks:
            print(f"  {'ok  ' if c.passed else 'FAIL'} {c.name}", file=sys.stderr)
        return _emit(args, "verify", _echo(args, doc), report.to_json_dict(),
                     {"passed": report.passed}, started,
                     f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
    if args.n is None:
        raise ValueError("verify needs a poset file or --n")
    catalog = verify_catalog(args.n, force=args.force,
                             log=lambda msg: print(msg, file=sys.stderr))
    return _emit(args, "verify", {"n": args.n}, catalog.to_json_dict(),
                 {"passed": catalog.passed}, started,
                 f"{catalog.poset_count} posets on [{args.n}] verified: "
                 + ("all checks passed" if catalog.passed else "FAILURES FOUND"))


def cmd_enumerate(args) -> int:
    started = time.monotonic()
    if args.n is None:
        raise ValueError("enumerate needs --n")
    count = 0
    if args.up_to_iso:
        posets = enumerate_signed_posets(args.n, up_to_iso=True, force=args.force)
    else:
        posets = iter_signed_posets(args.n, force=args.force)
    for p in posets:
        print(json.dumps({"n": args.n, "roots": p.tokens()},
                         sort_keys=True, separators=(",", ":")))
        count += 1
    label = "isomorphism classes" if args.up_to_iso else "signed posets"
    print(f"{count} {label} on [{args.n}] "
          f"({int((time.monotonic() - started) * 1000)} ms)", file=sys.stderr)
    return 0


def cmd_export_dot(args) -> int:
    started = time.monotonic()
    doc, p = _load(args)
    dot = bidirected_dot(to_bidirected_graph(p))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
        return _emit(args, "export-dot", _echo(args, doc),
                     {"dot": args.dot, "edges": len(p.roots)}, {}, started,
                     f"wrote {args.dot}")
    print(dot, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedposets",
        description="Signed posets and their order, cone, and chain geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    file_commands = {
        "validate": (cmd_validate, "parse, close, and validate a poset file"),
        "closure": (cmd_closure, "positive linear closure of the generators"),
        "minrep": (cmd_minrep, "minimal representation (analogue of cover relations)"),
        "hdesc": (cmd_hdesc, "full and irredundant halfspace descriptions of O_P"),
        "filters": (cmd_filters, "signed filters = lattice points of O_P"),
        "vertices": (cmd_vertices, "vertices of O_P"),
        "jh": (cmd_jh, "Jordan-Holder set and descent statistics"),
        "hstar": (cmd_hstar, "h* by descents and by lattice counts"),
        "ehrhart": (cmd_ehrhart, "Ehrhart polynomial of O_P"),
        "gorenstein": (cmd_gorenstein, "Gorenstein test with the cross-checked triple"),
        "fischer": (cmd_fischer, "Fischer representation on {-n..n}"),
        "chain-polytope": (cmd_chain_polytope, "signed chains and C_P"),
        "antichains": (cmd_antichains, "antichains and the C_P lattice-point match"),
        "compare": (cmd_compare, "O_P versus C_P"),
        "export-dot": (cmd_export_dot, "bidirected-graph DOT export"),
    }
    for name, (fn, help_text) in file_commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("posetfile", help="poset file (n = ..., roots: ...)")
        cmd.add_argument("--json", action="store_true", help="indent the JSON report")
        if name == "ehrhart":
            cmd.add_argument("--t", type=int, default=None, help="also count at this dilate")
        if name in ("fischer", "export-dot"):
            cmd.add_argument("--dot", metavar="PATH", default=None,
                             help="write DOT here")
        cmd.set_defaults(func=fn)

    ver = sub.add_parser("verify", help="cross-oracle suite for a file or a whole catalog")
    ver.add_argument("posetfile", nargs="?", default=None)
    ver.add_argument("--n", type=int, default=None, help="verify every signed poset on [n]")
    ver.add_argument("--force", action="store_true", help="allow n >= 4")
    ver.add_argument("--json", action="store_true", help="indent the JSON report")
    ver.set_defaults(func=cmd_verify)

    enum = sub.add_parser("enumerate", help="stream every signed poset on [n] as JSON lines")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--up-to-iso", action="store_true", dest="up_to_iso",
                      help="one representative per isomorphism class")
    enum.add_argument("--force", action="store_true", help="allow n >= 4")
    enum.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AsymmetryViolation, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.evidence:
            print(json.dumps({"schema": 1, "error": "oracle-mismatch",
                              "evidence": exc.evidence}, sort_keys=True))
        return 1
    except _INTERNAL as exc:
        print(f"internal inconsistency: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
