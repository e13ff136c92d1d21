"""Answers computed apart from signedposets, and the checks built on them.

Nothing here imports the library.  Roots are integer vectors parsed from the
tokens the program prints, closure is Reiner's pairwise rule (alpha, beta in P
and c*alpha + d*beta in B_n for some c, d > 0 put that root in P) solved as
2x2 integer Cramer systems, and Ehrhart counts are direct scans of the
dilated cube.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations, permutations, product

_PART = re.compile(r"([+-])(\d+)")

CHECK_COUNT = 13  # verify.ALL_CHECKS at the time the benchmark was written


def root_vector(token: str, n: int) -> tuple[int, ...]:
    """'-1+2' -> (-1, 1) in Z^n; indices strictly increasing, one or two of them."""
    parts = _PART.findall(token)
    indices = [int(i) for _, i in parts]
    if (
        not 1 <= len(parts) <= 2
        or "".join(s + i for s, i in parts) != token
        or indices != sorted(set(indices))
        or not all(1 <= i <= n for i in indices)
    ):
        raise ValueError(f"not a root of B_{n}: {token!r}")
    v = [0] * n
    for s, i in parts:
        v[int(i) - 1] = 1 if s == "+" else -1
    return tuple(v)


def root_token(v: tuple[int, ...]) -> str:
    return "".join(f"{'+' if x > 0 else '-'}{i + 1}" for i, x in enumerate(v) if x)


def roots_of(n: int) -> list[tuple[int, ...]]:
    """The 2n^2 vectors of B_n: ±e_i and ±e_i ± e_j."""
    out = []
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            out.append(tuple(v))
    for i, j in combinations(range(n), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            out.append(tuple(v))
    return out


def pairwise_table(n: int) -> dict[frozenset, tuple[tuple[int, ...], ...]]:
    """For each pair {a, b} of distinct non-antipodal roots, the roots c*a + d*b with c, d > 0."""
    roots = roots_of(n)
    table = {}
    for a, b in combinations(roots, 2):
        if all(x == -y for x, y in zip(a, b)):
            continue
        # Distinct non-antipodal roots are independent, so some 2x2 minor is nonzero.
        i, j = next(
            (i, j) for i, j in combinations(range(n), 2) if a[i] * b[j] - a[j] * b[i]
        )
        det = a[i] * b[j] - a[j] * b[i]
        found = []
        for g in roots:
            dc = g[i] * b[j] - g[j] * b[i]  # c = dc / det
            dd = a[i] * g[j] - a[j] * g[i]  # d = dd / det
            if dc * det > 0 and dd * det > 0 and all(
                det * g[k] == dc * a[k] + dd * b[k] for k in range(n)
            ):
                found.append(g)
        table[frozenset((a, b))] = tuple(found)
    return table


def is_asymmetric(roots) -> bool:
    s = set(roots)
    return not any(tuple(-x for x in v) in s for v in s)


def is_pairwise_closed(roots, table) -> bool:
    s = set(roots)
    for a, b in combinations(s, 2):
        implied = table.get(frozenset((a, b)), ())
        if not s.issuperset(implied):
            return False
    return True


def reiner_catalog(n: int) -> set[frozenset]:
    """Every asymmetric root set on [n] closed under the pairwise rule."""
    roots = roots_of(n)
    index = {v: k for k, v in enumerate(roots)}
    table = pairwise_table(n)
    implied = {}
    for key, found in table.items():
        mask = 0
        for g in found:
            mask |= 1 << index[g]
        implied[tuple(sorted(index[v] for v in key))] = mask
    antipodal = []
    for v in roots:
        neg = tuple(-x for x in v)
        if index[v] < index[neg]:
            antipodal.append((index[v], index[neg]))
    out = set()
    for choice in product((None, 0, 1), repeat=len(antipodal)):
        members = sorted(pair[c] for pair, c in zip(antipodal, choice) if c is not None)
        mask = sum(1 << k for k in members)
        if all(
            implied[(i, j)] & ~mask == 0 for i, j in combinations(members, 2)
        ):
            out.add(frozenset(roots[k] for k in members))
    return out


def lattice_count(rows, n: int, t: int) -> int:
    """|{x in [-t, t]^n : <a, x> >= 0 for every row a}|, by scanning the box."""
    sparse = [tuple((i, c) for i, c in enumerate(a) if c) for a in rows]
    count = 0
    for x in product(range(-t, t + 1), repeat=n):
        for row in sparse:
            if sum(c * x[i] for i, c in row) < 0:
                break
        else:
            count += 1
    return count


def jh_size(rows, n: int) -> int:
    """|JH(P)|: signed permutations w with <a, (w(1), ..., w(n))> >= 0 for every row a."""
    sparse = [tuple((i, c) for i, c in enumerate(a) if c) for a in rows]
    count = 0
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            w = [s * v for s, v in zip(signs, perm)]
            if all(sum(c * w[i] for i, c in row) >= 0 for row in sparse):
                count += 1
    return count


def ehrhart_from_hstar(hstar, n: int, t: int) -> int:
    """ehr(t) = sum_j h*_j C(t + n - j, n)."""
    return sum(h * math.comb(t + n - j, n) for j, h in enumerate(hstar))


def hstar_problems(hstar, rows, n: int, ts) -> list[str]:
    """h* against lattice scans of t*O_P, where O_P is cut out by `rows` inside the cube."""
    out = []
    for t in ts:
        expected = lattice_count(rows, n, t)
        got = ehrhart_from_hstar(hstar, n, t)
        if got != expected:
            out.append(f"h*={list(hstar)} gives ehr({t})={got}, lattice scan {expected}")
    return out


def closure_problems(closure_tokens, generator_tokens, n: int, table) -> list[str]:
    closure = {root_vector(tok, n) for tok in closure_tokens}
    out = []
    if not is_asymmetric(closure):
        out.append("closure is not asymmetric")
    if not is_pairwise_closed(closure, table):
        out.append("closure is not closed under the pairwise rule")
    missing = {root_vector(tok, n) for tok in generator_tokens} - closure
    if missing:
        out.append(f"closure lacks generators {sorted(root_token(v) for v in missing)}")
    return out


def filter_problems(count: int, generator_tokens, n: int) -> list[str]:
    rows = [root_vector(tok, n) for tok in generator_tokens]
    expected = lattice_count(rows, n, 1)
    return [] if count == expected else [f"filter count {count}, scan of {{-1,0,1}}^{n} gives {expected}"]


def verify_report_problems(report: dict, rows, n: int, ts) -> list[str]:
    """A verify_poset report (as JSON) must pass all checks and carry the right h* and |JH|."""
    out = []
    checks = report.get("checks", [])
    if len(checks) != CHECK_COUNT:
        out.append(f"{len(checks)} checks, expected {CHECK_COUNT}")
    failed = [c["name"] for c in checks if c.get("passed") is not True]
    if failed or report.get("passed") is not True:
        out.append(f"failed checks {failed}")
    oracle = next((c for c in checks if c["name"] == "hstar-oracles"), None)
    if oracle is None:
        return out + ["no hstar-oracles check"]
    hstar = oracle["detail"]["by_descents"]
    out += hstar_problems(hstar, rows, n, ts)
    if sum(hstar) != oracle["detail"]["jh_size"]:
        out.append(f"sum of h* {sum(hstar)} != jh_size {oracle['detail']['jh_size']}")
    if oracle["detail"]["jh_size"] != jh_size(rows, n):
        out.append(f"jh_size {oracle['detail']['jh_size']}, signed-permutation scan {jh_size(rows, n)}")
    return out


def cli_problems(command: str, returncode: int, stdout: str, doc: dict, table) -> list[str]:
    """One CLI report: exit 0, schema-1 JSON for `command`, all verification true,
    plus the command's own oracle.  `doc` is {"n": n, "roots": generator tokens}."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON object"]
    if not isinstance(report, dict):
        return ["stdout is not one JSON object"]
    out = []
    if report.get("schema") != 1:
        out.append(f"schema {report.get('schema')!r}")
    if report.get("command") != command:
        out.append(f"command {report.get('command')!r}, expected {command!r}")
    false = [k for k, v in report.get("verification", {}).items() if v is not True]
    if false:
        out.append(f"verification fields not true: {false}")
    results = report.get("results", {})
    n, gens = doc["n"], doc["roots"]
    rows = [root_vector(tok, n) for tok in gens]
    if command == "hstar":
        out += hstar_problems(results["hstar"], rows, n, range(1, n + 1))
    elif command == "closure":
        out += closure_problems(results["closure"], gens, n, table)
    elif command == "filters":
        out += filter_problems(results["count"], gens, n)
        if len(results["filters"]) != results["count"]:
            out.append("filter list and count disagree")
    elif command == "verify":
        out += verify_report_problems(results, rows, n, range(1, n + 1))
    return out
