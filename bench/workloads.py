"""The three workloads: seeded inputs, one operation each, and its output check.

Inputs depend only on the workload name and `--seed`.  `draw` makes the
benchmark's seeded choices, `build` turns them into inputs through the
library (the timed set-up), and `round` gives each round's operations.
Rounds have a fixed make-up, and a run attempts whole rounds, so every run
of a workload attempts the same mix of operations.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import oracles

import signedposets
from signedposets import verify
from signedposets.errors import AsymmetryViolation

CATALOG_ROUND = 24  # posets per catalog-n3 round (about 3.5 s here)
# One sweep-n4 round: (generators, lowest |JH|, highest |JH|) per poset.
# Operation time follows |JH|, the number of triangulation cells: about
# 5.5 s for k = 1, 2.3 s for k = 2 and 1.0 to 1.6 s for k = 3 and 4 here,
# with wide gaps between the three bands.  Unstratified draws let the
# median move by a third from seed to seed, and a make-up whose median or
# 90th percentile falls between two bands moves with every operation on
# either side.  Here, for any number of whole rounds, the median falls
# among the k = 3 and 4 operations and the 90th percentile in the middle of
# the k = 1 ones, two a round, so that it rests on more than one operation.
SWEEP_SLOTS = ((1, 192, 192), (1, 192, 192), (2, 96, 96),
               (3, 48, 48), (3, 48, 48), (3, 48, 48), (3, 48, 48),
               (4, 24, 40), (4, 24, 40), (4, 24, 40))
CLI_FILES_PER_N = 8
CLI_COMMANDS = (
    "validate", "closure", "minrep", "hdesc", "filters", "vertices", "jh",
    "hstar", "ehrhart", "gorenstein", "fischer", "chain-polytope",
    "antichains", "export-dot",
)
# `compare` brute-forces C_P's vertices over every n-row subset, which does
# not finish on larger n = 4 posets, so it and `verify` stay at n <= 3.
CLI_SMALL_COMMANDS = ("verify", "compare")


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + salt)))


def _close(n: int, gens):
    return signedposets.from_generators(n, [signedposets.parse_root(t) for t in gens])


def _draw_generators(rng: random.Random, n: int, k: int, jh=None) -> list[str]:
    """k distinct roots of B_n drawn by `rng`, redrawn until their closure is
    asymmetric and, if `jh` = (lo, hi) is given, has lo <= |JH| <= hi."""
    tokens = [oracles.root_token(v) for v in oracles.roots_of(n)]
    while True:
        gens = rng.sample(tokens, k)
        if jh and not jh[0] <= oracles.jh_size([oracles.root_vector(t, n) for t in gens], n) <= jh[1]:
            continue
        try:
            _close(n, gens)
        except AsymmetryViolation:
            continue
        return gens


def _verify_op(tracer):
    if tracer is None:
        return verify.verify_poset
    return tracer.wrap_span("verify.verify_poset", verify.verify_poset)


class Workload:
    name = ""
    op_span = "verify.verify_poset"  # the span that times one traced operation
    rusage_who = resource.RUSAGE_SELF  # whose peak memory peak_rss_mb reports
    min_rounds = 1  # rounds a run attempts however long they take

    def draw(self):
        """The seeded choices behind the inputs, made before the set-up is timed."""
        return None

    def failed(self, output) -> bool:
        return isinstance(output, Exception)

    def run_problems(self, inputs) -> list[str]:
        """Checks on the whole run's inputs, beyond those of each operation."""
        return []


class CatalogN3(Workload):
    """verify_poset over the n = 3 catalog in a seeded order; the count_points cache stays warm."""

    name = "catalog-n3"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.order = None

    def build(self, drawn, span):
        return span("catalog.iter_signed_posets", lambda: list(signedposets.iter_signed_posets(3)))

    def round(self, inputs, r: int) -> list:
        if self.order is None:
            self.order = _rng(self.name, self.seed).sample(range(len(inputs)), len(inputs))
        order = self.order
        return [inputs[order[(r * CATALOG_ROUND + i) % len(order)]] for i in range(CATALOG_ROUND)]

    def op(self, tracer):
        return _verify_op(tracer)

    def problems(self, spec, output) -> list[str]:
        rows = [oracles.root_vector(t, 3) for t in spec.tokens()]
        return oracles.verify_report_problems(output.to_json_dict(), rows, 3, range(1, 4))

    def label(self, spec) -> str:
        return f"roots={len(spec.roots)}"

    def run_problems(self, inputs) -> list[str]:
        """The library's catalog must equal the one built by Reiner's pairwise rule."""
        ours = oracles.reiner_catalog(3)
        theirs = {frozenset(oracles.root_vector(t, 3) for t in p.tokens()) for p in inputs}
        if len(theirs) != len(inputs) or theirs != ours:
            return [f"catalog has {len(inputs)} posets ({len(theirs)} distinct), "
                    f"pairwise rule gives {len(ours)}; differ on {len(theirs ^ ours)}"]
        return []


class SweepN4(Workload):
    """verify_poset on seeded n = 4 closures of 1..4 roots, one per SWEEP_SLOTS entry a round.

    The set-up closes the first round's posets; each later round is drawn and
    closed when the run reaches it, off the clock."""

    name = "sweep-n4"
    # A round takes about 22 s here, near a run's length; two rounds at least
    # keep every run at 20 operations instead of 10 on a slower machine.
    min_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _generators(self, r: int) -> list[list[str]]:
        rng = _rng(self.name, self.seed, r)
        gens = [_draw_generators(rng, 4, k, (lo, hi)) for k, lo, hi in SWEEP_SLOTS]
        rng.shuffle(gens)
        return gens

    def _round_posets(self, gens) -> list:
        return [(g, _close(4, g)) for g in gens]

    def draw(self):
        return self._generators(0)

    def build(self, drawn, span):
        return span("setup.close_posets", lambda: {0: self._round_posets(drawn)})

    def round(self, inputs, r: int) -> list:
        if r not in inputs:
            inputs[r] = self._round_posets(self._generators(r))
        return inputs[r]

    def op(self, tracer):
        verify_op = _verify_op(tracer)
        return lambda spec: verify_op(spec[1])

    def problems(self, spec, output) -> list[str]:
        rows = [oracles.root_vector(t, 4) for t in spec[0]]
        return oracles.verify_report_problems(output.to_json_dict(), rows, 4, range(1, 5))

    def label(self, spec) -> str:
        jh = oracles.jh_size([oracles.root_vector(t, 4) for t in spec[0]], 4)
        return f"generators={len(spec[0])},roots={len(spec[1].roots)},jh={jh}"


class CliMix(Workload):
    """`python -m signedposets.cli <command> <file>` as a fresh process per operation."""

    name = "cli-mix"
    op_span = "cli.main"
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tables = {n: oracles.pairwise_table(n) for n in (2, 3, 4)}
        src = str(Path(signedposets.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def draw(self):
        drawn = {}
        for n in (2, 3, 4):
            rng = _rng(self.name, self.seed, n)
            drawn[n] = [_draw_generators(rng, n, 1 + i % n) for i in range(CLI_FILES_PER_N)]
        return drawn

    def build(self, drawn, span):
        def write():
            files = {}
            for n, gen_lists in drawn.items():
                files[n] = []
                for i, gens in enumerate(gen_lists):
                    path = self.workdir / f"p{n}_{i}.poset"
                    path.write_text(f"n = {n}\nroots: {' '.join(gens)}\n", encoding="utf-8")
                    files[n].append((str(path), {"n": n, "roots": gens}))
            return files

        return span("setup.write_files", write)

    def round(self, inputs, r: int) -> list:
        rng = _rng(self.name, self.seed, "round", r)
        pairs = [(c, n) for c in CLI_COMMANDS for n in (2, 3, 4)]
        pairs += [(c, n) for c in CLI_SMALL_COMMANDS for n in (2, 3)]
        ops = []
        for command, n in pairs:
            path, doc = rng.choice(inputs[n])
            argv = [command, path]
            if command == "export-dot":
                argv += ["--dot", str(self.workdir / "export.dot")]
            ops.append((command, argv, doc))
        rng.shuffle(ops)
        return ops

    def op(self, tracer):
        def run(spec):
            proc = subprocess.run(
                [sys.executable, "-m", "signedposets.cli", *spec[1]],
                capture_output=True, text=True, env=self.env, timeout=150,
            )
            return proc.returncode, proc.stdout
        return run

    def in_process_op(self, tracer, clear_cache):
        """The same command through `cli.main` in this process, with a cold cache."""
        import contextlib
        import io

        from signedposets import cli

        def run(spec):
            clear_cache()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(spec[1])
                else:
                    rc = tracer.run_span("cli.main", cli.main, spec[1])
            return rc, out.getvalue()
        return run

    def failed(self, output) -> bool:
        return isinstance(output, Exception) or output[0] != 0

    def problems(self, spec, output) -> list[str]:
        command, _, doc = spec
        return oracles.cli_problems(command, output[0], output[1], doc, self.tables[doc["n"]])

    def label(self, spec) -> str:
        return f"{spec[0]},n={spec[2]['n']}"


WORKLOADS = {w.name: w for w in (CatalogN3, SweepN4, CliMix)}

