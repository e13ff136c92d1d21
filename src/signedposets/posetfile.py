"""The on-disk poset format.

    # a comment
    name = fig1
    n = 2
    roots: -1+2 +1+2

`roots:` lists generators; the poset is their positive linear closure.
Parse errors carry 1-based line/column positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ParseError
from .posets import SignedPoset, from_generators
from .roots import Root, parse_root


@dataclass(frozen=True)
class PosetDocument:
    n: int
    generators: tuple[Root, ...]
    name: Optional[str] = None

    def to_poset(self) -> SignedPoset:
        return from_generators(self.n, self.generators)

    def to_json_dict(self) -> dict:
        doc = {"n": self.n, "roots": [alpha.token() for alpha in self.generators]}
        if self.name is not None:
            doc["name"] = self.name
        return doc


def parse_poset(text: str) -> PosetDocument:
    n: Optional[int] = None
    n_line = 0
    name: Optional[str] = None
    generators: list[Root] = []
    seen_roots_line = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())

        if stripped.startswith("n") and stripped[1:].lstrip().startswith("="):
            value = stripped.split("=", 1)[1].strip()
            if n is not None:
                raise ParseError("duplicate n line", lineno, indent + 1)
            try:
                n = int(value)
            except ValueError:
                raise ParseError(f"n must be an integer, got {value!r}", lineno,
                                 line.index("=") + 2)
            if n < 1:
                raise ParseError("n must be at least 1", lineno, line.index("=") + 2)
            n_line = lineno
        elif stripped.startswith("name") and stripped[4:].lstrip().startswith("="):
            if name is not None:
                raise ParseError("duplicate name line", lineno, indent + 1)
            name = stripped.split("=", 1)[1].strip()
        elif stripped.startswith("roots:"):
            if seen_roots_line:
                raise ParseError("duplicate roots line", lineno, indent + 1)
            seen_roots_line = True
            if n is None:
                raise ParseError("roots line before n", lineno, indent + 1)
            body = line.split(":", 1)[1]
            column = line.index(":") + 2
            for token in body.split():
                column = line.index(token, column - 1) + 1
                try:
                    alpha = parse_root(token)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, column)
                if alpha.max_index > n:
                    raise ParseError(
                        f"root {token} uses index {alpha.max_index} > n = {n}",
                        lineno,
                        column,
                    )
                if alpha in generators:
                    raise ParseError(f"duplicate root {token}", lineno, column)
                generators.append(alpha)
                column += len(token)
        else:
            raise ParseError(f"unrecognized line {stripped!r}", lineno, indent + 1)

    if n is None:
        raise ParseError("missing n line", max(1, n_line), 1)
    if not seen_roots_line:
        raise ParseError("missing roots line", 1, 1)
    return PosetDocument(n, tuple(generators), name)


def format_poset(doc: PosetDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"name = {doc.name}")
    lines.append(f"n = {doc.n}")
    lines.append("roots: " + " ".join(alpha.token() for alpha in doc.generators))
    return "\n".join(lines).rstrip() + "\n"
