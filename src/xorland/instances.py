"""Instance files, DIMACS CNF export, and machine-readable reports.

The ``.xnf`` format is line-oriented text: a header ``x k n``, optional
``c key value`` provenance comments, then exactly n equation lines, each
listing the k distinct 1-based column indices of one parity equation in
ascending order.  Parsing re-validates k-regularity, so the format
round-trips bit-exactly.
"""
from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .gf2 import BitMatrix
from .landscape import Instance
from .rng import PHILOX, RngSpec

FORMAT_VERSION = 1
_SCALARS = {str, int, float, bool, type(None)}


class ParseError(ValueError):
    """Malformed instance file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_instance(inst: Instance, path: str | Path):
    path = Path(path)
    lines = [f"x {inst.k} {inst.n}"]
    if isinstance(inst.provenance, RngSpec):
        p = inst.provenance
        lines.append(f"c rng {p.algorithm} {p.seed} {p.stream}")
    elif isinstance(inst.provenance, str) and inst.provenance:
        lines.append(f"c src {inst.provenance}")
    for support in inst.matrix.row_supports:
        lines.append(" ".join(str(j + 1) for j in support))
    path.write_text("\n".join(lines) + "\n")


def read_instance(path: str | Path) -> Instance:
    path = Path(path)
    header_line = None
    provenance = None
    supports: list[tuple[int, ...]] = []
    k = n = 0
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            text = raw.decode().strip()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc), lineno) from None
        if not text:
            continue
        if header_line is None:
            parts = text.split()
            if len(parts) != 3 or parts[0] != "x":
                raise ParseError(f"expected header 'x k n', got {text!r}", lineno)
            try:
                k, n = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("k and n must be integers", lineno) from None
            if k < 1 or n < k:
                raise ParseError(f"need n >= k >= 1, got k={k} n={n}", lineno)
            header_line = lineno
            continue
        if text.startswith("c"):
            parts = text.split()
            if len(parts) == 5 and parts[1] == "rng":
                try:
                    provenance = RngSpec(seed=int(parts[3]), stream=int(parts[4]), algorithm=parts[2])
                except ValueError:
                    raise ParseError(f"expected 'c rng {PHILOX} <seed> <stream>'", lineno) from None
            elif len(parts) >= 3 and parts[1] == "src":
                provenance = " ".join(parts[2:])
            continue
        try:
            indices = [int(tok) for tok in text.split()]
        except ValueError:
            raise ParseError(f"non-integer index in {text!r}", lineno) from None
        if len(indices) != k:
            raise ParseError(f"equation must list exactly {k} indices, got {len(indices)}", lineno)
        if len(set(indices)) != k:
            raise ParseError("repeated index in equation", lineno)
        if indices != sorted(indices):
            raise ParseError("indices must be ascending", lineno)
        if indices[0] < 1 or indices[-1] > n:
            raise ParseError(f"index out of range 1..{n}", lineno)
        supports.append(tuple(j - 1 for j in indices))
    if header_line is None:
        raise ParseError("empty file", 1)
    if len(supports) != n:
        raise ParseError(f"expected {n} equation lines, found {len(supports)}", lineno if supports else 1)
    degrees = [0] * n
    for support in supports:
        for j in support:
            degrees[j] += 1
    for j, degree in enumerate(degrees):
        if degree != k:
            raise ParseError(f"column {j + 1} appears in {degree} equations, expected {k}", header_line)
    rows = tuple(sum(1 << j for j in support) for support in supports)
    return Instance(BitMatrix(n, n, rows), provenance=provenance)


def export_cnf(inst: Instance, path: str | Path):
    """DIMACS CNF equivalent of the parity system A x = 0.

    Each equation over variables S becomes the 2**(k-1) clauses that each
    forbid one odd-parity assignment of S, so a state violates exactly one
    clause per violated equation and the SAT landscape matches the linear
    one pointwise.
    """
    path = Path(path)
    n, k = inst.n, inst.k
    out = [f"p cnf {n} {n * (1 << (k - 1))}"]
    for support in inst.matrix.row_supports:
        for pattern in range(1 << k):
            if pattern.bit_count() % 2 == 0:
                continue
            clause = []
            for pos, var in enumerate(support):
                lit = var + 1
                clause.append(str(-lit if pattern >> pos & 1 else lit))
            out.append(" ".join(clause) + " 0")
    path.write_text("\n".join(out) + "\n")


class Table(Sequence):
    """Records as equal-length columns of JSON scalars, one keyword per field:
    a read-only sequence whose row dicts are built on access."""

    def __init__(self, **columns: list):
        if len(lengths := {len(col) for col in columns.values()}) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self.columns = columns

    def __len__(self):
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i):
        j = range(len(self))[i]
        return [self._row(x) for x in j] if isinstance(j, range) else self._row(j)

    def __iter__(self):
        return (dict(zip(self.columns, row)) for row in zip(*self.columns.values()))

    def _row(self, i):
        return {key: col[i] for key, col in self.columns.items()}


def _indented(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with ``nl``, a newline and obj's indent, at each
    line break.  The C encoder (an indent turns it off) writes each container of
    scalars in one call, with the line breaks as its separators, and each column
    of a Table, split at its separators to fill one row template of the encoded
    keys: an encoded scalar holds no raw newline."""
    inner = nl + "  "
    if isinstance(obj, Table):
        if not obj:
            return "[]"
        width = 2 * len(obj.columns) + 1
        parts = [inner + "}"] * (width * len(obj))
        for i, (key, col) in enumerate(obj.columns.items()):
            parts[2 * i :: width] = [f",{'' if i else inner + '{'}{inner}  {json.dumps(key)}: "] * len(col)
            parts[2 * i + 1 :: width] = json.JSONEncoder(separators=("\n", ":")).encode(col)[1:-1].split("\n")
        return f"[{''.join(parts)[1:]}{nl}]"
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return json.dumps(obj)
    if {type(v) for v in values} <= _SCALARS:
        text = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)
        return text if len(text) == 2 else f"{text[0]}{inner}{text[1:-1]}{nl}{text[-1]}"
    items = ([f"{json.dumps({key: 0})[1:-4]}: {_indented(v, inner)}" for key, v in obj.items()]
             if brackets == "{}" else [_indented(v, inner) for v in obj])
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{nl}{brackets[1]}"


@dataclass
class Report:
    """Structured experiment result with enough provenance to re-run."""

    experiment: str
    parameters: dict
    rng: RngSpec | None
    records: list[dict] | Table = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def _fields(self) -> dict:
        from . import __version__

        return {
            "format_version": FORMAT_VERSION,
            "generator_version": __version__,
            "experiment": self.experiment,
            "parameters": self.parameters,
            "rng": self.rng.to_dict() if self.rng else None,
            "records": self.records,
            "summary": self.summary,
        }

    def to_dict(self) -> dict:
        """The report as plain JSON values: a Table of records becomes its rows."""
        return dict(self._fields(), records=list(self.records))

    def to_json(self) -> str:
        return _indented(self._fields()) + "\n"

    def write_json(self, path: str | Path):
        Path(path).write_text(self.to_json())

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.records:
            fields = dict.fromkeys(key for rec in self.records for key in rec)
            writer = csv.DictWriter(buf, fieldnames=list(fields))
            writer.writeheader()
            writer.writerows(self.records)
        return buf.getvalue()

    def write_csv(self, path: str | Path):
        Path(path).write_text(self.to_csv())

