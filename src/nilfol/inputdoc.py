"""Parsing, validation and serialization of the JSON input format.

An input document describes a foliated nilmanifold: dimension, sparse
structure-constant table (antisymmetric completion implied), optional
Gram matrix (identity if omitted), leaf subalgebra generators, and
options.  All scalar values are strings in the Q(s) expression grammar;
the format carries no floating point anywhere.  Indices are 1-based.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema

from .albanese import LATTICE_MODE, FoliatedNilmanifold
from .exactalg import ScalarMatrix, ScalarParseError, scalar_parse
from .geometry import Metric
from .liealg import LeafSubalgebra, LieAlgebra

DEFAULT_PARAM_SAMPLE = "17/12"


class InputError(ValueError):
    """Malformed or inconsistent input; carries a document location."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class BracketSpec:
    i: int
    j: int
    value: tuple[tuple[int, str], ...]
    note: str | None = None


@dataclass(frozen=True)
class InputDocument:
    name: str
    dim: int
    basis_names: tuple[str, ...] | None
    brackets: tuple[BracketSpec, ...]
    metric: tuple[tuple[str, ...], ...] | None
    foliation: tuple[tuple[str, ...], ...]
    param_sample: str = DEFAULT_PARAM_SAMPLE
    description: str | None = None
    lattice_mode: str = LATTICE_MODE

    def sample_value(self) -> Fraction:
        return Fraction(self.param_sample)


@functools.cache
def _validator():
    """The input-schema validator, built and checked against its metaschema
    once, on first use."""
    with resources.files("nilfol").joinpath("data/input.schema.json").open("rb") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _check_scalar(text: str, where: str) -> str:
    try:
        scalar_parse(text)
    except (ScalarParseError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {text!r}: {exc}", where) from None
    return text


def parse_text(text: str, source: str = "<input>") -> InputDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                         source) from None
    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path)
        raise InputError(error.message, f"{source}:{path}" if path else source)

    n = raw["dim"]
    basis = raw.get("basis")
    if basis is not None:
        if len(basis) != n:
            raise InputError(f"expected {n} basis names, got {len(basis)}", f"{source}:basis")
        if len(set(basis)) != n:
            raise InputError("basis names are not distinct", f"{source}:basis")
        basis = tuple(basis)

    seen: set[frozenset[int]] = set()
    brackets = []
    for t, entry in enumerate(raw["brackets"]):
        where = f"{source}:brackets/{t}"
        i, j = entry["i"], entry["j"]
        if not (1 <= i <= n and 1 <= j <= n):
            raise InputError(f"indices ({i},{j}) out of range 1..{n}", where)
        if i == j:
            raise InputError("bracket of a vector with itself must be omitted", where)
        key = frozenset((i, j))
        if key in seen:
            raise InputError(f"bracket ({i},{j}) given twice (mirrors count)", where)
        seen.add(key)
        value = []
        for m_text, coeff in sorted(entry["value"].items(), key=lambda kv: int(kv[0])):
            m = int(m_text)
            if not (1 <= m <= n):
                raise InputError(f"value index {m} out of range 1..{n}", where)
            value.append((m, _check_scalar(coeff, f"{where}/value/{m}")))
        brackets.append(BracketSpec(i, j, tuple(value), entry.get("note")))

    metric = raw.get("metric")
    if metric is not None:
        if len(metric) != n or any(len(row) != n for row in metric):
            raise InputError(f"metric must be a {n}x{n} grid", f"{source}:metric")
        metric = tuple(tuple(_check_scalar(e, f"{source}:metric/{r}/{c}")
                             for c, e in enumerate(row))
                       for r, row in enumerate(metric))

    foliation = []
    for t, row in enumerate(raw["foliation"]):
        where = f"{source}:foliation/{t}"
        if len(row) != n:
            raise InputError(f"foliation vector must have {n} entries", where)
        foliation.append(tuple(_check_scalar(e, f"{where}/{c}") for c, e in enumerate(row)))

    options = raw.get("options", {})
    sample = options.get("param_sample", DEFAULT_PARAM_SAMPLE)
    try:
        Fraction(sample)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"param_sample {sample!r} is not a rational number",
                         f"{source}:options/param_sample") from None

    mode = raw.get("lattice", {}).get("mode", LATTICE_MODE)
    return InputDocument(
        name=raw["name"],
        dim=n,
        basis_names=basis,
        brackets=tuple(brackets),
        metric=metric,
        foliation=tuple(foliation),
        param_sample=sample,
        description=raw.get("description"),
        lattice_mode=mode,
    )


def parse_file(path: str | Path) -> InputDocument:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(str(exc), str(path)) from None
    return parse_text(text, str(path))


def serialize(doc: InputDocument) -> str:
    """Canonical JSON rendering; parse(serialize(doc)) == doc."""
    out: dict = {"name": doc.name}
    if doc.description is not None:
        out["description"] = doc.description
    out["dim"] = doc.dim
    if doc.basis_names is not None:
        out["basis"] = list(doc.basis_names)
    out["brackets"] = []
    for spec in doc.brackets:
        entry: dict = {"i": spec.i, "j": spec.j,
                       "value": {str(m): text for m, text in spec.value}}
        if spec.note is not None:
            entry["note"] = spec.note
        out["brackets"].append(entry)
    if doc.metric is not None:
        out["metric"] = [list(row) for row in doc.metric]
    out["foliation"] = [list(row) for row in doc.foliation]
    if doc.lattice_mode != LATTICE_MODE:
        out["lattice"] = {"mode": doc.lattice_mode}
    if doc.param_sample != DEFAULT_PARAM_SAMPLE:
        out["options"] = {"param_sample": doc.param_sample}
    return json.dumps(out, indent=2) + "\n"


# -- construction ----------------------------------------------------------

def build_algebra(doc: InputDocument) -> LieAlgebra:
    brackets = {}
    for spec in doc.brackets:
        i, j = spec.i - 1, spec.j - 1
        value = {m - 1: scalar_parse(text) for m, text in spec.value}
        if i > j:
            i, j = j, i
            value = {m: -c for m, c in value.items()}
        brackets[(i, j)] = value
    return LieAlgebra(doc.dim, brackets, doc.basis_names)


def build_metric(doc: InputDocument) -> Metric:
    if doc.metric is None:
        return Metric.identity(doc.dim)
    grid = ScalarMatrix([[scalar_parse(e) for e in row] for row in doc.metric])
    if not grid.is_symmetric():
        raise InputError("metric is not symmetric", f"{doc.name}:metric")
    return Metric(grid)


def build_leaf(doc: InputDocument, algebra: LieAlgebra) -> LeafSubalgebra:
    generators = [[scalar_parse(e) for e in row] for row in doc.foliation]
    return LeafSubalgebra(algebra, generators)


def build(doc: InputDocument) -> FoliatedNilmanifold:
    """Full validated construction; raises ValueError on mathematically
    inconsistent input (invalid algebra, non-subalgebra foliation,
    singular metric)."""
    algebra = build_algebra(doc)
    metric = build_metric(doc)
    leaf = build_leaf(doc, algebra)
    return FoliatedNilmanifold(algebra, leaf, metric,
                               lattice_mode=doc.lattice_mode, name=doc.name)
