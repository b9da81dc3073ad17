"""Parsing and cleaning of raw string-valued laboratory records.

Raw registry exports store measurements as strings with embedded unit text
("77 μmol/L", "4.20 ×10⁹ /L") and semiquantitative urinalysis tokens
("negative", "±", "2+").  This module turns such records into a numeric
feature matrix: quantity parsing, ordinal mapping, plausibility filtering and
median/mode/zero imputation, one column at a time.  The per-column counts of
unparsed, implausible and imputed cells in the audit are the record of what
was cleaned.
"""

from __future__ import annotations

import csv
import itertools
import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .base import MultisysError, check_keys, is_number, read_file, write_file

log = logging.getLogger("multisys.ingest")

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")

# Ordinal token lists for semiquantitative urinalysis.  Tokens are matched
# after lower-casing and stripping all whitespace; the lists are
# configuration-extensible via the schema file.
DEFAULT_SEMIQUANT_TOKENS: dict[str, float] = {
    "negative": 0.0, "neg": 0.0, "-": 0.0, "阴性": 0.0,
    "trace": 0.5, "±": 0.5, "+-": 0.5, "弱阳性": 0.5,
    "1+": 1.0, "+": 1.0, "阳性": 1.0,
    "2+": 2.0, "++": 2.0,
    "3+": 3.0, "+++": 3.0,
}

ORDINAL_LEVELS = (0.0, 0.5, 1.0, 2.0, 3.0)

_BLOCK_ROWS = 4096  # CSV rows read, coded, converted or formatted per block


class IngestError(MultisysError):
    """Raised for unrecoverable ingestion problems (bad file, bad schema)."""


class ImputationError(IngestError):
    """Raised when a column has no observed values and no zero policy."""


@dataclass(frozen=True)
class ColumnSchema:
    """Cleaning recipe for one canonical analyte column."""

    name: str
    kind: str  # "continuous" | "semiquant"
    unit_hint: str = ""
    lower: float | None = None
    upper: float | None = None
    fill_policy: str = "median"  # "median" | "mode" | "zero"
    source: str | None = None  # raw header in the input file; defaults to name

    def __post_init__(self):
        if self.kind not in ("continuous", "semiquant"):
            raise IngestError(f"{self.name}: unknown kind {self.kind!r}")
        if self.fill_policy not in ("median", "mode", "zero"):
            raise IngestError(f"{self.name}: unknown fill policy {self.fill_policy!r}")
        for bound in (self.lower, self.upper):
            if bound is not None and not is_number(bound):
                raise IngestError(f"{self.name}: plausibility bound {bound!r} is not a number")
        if self.lower is not None and self.upper is not None and not self.lower < self.upper:
            raise IngestError(f"{self.name}: plausibility bounds out of order")
        if self.fill_policy != "zero":
            expected = "mode" if self.kind == "semiquant" else "median"
            if self.fill_policy != expected:
                raise IngestError(
                    f"{self.name}: fill policy {self.fill_policy!r} is invalid for kind {self.kind!r}"
                )

    @property
    def source_header(self) -> str:
        return self.source if self.source is not None else self.name


@dataclass
class RawCohort:
    """String cells straight from CSV, dictionary-coded per kept column: under
    its canonical name, in file order, each column maps to its distinct cells in
    order of first appearance and to each row's index into them."""

    n_rows: int
    columns: dict[str, tuple[list[str], np.ndarray]]


@dataclass
class FeatureMatrix:
    """Cleaned, imputed numeric matrix: one column per schema entry, no gaps.

    A freshly cleaned matrix and its reload from ``matrix.csv`` are the same
    thing; how many cells were imputed is recorded per column in the audit.
    """

    columns: list[ColumnSchema]
    values: np.ndarray  # (n, p) float

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def zero_filled(self) -> set[str]:
        """Columns forced to zero by their fill policy."""
        return {c.name for c in self.columns if c.fill_policy == "zero"}

    def column_index(self, name: str) -> int:
        return self.names.index(name)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]


def parse_quantity(raw: str) -> float | None:
    """Extract the first decimal number from a unit-embedded string.

    Trailing unit text (including multiplicative notation like "×10⁹/L") is
    ignored: stored magnitudes are already on the displayed scale.  Strings
    without any digit yield None.
    """
    m = _NUMBER_RE.search(raw)
    return None if m is None else float(m.group(0))


def parse_semiquant(raw: str, tokens: dict[str, float] | None = None) -> float | None:
    """Map a semiquantitative urinalysis string onto {0, 0.5, 1, 2, 3}.

    Matching is case-insensitive and whitespace-tolerant; unrecognized input
    yields None rather than an error.
    """
    if tokens is None:
        tokens = DEFAULT_SEMIQUANT_TOKENS
    key = "".join(raw.split()).lower()
    if not key:
        return None
    return tokens.get(key)


def apply_plausibility(value: float, schema: ColumnSchema) -> float | None:
    """Return value if inside the schema's inclusive bounds, else None."""
    if schema.lower is not None and value < schema.lower:
        return None
    if schema.upper is not None and value > schema.upper:
        return None
    return value


def default_schema() -> list[ColumnSchema]:
    """Shipped default schema covering the analytes named in the study domain.

    Plausibility bounds are deliberately generous: they exclude physical
    impossibilities while retaining genuine clinical extremes (e.g. a
    creatinine of 1816 μmol/L is kept).
    """
    c = ColumnSchema
    return [
        c("Cr", "continuous", "μmol/L", 10, 2000),
        c("UA", "continuous", "μmol/L", 30, 2000),
        c("ALB", "continuous", "g/L", 5, 70),
        c("HDL-c", "continuous", "mmol/L", 0.1, 6),
        c("LDL-c", "continuous", "mmol/L", 0.05, 15),
        c("TG", "continuous", "mmol/L", 0.05, 50),
        c("TC", "continuous", "mmol/L", 0.3, 30),
        c("GLU", "continuous", "mmol/L", 0.5, 60),
        c("WBC", "continuous", "×10⁹/L", 0.3, 100),
        c("Hb", "continuous", "g/L", 20, 250),
        c("PLT", "continuous", "×10⁹/L", 5, 2000),
        c("HCT", "continuous", "", 0.05, 0.8),
        c("RBC", "continuous", "×10¹²/L", 0.5, 10),
        c("MCV", "continuous", "fL", 40, 160),
        c("MCH", "continuous", "pg", 10, 60),
        c("MPV", "continuous", "fL", 3, 25),
        c("GGT", "continuous", "U/L", 1, 2000),
        c("BUN", "continuous", "mmol/L", 0.5, 60, fill_policy="zero"),
        c("AST", "continuous", "U/L", 1, 5000, fill_policy="zero"),
        c("ALT", "continuous", "U/L", 1, 5000, fill_policy="zero"),
        c("PRO", "semiquant", "", fill_policy="mode"),
        c("LEU", "semiquant", "", fill_policy="mode"),
        c("NIT", "semiquant", "", fill_policy="mode"),
        c("KET", "semiquant", "", fill_policy="mode"),
        c("ERY", "semiquant", "", fill_policy="mode"),
    ]


def _repeated(keys: list[str]) -> list[str]:
    """The keys that occur more than once, each once, in order of first occurrence."""
    return [k for k, count in Counter(keys).items() if count > 1]


def schema_from_json(path: str) -> tuple[list[ColumnSchema], dict[str, float]]:
    """Load a schema config file.

    The file is a JSON object::

        {
          "columns": [
            {"name": "Cr", "source": "肌酐", "kind": "continuous",
             "unit": "μmol/L", "lower": 10, "upper": 2000, "fill": "median"},
            ...
          ],
          "semiquant_tokens": {"negative": 0, "2+": 2, ...}   // optional
        }

    Returns the column schemas and the (possibly extended) token map.  An
    unreadable file, an unknown key, an empty column list, a token level that
    is not one of ORDINAL_LEVELS or another malformed entry raises IngestError.
    """
    def decode(cfg: dict) -> tuple[list[ColumnSchema], dict[str, float]]:
        check_keys(cfg, ("columns", "semiquant_tokens"), "schema")
        schemas = []
        for entry in cfg.get("columns", []):
            check_keys(entry, ("name", "source", "kind", "unit", "lower", "upper", "fill"),
                       "column")
            kind = entry.get("kind", "continuous")
            schemas.append(ColumnSchema(
                name=entry["name"], kind=kind, unit_hint=entry.get("unit", ""),
                lower=entry.get("lower"), upper=entry.get("upper"), source=entry.get("source"),
                fill_policy=entry.get("fill", "mode" if kind == "semiquant" else "median")))
        if not schemas:
            raise IngestError(f"schema config {path} lists no columns")
        for what, keys in (("name", [s.name for s in schemas]),
                           ("source header", [s.source_header for s in schemas])):
            repeated = _repeated(keys)
            if repeated:
                raise IngestError(f"schema config {path}: more than one column with "
                                  f"{what} {', '.join(repeated)}")
        tokens = dict(DEFAULT_SEMIQUANT_TOKENS)
        for tok, level in cfg.get("semiquant_tokens", {}).items():
            if not (is_number(level) and level in ORDINAL_LEVELS):
                raise IngestError(f"semiquant token {tok!r} maps to invalid level {level!r}")
            tokens["".join(tok.split()).lower()] = float(level)
        return schemas, tokens
    return read_file(path, decode, IngestError)


def _blocks(path: str, reader, width: int):
    """`(line, rows)` for the rows left in `reader`, `_BLOCK_ROWS` at a time,
    `line` being the line of the block's first row (the header is line 1);
    IngestError for a row whose length is not `width`."""
    line = 2
    while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
        ragged = [i for i, row in enumerate(rows) if len(row) != width]
        if ragged:
            raise IngestError(f"{path}: line {line + ragged[0]} has {len(rows[ragged[0]])} "
                              f"cells, the header {width}")
        yield line, rows
        line += len(rows)


def load_cohort(csv_path: str, schemas: list[ColumnSchema]) -> RawCohort:
    """Read a CSV export and rename raw headers to canonical analyte names.

    Columns not covered by the schema are dropped (counted in a warning);
    a schema entry whose source header is absent from the file is an error.
    Kept columns are coded as the blocks are read, one table per column for
    the whole file, so the codes depend on neither the blocks nor the hash seed.
    """
    by_source = {s.source_header: s.name for s in schemas}

    def decode(reader) -> RawCohort:
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{csv_path}: empty file, expected a header row")
        repeated = _repeated([h for h in header if h in by_source])
        if repeated:
            raise IngestError(f"{csv_path}: more than one column headed {', '.join(repeated)}")
        missing_sources = [src for src in by_source if src not in header]
        if missing_sources:
            raise IngestError(f"{csv_path}: schema references headers absent from the file: "
                              f"{missing_sources}")
        keep = [(i, by_source[h]) for i, h in enumerate(header) if h in by_source]
        dropped = len(header) - len(keep)
        if dropped:
            log.warning("%s: dropped %d unmapped column(s)", csv_path, dropped)
        coded = {name: ({}, [np.empty(0, dtype=np.intp)]) for _, name in keep}
        n = 0
        for _, rows in _blocks(csv_path, reader, len(header)):
            for i, name in keep:
                table, codes = coded[name]
                codes.append(np.fromiter((table.setdefault(row[i], len(table)) for row in rows),
                                         dtype=np.intp, count=len(rows)))
            n += len(rows)
        return RawCohort(n_rows=n, columns={name: (list(table), np.concatenate(codes))
                                            for name, (table, codes) in coded.items()})
    return read_file(csv_path, decode, IngestError, parse=csv.reader)


def _mode_lowest(observed: np.ndarray) -> float:
    """Mode of ordinal observations; ties resolve to the lowest category."""
    levels, counts = np.unique(observed, return_counts=True)
    return float(levels[np.argmax(counts)])  # argmax takes the first (lowest) on ties


def clean_cohort(cohort: RawCohort, schemas: list[ColumnSchema],
                 tokens: dict[str, float] | None = None
                 ) -> tuple[FeatureMatrix, dict]:
    """Parse, bounds-check, fill and audit each schema column in one pass.

    A cell that does not parse, or parses outside the plausibility bounds,
    is missing.  Missing cells take the column's median (continuous) or its
    mode, ties to the lowest level (semiquantitative), computed from the
    kept values only; a zero-policy column is forced to zero as a whole.  A
    column with no kept value and no zero policy raises ImputationError.

    The audit holds per-column counts of parsed / unparsed / implausible /
    imputed cells and the fill value, the exclusion tally a cleaning report
    needs (e.g. how many implausible creatinine values were removed).
    """
    if tokens is None:
        tokens = DEFAULT_SEMIQUANT_TOKENS
    n = cohort.n_rows
    values = np.full((n, len(schemas)), np.nan)
    audit = {"n_rows": n, "columns": {}}
    for j, schema in enumerate(schemas):
        col = values[:, j]
        # Parsing and the bounds check are pure functions of the cell, so each
        # runs once per distinct cell.
        distinct, codes = cohort.columns[schema.name]
        kept = np.full(len(distinct), np.nan)
        status = np.zeros(len(distinct), dtype=np.int8)  # 0 kept, 1 unparsed, 2 implausible
        for k, cell in enumerate(distinct):
            v = parse_semiquant(cell, tokens) if schema.kind == "semiquant" else parse_quantity(cell)
            if v is None:
                status[k] = 1
            elif apply_plausibility(v, schema) is None:
                status[k] = 2
            else:
                kept[k] = v
        col[:] = kept[codes]
        per_status = np.bincount(status[codes], minlength=3)
        unparsed, implausible = int(per_status[1]), int(per_status[2])
        missing = ~np.isfinite(col)
        if schema.fill_policy == "zero":
            fill = 0.0
            col.fill(fill)  # the whole column, regardless of content
        else:
            observed = col[~missing]
            if observed.size == 0:
                raise ImputationError(
                    f"column {schema.name!r} is 100% missing and has no zero policy")
            if schema.fill_policy == "median":
                fill = float(np.median(observed))
            else:
                fill = _mode_lowest(observed)
            col[missing] = fill
        audit["columns"][schema.name] = {
            "parsed": n - unparsed - implausible,
            "unparsed": unparsed,
            "implausible": implausible,
            "imputed": int(np.sum(missing)),
            "fill": fill,
            "zero_filled": schema.fill_policy == "zero",
        }
    return FeatureMatrix(columns=list(schemas), values=values), audit


def write_matrix_csv(matrix: FeatureMatrix, path: str) -> None:
    """Write the matrix atomically, so a failed write leaves the previous bytes.

    A cell is written as the ``repr`` of its float, formatted once per
    distinct bit pattern of its column (``0.0`` and ``-0.0`` stay apart).
    """
    bits = np.asarray(matrix.values, dtype=float).view(np.int64)
    keys = [np.unique(bits[:, j]) for j in range(bits.shape[1])]
    texts = [np.array([repr(v) for v in k.view(float).tolist()], dtype=object) for k in keys]
    with write_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.names)
        for start in range(0, len(bits), _BLOCK_ROWS):
            block = bits[start:start + _BLOCK_ROWS]
            columns = [text[np.searchsorted(key, block[:, j])]
                       for j, (key, text) in enumerate(zip(keys, texts))]
            writer.writerows(zip(*columns))


def _floats(path: str, line: int, rows: list[list[str]]) -> np.ndarray:
    """The float array of `rows`, read from the file's lines from `line` on."""
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for i, row in enumerate(rows):  # only to name the first bad line
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise IngestError(f"{path}: line {line + i}: {exc}") from exc
        raise


def read_matrix_csv(path: str, schemas: list[ColumnSchema]) -> FeatureMatrix:
    """Reload a cleaned matrix written by write_matrix_csv.

    IngestError for an unreadable or empty file, a header other than the
    schema's names in schema order, a row whose length differs from the
    header's, or a cell that is not a finite number.  Rows are converted a
    block at a time; a cell converts as ``float`` would convert it.
    """
    names = [s.name for s in schemas]

    def decode(reader) -> FeatureMatrix:
        header = next(reader, None)
        if not header:
            raise IngestError(f"{path}: empty file")
        unknown = [h for h in header if h not in names]
        if unknown:
            raise IngestError(f"{path}: column(s) not in the schema: {', '.join(unknown)}")
        if header != names:
            raise IngestError(f"{path}: header is not the schema's columns in schema order: "
                              f"{', '.join(header)}")
        blocks = [_floats(path, line, rows) for line, rows in _blocks(path, reader, len(names))]
        values = np.concatenate([np.empty((0, len(names))), *blocks])
        if not np.isfinite(values).all():
            line = np.flatnonzero(~np.isfinite(values).all(axis=1))[0] + 2
            raise IngestError(f"{path}: line {line} has a cell that is not a finite number")
        return FeatureMatrix(columns=list(schemas), values=values)
    return read_file(path, decode, IngestError, parse=csv.reader)
