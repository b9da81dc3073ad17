"""Parsing and cleaning of raw string-valued laboratory records.

Raw registry exports store measurements as strings with embedded unit text
("77 μmol/L", "4.20 ×10⁹ /L") and semiquantitative urinalysis tokens
("negative", "±", "2+").  This module turns such records into a numeric
feature matrix: quantity parsing, ordinal mapping, plausibility filtering and
median/mode/zero imputation, with per-cell missingness provenance kept for
auditing.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .base import MultisysError

log = logging.getLogger("multisys.ingest")

# Provenance codes for the missing-mask metadata.
OBSERVED = 0
UNPARSED = 1  # empty cell or no recognizable number/token
IMPLAUSIBLE = 2  # parsed but outside the plausibility bounds

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
    """String-valued records straight from CSV, under canonical column names."""

    columns: list[str]
    rows: list[dict[str, str]]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class FeatureMatrix:
    """Cleaned, imputed numeric matrix with missingness provenance."""

    columns: list[ColumnSchema]
    values: np.ndarray  # (n, p) float
    missing_mask: np.ndarray  # (n, p) bool, pre-imputation missingness
    provenance: np.ndarray  # (n, p) int, OBSERVED/UNPARSED/IMPLAUSIBLE
    fills: dict[str, float] = field(default_factory=dict)
    zero_filled: set[str] = field(default_factory=set)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]


def parse_quantity(raw: str) -> float | None:
    """Extract the first decimal number from a unit-embedded string.

    Trailing unit text (including multiplicative notation like "×10⁹/L") is
    ignored: stored magnitudes are already on the displayed scale.  Strings
    without any digit yield None.
    """
    if raw is None:
        return None
    m = _NUMBER_RE.search(raw)
    if m is None:
        return None
    try:
        return float(m.group(0))
    except ValueError:  # pragma: no cover - regex guarantees a float
        return None


def parse_semiquant(raw: str, tokens: dict[str, float] | None = None) -> float | None:
    """Map a semiquantitative urinalysis string onto {0, 0.5, 1, 2, 3}.

    Matching is case-insensitive and whitespace-tolerant; unrecognized input
    yields None rather than an error.
    """
    if raw is None:
        return None
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

    Returns the column schemas and the (possibly extended) token map.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot read schema config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed schema config {path}: {exc}") from exc
    schemas = []
    for entry in cfg.get("columns", []):
        schemas.append(ColumnSchema(
            name=entry["name"],
            kind=entry.get("kind", "continuous"),
            unit_hint=entry.get("unit", ""),
            lower=entry.get("lower"),
            upper=entry.get("upper"),
            fill_policy=entry.get("fill", "mode" if entry.get("kind") == "semiquant" else "median"),
            source=entry.get("source"),
        ))
    tokens = dict(DEFAULT_SEMIQUANT_TOKENS)
    for tok, level in cfg.get("semiquant_tokens", {}).items():
        level = float(level)
        if level not in ORDINAL_LEVELS:
            raise IngestError(f"semiquant token {tok!r} maps to invalid level {level}")
        tokens["".join(tok.split()).lower()] = level
    return schemas, tokens


def load_cohort(csv_path: str, schemas: list[ColumnSchema]) -> RawCohort:
    """Read a CSV export and rename raw headers to canonical analyte names.

    Columns not covered by the schema are dropped (counted in a warning);
    a schema entry whose source header is absent from the file is an error.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{csv_path}: empty file, expected a header row")
            data_rows = [row for row in reader]
    except OSError as exc:
        raise IngestError(f"cannot read {csv_path}: {exc}") from exc
    except csv.Error as exc:
        raise IngestError(f"malformed CSV {csv_path}: {exc}") from exc

    by_source = {s.source_header: s.name for s in schemas}
    missing_sources = [src for src in by_source if src not in header]
    if missing_sources:
        raise IngestError(
            f"{csv_path}: schema references headers absent from the file: {missing_sources}"
        )
    keep = [(i, by_source[h]) for i, h in enumerate(header) if h in by_source]
    dropped = len(header) - len(keep)
    if dropped:
        log.warning("%s: dropped %d unmapped column(s)", csv_path, dropped)

    columns = [name for _, name in keep]
    rows = []
    for row in data_rows:
        if len(row) != len(header):
            raise IngestError(f"{csv_path}: row with {len(row)} cells, expected {len(header)}")
        rows.append({name: row[i] for i, name in keep})
    return RawCohort(columns=columns, rows=rows)


def _parse_column(cells: list[str], schema: ColumnSchema,
                  tokens: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """Parse one raw column into (values-with-NaN, provenance codes)."""
    n = len(cells)
    values = np.full(n, np.nan)
    prov = np.full(n, UNPARSED, dtype=np.int8)
    for i, cell in enumerate(cells):
        if schema.kind == "semiquant":
            v = parse_semiquant(cell, tokens)
        else:
            v = parse_quantity(cell)
        if v is None:
            continue
        kept = apply_plausibility(v, schema)
        if kept is None:
            prov[i] = IMPLAUSIBLE
        else:
            values[i] = kept
            prov[i] = OBSERVED
    return values, prov


def _mode_lowest(observed: np.ndarray) -> float:
    """Mode of ordinal observations; ties resolve to the lowest category."""
    levels, counts = np.unique(observed, return_counts=True)
    return float(levels[np.argmax(counts)])  # argmax takes the first (lowest) on ties


def impute(values: np.ndarray, provenance: np.ndarray,
           schemas: list[ColumnSchema]) -> FeatureMatrix:
    """Fill missing cells per column policy (median / mode / zero).

    Implausible values were already blanked by parsing, so they are imputed
    like any other missing cell and excluded from the fill computation.
    """
    values = values.copy()
    missing = ~np.isfinite(values)
    fills: dict[str, float] = {}
    zero_filled: set[str] = set()
    for j, schema in enumerate(schemas):
        col = values[:, j]
        if schema.fill_policy == "zero":
            # The whole column is forced to zero, regardless of content.
            values[:, j] = 0.0
            fills[schema.name] = 0.0
            zero_filled.add(schema.name)
            continue
        observed = col[np.isfinite(col)]
        if observed.size == 0:
            raise ImputationError(
                f"column {schema.name!r} is 100% missing and has no zero policy"
            )
        if schema.fill_policy == "median":
            fill = float(np.median(observed))
        else:
            fill = _mode_lowest(observed)
        col[~np.isfinite(col)] = fill
        fills[schema.name] = fill
    return FeatureMatrix(
        columns=list(schemas),
        values=values,
        missing_mask=missing,
        provenance=provenance,
        fills=fills,
        zero_filled=zero_filled,
    )


def clean_cohort(cohort: RawCohort, schemas: list[ColumnSchema],
                 tokens: dict[str, float] | None = None
                 ) -> tuple[FeatureMatrix, dict]:
    """Full cleaning pass: parse, filter, impute.  Returns matrix + audit.

    The audit dict holds per-column counts of parsed / unparsed / implausible
    / imputed cells, reproducing the kind of exclusion tally a cleaning report
    needs (e.g. how many implausible creatinine values were removed).
    """
    if tokens is None:
        tokens = DEFAULT_SEMIQUANT_TOKENS
    present = set(cohort.columns)
    missing_cols = [s.name for s in schemas if s.name not in present and s.fill_policy != "zero"]
    if missing_cols:
        raise IngestError(f"cohort lacks required columns: {missing_cols}")

    n = len(cohort.rows)
    p = len(schemas)
    values = np.full((n, p), np.nan)
    prov = np.full((n, p), UNPARSED, dtype=np.int8)
    for j, schema in enumerate(schemas):
        if schema.name in present:
            cells = [row[schema.name] for row in cohort.rows]
            values[:, j], prov[:, j] = _parse_column(cells, schema, tokens)
    matrix = impute(values, prov, schemas)

    audit = {"n_rows": n, "columns": {}}
    for j, schema in enumerate(schemas):
        pcol = prov[:, j]
        audit["columns"][schema.name] = {
            "parsed": int(np.sum(pcol == OBSERVED)),
            "unparsed": int(np.sum(pcol == UNPARSED)),
            "implausible": int(np.sum(pcol == IMPLAUSIBLE)),
            "imputed": int(np.sum(matrix.missing_mask[:, j])),
            "fill": matrix.fills[schema.name],
            "zero_filled": schema.name in matrix.zero_filled,
        }
    return matrix, audit


def write_matrix_csv(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.names)
        for row in matrix.values:
            writer.writerow([repr(float(v)) for v in row])


def read_matrix_csv(path: str, schemas: list[ColumnSchema]) -> FeatureMatrix:
    """Reload a cleaned matrix written by write_matrix_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    by_name = {s.name: s for s in schemas}
    columns = [by_name[h] for h in header]
    values = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    # Provenance is not round-tripped; a reloaded matrix is fully observed.
    return FeatureMatrix(
        columns=columns,
        values=values,
        missing_mask=np.zeros_like(values, dtype=bool),
        provenance=np.zeros_like(values, dtype=np.int8),
        fills={},
        zero_filled={s.name for s in columns if s.fill_policy == "zero"},
    )
