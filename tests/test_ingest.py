"""Parsing, plausibility, imputation and cohort-loading behavior."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisys import ingest
from multisys.ingest import (
    ColumnSchema, FeatureMatrix, ImputationError, IngestError, RawCohort,
    apply_plausibility, clean_cohort, default_schema, load_cohort,
    parse_quantity, parse_semiquant, read_matrix_csv, schema_from_json,
    write_matrix_csv,
)


# ---------------------------------------------------------------------------
# quantity parsing

@pytest.mark.parametrize("raw,expected", [
    ("77 μmol/L", 77.0),
    ("4.20 ×10⁹ /L", 4.20),
    ("0.41", 0.41),
    ("  137 g/L ", 137.0),
    ("-3.5 units", -3.5),
    ("+12", 12.0),
    (".5 mmol/L", 0.5),
    ("1816 μmol/L", 1816.0),
])
def test_parse_quantity_golden(raw, expected):
    assert parse_quantity(raw) == expected


@pytest.mark.parametrize("raw", ["", "   ", "N/A", "pending", "---", "μmol/L"])
def test_parse_quantity_missing(raw):
    assert parse_quantity(raw) is None


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_parse_quantity_roundtrips_formatted_numbers(x):
    text = f"{x:.4f}"
    assert parse_quantity(text + " mmol/L") == float(text)


def test_parse_quantity_takes_first_number():
    # The magnitude precedes the unit; exponent digits in the unit are ignored.
    assert parse_quantity("2.5 ×10⁹/L") == 2.5


# ---------------------------------------------------------------------------
# semiquantitative parsing

@pytest.mark.parametrize("raw,expected", [
    ("negative", 0.0), ("NEG", 0.0), ("-", 0.0), ("阴性", 0.0),
    ("trace", 0.5), ("±", 0.5), ("+-", 0.5), ("弱阳性", 0.5),
    ("1+", 1.0), ("+", 1.0), ("阳性", 1.0),
    ("2+", 2.0), ("++", 2.0),
    ("3+", 3.0), ("+++", 3.0),
    (" 2 + ", 2.0),  # whitespace-tolerant
    ("Negative", 0.0),  # case-insensitive
])
def test_parse_semiquant_map(raw, expected):
    assert parse_semiquant(raw) == expected


@pytest.mark.parametrize("raw", ["", "  ", "4+", "unknown", "++++"])
def test_parse_semiquant_missing(raw):
    assert parse_semiquant(raw) is None


def test_parse_semiquant_custom_tokens():
    assert parse_semiquant("mild", {"mild": 1.0}) == 1.0
    assert parse_semiquant("negative", {"mild": 1.0}) is None


# ---------------------------------------------------------------------------
# plausibility and schema validation

def test_plausibility_bounds_inclusive():
    schema = ColumnSchema("Cr", "continuous", lower=10, upper=2000)
    assert apply_plausibility(10.0, schema) == 10.0
    assert apply_plausibility(2000.0, schema) == 2000.0
    assert apply_plausibility(9.99, schema) is None
    assert apply_plausibility(2000.01, schema) is None


def test_schema_rejects_bad_kind_and_policy():
    with pytest.raises(IngestError):
        ColumnSchema("X", "ordinal")
    with pytest.raises(IngestError):
        ColumnSchema("X", "continuous", fill_policy="mode")
    with pytest.raises(IngestError):
        ColumnSchema("X", "semiquant", fill_policy="median")
    with pytest.raises(IngestError):
        ColumnSchema("X", "continuous", lower=5, upper=5)
    with pytest.raises(IngestError):
        ColumnSchema("X", "continuous", lower="10")  # would fail only when cleaning
    for bound in (math.nan, math.inf, True):
        with pytest.raises(IngestError, match="is not a finite number$"):
            ColumnSchema("X", "continuous", upper=bound)


def test_zero_policy_allowed_for_both_kinds():
    ColumnSchema("X", "continuous", fill_policy="zero")
    ColumnSchema("Y", "semiquant", fill_policy="zero")


def test_schema_from_json(tmp_path):
    cfg = {
        "columns": [
            {"name": "Cr", "source": "肌酐", "kind": "continuous",
             "unit": "μmol/L", "lower": 10, "upper": 2000},
            {"name": "PRO", "kind": "semiquant"},
        ],
        "semiquant_tokens": {"Faint": 0.5},
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(cfg))
    schemas, tokens = schema_from_json(str(path))
    assert schemas[0].source_header == "肌酐"
    assert schemas[1].fill_policy == "mode"
    assert tokens["faint"] == 0.5
    assert tokens["negative"] == 0.0  # defaults preserved


def test_schema_from_json_rejects_bad_token_level(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"columns": [], "semiquant_tokens": {"x": 1.7}}))
    with pytest.raises(IngestError):
        schema_from_json(str(path))


# ---------------------------------------------------------------------------
# cohort loading

def _coded(cells):
    """(distinct cells in order of first appearance, each cell's index into
    them), coded cell by cell."""
    distinct, codes = [], []
    for cell in cells:
        if cell not in distinct:
            distinct.append(cell)
        codes.append(distinct.index(cell))
    return distinct, np.array(codes, dtype=np.intp)


def _raw_cohort(cells):
    """The RawCohort of equal-length cell lists keyed by column name."""
    n_rows = len(next(iter(cells.values())))
    return RawCohort(n_rows=n_rows, columns={name: _coded(c) for name, c in cells.items()})


def test_load_cohort_renames_and_drops(write_csv, tiny_schemas):
    path = write_csv(["Cr", "GLU", "PRO", "extra"],
                     [["77 μmol/L", "5.0", "1+", "x"]])
    cohort = load_cohort(path, tiny_schemas)
    assert cohort.n_rows == 1
    assert list(cohort.columns) == ["Cr", "GLU", "PRO"]
    distinct, codes = cohort.columns["Cr"]
    assert [distinct[c] for c in codes] == ["77 μmol/L"]


def test_load_cohort_codes_match_per_cell_coding_across_blocks(write_csv, tiny_schemas):
    # Over more than two blocks of 4,096 rows (and eight of 1,024); "5.0" first
    # appears in the last block, and the PRO cells repeat with a period that
    # is not a divisor of the block size.
    n = 2 * 4096 + 5
    glu = ["4.1", "", "4.1 mmol/L"] * 3000
    glu[2 * 4096 + 2] = "5.0"
    rows = [[f"{i % 7} μmol/L", glu[i], ["neg", "1+", "±", "2+", " 3+"][i % 5]]
            for i in range(n)]
    cohort = load_cohort(write_csv(["Cr", "GLU", "PRO"], rows), tiny_schemas)
    assert cohort.n_rows == n
    for j, name in enumerate(["Cr", "GLU", "PRO"]):
        distinct, codes = cohort.columns[name]
        want = _coded([row[j] for row in rows])
        assert distinct == want[0]
        assert codes.dtype == np.int32 and codes.tolist() == want[1].tolist()
    assert cohort.columns["GLU"][0] == ["4.1", "", "4.1 mmol/L", "5.0"]


def test_load_cohort_holds_one_block_of_rows_at_a_time(write_csv, tiny_schemas, monkeypatch):
    # Long cells, so that a block of row strings outweighs the codes of the
    # whole file: the peak must not grow with the number of blocks.
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 64)

    def peak(n_rows):
        rows = [[f"{i % 3} μmol/L{' ' * 1000}", f"{i % 5}.0 mmol/L{' ' * 1000}", "neg"]
                for i in range(n_rows)]
        path = write_csv(["Cr", "GLU", "PRO"], rows, name=f"{n_rows}.csv")
        tracemalloc.start()
        try:
            assert load_cohort(path, tiny_schemas).n_rows == n_rows
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # the first read also allocates what later reads reuse
    assert peak(8 * 64) <= 1.25 * peak(64)


def test_load_cohort_missing_source_header_errors(write_csv, tiny_schemas):
    path = write_csv(["Cr", "GLU"], [["77", "5.0"]])
    with pytest.raises(IngestError, match="PRO"):
        load_cohort(path, tiny_schemas)


def test_load_cohort_ragged_row_errors(write_csv, tiny_schemas):
    path = write_csv(["Cr", "GLU", "PRO"], [["77", "5.0"]])
    with pytest.raises(IngestError, match="cells"):
        load_cohort(path, tiny_schemas)


def test_load_cohort_ragged_row_past_first_block_names_its_line(write_csv, tiny_schemas):
    rows = [["77", "5.0", "neg"]] * 5000
    rows[4100] = ["77", "5.0", "neg", "extra"]  # data row 4100 is line 4102
    with pytest.raises(IngestError, match="line 4102 has 4 cells, the header 3$"):
        load_cohort(write_csv(["Cr", "GLU", "PRO"], rows), tiny_schemas)


def test_load_cohort_repeated_mapped_header_errors(write_csv, tiny_schemas):
    # Read silently, the last "Cr" column would replace the first; a repeated
    # header that the schema does not map is dropped like any other.
    path = write_csv(["Cr", "Cr", "GLU", "PRO", "extra", "extra"],
                     [["70 μmol/L", "900 μmol/L", "5.0", "1+", "x", "y"]])
    with pytest.raises(IngestError, match="more than one column headed Cr$"):
        load_cohort(path, tiny_schemas)


def test_load_cohort_empty_file_errors(tmp_path, tiny_schemas):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestError, match="empty"):
        load_cohort(str(path), tiny_schemas)


def test_load_cohort_header_only_errors(write_csv, tiny_schemas):
    with pytest.raises(IngestError, match="no data rows$"):
        load_cohort(write_csv(["Cr", "GLU", "PRO"], []), tiny_schemas)


def test_load_cohort_missing_file_errors(tiny_schemas):
    with pytest.raises(IngestError):
        load_cohort("/nonexistent/file.csv", tiny_schemas)


# ---------------------------------------------------------------------------
# imputation

def _one_column(name, cells):
    return _raw_cohort({name: cells})


def test_median_imputation_brute_force_oracle():
    schemas = [ColumnSchema("A", "continuous")]
    matrix, audit = clean_cohort(_one_column("A", ["1", "5", "2", "", "9"]), schemas)
    observed = sorted([1.0, 5.0, 2.0, 9.0])
    oracle = (observed[1] + observed[2]) / 2  # even count: mean of middle two
    assert matrix.values[3, 0] == oracle == 3.5
    assert audit["columns"]["A"]["fill"] == 3.5
    assert audit["columns"]["A"]["imputed"] == 1


def test_mode_imputation_tie_takes_lowest():
    schemas = [ColumnSchema("P", "semiquant", fill_policy="mode")]
    cohort = _one_column("P", ["negative", "2+", "2+", "negative", ""])
    matrix, _ = clean_cohort(cohort, schemas)
    assert matrix.values[4, 0] == 0.0  # tie between 0 and 2 resolves low


def test_zero_policy_forces_whole_column():
    schemas = [ColumnSchema("B", "continuous", fill_policy="zero")]
    matrix, audit = clean_cohort(_one_column("B", ["4.2", ""]), schemas)
    assert np.all(matrix.values[:, 0] == 0.0)
    assert audit["columns"]["B"]["zero_filled"]


def test_all_missing_without_zero_policy_errors():
    schemas = [ColumnSchema("Z", "continuous", fill_policy="zero"),
               ColumnSchema("A", "continuous"), ColumnSchema("B", "continuous")]
    cohort = _raw_cohort({"Z": [""] * 3, "A": ["", "n/a", "?"], "B": [""] * 3})
    with pytest.raises(ImputationError, match="'A'"):
        clean_cohort(cohort, schemas)


# ---------------------------------------------------------------------------
# end-to-end cleaning

def test_clean_cohort_audit_counts(write_csv, tiny_schemas):
    path = write_csv(
        ["Cr", "GLU", "PRO"],
        [
            ["77 μmol/L", "5.0 mmol/L", "negative"],
            ["9999 μmol/L", "", "2+"],       # Cr implausible, GLU unparsed
            ["88 μmol/L", "6.1 mmol/L", "??"],  # PRO unparsed
        ])
    cohort = load_cohort(path, tiny_schemas)
    matrix, audit = clean_cohort(cohort, tiny_schemas)
    cr = audit["columns"]["Cr"]
    assert (cr["parsed"], cr["unparsed"], cr["implausible"]) == (2, 0, 1)
    assert cr["imputed"] == 1
    assert matrix.values[1, 0] == np.median([77.0, 88.0])  # implausible -> imputed
    assert audit["columns"]["GLU"]["unparsed"] == 1
    assert audit["columns"]["PRO"]["unparsed"] == 1
    assert matrix.values[0, 0] == 77.0  # observed cells are kept as parsed


def _clean_per_cell(cells, schemas, tokens):
    """The per-cell cleaning loop that clean_cohort's per-distinct-cell pass
    replaced, over equal-length cell lists keyed by column name."""
    n = len(next(iter(cells.values())))
    values = np.full((n, len(schemas)), np.nan)
    audit = {"n_rows": n, "columns": {}}
    for j, schema in enumerate(schemas):
        col = values[:, j]
        unparsed = implausible = 0
        for i, cell in enumerate(cells[schema.name]):
            if schema.kind == "semiquant":
                v = parse_semiquant(cell, tokens)
            else:
                v = parse_quantity(cell)
            if v is None:
                unparsed += 1
            elif apply_plausibility(v, schema) is None:
                implausible += 1
            else:
                col[i] = v
        missing = ~np.isfinite(col)
        if schema.fill_policy == "zero":
            fill = 0.0
            col.fill(fill)
        else:
            observed = col[~missing]
            if observed.size == 0:
                raise ImputationError(schema.name)
            if schema.fill_policy == "median":
                fill = float(np.median(observed))
            else:
                levels, counts = np.unique(observed, return_counts=True)
                fill = float(levels[np.argmax(counts)])
            col[missing] = fill
        audit["columns"][schema.name] = {
            "parsed": n - unparsed - implausible, "unparsed": unparsed,
            "implausible": implausible, "imputed": int(np.sum(missing)), "fill": fill,
            "zero_filled": schema.fill_policy == "zero"}
    return values, audit


# A small alphabet, so that most cells repeat: blanks, missing tokens, unit
# text, out-of-bounds magnitudes, sign slips, signed zeros and restyled tokens.
CELLS = ["", " ", "n/a", "pending", "77 μmol/L", "77", " 77.0 ", "1816 μmol/L",
         "99999 μmol/L", "-62.0 μmol/L", "0", "-0", "0.5 g/L", "5.25", "12 ×10⁹/L",
         "negative", "NEG", " 2+ ", "\tt r a c e", "±", "+++", "1+", "Faint", "??"]


@st.composite
def cohorts(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    schemas, cells = [], {}
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["continuous", "semiquant"]))
        lower = draw(st.sampled_from([None, 0.0, 0.5, 10.0]))
        upper = draw(st.sampled_from([None, 100.0, 2000.0]))
        zero = draw(st.booleans())
        fill = "zero" if zero else ("mode" if kind == "semiquant" else "median")
        schemas.append(ColumnSchema(f"c{j}", kind, lower=lower, upper=upper, fill_policy=fill))
        cells[f"c{j}"] = draw(st.lists(st.sampled_from(CELLS), min_size=n, max_size=n))
    return cells, schemas


@given(cohorts())
@settings(max_examples=300, deadline=None)
def test_clean_cohort_matches_per_cell_oracle(drawn):
    cells, schemas = drawn
    cohort = _raw_cohort(cells)
    tokens = {**ingest.DEFAULT_SEMIQUANT_TOKENS, "faint": 0.5}
    try:
        want = _clean_per_cell(cells, schemas, tokens)
    except ImputationError:
        with pytest.raises(ImputationError):
            clean_cohort(cohort, schemas, tokens)
        return
    matrix, audit = clean_cohort(cohort, schemas, tokens)
    assert matrix.values.tobytes() == want[0].tobytes()  # bit for bit: -0.0 stays -0.0
    assert audit == want[1]


def test_clean_cohort_parses_each_distinct_cell_once(monkeypatch):
    calls = []

    def counted(parse):
        def wrapper(raw, *args):
            calls.append(raw)
            return parse(raw, *args)
        return wrapper

    for name in ("parse_quantity", "parse_semiquant"):
        monkeypatch.setattr(ingest, name, counted(getattr(ingest, name)))
    schemas = [ColumnSchema("A", "continuous", lower=0, upper=10),
               ColumnSchema("B", "continuous", lower=0, upper=10),
               ColumnSchema("P", "semiquant", fill_policy="mode")]
    cohort = _raw_cohort({
        "A": ["1", "2", "", "99"] * 250, "B": ["1"] * 1000, "P": ["neg", "2+"] * 500})
    _, audit = clean_cohort(cohort, schemas)
    assert sorted(calls) == sorted(["1", "2", "", "99", "1", "neg", "2+"])
    assert (audit["columns"]["A"]["unparsed"], audit["columns"]["A"]["implausible"]) == (250, 250)


def test_default_schema_is_valid_and_covers_systems():
    schemas = default_schema()
    names = {s.name for s in schemas}
    for required in ("Cr", "BUN", "PRO", "TG", "LDL-c", "HDL-c",
                     "WBC", "LEU", "NIT", "GLU", "KET"):
        assert required in names
    assert all(s.fill_policy in ("median", "mode", "zero") for s in schemas)


def test_matrix_csv_roundtrip(tmp_path, tiny_schemas):
    from conftest import make_matrix
    values = [[77.123456789, 5.5, 1.0], [88.0, 6.25, 0.0]]
    matrix = make_matrix(values, tiny_schemas)
    path = str(tmp_path / "matrix.csv")
    write_matrix_csv(matrix, path)
    loaded = read_matrix_csv(path, tiny_schemas)
    np.testing.assert_array_equal(loaded.values, matrix.values)  # exact, via repr
    assert loaded.names == matrix.names


def test_matrix_csv_write_that_fails_halfway_keeps_previous_bytes(tmp_path, tiny_schemas):
    from conftest import make_matrix
    path = tmp_path / "matrix.csv"
    write_matrix_csv(make_matrix([[77.0, 5.5, 1.0]], tiny_schemas), str(path))
    before = path.read_bytes()
    # the second row's first cell is no number: the header and first row are
    # written before the write fails
    broken = FeatureMatrix(columns=list(tiny_schemas), values=np.array(
        [[88.0, 6.25, 0.0], ["not a number", 1.0, 1.0]], dtype=object))
    with pytest.raises(ValueError):
        write_matrix_csv(broken, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.csv"]


def test_matrix_csv_header_outside_schema_errors(tmp_path, tiny_schemas):
    # A matrix written under one schema and read under another names the
    # headers the current schema lacks instead of failing with a KeyError.
    from conftest import make_matrix
    path = str(tmp_path / "matrix.csv")
    write_matrix_csv(make_matrix([[77.0, 5.5, 1.0]], tiny_schemas), path)
    with pytest.raises(IngestError, match="not in the schema: Cr, PRO"):
        read_matrix_csv(path, [tiny_schemas[1]])


def _write_per_cell(values, names, path):
    """The per-cell matrix.csv writer that write_matrix_csv's per-distinct-value pass replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def test_matrix_csv_bytes_match_per_cell_writer(tmp_path, tiny_schemas):
    # Signed zeros, a subnormal and the largest magnitudes, over more than
    # two blocks of rows; the third column is constant, and the last one's
    # name holds a comma and a double quote, which the header must quote.
    schemas = [*tiny_schemas, ColumnSchema('Na, "serum"', "continuous", "mmol/L", 100, 200)]
    cells = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 77.123456789]
    n = 2 * 4096 + 5
    values = np.column_stack([np.resize(cells, n), np.resize(cells[::-1], n)[::-1],
                              np.full(n, 1.5), np.resize(cells[3:], n)])
    path, oracle = tmp_path / "matrix.csv", tmp_path / "oracle.csv"
    write_matrix_csv(FeatureMatrix(columns=schemas, values=values), str(path))
    _write_per_cell(values, [s.name for s in schemas], str(oracle))
    assert path.read_bytes() == oracle.read_bytes()
    assert path.read_bytes().startswith(b'Cr,GLU,PRO,"Na, ""serum"""\r\n')
    loaded = read_matrix_csv(str(path), schemas)
    assert loaded.values.view(np.int64).tolist() == values.view(np.int64).tolist()


@pytest.mark.parametrize("cell, message", [
    ("abc", "line 4502: could not convert string to float: 'abc'"),
    ("1.0,2.0", "line 4502 has 4 cells, the header 3"),
    ("inf", "line 4502 has a cell that is not a finite number"),
])
def test_matrix_csv_bad_cell_past_first_block_names_its_line(tmp_path, tiny_schemas, cell,
                                                             message):
    from conftest import make_matrix
    path = tmp_path / "matrix.csv"
    write_matrix_csv(make_matrix(np.ones((5000, 3)), tiny_schemas), str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[4501] = f"{cell},1.0,1.0\n"  # data row 4501 is line 4502
    path.write_text("".join(lines))
    with pytest.raises(IngestError, match=message):
        read_matrix_csv(str(path), tiny_schemas)


def test_matrix_csv_cells_convert_as_float_does(tmp_path, tiny_schemas):
    path = tmp_path / "matrix.csv"
    path.write_text("Cr,GLU,PRO\n1_0, 2.5 ,١٢\n")
    loaded = read_matrix_csv(str(path), tiny_schemas)
    assert loaded.values.tolist() == [[10.0, 2.5, 12.0]]
