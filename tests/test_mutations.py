"""A seeded mutation test: every damaged artifact ends in exit 0 or 2.

The fast config is run through `all` once.  Each example damages one JSON or
CSV artifact of a copy of that run and runs a stage that reads it: a value
replaced, a key, list item, row or column dropped, or a cell set to a bad
number.  A traceback fails the test, and so does an exit 2 whose stderr is not
one JSON error line.  Examples are drawn by Hypothesis with a fixed seed; CI
runs more of them under ``--hypothesis-profile=mutations``.
"""

import contextlib
import csv
import functools
import io
import json
import operator
import shutil

import pytest
from conftest import FAST_CONFIG
from hypothesis import HealthCheck, given, settings, strategies as st

from multisys.cli import run_subcommand

# The stages that read each artifact; pdp_*.csv are read by report.
READERS = {
    "manifest.json": ("split",),
    "cohort.csv": ("ingest",),
    "matrix.csv": ("features", "train", "explain", "report"),
    "indices.csv": ("split", "train", "report"),
    "partition.json": ("train", "explain"),
    "folds.json": ("evaluate",),
    "model_lr.json": ("evaluate",),
    "model_rf.json": ("evaluate",),
    "model_gb.json": ("explain",),
    "roc.json": ("report",),
    "beeswarm.csv": ("report",),
    "importance.csv": ("report",),
    "explain_meta.json": ("report",),
}

# JSON text put in place of a value: 1e400 parses as an infinite float.
LITERALS = ("0", "true", '"x"', "[]", "NaN", "1e400", str(2**70))
BAD_CELLS = ("inf", "nan", "x", str(2**70))
MARK = "\0mutant"

# A few seconds of examples unless a profile is chosen, such as CI's "mutations".
EXAMPLES = (60 if settings.get_current_profile_name() == "default"
            else settings.default.max_examples)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """(config path, run directory) of the fast config run through all."""
    base = tmp_path_factory.mktemp("full")
    config = base / "config.json"
    config.write_text(json.dumps(FAST_CONFIG))
    assert run_subcommand("all", str(config), str(base / "run")) == 0
    return str(config), base / "run"


def _json_paths(doc, path=()):
    """The key paths of every value below the document's root."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _json_paths(value, (*path, key))


def _mutate_json(data, text: str) -> str:
    doc = json.loads(text)
    *parents, last = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    holder = functools.reduce(operator.getitem, parents, doc)
    literal = data.draw(st.sampled_from((None, *LITERALS)), label="literal")  # None drops
    if literal is None:
        del holder[last]
        return json.dumps(doc)
    holder[last] = MARK
    return json.dumps(doc).replace(json.dumps(MARK), literal)


def _mutate_csv(data, text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    how = data.draw(st.sampled_from(("drop row", "drop column", *BAD_CELLS)), label="edit")
    if how == "drop row":
        del rows[i]
    elif how == "drop column":
        rows = [row[:j] + row[j + 1:] for row in rows]
    else:
        rows[i][j] = how
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_artifact_exits_0_or_2(full_run, tmp_path_factory, data):
    config, source = full_run
    names = sorted(p.name for p in source.iterdir()
                   if p.name in READERS or p.name.startswith("pdp_"))
    name = data.draw(st.sampled_from(names), label="artifact")
    stage = data.draw(st.sampled_from(READERS.get(name, ("report",))), label="stage")
    out = tmp_path_factory.mktemp("mutant") / "run"
    try:
        shutil.copytree(source, out)
        path = out / name
        mutate = _mutate_json if name.endswith(".json") else _mutate_csv
        path.write_text(mutate(data, path.read_text(encoding="utf-8")), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = run_subcommand(stage, config, str(out))
        assert status in (0, 2)
        if status == 2:
            [line] = err.getvalue().splitlines()
            assert sorted(json.loads(line)) == ["error", "message"]
    finally:
        shutil.rmtree(out.parent)
