"""A seeded mutation test: every damaged artifact or config document ends in
exit 0 or 2.

The fast config is run through `all` once.  Each example damages one JSON or
CSV artifact of a copy of that run and runs a stage that reads it: a value
replaced, a key, list item, row or column dropped, or a cell set to a bad
number.  Other examples damage one of the run config, spec, schema and systems
documents the same way and run a fresh directory through the stages up to the
one that uses it.  A traceback fails the test, and so does an exit 2 whose
stderr is not one JSON error line.  Examples are drawn by Hypothesis with a
fixed seed; CI runs more of them under ``--hypothesis-profile=mutations``.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import operator
import shutil

import pytest
from conftest import FAST_CONFIG
from hypothesis import HealthCheck, given, settings, strategies as st

from multisys import indices, ingest, synth
from multisys.cli import run_subcommand

# The stages that read each artifact; pdp_*.csv are read by report.
READERS = {
    "manifest.json": ("split",),
    "cohort.csv": ("ingest",),
    "matrix.csv": ("features", "train", "evaluate", "explain", "report"),
    "indices.csv": ("split", "train", "evaluate", "report"),
    "partition.json": ("train", "evaluate", "explain"),
    "folds.json": ("evaluate",),
    "model_lr.json": ("evaluate",),
    "model_rf.json": ("evaluate",),
    "model_gb.json": ("evaluate", "explain"),
    "roc.json": ("report",),
    "beeswarm.csv": ("report",),
    "importance.csv": ("report",),
    "explain_meta.json": ("report",),
}

# The config documents, and the stage that uses each; every stage parses all
# four when it starts, so a fresh directory runs the stages up to that one.
DOCUMENTS = {"config.json": "simulate", "spec.json": "simulate", "schema.json": "ingest",
             "systems.json": "features"}
STAGES = ("simulate", "ingest", "features")

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


def _fields(obj, unused=()) -> dict:
    """A dataclass's fields as JSON values, without None and `unused` ones."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(obj).items()
            if value is not None and key not in unused}


def _documents(folder) -> dict:
    """JSON text by file name: the default spec, schema and systems, and
    FAST_CONFIG naming them as files in `folder`."""
    spec = {"n": 160, "seed": 7, "analytes": [_fields(a, synth._UNUSED_FIELDS[a.dist])
                                              for a in synth.default_analytes()]}
    renamed = {"unit_hint": "unit", "fill_policy": "fill"}
    schema = {"columns": [{renamed.get(key, key): value for key, value in _fields(c).items()}
                          for c in ingest.default_schema()],
              "semiquant_tokens": ingest.DEFAULT_SEMIQUANT_TOKENS}
    systems = {"systems": [_fields(s) for s in indices.default_systems()]}
    config = {**FAST_CONFIG,
              "synth": {**FAST_CONFIG["synth"], "spec_path": str(folder / "spec.json")},
              "schema_config": str(folder / "schema.json"),
              "systems_config": str(folder / "systems.json")}
    docs = {"config.json": config, "spec.json": spec, "schema.json": schema,
            "systems.json": systems}
    return {name: json.dumps(doc) for name, doc in docs.items()}


def _run_documents(folder, texts: dict, last: str) -> tuple[int, str]:
    """Exit status and stderr of the stages up to `last`, stopping at the
    first that fails, in a fresh run directory, on the documents `texts`
    written into `folder`."""
    for name, text in texts.items():
        (folder / name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        for stage in STAGES[:STAGES.index(last) + 1]:
            status = run_subcommand(stage, str(folder / "config.json"), str(folder / "run"))
            if status:
                break
    return status, err.getvalue()


def _assert_exits_0_or_2(status: int, err: str) -> None:
    assert status in (0, 2)
    if status == 2:
        [line] = err.splitlines()
        assert sorted(json.loads(line)) == ["error", "message"]


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
        _assert_exits_0_or_2(status, err.getvalue())
    finally:
        shutil.rmtree(out.parent)


def test_config_documents_reproduce_the_fast_run(full_run, tmp_path):
    # the documents hold the defaults, so the damaged ones start from the fast run
    assert _run_documents(tmp_path, _documents(tmp_path), "features") == (0, "")
    for name in ("cohort.csv", "matrix.csv", "indices.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (full_run[1] / name).read_bytes()


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_config_document_exits_0_or_2(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("documents")
    try:
        texts = _documents(folder)
        name = data.draw(st.sampled_from(sorted(texts)), label="document")
        texts[name] = _mutate_json(data, texts[name])
        _assert_exits_0_or_2(*_run_documents(folder, texts, DOCUMENTS[name]))
    finally:
        shutil.rmtree(folder)
