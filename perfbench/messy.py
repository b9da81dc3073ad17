"""Seeded messy-cohort writer for the ``prep-50k-messy`` workload.

The synthetic cohort from ``multisys.synth`` is clean: every cell parses and
every value is plausible.  This module corrupts a copy of it so that the
parse-rejection, plausibility and imputation paths of ``multisys.ingest`` run,
and records exactly how many cells of each column it corrupted, so the
benchmark can check the pipeline's ``audit.json`` against those counts.

Per cell, one uniform draw decides the corruption:

* about 2% of all cells become a missing token: blank, ``n/a`` or ``pending``;
* about 1% of continuous cells get an implausible magnitude: a sign slip
  (``-62.0 μmol/L``) or a value ten or more times the plausibility ceiling;
* about 7% of semiquantitative tokens are re-cased or padded with whitespace,
  which ingest must still accept.

The draws come from a vectorised SplitMix64 stream owned by this module, so
the injected cells depend only on the seed, not on the program's own RNG.
"""

from __future__ import annotations

import csv

import numpy as np

from multisys import ingest, synth

P_MISSING = 0.02
P_IMPLAUSIBLE = 0.01
P_RESTYLE = 0.07
MISSING_TOKENS = ("", "n/a", "pending")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & (2 ** 64 - 1)) + steps * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _restyle(token: str, kind: int) -> str:
    if kind == 0 and token.upper() != token:
        return token.upper()
    if kind == 1 and token.title() != token:
        return token.title()
    if kind == 2:
        return f" {token} "
    return "\t" + " ".join(token)


def corrupt(header: list[str], rows: list[list[str]], seed: int,
            schemas: list[ingest.ColumnSchema]) -> dict:
    """Corrupt ``rows`` in place; return the injected counts per column."""
    by_name = {s.name: s for s in schemas}
    n, p = len(rows), len(header)
    draws = splitmix64(seed, 2 * n * p)
    uniform = (draws[: n * p] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    uniform = uniform.reshape(n, p)
    choice = (draws[n * p:] % np.uint64(60)).astype(np.int64).reshape(n, p)
    counts = {}
    for j, name in enumerate(header):
        schema = by_name[name]
        continuous = schema.kind == "continuous"
        col = uniform[:, j]
        missing = np.flatnonzero(col < P_MISSING)
        if continuous:
            odd = np.flatnonzero((col >= P_MISSING) & (col < P_MISSING + P_IMPLAUSIBLE))
        else:
            odd = np.flatnonzero((col >= P_MISSING) & (col < P_MISSING + P_RESTYLE))
        for i in missing:
            rows[i][j] = MISSING_TOKENS[choice[i, j] % len(MISSING_TOKENS)]
        restyled = 0
        for i in odd:
            cell, c = rows[i][j], int(choice[i, j])
            if not continuous:
                new = _restyle(cell, c % 4)
                restyled += new != cell
                rows[i][j] = new
            elif c % 2:
                rows[i][j] = "-" + cell
            else:
                rows[i][j] = f"{schema.upper * (10 + c // 2)} {schema.unit_hint}"
        counts[name] = {"unparsed": len(missing),
                        "implausible": len(odd) if continuous else 0,
                        "restyled": restyled}
    return counts


def write_messy_cohort(n: int, seed: int, path: str) -> dict:
    """Generate an ``n``-row cohort, corrupt it, write it to ``path`` as CSV.

    Returns the injected counts per column.
    """
    header, rows = synth.generate(synth.GeneratorSpec(n=n, seed=seed))
    counts = corrupt(header, rows, seed, ingest.default_schema())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return counts
