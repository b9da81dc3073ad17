"""The messy-cohort writer: seeded, and its injected counts match ingest's audit."""

import hashlib

import messy
from multisys import ingest
from multisys.rng import SplitMix64


def test_splitmix64_matches_the_reference_generator():
    stream = SplitMix64(12345)
    assert [int(v) for v in messy.splitmix64(12345, 5)] == [stream.next_u64() for _ in range(5)]


def test_injected_counts_match_the_ingest_audit(tmp_path):
    path = str(tmp_path / "messy.csv")
    counts = messy.write_messy_cohort(3000, 7, path)
    schemas = ingest.default_schema()
    _, audit = ingest.clean_cohort(ingest.load_cohort(path, schemas), schemas)
    assert sorted(counts) == sorted(audit["columns"])
    for col, want in counts.items():
        got = audit["columns"][col]
        assert (got["unparsed"], got["implausible"]) == (want["unparsed"], want["implausible"]), col
        assert got["parsed"] == 3000 - want["unparsed"] - want["implausible"], col
    cells = 3000 * len(counts)
    assert 0.015 * cells < sum(c["unparsed"] for c in counts.values()) < 0.025 * cells
    assert sum(c["implausible"] for c in counts.values()) > 0
    assert sum(c["restyled"] for c in counts.values()) > 0


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    def digest(seed, name):
        path = tmp_path / name
        messy.write_messy_cohort(500, seed, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(3, "a.csv") == digest(3, "b.csv")
    assert digest(3, "a.csv") != digest(4, "c.csv")
