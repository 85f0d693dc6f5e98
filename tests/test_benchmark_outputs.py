"""The benchmark's output checks, run as tests: the first seed-1 requests
of `hypercentre_stream` and the whole of `quotient_pack`, each through
`perfbench/workloads.py` and compared with `perfbench/golden/`.  The
golden files are only read."""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STREAM_PREFIX = 40


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads as module  # perfbench/workloads.py, which imports gen
        yield module


def _golden(name):
    return json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())


def test_stream_prefix_matches_the_golden(workloads, monkeypatch):
    golden = _golden("hypercentre_stream")
    # the generator draws request i from one seeded stream, so the first 40
    # requests are the first 40 of the golden run
    monkeypatch.setattr(workloads, "STREAM_REQUESTS", STREAM_PREFIX)
    out = workloads.hypercentre_stream(golden["seed"], golden)
    assert out.failures == []
    assert (out.attempted, out.failed) == (STREAM_PREFIX, 0)
    assert out.record["digests"] == golden["digests"][:STREAM_PREFIX]


def test_quotient_pack_matches_the_golden(workloads):
    golden = _golden("quotient_pack")
    out = workloads.quotient_pack(1, golden)
    assert out.failures == []
    assert out.failed == 0
    assert out.record == golden
