"""Golden renderings of ``repro trace summarize``.

The summary's prefix sections (fault injection, daemon, elastic
capacity, batch prediction) must render byte for byte as pinned in
``tests/obs/golden/``: once for the checked-in obs-smoke trace, and
once for a synthetic payload that fills every section with int and
float counters and gauges, plus gauges under prefixes whose sections
list counters only.
"""

from pathlib import Path

from repro.obs.summary import load_trace, summarize_text

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"

#: Every prefix section, int and float values, and names no section
#: claims.
ACCOUNTING_PAYLOAD = {
    "spans": [],
    "counters": {
        "engine.runs": 5,
        "fault.crash": 3,
        "fault.delay_s": 1.23456,
        "retry.attempts": 7,
        "retry.backoff_s": 0.5,
        "daemon.claims": 8,
        "daemon.commits": 6,
        "daemon.wait_s": 2.25,
        "provider.reclaimed": 2,
        "provider.cost": 10.5,
        "model.predict.batch.calls": 3,
        "model.predict.batch.requests": 10,
        "model.predict.batch.seconds": 0.123,
    },
    "gauges": {
        "daemon.queue_depth": 2,
        "daemon.lease_ratio": 0.75,
        "provider.pool_size": 12,
        "provider.spot_fraction": 0.4166667,
        "fault.active": 1.5,
        "model.predict.batch.last": 4,
        "other.gauge": 1,
    },
}


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_obs_smoke_trace_summary_is_pinned():
    payload = load_trace(str(ROOT / "benchmarks/baselines/obs_smoke_trace.json"))
    assert summarize_text(payload) + "\n" == _golden("obs_smoke_summary.txt")


def test_prefix_sections_are_pinned():
    text = summarize_text(ACCOUNTING_PAYLOAD)
    assert text + "\n" == _golden("accounting_summary.txt")


def test_mean_batch_size_needs_calls():
    payload = {
        "spans": [],
        "counters": {"model.predict.batch.requests": 4},
    }
    text = summarize_text(payload)
    assert "Batch prediction (model.predict.batch.* totals):" in text
    assert "mean batch size" not in text
