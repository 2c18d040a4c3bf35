"""Tracer record collection and the torn-write-safe trace JSONL."""

import json

import pytest

from repro.obs import NullTracer, Tracer, append_trace, load_trace


def test_tracer_stamps_common_tags_on_every_record():
    tracer = Tracer(trial=7, backend="reference", scenario="luby/crash")
    tracer.round(1, active=100)
    tracer.event("result", rounds=1)
    assert all(
        r["trial"] == 7 and r["backend"] == "reference" and r["scenario"] == "luby/crash"
        for r in tracer.records
    )


def test_tracer_omits_unset_common_tags():
    tracer = Tracer(backend="dense")
    tracer.round(1, active=5)
    (record,) = tracer.records
    assert record["backend"] == "dense"
    assert "trial" not in record and "scenario" not in record


def test_round_records_filters_and_preserves_order():
    tracer = Tracer()
    tracer.event("setup", n=10)
    tracer.round(1, active=10)
    tracer.event("note")
    tracer.round(2, active=4)
    rounds = tracer.round_records()
    assert [r["round"] for r in rounds] == [1, 2]
    assert all(r["kind"] == "round" for r in rounds)
    assert len(tracer.records) == 4


def test_span_records_wall_time():
    tracer = Tracer()
    with tracer.span("pack", n=100):
        pass
    (record,) = tracer.records
    assert record["kind"] == "span"
    assert record["name"] == "pack"
    assert record["n"] == 100
    assert record["seconds"] >= 0.0


def test_span_records_even_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert tracer.records[0]["name"] == "doomed"


def test_flush_appends_and_clears(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(trial=0)
    tracer.round(1, active=3)
    tracer.round(2, active=1)
    assert tracer.flush(path) == 2
    assert tracer.records == []
    # a second flush writes nothing new
    assert tracer.flush(path) == 0
    records = load_trace(path)
    assert [r["round"] for r in records] == [1, 2]


def test_append_trace_accumulates_across_writers(tmp_path):
    path = tmp_path / "trace.jsonl"
    append_trace(path, [{"kind": "round", "round": 1, "trial": 0}])
    append_trace(path, [{"kind": "round", "round": 1, "trial": 1}])
    assert [r["trial"] for r in load_trace(path)] == [0, 1]


def test_append_seals_a_torn_tail(tmp_path):
    """A crash-truncated trailing line must not fuse with the next append."""
    path = tmp_path / "trace.jsonl"
    append_trace(path, [{"kind": "round", "round": 1}])
    with path.open("a") as fh:
        fh.write('{"kind": "round", "rou')  # torn mid-record, no newline
    append_trace(path, [{"kind": "round", "round": 2}])
    records = load_trace(path)
    assert [r["round"] for r in records] == [1, 2]


def test_load_trace_skips_corrupt_lines_with_warning(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    lines = [
        json.dumps({"kind": "round", "round": 1}),
        "not json at all {",
        json.dumps({"kind": "round", "round": 2}),
    ]
    path.write_text("\n".join(lines) + "\n")
    records = load_trace(path)
    assert [r["round"] for r in records] == [1, 2]
    assert f"skipping corrupt line 2 of {path}" in capsys.readouterr().err


def test_load_trace_missing_file_is_empty(tmp_path):
    assert load_trace(tmp_path / "absent.jsonl") == []


def test_null_tracer_is_inert(tmp_path):
    null = NullTracer()
    assert null.enabled is False
    null.round(1, active=10)
    null.event("result", rounds=1)
    with null.span("phase"):
        pass
    assert null.round_records() == []
    assert null.records == []
    path = tmp_path / "trace.jsonl"
    assert null.flush(path) == 0
    assert not path.exists()
