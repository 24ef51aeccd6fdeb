"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench -q

Runs every workload at a tiny plan, untraced and traced, and checks the
wrapper hygiene the per-layer numbers rely on: untraced runs install no
wrapper, traced runs put every original back, and every wrapped layer
fires on a workload that should load it -- so renaming a program function
shows up here as a missing layer instead of a silent zero.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (loads every vemoclap module the runs use)
from inputs import PAPER, Plan, make_video, video_digest  # noqa: E402
from vemoclap.autograd import Graph  # noqa: E402
from vemoclap.rng import SplitMix64  # noqa: E402

TINY = Plan(
    dims={"clip": 8, "beats": 8, "expression": 8, "ocr_sentiment": 8, "asr_sentiment": 8},
    n=4,
    d=8,
    heads=2,
    batch=4,
    train_videos=30,
    test_videos=12,
    max_frames=8,
)
WORKLOADS = ("train_paper", "predict_single")

# Layers each workload must load in its traced set-up plus round.
EXPECTED = {
    "train_paper": set(tracing.LAYER_NAMES)
    - {"model.load_checkpoint"},
    "predict_single": {
        "container.read_container",
        "model.load_checkpoint",
        "model.forward",
        "model.cross_attention",
        "training.predict_label",
        "autograd.matmul",
    },
}


def _bindings() -> dict:
    """Identity of every function bound in a vemoclap namespace or on the
    classes whose methods the tracer wraps."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == "vemoclap":
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = id(value)
    for cls in (Graph, SplitMix64):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(value)
    return out


def _run(workload: str, trace: bool) -> dict:
    out = run.run(workload, seed=7, seconds=0.05, trace=trace, plan=TINY)
    assert out["problems"] == []
    assert out["result"]["correct"] is True
    assert out["result"]["failed"] == 0
    assert out["result"]["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_installs_no_wrapper(workload, monkeypatch):
    before = _bindings()

    def refuse(self):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    out = _run(workload, trace=False)
    assert set(out["result"]["metrics"]) == set(run.E2E_METRICS)
    assert all(m["value"] > 0 for m in out["result"]["metrics"].values())
    assert _bindings() == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_originals_and_fires_its_layers(workload):
    before = _bindings()
    out = _run(workload, trace=True)
    assert _bindings() == before
    fired = {name for name, rec in out["details"]["layers"].items() if rec["calls"] > 0}
    missing = EXPECTED[workload] - fired
    assert not missing, f"{workload}: wrapped layers that never fired: {sorted(missing)}"
    metrics = out["result"]["metrics"]
    assert set(metrics) == {name for name, _, _ in run.LAYER_METRICS}
    assert metrics["trace.wall_s"]["value"] == pytest.approx(metrics["trace.self_sum_s"]["value"])


def test_every_wrapper_fires_on_some_workload():
    assert set().union(*EXPECTED.values()) == set(tracing.LAYER_NAMES)


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.LAYER_METRICS
    ]


def test_paper_inputs_cover_the_branches_and_repeat():
    videos = [make_video(PAPER, 3, "test", i) for i in range(PAPER.test_videos)]
    assert any(vf.n_stored < PAPER.n for vf in videos)
    assert sum(vf.n_stored > PAPER.n for vf in videos) > len(videos) // 2
    assert any(vf.k == 0 for vf in videos)
    assert any(not vf.ocr_present for vf in videos)
    assert any(not vf.asr_present for vf in videos)
    labels = [int(vf.label) for vf in videos]
    assert max(labels.count(c) for c in range(6)) - min(labels.count(c) for c in range(6)) <= 1
    again = make_video(PAPER, 3, "test", 5)
    assert video_digest(again) == video_digest(videos[5])
    assert video_digest(make_video(PAPER, 4, "test", 5)) != video_digest(videos[5])
