"""Tests of the benchmark's own machinery: span coverage and the oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import vesseltopo  # noqa: E402
from vesseltopo import cli, flowgen, metrics, synth, taskgen  # noqa: E402


def _traced(fn) -> bool:
    return hasattr(fn, "__perfbench_original__")


@pytest.fixture
def tracer():
    t = spans.Tracer()
    uninstall = spans.install(t)
    yield t
    uninstall()


def test_every_listed_function_exists_and_is_public():
    for name in spans.SPAN_NAMES:
        layer, _, qual = name.partition(".")
        obj = sys.modules[f"vesseltopo.{layer}"]
        for part in qual.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
        assert not qual.split(".")[-1].startswith("_"), name


def test_install_wraps_every_binding(tracer):
    bound_by_value = [synth.betti_numbers, synth.label_components, synth.skeletonize,
                      taskgen.betti_numbers, taskgen.generate_vessel,
                      taskgen.perturb_disconnect, taskgen.load_mask.__globals__["load_image"],
                      metrics.skeletonize, metrics.beta0_matching_error,
                      flowgen.betti_numbers, flowgen.metric_report, flowgen.format_csv,
                      cli.build_dataset, cli.verify_answers, cli.train, cli.load_image,
                      vesseltopo.betti_numbers, vesseltopo.label_components]
    assert all(_traced(fn) for fn in bound_by_value)
    assert all(_traced(fn) for fn in synth._PERTURB_FAMILIES.values())
    assert _traced(flowgen.VelocityModel.forward_cached)
    assert _traced(flowgen.VelocityModel.backward)
    assert spans._stale_references(
        {id(fn.__perfbench_original__): fn for fn in bound_by_value}) == []


def test_uninstall_restores_originals():
    original = synth.betti_numbers
    uninstall = spans.install(spans.Tracer())
    assert synth.betti_numbers is not original
    uninstall()
    assert synth.betti_numbers is original
    assert synth._PERTURB_FAMILIES["merge"] is synth.perturb_merge
    assert not _traced(flowgen.VelocityModel.forward_cached)


def test_install_refuses_a_binding_it_cannot_rewrite(monkeypatch):
    original = synth.betti_numbers
    monkeypatch.setattr(synth, "_FROZEN_TABLE", (original,), raising=False)
    with pytest.raises(RuntimeError, match="_FROZEN_TABLE"):
        spans.install(spans.Tracer())
    assert synth.betti_numbers is original


def _check_nesting(recorded):
    for s in recorded:
        assert s[1] <= s[2]
        if s[3] >= 0:
            parent = recorded[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2]


def test_traced_workloads_nest_and_count(tracer, tmp_path):
    inputs.tiny_inputs(str(tmp_path / "tiny"))
    tiny = tmp_path / "tiny"
    t0 = time.perf_counter()
    assert cli.main(["taskgen", "--out", str(tmp_path / "tg"), "--width", "32",
                     "--height", "32", "--per-kind", "1", "--seed", "5"]) == 0
    assert cli.main(["metrics", "--pred", str(tiny / "pairs" / "pred"),
                     "--gt", str(tiny / "pairs" / "gt"),
                     "--out", str(tmp_path / "m.csv")]) == 0
    assert cli.main(["train", "--data", str(tiny / "flow"), "--checkpoint",
                     str(tmp_path / "ck.json"), "--steps", "2"]) == 0
    assert cli.main(["refine", "--data", str(tiny / "flow"), "--checkpoint",
                     str(tmp_path / "ck.json"), "--steps", "2"]) == 0
    wall = time.perf_counter() - t0
    recorded = tracer.spans
    _check_nesting(recorded)
    assert sum(spans.self_times(recorded)) <= wall
    out = spans.summarize(recorded, records=5, train_steps=2)
    assert set(out) >= {f"{n}.{k}" for n in spans.SPAN_NAMES for k in ("calls", "self_s")}
    for name in ("synth.generate_vessel", "synth.perturb_dilate_noise",
                 "taskgen.gen_choice", "maskio.save_image", "maskio.load_image",
                 "metrics.metric_report", "flowgen.VelocityModel.backward",
                 "flowgen.sample", "flowgen.load_checkpoint", "cli.main"):
        assert out[f"{name}.calls"][0] > 0, name
    assert out["cli.main.calls"][0] == 4
    assert out["metrics.labels_per_pair"][0] == 4
    assert out["synth.betti_per_edit"][0] > 0
    widths = (6, 16, 16, 1)
    per_step = 4 * 3 * spans._conv_flops(widths, (16, 16)) / 1e9
    assert out["flowgen.conv_gflop_per_step"][0] == pytest.approx(per_step)


def test_summarize_on_hand_made_spans():
    recorded = [
        ["synth.perturb_merge", 0.0, 10.0, -1, 2, None],
        ["topology.betti_numbers", 1.0, 4.0, 0, None, None],
        ["topology.label_components", 2.0, 3.0, 1, 100, None],
        ["topology.betti_numbers", 5.0, 6.0, 0, None, None],
        ["synth.perturb_holes", 11.0, 12.0, -1, None, "InsufficientStructure"],
        ["topology.betti_numbers", 13.0, 14.0, -1, None, None],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    out = spans.summarize(recorded, records=1, train_steps=0)
    assert out["topology.betti_numbers.calls"] == (3, "count")
    assert out["topology.betti_numbers.self_s"] == (4.0, "s")
    assert out["synth.betti_per_edit"] == (1.0, "ratio")
    assert out["synth.perturb_raised"] == (1, "count")
    assert out["topology.label_mpx_per_s"] == (1e-4, "Mpx/s")


def test_oracles_on_known_masks(tmp_path):
    ring = np.zeros((7, 7), dtype=bool)
    ring[1:6, 1:6] = True
    ring[3, 3] = False
    assert (oracles.beta0(ring), oracles.beta1(ring)) == (1, 1)
    two = np.zeros((5, 9), dtype=bool)
    two[2, 1:4] = two[2, 5:8] = True
    one = two.copy()
    one[2, 4] = True
    assert oracles.beta0_matching(two, one) == 1
    assert oracles.beta0_matching(one, np.zeros_like(one)) == 1
    assert oracles.dice(two, one) == pytest.approx(12 / 13)
    path = str(tmp_path / "ring.pgm")
    inputs.write_mask(path, ring)
    assert (oracles.read_mask(path) == ring).all()
    assert (vesseltopo.load_mask(path) == ring).all()


def test_host_sampler_times_a_call():
    hs = calibrate.HostSampler()
    t0 = time.perf_counter()
    result, net, nominal = hs.time(lambda n: sum(i * i for i in range(n)), 300_000)
    wall = time.perf_counter() - t0
    assert result == sum(i * i for i in range(300_000))
    assert 0.0 < net <= wall
    assert nominal == pytest.approx(net / hs.slowness[-1])
    # a call shorter than one sampling period is still given a slowness
    assert hs.time(int, "7")[0] == 7
    assert len(hs.slowness) == 2 and hs.slowness[-1] > 0.0


def test_inputs_are_seeded(tmp_path):
    pool = inputs.score_pool(seed=4, size=96)
    for tag in ("a", "b"):
        inputs.score_pass_pairs(pool, 4, 1, str(tmp_path / tag))
        inputs.flow_triples(str(tmp_path / tag / "flow"), [4, 1, 0], 2)
    assert inputs.tree_digest(str(tmp_path / "a")) == inputs.tree_digest(str(tmp_path / "b"))
