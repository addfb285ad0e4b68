"""Self-tests of the benchmark: span arithmetic, metric names, the exact
top-k oracle and the traced pass's coverage check.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from measure import E2E, MAX_UNATTRIBUTED, PER_LAYER, layer_metrics, run_pass
from spans import Span, Tracer, self_times
from workloads import Workload, exact_topk, raw_ir_tensors

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(i, name, parent, start, end, **counts):
    return Span(i, name, parent, "r", start, end, counts)


class TestSelfTimes:
    def test_children_are_subtracted(self):
        spans = [
            _span(0, "root", None, 0.0, 10.0),
            _span(1, "a", 0, 1.0, 4.0),
            _span(2, "b", 0, 5.0, 9.0),
            _span(3, "a.inner", 1, 2.0, 3.0),
        ]
        st = self_times(spans)
        assert st == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})
        # The self times of a tree add up to its root's duration.
        assert sum(st.values()) == pytest.approx(10.0)

    def test_overlapping_and_protruding_children_are_clipped(self):
        spans = [
            _span(0, "root", None, 0.0, 10.0),
            _span(1, "a", 0, 2.0, 6.0),
            _span(2, "b", 0, 4.0, 8.0),  # overlaps a
            _span(3, "c", 0, 9.0, 12.0),  # sticks out of root
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_tracer_nests_and_times_spans(self):
        tr = Tracer("r")
        with tr.span("outer") as outer:
            with tr.span("inner", rows=3) as inner:
                time.sleep(0.01)
        assert inner.parent == outer.id and outer.parent is None
        assert inner.counts == {"rows": 3}
        assert outer.start <= inner.start < inner.end <= outer.end
        assert tr.overhead_s >= 0.0


class TestLayerMetrics:
    def test_scoring_counts_only_inside_al_steps(self):
        spans = [
            _span(0, "pass", None, 0.0, 10.0),
            _span(1, "active.step", 0, 0.0, 4.0),
            _span(2, "active.predict_pairs", 1, 0.0, 1.0, pairs=100),
            _span(3, "active.train_matcher", 1, 1.0, 3.0),
            _span(4, "metrics.evaluate_matcher", 0, 5.0, 6.0),
            _span(5, "active.predict_pairs", 4, 5.0, 6.0, pairs=50),
            _span(6, "siamese.fit", 3, 1.0, 3.0, steps=400),
        ]
        m = layer_metrics(spans)
        assert m["active.score_s"] == pytest.approx(1.0)
        assert m["active.score_pairs"] == 100
        assert m["active.retrain_s"] == pytest.approx(2.0)
        assert m["metrics.eval_s"] == pytest.approx(1.0)
        assert m["siamese.step_ms"] == pytest.approx(5.0)
        assert m["lsh.topk_s"] == 0.0 and m["baselines.ditto.fit_s"] == 0.0


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        names = list(E2E) + list(PER_LAYER)
        assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
        assert len(set(names)) == len(names)

    def test_benchmark_json_matches_the_code(self):
        from workloads import WORKLOADS

        spec = json.loads(BENCHMARK_JSON.read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _fake_workload(run):
    return Workload("fake", "none", 0.0, (), run)


class TestTracedPass:
    """The coverage check every traced pass runs: self times of the layer
    spans must add up to wall_s within MAX_UNATTRIBUTED."""

    def _run(self, body):
        return run_pass(SimpleNamespace(sparkContext=None), _fake_workload(body), None, 0, True, "t")

    def test_covered_pass_passes_and_excludes_bench_spans(self):
        def body(p):
            with p.span("ir.x"):
                time.sleep(0.05)
            with p.span("bench.oracle"):
                time.sleep(0.05)
            with p.span("lsh.y"):
                time.sleep(0.05)

        r = self._run(body)
        assert r.failures == []
        assert r.values["trace.unattributed_frac"] < MAX_UNATTRIBUTED
        assert 0.09 < r.wall_s < 0.14  # bench.oracle is not wall time

    def test_glue_outside_spans_fails_the_check(self):
        def body(p):
            time.sleep(0.05)
            with p.span("ir.x"):
                time.sleep(0.05)

        r = self._run(body)
        assert any("outside layer spans" in f for f in r.failures)

    def test_exception_counts_as_failure(self):
        def body(p):
            raise RuntimeError("boom")

        r = self._run(body)
        assert r.failures and "boom" in r.failures[0]


@pytest.fixture(scope="module")
def tiny_rep_pb(spark, tiny_domain, small_cfg):
    from repro.core.pipeline import learn_representations

    rep = learn_representations(tiny_domain, kind="lsa", cfg=small_cfg, seed=0)
    yield rep
    rep.irs_df.unpersist()


@pytest.fixture(scope="module")
def tiny_domain(spark):
    from repro.datasets.generate import er_domain

    return er_domain(spark, "restaurants", sf=0.08, seed=0)


@pytest.fixture(scope="module")
def small_cfg():
    from repro.core.config import VaerConfig

    return VaerConfig(ir_dim=12, vae_hidden_dim=24, vae_latent_dim=8, vae_epochs=4)


class TestExactOracle:
    """The numpy oracle behind lsh.exact_recall returns exactly the pairs
    of the Spark brute-force search."""

    @staticmethod
    def _pairs(df):
        pdf = df.toPandas()
        return set(zip(pdf["id_a"].tolist(), pdf["id_b"].tolist()))

    def test_latent_arm(self, tiny_rep_pb):
        from repro.core.lsh import topk_pairs
        from repro.core.pipeline import domain_tensors

        spark_pairs = self._pairs(topk_pairs(tiny_rep_pb.reps_df, k=5, exact=True))
        assert exact_topk(domain_tensors(tiny_rep_pb), 5) == spark_pairs

    def test_raw_ir_arm(self, tiny_rep_pb):
        from repro.core.encode import irs_as_representations
        from repro.core.lsh import topk_pairs
        from repro.core.pipeline import domain_tensors

        raw = irs_as_representations(tiny_rep_pb.irs_df)
        spark_pairs = self._pairs(topk_pairs(raw, k=5, exact=True))
        assert exact_topk(raw_ir_tensors(domain_tensors(tiny_rep_pb)), 5) == spark_pairs
