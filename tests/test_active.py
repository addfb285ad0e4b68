"""Tests for active learning (§V, Algorithms 1 & 2)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.active import (
    ActiveLearner,
    DomainTensors,
    OracleLabeler,
    al_bootstrap,
    evaluate_matcher,
    train_matcher,
)
from repro.core.config import VaerConfig


def _toy_world(seed=0, n=60, m=2, d=6, k=4):
    """A synthetic domain where table b's first half duplicates table a."""
    rng = np.random.default_rng(seed)
    irs_a = rng.normal(size=(n, m, d))
    n_dup = n // 2
    irs_b = np.concatenate(
        [irs_a[:n_dup] + 0.05 * rng.normal(size=(n_dup, m, d)),
         rng.normal(size=(n - n_dup, m, d))]
    )
    # latent = first k dims of each attribute, flattened (a stand-in encoder)
    mu_a = irs_a[:, :, :k].reshape(n, m * k)
    mu_b = irs_b[:, :, :k].reshape(n, m * k)
    sg = 0.05
    tensors = DomainTensors(
        ids={"a": np.arange(n), "b": np.arange(n)},
        irs={"a": irs_a, "b": irs_b},
        mu={"a": mu_a, "b": mu_b},
        sigma={"a": np.full_like(mu_a, sg), "b": np.full_like(mu_b, sg)},
    )
    truth = pd.DataFrame({"id_a": np.arange(n_dup), "id_b": np.arange(n_dup)})
    # candidate pool: all pairs with their W2 (= euclid since sigma equal)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    w2 = [((mu_a[i] - mu_b[j]) ** 2).sum() for i, j in pairs]
    cand = pd.DataFrame(
        {"id_a": [p[0] for p in pairs], "id_b": [p[1] for p in pairs], "w2": w2}
    )
    return tensors, truth, cand


_CFG = VaerConfig(
    ir_dim=6, vae_latent_dim=4, match_hidden_dim=8,
    match_epochs=30, match_min_steps=1200, match_max_epochs=400,
    kde_samples_per_pair=20, al_samples_per_iteration=8,
)


def _enc_state(d=6, h=10, k=4, seed=1):
    rng = np.random.default_rng(seed)
    return {
        "h_W": rng.normal(size=(d, h)) * 0.4, "h_b": np.zeros(h),
        "mu_W": rng.normal(size=(h, k)) * 0.4, "mu_b": np.zeros(k),
        "lv_W": rng.normal(size=(h, k)) * 0.05, "lv_b": np.zeros(k) - 1.0,
    }


class TestDomainTensors:
    @staticmethod
    def _tensors():
        rng = np.random.default_rng(5)
        ids = {"a": rng.permutation(1000)[:40], "b": rng.permutation(1000)[:30]}
        irs = {t: rng.normal(size=(len(v), 2, 3)) for t, v in ids.items()}
        mu = {t: rng.normal(size=(len(v), 4)) for t, v in ids.items()}
        sigma = {t: rng.random((len(v), 4)) for t, v in ids.items()}
        return DomainTensors(ids=ids, irs=irs, mu=mu, sigma=sigma)

    def test_gathers_equal_per_id_lookup(self):
        t = self._tensors()
        rng = np.random.default_rng(6)
        id_a = rng.choice(t.ids["a"], size=100)
        id_b = rng.choice(t.ids["b"], size=100)
        row = {s: {int(v): i for i, v in enumerate(t.ids[s])} for s in ("a", "b")}
        ra = np.array([row["a"][int(i)] for i in id_a])
        rb = np.array([row["b"][int(i)] for i in id_b])
        xs, xt = t.pair_irs(id_a, id_b)
        assert np.array_equal(xs, t.irs["a"][ra]) and np.array_equal(xt, t.irs["b"][rb])
        got = t.pair_latents(id_a, id_b)
        want = (t.mu["a"][ra], t.sigma["a"][ra], t.mu["b"][rb], t.sigma["b"][rb])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("missing", [-1, 1000, None])
    def test_unknown_id_raises_key_error(self, missing):
        t = self._tensors()
        if missing is None:  # an id between the smallest and largest known ids
            known = t.ids["b"]
            missing = int(np.setdiff1d(np.arange(known.min(), known.max()), known)[0])
        id_b = np.array([t.ids["b"][0], missing])
        with pytest.raises(KeyError, match=f"table 'b' has no tuple with id {missing}"):
            t.pair_irs(t.ids["a"][:2], id_b)


class TestOracleLabeler:
    def test_labels_and_counts(self):
        lab = OracleLabeler(pd.DataFrame({"id_a": [1, 2], "id_b": [10, 20]}))
        y = lab.label(np.array([1, 2, 3]), np.array([10, 99, 30]))
        assert y.tolist() == [1, 0, 0]
        assert lab.n_queries == 3


class TestBootstrap:
    def test_sets_partition_candidates(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        assert len(res.l_pos) == 5 and len(res.l_neg) == 5
        assert len(res.unlabeled) <= len(cand) - 10

    def test_positives_are_true_duplicates(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all(
            (a, b) in truth_set for a, b in zip(res.l_pos["id_a"], res.l_pos["id_b"])
        )

    def test_negatives_are_true_negatives(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all(
            (a, b) not in truth_set
            for a, b in zip(res.l_neg["id_a"], res.l_neg["id_b"])
        )

    def test_positive_w2_below_negative_w2(self):
        """Alg. 1 intuition: L+ comes from the small-distance end."""
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        w2 = {
            (a, b): w
            for a, b, w in zip(cand["id_a"], cand["id_b"], cand["w2"])
        }
        max_pos = max(w2[(a, b)] for a, b in zip(res.l_pos["id_a"], res.l_pos["id_b"]))
        min_neg = min(w2[(a, b)] for a, b in zip(res.l_neg["id_a"], res.l_neg["id_b"]))
        assert max_pos < min_neg

    def test_false_positive_removal_counted(self):
        """Poison the pool with a non-duplicate at distance ~0: Alg. 1
        must skip it and report one removal (the † footnote)."""
        tensors, truth, cand = _toy_world()
        poisoned = pd.concat(
            [pd.DataFrame({"id_a": [59], "id_b": [0], "w2": [0.0]}), cand],
            ignore_index=True,
        )
        res = al_bootstrap(poisoned, OracleLabeler(truth), n_pos=5, n_neg=5)
        assert res.n_false_pos_removed >= 1
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all(
            (a, b) in truth_set for a, b in zip(res.l_pos["id_a"], res.l_pos["id_b"])
        )


class TestMatcherHelpers:
    def test_train_and_evaluate(self):
        tensors, truth, cand = _toy_world()
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        pairs = cand.sample(n=120, random_state=0)[["id_a", "id_b"]].reset_index(drop=True)
        labels = np.array(
            [1 if (a, b) in truth_set else 0 for a, b in zip(pairs["id_a"], pairs["id_b"])]
        )
        # Ensure some positives exist in the training sample.
        pairs = pd.concat([pairs, truth.head(10)], ignore_index=True)
        labels = np.concatenate([labels, np.ones(10, dtype=int)])
        m = train_matcher(tensors, pairs, labels, _enc_state(), _CFG, seed=0)
        test = pd.concat(
            [
                truth.tail(10).assign(label=1),
                pd.DataFrame({"id_a": [50, 51, 52], "id_b": [1, 2, 3], "label": 0}),
            ],
            ignore_index=True,
        )
        prf = evaluate_matcher(m, tensors, test)
        assert prf.f1 > 0.7

    def test_epoch_autoscaling_small_sets(self):
        """Tiny labeled sets must still get >= match_min_steps steps."""
        tensors, truth, _ = _toy_world()
        pairs = pd.concat(
            [truth.head(4), pd.DataFrame({"id_a": [55, 56], "id_b": [2, 3]})],
            ignore_index=True,
        )
        labels = np.array([1, 1, 1, 1, 0, 0])
        m = train_matcher(tensors, pairs, labels, _enc_state(), _CFG, seed=0)
        assert m is not None  # smoke: must not underflow or error


class TestActiveLearner:
    def _learner(self, seed=0):
        tensors, truth, cand = _toy_world(seed=seed)
        labeler = OracleLabeler(truth)
        al = ActiveLearner(tensors, labeler, _enc_state(), _CFG, seed=seed)
        return al, cand, truth

    def test_bootstrap_initialises_state(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        assert al.matcher is not None and al.kde is not None
        assert len(al.pool) > 0

    def test_step_labels_quota_and_shrinks_pool(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        before = len(al.pool)
        got = al.step()
        assert got == _CFG.al_samples_per_iteration
        assert len(al.pool) == before - got

    def test_labels_go_to_correct_sets(self):
        al, cand, truth = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        al.step()
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        for a, b in zip(al.l_pos["id_a"], al.l_pos["id_b"]):
            assert (a, b) in truth_set
        for a, b in zip(al.l_neg["id_a"], al.l_neg["id_b"]):
            assert (a, b) not in truth_set

    def test_run_respects_budget(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        q0 = al.labeler.n_queries
        al.run(budget=16)
        assert al.labeler.n_queries - q0 == 16

    def test_al_improves_over_bootstrap(self):
        al, cand, truth = self._learner(seed=3)
        al.bootstrap(cand, n_pos=4, n_neg=4)
        tensors = al.tensors
        test = pd.concat(
            [
                truth.tail(12).assign(label=1),
                pd.DataFrame(
                    {"id_a": range(40, 56), "id_b": list(range(16, 0, -1)), "label": 0}
                ),
            ],
            ignore_index=True,
        )
        f1_boot = evaluate_matcher(al.matcher, tensors, test).f1
        al.run(budget=40)
        f1_al = evaluate_matcher(al.matcher, tensors, test).f1
        assert f1_al >= f1_boot - 0.05  # AL must not regress materially

    def test_empty_pool_stops(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand.head(12), n_pos=5, n_neg=5)
        al.pool = al.pool.head(0)
        assert al.step() == 0
