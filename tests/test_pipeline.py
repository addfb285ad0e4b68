"""Integration tests: the end-to-end VAER pipeline on a tiny domain."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.active import (
    ActiveLearner,
    OracleLabeler,
    evaluate_matcher,
    train_matcher,
)
from repro.core.encode import irs_as_representations
from repro.core.lsh import topk_pairs
from repro.core.metrics import topk_prf
from repro.core.pipeline import domain_tensors, learn_representations


class TestRepresentationPipeline:
    def test_rep_result_shapes(self, tiny_domain, tiny_rep, small_cfg):
        n = tiny_domain.a.count() + tiny_domain.b.count()
        assert tiny_rep.irs_df.count() == n
        assert tiny_rep.reps_df.count() == n
        row = tiny_rep.reps_df.first()
        m = tiny_domain.spec.arity
        assert len(row["mu"]) == m * small_cfg.vae_latent_dim

    def test_timings_recorded(self, tiny_rep):
        assert tiny_rep.ir_seconds > 0
        assert tiny_rep.train_seconds > 0

    def test_neighbour_search_finds_duplicates(self, tiny_domain, tiny_rep):
        prf = topk_prf(
            topk_pairs(tiny_rep.reps_df, k=10), tiny_domain.test
        )
        assert prf.recall > 0.5

    def test_vae_not_worse_than_raw_ir_recall(self, tiny_domain, tiny_rep):
        """The Table IV claim at tiny scale: encoding must preserve the
        IR similarity signal (allow small slack for noise)."""
        raw = topk_prf(
            topk_pairs(irs_as_representations(tiny_rep.irs_df), k=10),
            tiny_domain.test,
        )
        enc = topk_prf(
            topk_pairs(tiny_rep.reps_df, k=10), tiny_domain.test
        )
        # The tiny fixture has only a handful of test positives, so compare
        # retrieved-duplicate *counts* with a 2-pair slack rather than the
        # heavily quantised recall ratio.
        assert enc.tp >= raw.tp - 2

    def test_transfer_path_skips_training(self, tiny_domain, tiny_rep, small_cfg):
        rep2 = learn_representations(
            tiny_domain, kind="lsa", cfg=small_cfg, seed=0, vae=tiny_rep.vae
        )
        try:
            assert rep2.train_seconds == 0.0
            assert rep2.reps_df.count() == tiny_rep.reps_df.count()
        finally:
            rep2.irs_df.unpersist()


class TestMatchingPipeline:
    def test_full_matcher_beats_chance(self, tiny_domain, tiny_rep, tiny_tensors, small_cfg):
        train = tiny_domain.train.toPandas()
        test = tiny_domain.test.toPandas()
        m = train_matcher(
            tiny_tensors,
            train,
            train["label"].to_numpy(),
            tiny_rep.vae.encoder.state(),
            small_cfg,
            seed=0,
        )
        prf = evaluate_matcher(m, tiny_tensors, test)
        # The tiny fixture's test split holds only a handful of positives,
        # so assert clear-of-chance rather than a production-grade score.
        assert prf.f1 > 0.3

    def test_active_learning_end_to_end(self, tiny_domain, tiny_rep, tiny_tensors, small_cfg):
        cand = topk_pairs(tiny_rep.reps_df, k=10).toPandas()
        labeler = OracleLabeler(tiny_domain.truth.toPandas())
        al = ActiveLearner(
            tiny_tensors,
            labeler,
            tiny_rep.vae.encoder.state(),
            small_cfg,
            seed=0,
            matcher_epochs=80,
        )
        boot = al.bootstrap(cand, n_pos=8, n_neg=8)
        assert len(boot.l_pos) > 0 and len(boot.l_neg) > 0
        test = tiny_domain.test.toPandas()
        al.run(budget=20)
        prf = evaluate_matcher(al.matcher, tiny_tensors, test)
        assert prf.f1 > 0.3

    def test_tensors_alignment(self, tiny_domain, tiny_tensors):
        truth = tiny_domain.truth.toPandas()
        ida = truth["id_a"].to_numpy()[:4]
        idb = truth["id_b"].to_numpy()[:4]
        Xs, Xt = tiny_tensors.pair_irs(ida, idb)
        assert Xs.shape == Xt.shape
        assert Xs.shape[1] == tiny_domain.spec.arity
        d = tiny_tensors.pair_euclid(ida, idb)
        assert d.shape == (4,) and (d >= 0).all()

    def test_duplicates_closer_than_random(self, tiny_domain, tiny_tensors):
        truth = tiny_domain.truth.toPandas()
        ida = truth["id_a"].to_numpy()
        idb = truth["id_b"].to_numpy()
        d_dup = tiny_tensors.pair_euclid(ida, idb).mean()
        rng = np.random.default_rng(0)
        rand_b = rng.permutation(tiny_tensors.ids["b"])[: len(ida)]
        d_rand = tiny_tensors.pair_euclid(ida, rand_b).mean()
        assert d_dup < d_rand
