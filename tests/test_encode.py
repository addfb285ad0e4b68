"""Tests for distributed encoding (`repro.core.encode`)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.active import DomainTensors
from repro.core.encode import encode_representations, irs_as_representations
from repro.core.vae import VAE


@pytest.fixture(scope="module")
def irs_df(spark):
    rng = np.random.default_rng(0)
    rows = []
    for t, n in (("a", 9), ("b", 7)):
        for i in range(n):
            rows.append(
                {"id": i, "table": t, "irs": rng.normal(size=(3, 6)).tolist()}
            )
    return spark.createDataFrame(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def vae():
    v = VAE(6, 10, 4, seed=0)
    v.fit(np.random.default_rng(1).normal(size=(80, 6)), epochs=3)
    return v


class TestEncodeRepresentations:
    def test_matches_driver_encoding(self, spark, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).toPandas()
        src = irs_df.toPandas()
        by = {(r["table"], r["id"]): np.stack(r["irs"]) for _, r in src.iterrows()}
        for _, r in out.iterrows():
            mu, sigma = vae.encode(by[(r["table"], r["id"])])
            assert np.allclose(np.asarray(r["mu"]), mu.ravel(), atol=1e-9)
            assert np.allclose(np.asarray(r["sigma"]), sigma.ravel(), atol=1e-9)

    def test_flattened_length(self, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).first()
        assert len(out["mu"]) == 3 * 4  # arity * latent
        assert len(out["sigma"]) == 3 * 4

    def test_sigma_positive(self, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).toPandas()
        assert all((np.asarray(s) > 0).all() for s in out["sigma"])

    def test_row_count_preserved(self, irs_df, vae):
        assert encode_representations(irs_df, vae.encoder.state()).count() == 16


class TestIrsAsRepresentations:
    def test_mu_is_concatenated_irs(self, irs_df):
        out = irs_as_representations(irs_df).toPandas()
        src = irs_df.toPandas()
        by = {(r["table"], r["id"]): np.stack(r["irs"]) for _, r in src.iterrows()}
        for _, r in out.iterrows():
            assert np.allclose(
                np.asarray(r["mu"]), by[(r["table"], r["id"])].ravel()
            )

    def test_sigma_all_zero(self, irs_df):
        out = irs_as_representations(irs_df).toPandas()
        assert all(not np.asarray(s).any() for s in out["sigma"])


class TestCollect:
    def test_alignment(self, irs_df, vae):
        """DomainTensors.from_frames realigns reps rows, collected in any
        order, to the IR rows of each table."""
        irs_pdf = irs_df.toPandas()
        pdf = encode_representations(irs_df, vae.encoder.state()).toPandas()
        shuffled = pdf.sample(frac=1.0, random_state=3).reset_index(drop=True)
        assert not shuffled["id"].equals(pdf["id"])
        t = DomainTensors.from_frames(irs_pdf, shuffled)
        assert set(t.ids) == {"a", "b"}
        assert t.mu["a"].shape == (9, 12) and t.sigma["b"].shape == (7, 12)
        # Row i of mu['a'] must belong to ids['a'][i].
        lookup = {(r["table"], r["id"]): r for _, r in pdf.iterrows()}
        for tab in ("a", "b"):
            for i, tid in enumerate(t.ids[tab]):
                r = lookup[(tab, int(tid))]
                assert np.allclose(t.mu[tab][i], np.asarray(r["mu"]))
                assert np.allclose(t.sigma[tab][i], np.asarray(r["sigma"]))
