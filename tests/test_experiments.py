"""Integration tests for the per-table experiment harnesses (§VI)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import VaerConfig
from repro.experiments.tables import (
    ALL_DOMAINS,
    pad_to_arity,
    table2_datasets,
    table4_representation,
    table5_table6_matching,
    table7_transfer,
    table8_active_learning,
)

_CFG = VaerConfig(
    ir_dim=12,
    vae_hidden_dim=24,
    vae_latent_dim=8,
    vae_epochs=6,
    match_epochs=30,
    match_min_steps=300,
    match_max_epochs=120,
    kde_samples_per_pair=20,
)
_SF = 0.06


class TestTable2:
    def test_all_nine_domains(self, spark):
        df = table2_datasets(spark, sf=0.02)
        assert len(df) == 9
        assert set(df.columns) >= {"domain", "card_a", "card_b", "arity", "train", "test"}
        assert (df["card_a"] > 0).all()

    def test_registry_covers_paper(self):
        assert set(ALL_DOMAINS) == {
            "restaurants", "citations1", "citations2", "cosmetics",
            "software", "music", "beer", "stocks", "crm",
        }


class TestTable4:
    def test_structure_and_sanity(self, spark):
        df = table4_representation(
            spark, sf=_SF, domains=("restaurants",), kinds=("lsa", "bert"),
            cfg=_CFG,
        )
        assert len(df) == 2
        for col in ("P_ir", "R_ir", "F1_ir", "P_vaer", "R_vaer", "F1_vaer"):
            assert ((df[col] >= 0) & (df[col] <= 1)).all()
        assert (df["R_vaer"] > 0).all()  # duplicates must be findable


class TestTable5and6:
    def test_structure_and_times(self, spark):
        df = table5_table6_matching(
            spark, sf=_SF, domains=("restaurants",), cfg=_CFG,
            baselines=("deeper",),
        )
        row = df.iloc[0]
        assert 0 <= row["vaer_F1"] <= 1
        assert row["vaer_repr_s"] > 0 and row["vaer_match_s"] > 0
        assert row["deeper_s"] > 0
        assert 0 <= row["deeper_F1"] <= 1


class TestTable7:
    def test_pad_to_arity_widens_and_narrows(self, spark):
        from repro.datasets.generate import er_domain

        d = er_domain(spark, "crm", sf=0.03, seed=0)  # arity 12
        narrowed = pad_to_arity(spark, d, 4)
        assert len(narrowed.attrs) == 4
        assert narrowed.a.columns == ["id", *narrowed.attrs]
        d2 = er_domain(spark, "cosmetics", sf=0.01, seed=0)  # arity 3
        widened = pad_to_arity(spark, d2, 4)
        assert len(widened.attrs) == 4
        assert widened.a.select(widened.attrs[-1]).first()[0] == ""

    def test_transfer_deltas_bounded(self, spark):
        df = table7_transfer(
            spark, sf=_SF, domains=("restaurants",), cfg=_CFG,
        )
        row = df.iloc[0]
        assert np.isfinite(row["recall_delta"]) and np.isfinite(row["f1_delta"])
        assert row["recall_local"] > 0  # local pipeline must work when padded


class TestTable8:
    def test_structure_and_budget(self, spark):
        df = table8_active_learning(
            spark, sf=_SF, domains=("restaurants",), cfg=_CFG,
            label_budget=250,
        )
        row = df.iloc[0]
        assert row["budget"] == max(24, round(250 * _SF))
        assert row["boot_pos"] > 0 and row["boot_neg"] > 0
        for col in ("boot_F1", "al_F1", "full_F1"):
            assert 0 <= row[col] <= 1
        assert row["training_pct"] > 0
