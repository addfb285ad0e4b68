"""Tests for top-k neighbour search / blocking (`repro.core.lsh`)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import lsh
from repro.core.lsh import topk_pairs, topk_w2
from repro.core.wasserstein import w2_squared


def _reps_df(spark, n_a=12, n_b=15, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for t, n in (("a", n_a), ("b", n_b)):
        mu = rng.normal(size=(n, dim))
        sg = np.abs(rng.normal(size=(n, dim))) * 0.1
        for i in range(n):
            rows.append({"id": i, "table": t, "mu": mu[i].tolist(), "sigma": sg[i].tolist()})
    return spark.createDataFrame(pd.DataFrame(rows)), rows


def _brute_topk(rows, k):
    a = [r for r in rows if r["table"] == "a"]
    b = [r for r in rows if r["table"] == "b"]
    d = np.zeros((len(a), len(b)))
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            d[i, j] = w2_squared(
                np.array(ra["mu"]), np.array(ra["sigma"]),
                np.array(rb["mu"]), np.array(rb["sigma"]),
            )
    keep = set()
    for i in range(len(a)):
        for j in np.argsort(d[i], kind="stable")[:k]:
            keep.add((a[i]["id"], b[j]["id"]))
    for j in range(len(b)):
        for i in np.argsort(d[:, j], kind="stable")[:k]:
            keep.add((a[i]["id"], b[j]["id"]))
    return keep, d


class TestExactTopK:
    def test_matches_brute_force(self, spark):
        df, rows = _reps_df(spark)
        got = {(r["id_a"], r["id_b"]) for r in topk_pairs(df, k=3).collect()}
        want, _ = _brute_topk(rows, 3)
        assert got == want

    def test_w2_values_correct(self, spark):
        df, rows = _reps_df(spark, seed=1)
        _, d = _brute_topk(rows, 3)
        for r in topk_pairs(df, k=3).collect():
            assert r["w2"] == pytest.approx(d[r["id_a"], r["id_b"]], rel=1e-9)

    def test_k_bounds_per_side_membership(self, spark):
        """Every returned pair must be within the exact W2 top-k of at
        least one of its sides."""
        df, rows = _reps_df(spark, seed=2)
        want, _ = _brute_topk(rows, 2)
        got = {(r["id_a"], r["id_b"]) for r in topk_pairs(df, k=2).collect()}
        assert got <= want and got

    def test_all_tuples_covered(self, spark):
        df, _ = _reps_df(spark, seed=3)
        pdf = topk_pairs(df, k=1).toPandas()
        assert set(pdf["id_a"]) == set(range(12))
        assert set(pdf["id_b"]) == set(range(15))


def _arrays(n_a, n_b, dim, seed):
    rng = np.random.default_rng(seed)
    ids = {
        "a": rng.permutation(10 * n_a)[:n_a].astype(np.int64),
        "b": rng.permutation(10 * n_b)[:n_b].astype(np.int64),
    }
    mu = {t: rng.normal(size=(len(ids[t]), dim)) for t in ids}
    sigma = {t: np.abs(rng.normal(size=(len(ids[t]), dim))) for t in ids}
    return ids, mu, sigma


def _reference(ids, mu, sigma, k):
    """Unblocked reference: the full W2 matrix, each row and column
    ordered by (w2, other side's id) with a full sort."""
    d = ((mu["a"][:, None] - mu["b"][None]) ** 2).sum(2) + (
        (sigma["a"][:, None] - sigma["b"][None]) ** 2
    ).sum(2)
    keep = set()
    for i in range(d.shape[0]):
        for j in np.lexsort((ids["b"], d[i]))[:k]:
            keep.add((i, j))
    for j in range(d.shape[1]):
        for i in np.lexsort((ids["a"], d[:, j]))[:k]:
            keep.add((i, j))
    return {(int(ids["a"][i]), int(ids["b"][j])): d[i, j] for i, j in keep}


def _as_dict(id_a, id_b, w2):
    return dict(zip(zip(id_a.tolist(), id_b.tolist()), w2.tolist()))


class TestBlockedSearch:
    """Driver-side search on numpy arrays, no Spark."""

    def test_many_blocks_equal_full_sort(self, monkeypatch):
        ids, mu, sigma = _arrays(500, 700, 8, seed=10)
        # 7 probe rows per block against B's 700, 9 against A's 500.
        monkeypatch.setattr(lsh, "_BLOCK_BYTES", 8 * 700 * 7)
        got = _as_dict(*topk_w2(ids, mu, sigma, k=5))
        want = _reference(ids, mu, sigma, 5)
        assert got.keys() == want.keys()
        for pair, w2 in want.items():
            assert got[pair] == pytest.approx(w2, rel=1e-12)

    def test_output_sorted_by_ids(self):
        ids, mu, sigma = _arrays(30, 40, 4, seed=11)
        id_a, id_b, _ = topk_w2(ids, mu, sigma, k=3)
        key = id_a * 1000 + id_b
        assert (np.diff(key) > 0).all()

    def test_duplicate_vectors_break_ties_by_id(self):
        """Five identical B vectors are equally near every A row: each A
        row keeps the two smallest ids among them, whatever the row order."""
        rng = np.random.default_rng(12)
        dup = rng.normal(size=3)
        mu_b = np.vstack([np.tile(dup, (5, 1)), rng.normal(size=(4, 3)) + 50.0])
        ids_b = np.array([17, 3, 42, 8, 25, 1, 2, 4, 5], dtype=np.int64)
        mu_a = dup + 0.01 * rng.normal(size=(6, 3))
        sg_a, sg_b = np.zeros_like(mu_a), np.zeros_like(mu_b)
        for perm in (np.arange(9), rng.permutation(9), rng.permutation(9)):
            rows, cols, _ = lsh._side_topk(
                ids_b[perm], mu_a, sg_a, mu_b[perm], sg_b[perm], 2
            )
            assert rows.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
            assert ids_b[perm][cols].tolist() == [3, 8] * 6

    def test_k_larger_than_other_side_returns_every_pair(self):
        ids, mu, sigma = _arrays(4, 6, 3, seed=13)
        id_a, id_b, w2 = topk_w2(ids, mu, sigma, k=10)
        assert len(set(zip(id_a.tolist(), id_b.tolist()))) == 4 * 6
        assert (w2 >= 0).all()


def _bad_reps(case):
    rng = np.random.default_rng(0)

    def rows(t, n, width=4, bad=None):
        out = []
        for i in range(n):
            mu, sg = rng.normal(size=width), np.abs(rng.normal(size=width))
            if bad == "nan_mu" and i == 1:
                mu[2] = np.nan
            if bad == "inf_sigma" and i == 0:
                sg[0] = np.inf
            out.append({"id": i, "table": t, "mu": mu.tolist(), "sigma": sg.tolist()})
        return out

    if case == "empty_a":
        return rows("b", 3)
    if case == "empty_b":
        return rows("a", 3)
    if case == "arity_mismatch":
        return rows("a", 3, width=4) + rows("b", 3, width=6)
    if case == "nan_mu":
        return rows("a", 3, bad="nan_mu") + rows("b", 3)
    if case == "inf_sigma":
        return rows("a", 3) + rows("b", 3, bad="inf_sigma")
    return rows("a", 3) + rows("b", 3)


@pytest.mark.parametrize(
    "case, kwargs, match",
    [
        ("empty_a", {}, "table 'a' has no rows"),
        ("empty_b", {}, "table 'b' has no rows"),
        ("arity_mismatch", {}, "mu width differs between tables"),
        ("nan_mu", {}, "table 'a' has non-finite mu"),
        ("inf_sigma", {}, "table 'b' has non-finite sigma"),
        ("ok", {"k": 0}, "k must be at least 1"),
        ("ok", {"exact": False}, "approximate search was removed"),
    ],
)
def test_degenerate_inputs_fail_loudly(spark, case, kwargs, match):
    df = spark.createDataFrame(
        pd.DataFrame(_bad_reps(case)),
        schema="id long, table string, mu array<double>, sigma array<double>",
    )
    with pytest.raises(ValueError, match=match):
        topk_pairs(df, **kwargs)
