"""Top-k nearest-neighbour search over entity representations (§V-A, §VI-B).

The paper searches on ``mu`` vectors with Euclidean LSH (licensed by the
W2 <-> Euclidean-on-means correlation of §V-A) and re-orders results by
the full W2 distance. That LSH is a scaling device only: at every
Table II scale the exact search fits on the driver (DESIGN.md §2), so
this module runs it exactly.

W2 between diagonal Gaussians is the squared Euclidean distance between
the concatenations ``[mu | sigma]``. Each side searches the other table
in row blocks, ranking with the ``|x|^2 - 2 x.y + |y|^2`` expansion (one
matrix product per block, the blocked exact k-NN of FAISS: Johnson,
Douze, Jegou, *Billion-scale similarity search with GPUs*, 2017). The
expansion is exact only up to rounding, so every near-tie of the k-th
value is kept and the order is settled on directly computed W2, ties
broken by the other side's id.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

# Bytes one float64 block of expansion distances may take. A block holds
# as many probe rows as fit against the whole other table.
_BLOCK_BYTES = 64 << 20


def _w2(mu_p, sg_p, mu_q, sg_q) -> np.ndarray:
    """Row-wise W2 between aligned rows, computed directly."""
    return ((mu_p - mu_q) ** 2).sum(1) + ((sg_p - sg_q) ** 2).sum(1)


def _w2_rows(mu_p, sg_p, mu_q, sg_q, r, c) -> np.ndarray:
    """W2 of the row pairs ``(r[i], c[i])``, gathered in chunks whose
    rows take at most the block budget."""
    step = max(1, _BLOCK_BYTES // (8 * (mu_p.shape[1] + sg_p.shape[1])))
    return np.concatenate(
        [
            _w2(mu_p[r[s : s + step]], sg_p[r[s : s + step]],
                mu_q[c[s : s + step]], sg_q[c[s : s + step]])
            for s in range(0, len(r), step)
        ]
    )


def _side_topk(
    ids_q: np.ndarray,
    mu_p: np.ndarray,
    sg_p: np.ndarray,
    mu_q: np.ndarray,
    sg_q: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each probe row p, its k nearest q rows by exact W2, ties broken
    by q's id. Returns (probe row, q row, W2) arrays."""
    k = min(k, len(ids_q))
    xq = np.hstack([mu_q, sg_q])
    sq_q = (xq**2).sum(1)
    sq_q_max = sq_q.max()
    block = max(1, _BLOCK_BYTES // (8 * len(ids_q)))
    rows, cols, dists = [], [], []
    for s in range(0, len(mu_p), block):
        mp, sp = mu_p[s : s + block], sg_p[s : s + block]
        xp = np.hstack([mp, sp])
        sq_p = (xp**2).sum(1)
        d2 = xp @ xq.T
        d2 *= -2.0
        d2 += sq_p[:, None]
        d2 += sq_q[None, :]
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        tol = 1e-9 * (sq_p + sq_q_max + 1.0)
        r, c = np.nonzero(d2 <= (kth + tol)[:, None])
        del d2
        w2 = _w2_rows(mp, sp, mu_q, sg_q, r, c)
        order = np.lexsort((ids_q[c], w2, r))
        r, c, w2 = r[order], c[order], w2[order]
        keep = np.arange(len(r)) - np.searchsorted(r, r, side="left") < k
        rows.append(r[keep] + s)
        cols.append(c[keep])
        dists.append(w2[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def topk_w2(
    ids: dict[str, np.ndarray],
    mu: dict[str, np.ndarray],
    sigma: dict[str, np.ndarray],
    *,
    k: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Driver-side exact top-k over per-table arrays keyed ``'a'``/``'b'``.

    Each table needs at least one row. Returns ``(id_a, id_b, w2)`` for
    every pair in the W2 top-k of either side, sorted by ``(id_a, id_b)``.
    """
    if k < 1:
        raise ValueError(f"topk: k must be at least 1, got {k}")
    for name, arrs in (("mu", mu), ("sigma", sigma)):
        if arrs["a"].shape[1] != arrs["b"].shape[1]:
            raise ValueError(
                f"topk: {name} width differs between tables "
                f"(a: {arrs['a'].shape[1]}, b: {arrs['b'].shape[1]}); "
                "were they encoded at different arities?"
            )
        for t in ("a", "b"):
            if not np.isfinite(arrs[t]).all():
                raise ValueError(f"topk: table {t!r} has non-finite {name} values")
    ra, cb, w2_a = _side_topk(ids["b"], mu["a"], sigma["a"], mu["b"], sigma["b"], k)
    rb, ca, w2_b = _side_topk(ids["a"], mu["b"], sigma["b"], mu["a"], sigma["a"], k)
    # A pair found from both sides has the same W2 from both: (x - y)^2
    # and (y - x)^2 round alike.
    n_b = len(ids["b"])
    key, first = np.unique(
        np.concatenate([ra * n_b + cb, ca * n_b + rb]), return_index=True
    )
    w2 = np.concatenate([w2_a, w2_b])[first]
    ia, ib = key // n_b, key % n_b
    order = np.lexsort((ids["b"][ib], ids["a"][ia]))
    return ids["a"][ia[order]], ids["b"][ib[order]], w2[order]


def topk_pairs(
    reps: DataFrame,
    *,
    k: int = 10,
    exact: bool = True,
    seed: int | None = None,
) -> DataFrame:
    """Cross-table top-k neighbour pairs by exact W2.

    Returns ``(id_a, id_b, w2)`` where the pair is in the W2 top-k of
    *either* side — the §VI-B evaluation protocol and the Algorithm 1
    candidate pool. ``reps`` must carry (id, table in {'a','b'}, mu, sigma);
    it is collected to the driver once.

    ``exact`` and ``seed`` are kept only so that older callers keep
    working: the search is always exact and draws no random numbers.
    ``exact=False`` raises ``ValueError``.
    """
    if not exact:
        raise ValueError(
            "topk_pairs: approximate search was removed; the search is always exact"
        )
    pdf = reps.select("id", "table", "mu", "sigma").toPandas()
    ids, mu, sigma = {}, {}, {}
    for t in ("a", "b"):
        grp = pdf[pdf["table"] == t]
        if grp.empty:
            raise ValueError(f"topk_pairs: table {t!r} has no rows")
        ids[t] = grp["id"].to_numpy(np.int64)
        mu[t] = np.stack(grp["mu"].to_numpy())
        sigma[t] = np.stack(grp["sigma"].to_numpy())
    id_a, id_b, w2 = topk_w2(ids, mu, sigma, k=k)
    return reps.sparkSession.createDataFrame(
        pd.DataFrame({"id_a": id_a, "id_b": id_b, "w2": w2}),
        schema="id_a long, id_b long, w2 double",
    )
