"""Active learning in the latent space (paper §V, Algorithms 1 and 2).

Algorithm 1 (`al_bootstrap`) builds the initial pools from the exact W2
top-k candidate pairs: smallest-W2 pairs become L+, largest-W2 pairs
become L-, everything else is the unlabeled pool U. The paper notes
(Table VIII †) that some domains' bootstrap positives contained false
positives "that had to be manually removed" — the simulated user here is
`OracleLabeler`, which consults the generator's ground truth; removals
are counted and reported.

Algorithm 2 (`ActiveLearner.run`) iterates: train the Siamese matcher on
L, estimate the duplicate-distance density f+ by KDE over reparameterised
samples of L+ members (Eq. 6), then pick certain/uncertain
positives/negatives by combining prediction entropy (Eq. 5) with f+, ask
the labeler, and fold the answers back into L.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.config import VaerConfig
from repro.core.kde import GaussianKDE
from repro.core.metrics import PRF, matcher_prf
from repro.core.siamese import SiameseMatcher


@dataclass
class DomainTensors:
    """Driver-side tensor view of one domain: IRs + latent reps by table.

    ``irs[t]`` is (n_t, m, d); ``mu[t]``/``sigma[t]`` are (n_t, m*k);
    row ``i`` of each belongs to tuple ``ids[t][i]``.
    """

    ids: dict[str, np.ndarray]
    irs: dict[str, np.ndarray]
    mu: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]
    # Per table: (sorted ids, row index of each sorted id), for id -> row.
    _index: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._index = {}
        for t, arr in self.ids.items():
            order = np.argsort(arr, kind="stable")
            self._index[t] = (arr[order], order)

    @classmethod
    def from_frames(cls, irs_pdf: pd.DataFrame, reps_pdf: pd.DataFrame) -> "DomainTensors":
        """Build from collected `build_irs` and `encode_representations` output."""
        ids: dict[str, np.ndarray] = {}
        irs: dict[str, np.ndarray] = {}
        mu: dict[str, np.ndarray] = {}
        sigma: dict[str, np.ndarray] = {}
        for t, grp in irs_pdf.groupby("table"):
            ids[t] = grp["id"].to_numpy()
            irs[t] = np.stack([np.stack(r) for r in grp["irs"]])
        for t, grp in reps_pdf.groupby("table"):
            order = {int(v): i for i, v in enumerate(grp["id"].to_numpy())}
            perm = np.array([order[int(v)] for v in ids[t]])
            mu[t] = np.stack(grp["mu"].to_numpy())[perm]
            sigma[t] = np.stack(grp["sigma"].to_numpy())[perm]
        return cls(ids=ids, irs=irs, mu=mu, sigma=sigma)

    # ---- pair gathers ---------------------------------------------------------
    def _rows(self, table: str, ids: np.ndarray) -> np.ndarray:
        keys, order = self._index[table]
        ids = np.asarray(ids)
        pos = np.searchsorted(keys, ids)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == ids[found]
        if not found.all():
            missing = ids[~found][0]
            raise KeyError(f"table {table!r} has no tuple with id {missing}")
        return order[pos]

    def pair_irs(self, id_a: np.ndarray, id_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.irs["a"][self._rows("a", id_a)],
            self.irs["b"][self._rows("b", id_b)],
        )

    def pair_latents(
        self, id_a: np.ndarray, id_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ra, rb = self._rows("a", id_a), self._rows("b", id_b)
        return self.mu["a"][ra], self.sigma["a"][ra], self.mu["b"][rb], self.sigma["b"][rb]

    def pair_euclid(self, id_a: np.ndarray, id_b: np.ndarray) -> np.ndarray:
        mu_s, _, mu_t, _ = self.pair_latents(id_a, id_b)
        return np.sqrt(((mu_s - mu_t) ** 2).sum(axis=1))


class OracleLabeler:
    """Simulated user: answers from the generator's ground-truth matches."""

    def __init__(self, truth_pdf: pd.DataFrame):
        self.truth = set(zip(truth_pdf["id_a"].tolist(), truth_pdf["id_b"].tolist()))
        self.n_queries = 0

    def label(self, id_a: np.ndarray, id_b: np.ndarray) -> np.ndarray:
        self.n_queries += len(id_a)
        return np.array(
            [1 if (int(a), int(b)) in self.truth else 0 for a, b in zip(id_a, id_b)],
            dtype=np.int64,
        )


@dataclass
class BootstrapResult:
    l_pos: pd.DataFrame  # (id_a, id_b) — verified positives
    l_neg: pd.DataFrame
    unlabeled: pd.DataFrame  # (id_a, id_b)
    n_false_pos_removed: int


def al_bootstrap(
    candidates: pd.DataFrame,
    labeler: OracleLabeler,
    *,
    n_pos: int = 15,
    n_neg: int = 15,
) -> BootstrapResult:
    """Algorithm 1 over a collected candidate pool (id_a, id_b, w2).

    L+ candidates are the ``n_pos`` smallest-W2 pairs; following the
    paper's † footnote, false positives among them are removed by the
    (simulated) user and counted. If *none* of the inspected candidates
    is a true positive, the scan extends just far enough to seed L+ with
    two — Algorithm 2 needs a non-empty L+ to estimate f+.
    Negatives are the ``n_neg`` largest-W2 pairs (true negatives kept).
    """
    cand = candidates.sort_values("w2", kind="stable").reset_index(drop=True)
    labels = labeler.label(cand["id_a"].to_numpy(), cand["id_b"].to_numpy())
    # NOTE: only the pairs *inspected* below count as user effort; the bulk
    # labels above are a vectorisation convenience, indexed lazily.
    labeler.n_queries -= len(cand)

    pos_idx: list[int] = []
    removed = 0
    scan_end = min(n_pos, len(cand))
    for i in range(scan_end):
        labeler.n_queries += 1
        if labels[i] == 1:
            pos_idx.append(i)
        else:
            removed += 1
    i = scan_end
    while len(pos_idx) < 2 and i < len(cand):  # degenerate pool: extend
        labeler.n_queries += 1
        if labels[i] == 1:
            pos_idx.append(i)
        i += 1
    neg_idx: list[int] = []
    for i in range(len(cand) - 1, -1, -1):
        if len(neg_idx) >= n_neg or i in pos_idx:
            break
        labeler.n_queries += 1
        if labels[i] == 0:
            neg_idx.append(i)
    used = set(pos_idx) | set(neg_idx)
    rest = cand.loc[[i for i in range(len(cand)) if i not in used], ["id_a", "id_b"]]
    return BootstrapResult(
        l_pos=cand.loc[pos_idx, ["id_a", "id_b"]].reset_index(drop=True),
        l_neg=cand.loc[neg_idx, ["id_a", "id_b"]].reset_index(drop=True),
        unlabeled=rest.reset_index(drop=True),
        n_false_pos_removed=removed,
    )


def train_matcher(
    tensors: DomainTensors,
    pairs: pd.DataFrame,
    labels: np.ndarray,
    encoder_state: dict[str, np.ndarray],
    cfg: VaerConfig,
    *,
    seed: int = 0,
    epochs: int | None = None,
) -> SiameseMatcher:
    """Train a fresh Siamese matcher (encoder re-initialised from the
    representation model, as the paper does per AL iteration).

    Epochs scale so that every training run sees at least
    ``cfg.match_min_steps`` optimiser steps regardless of labeled-set
    size (bounded by ``cfg.match_max_epochs``)."""
    Xs, Xt = tensors.pair_irs(pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy())
    m = SiameseMatcher(
        encoder_state,
        arity=Xs.shape[1],
        hidden=cfg.match_hidden_dim,
        margin=cfg.margin,
        seed=seed,
    )
    if epochs is None:
        steps_per_epoch = max(1, -(-len(pairs) // cfg.match_batch_size))
        epochs = min(
            cfg.match_max_epochs,
            max(cfg.match_epochs, -(-cfg.match_min_steps // steps_per_epoch)),
        )
    m.fit(
        Xs,
        Xt,
        labels.astype(np.float64),
        epochs=epochs,
        batch_size=cfg.match_batch_size,
        lr=cfg.learning_rate,
        seed=seed,
    )
    return m


def predict_pairs(
    matcher: SiameseMatcher,
    tensors: DomainTensors,
    pairs: pd.DataFrame,
    *,
    chunk: int = 8192,
) -> np.ndarray:
    """Chunked P(match) over a pair frame (tensors gathered per chunk)."""
    ida = pairs["id_a"].to_numpy()
    idb = pairs["id_b"].to_numpy()
    out = np.empty(len(pairs))
    for start in range(0, len(pairs), chunk):
        Xs, Xt = tensors.pair_irs(ida[start : start + chunk], idb[start : start + chunk])
        out[start : start + chunk] = matcher.predict_proba(Xs, Xt)
    return out


def evaluate_matcher(
    matcher: SiameseMatcher, tensors: DomainTensors, test: pd.DataFrame
) -> PRF:
    prob = predict_pairs(matcher, tensors, test)
    return matcher_prf(test["label"].to_numpy(), prob)


class ActiveLearner:
    """Algorithm 2: balanced, informative, diverse sampling."""

    def __init__(
        self,
        tensors: DomainTensors,
        labeler: OracleLabeler,
        encoder_state: dict[str, np.ndarray],
        cfg: VaerConfig = VaerConfig(),
        *,
        seed: int = 0,
        max_pool: int = 60_000,
        matcher_epochs: int | None = None,
    ):
        self.tensors = tensors
        self.labeler = labeler
        self.encoder_state = encoder_state
        self.cfg = cfg
        self.seed = seed
        self.max_pool = max_pool
        self.matcher_epochs = matcher_epochs
        self.rng = np.random.default_rng(seed)
        self.l_pos: pd.DataFrame | None = None
        self.l_neg: pd.DataFrame | None = None
        self.pool: pd.DataFrame | None = None
        self.matcher: SiameseMatcher | None = None
        self.kde: GaussianKDE | None = None
        self.history: list[dict] = []

    # ---- setup ------------------------------------------------------------
    def bootstrap(self, candidates: pd.DataFrame, *, n_pos: int = 15, n_neg: int = 15) -> BootstrapResult:
        res = al_bootstrap(candidates, self.labeler, n_pos=n_pos, n_neg=n_neg)
        self.l_pos, self.l_neg = res.l_pos, res.l_neg
        pool = res.unlabeled
        if len(pool) > self.max_pool:
            pool = pool.sample(n=self.max_pool, random_state=self.seed)
        self.pool = pool.reset_index(drop=True)
        self._retrain()
        return res

    def _retrain(self) -> None:
        pairs = pd.concat([self.l_pos, self.l_neg], ignore_index=True)
        labels = np.concatenate(
            [np.ones(len(self.l_pos)), np.zeros(len(self.l_neg))]
        )
        self.matcher = train_matcher(
            self.tensors,
            pairs,
            labels,
            self.encoder_state,
            self.cfg,
            seed=self.seed,
            epochs=self.matcher_epochs,
        )
        self.kde = self._kde_from_l_pos()

    def _kde_from_l_pos(self) -> GaussianKDE:
        """Eq. 6: sample z around each L+ member's latent Gaussian and KDE
        the resulting Euclidean distances."""
        ida = self.l_pos["id_a"].to_numpy()
        idb = self.l_pos["id_b"].to_numpy()
        mu_s, sg_s, mu_t, sg_t = self.tensors.pair_latents(ida, idb)
        # Bound total KDE samples so pdf evaluation over a large unlabeled
        # pool stays O(pool * 4000) regardless of how much L+ grows.
        n = min(self.cfg.kde_samples_per_pair, max(1, 4000 // len(ida)))
        zs = mu_s[None] + sg_s[None] * self.rng.standard_normal((n, *mu_s.shape))
        zt = mu_t[None] + sg_t[None] * self.rng.standard_normal((n, *mu_t.shape))
        d_plus = np.sqrt(((zs - zt) ** 2).sum(axis=2)).ravel()
        return GaussianKDE(d_plus)

    # ---- one Algorithm 2 iteration -----------------------------------------
    def step(self) -> int:
        """Select/label `al_samples_per_iteration` pairs; returns #labeled."""
        assert self.pool is not None and self.matcher is not None
        if not len(self.pool):
            return 0
        eps = 1e-9
        p = predict_pairs(self.matcher, self.tensors, self.pool)
        p_c = np.clip(p, eps, 1 - eps)
        # Eq. 5: entropy of the predicted class probability.
        entropy = -(p_c * np.log(p_c) + (1 - p_c) * np.log(1 - p_c))
        d = self.tensors.pair_euclid(
            self.pool["id_a"].to_numpy(), self.pool["id_b"].to_numpy()
        )
        f_plus = self.kde.pdf(d) + eps
        is_pos = p > 0.5

        spi = self.cfg.al_samples_per_iteration
        base, rem = divmod(spi, 4)
        quotas = [base + (1 if i < rem else 0) for i in range(4)]
        scores = [
            (is_pos, entropy / f_plus),          # certain positives (line 6)
            (~is_pos, entropy * f_plus),         # certain negatives (line 7)
            (is_pos, f_plus / (entropy + eps)),  # uncertain positives (line 8)
            (~is_pos, 1.0 / ((entropy + eps) * f_plus)),  # uncertain negatives (line 9)
        ]
        chosen: list[int] = []
        taken = np.zeros(len(self.pool), dtype=bool)
        for (mask, score), q in zip(scores, quotas):
            avail = np.where(mask & ~taken)[0]
            if not len(avail):  # class partition empty: fall back to whole pool
                avail = np.where(~taken)[0]
            if not len(avail):
                continue
            pick = avail[np.argsort(score[avail], kind="stable")[:q]]
            chosen.extend(int(i) for i in pick)
            taken[pick] = True

        sel = self.pool.iloc[chosen]
        labels = self.labeler.label(sel["id_a"].to_numpy(), sel["id_b"].to_numpy())
        self.l_pos = pd.concat(
            [self.l_pos, sel[labels == 1]], ignore_index=True
        )
        self.l_neg = pd.concat(
            [self.l_neg, sel[labels == 0]], ignore_index=True
        )
        self.pool = self.pool.drop(self.pool.index[chosen]).reset_index(drop=True)
        self._retrain()
        self.history.append(
            {"labeled": len(sel), "n_pos": len(self.l_pos), "n_neg": len(self.l_neg)}
        )
        return len(sel)

    def run(self, budget: int) -> SiameseMatcher:
        """Label up to ``budget`` pairs in Algorithm 2 iterations."""
        used = 0
        while used < budget:
            got = self.step()
            if got == 0:
                break
            used += got
        return self.matcher
