"""VAER hyperparameters (paper Table III) plus scale knobs the paper
does not pin down (epoch counts, sample caps).

All experiment harnesses read from a `VaerConfig` so tests can shrink
dimensions without touching the defaults used for the table runs.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VaerConfig:
    """Default values follow paper Table III where the paper gives them."""

    # Representation learning (Table III)
    vae_hidden_dim: int = 200
    vae_latent_dim: int = 100
    # Matching (Table III)
    margin: float = 0.5
    # Active learning (Table III)
    al_samples_per_iteration: int = 10
    al_top_k_neighbours: int = 10
    # Optimiser (Table III)
    learning_rate: float = 1e-3

    # Knobs the paper leaves unspecified — chosen to converge at our scale
    # and recorded in EXPERIMENTS.md.
    ir_dim: int = 100
    vae_epochs: int = 20
    vae_batch_size: int = 256
    # §VI-C: representation training "can be accelerated by training on
    # just a sample of all tuples" — cap on attribute-value IR samples.
    vae_train_sample_cap: int = 12_000
    match_epochs: int = 40
    match_batch_size: int = 32
    # The paper fixes no epoch count; small labeled sets need more epochs
    # to reach the same optimiser step count, so training targets
    # ``match_min_steps`` Adam steps (capped at ``match_max_epochs``).
    match_min_steps: int = 1500
    match_max_epochs: int = 600
    match_hidden_dim: int = 64
    kde_samples_per_pair: int = 200  # paper suggests ~1000; 200 suffices here


DEFAULT = VaerConfig()
