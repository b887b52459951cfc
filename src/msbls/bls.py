"""Plaintext broad learning system.

The model is wide, not deep: a bank of random affine maps produces the
mapped features, a nonlinear activation of further random combinations
produces the enhancement features, and a single ridge solve fits the linear
readout from the concatenated features to one-hot labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .linalg import RngStream, as_matrix, ridge_solve

ACTIVATIONS = {
    "tanh": np.tanh,
    "sigmoid": expit,
}


@dataclass(frozen=True)
class BlsHyperParams:
    """Width and solver settings for one model.

    ``map_groups * map_dim`` (the mapped-feature width) must be even so the
    first-stage key can be split into two per-client halves.
    """

    map_groups: int = 10
    map_dim: int = 10
    enh_groups: int = 1
    enh_dim: int = 1000
    ridge: float = 1e-8
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        for name in ("map_groups", "map_dim", "enh_groups", "enh_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.ridge <= 0:
            raise ValueError(f"ridge must be positive, got {self.ridge}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}")
        if self.mapped_width % 2 != 0:
            raise ValueError(
                f"mapped width map_groups*map_dim must be even, got {self.mapped_width}"
            )

    @property
    def mapped_width(self) -> int:
        return self.map_groups * self.map_dim

    @property
    def half_width(self) -> int:
        return self.mapped_width // 2

    @property
    def enhancement_width(self) -> int:
        return self.enh_groups * self.enh_dim

    @property
    def feature_width(self) -> int:
        return self.mapped_width + self.enhancement_width


@dataclass
class BlsModel:
    """Trained state: second-stage mix key, enhancement keys, readout weights.

    The first-stage mapping key is deliberately not part of the model; in the
    masked setting it only ever exists as per-client halves.
    """

    mix_key: np.ndarray
    enhancement_keys: list[tuple[np.ndarray, np.ndarray]]
    output_weights: np.ndarray
    hyperparams: BlsHyperParams


def augment(x) -> np.ndarray:
    """Append an all-ones column that absorbs the per-group bias rows."""
    x = as_matrix(x, "X")
    return np.hstack([x, np.ones((x.shape[0], 1))])


def classic_mapped_features(x, groups) -> np.ndarray:
    """Group-by-group mapped features: [X W_1 + b_1 | ... | X W_n + b_n].

    Each group is a (weights, bias_row) pair; the bias row broadcasts over
    all samples.
    """
    x = as_matrix(x, "X")
    blocks = []
    for i, (weights, bias_row) in enumerate(groups):
        weights = as_matrix(weights, f"group {i} weights")
        bias_row = as_matrix(bias_row, f"group {i} bias")
        if weights.shape[0] != x.shape[1]:
            raise ValueError(
                f"group {i}: weights expect {weights.shape[0]} input columns, "
                f"X has {x.shape[1]}"
            )
        if bias_row.shape != (1, weights.shape[1]):
            raise ValueError(f"group {i}: bias row must be 1x{weights.shape[1]}")
        blocks.append(x @ weights + bias_row)
    if not blocks:
        raise ValueError("at least one mapping group is required")
    return np.hstack(blocks)


def stack_affine_groups(groups) -> np.ndarray:
    """Stack (weights, bias_row) groups into one (d+1) x width key.

    Multiplying the augmented input by this key reproduces
    classic_mapped_features exactly, which is the algebraic basis for doing
    the whole first stage as a single matrix product.
    """
    return np.hstack([np.vstack([w, b]) for w, b in groups])


def mapped_features_simplified(x_aug, map_key, mix_key) -> np.ndarray:
    """Single-product form of the mapped features: (X_aug @ W0) @ W1."""
    x_aug = as_matrix(x_aug, "X_aug")
    map_key = as_matrix(map_key, "map_key")
    mix_key = as_matrix(mix_key, "mix_key")
    if x_aug.shape[1] != map_key.shape[0]:
        raise ValueError(
            f"X_aug has {x_aug.shape[1]} columns, map_key expects {map_key.shape[0]}"
        )
    if map_key.shape[1] != mix_key.shape[0]:
        raise ValueError(
            f"map_key produces {map_key.shape[1]} features, "
            f"mix_key expects {mix_key.shape[0]}"
        )
    return (x_aug @ map_key) @ mix_key


def joint_mapped_features(x_a, x_b, key_a, key_b, mix_key) -> np.ndarray:
    """Blockwise mapped features for two stacked inputs and a split key.

    Computes the four per-client blocks separately and mixes the assembled
    result, which is the exact arithmetic performed by the interactive
    protocol; with masking disabled the two agree bit for bit.
    """
    xa_aug = augment(x_a)
    xb_aug = augment(x_b)
    block = np.block([
        [xa_aug @ key_a, xa_aug @ key_b],
        [xb_aug @ key_a, xb_aug @ key_b],
    ])
    return block @ mix_key


def enhancement_features(zn, keys, activation: str = "tanh") -> np.ndarray:
    """Activated random combinations of the mapped features.

    Each key is a (weights, bias_row) pair; outputs lie in (-1, 1) for tanh
    and (0, 1) for sigmoid, up to float64 saturation at the bounds.
    """
    zn = as_matrix(zn, "Zn")
    act = ACTIVATIONS[activation]
    blocks = []
    for j, (weights, bias_row) in enumerate(keys):
        if weights.shape[0] != zn.shape[1]:
            raise ValueError(
                f"enhancement key {j}: expects {weights.shape[0]} mapped features, "
                f"got {zn.shape[1]}"
            )
        blocks.append(act(zn @ weights + bias_row))
    if not blocks:
        raise ValueError("at least one enhancement key is required")
    return np.hstack(blocks)


def generate_map_key_half(d: int, hyper: BlsHyperParams, rng: RngStream) -> np.ndarray:
    """One client's half of the first-stage key: (d+1) x half_width, normal."""
    return rng.standard_normal(d + 1, hyper.half_width)


def generate_full_map_key(d: int, hyper: BlsHyperParams, rng: RngStream) -> np.ndarray:
    """Full-width first-stage key for a single-owner model."""
    return rng.standard_normal(d + 1, hyper.mapped_width)


def generate_mix_key(hyper: BlsHyperParams, rng: RngStream) -> np.ndarray:
    return rng.standard_normal(hyper.mapped_width, hyper.mapped_width)


def generate_enhancement_keys(hyper: BlsHyperParams, rng: RngStream):
    """Weights ~ standard normal, bias rows ~ uniform(-1, 1)."""
    keys = []
    for _ in range(hyper.enh_groups):
        weights = rng.standard_normal(hyper.mapped_width, hyper.enh_dim)
        bias_row = rng.uniform(-1.0, 1.0, 1, hyper.enh_dim)
        keys.append((weights, bias_row))
    return keys


def train_output_weights(zn, hm, y_onehot, ridge: float) -> np.ndarray:
    """Ridge-solve the readout on the concatenated feature matrix [Zn | Hm];
    ``ridge_solve`` validates the stack."""
    if len(zn) != len(hm):
        raise ValueError(f"row mismatch: Zn has {len(zn)} rows, Hm has {len(hm)}")
    return ridge_solve(np.hstack([zn, hm]), y_onehot, ridge)


def predict_labels(features, output_weights) -> np.ndarray:
    """Row-wise argmax of the linear readout; ties go to the lowest class."""
    features = as_matrix(features, "features")
    output_weights = as_matrix(output_weights, "output_weights")
    if features.shape[1] != output_weights.shape[0]:
        raise ValueError(
            f"features have width {features.shape[1]}, "
            f"output weights expect {output_weights.shape[0]}"
        )
    scores = features @ output_weights
    return np.argmax(scores, axis=1)
