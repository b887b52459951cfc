"""Plaintext broad learning system.

The model is wide, not deep: a bank of random affine maps produces the
mapped features, a nonlinear activation of further random combinations
produces the enhancement features, scaled in one pass over the training
rows, and a single ridge solve fits the linear readout from the
concatenated features to one-hot labels. The readout is fitted and scored
from the two feature blocks, without stacking them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RngStream, as_matrix, check_ridge, ridge_solve_blocks
# Unused here; perfbench's tracer wraps ``bls.ridge_solve`` by this name.
from .linalg import ridge_solve  # noqa: F401


def _sigmoid(x, out=None):
    """1 / (1 + e^-x) as (1 + tanh(x / 2)) / 2, which overflows for no finite x."""
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out


ACTIVATIONS = {"tanh": np.tanh, "sigmoid": _sigmoid}

# The original BLS's shrinkage: enhancement inputs are scaled so that their
# largest magnitude over the training rows is this value.
SHRINKAGE = 0.8


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_ridge(self.ridge)
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

    The enhancement keys carry the shrinkage scale already folded in. The
    first-stage mapping key is deliberately not part of the model; in the
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
        # numpy rejects the other mismatches; a (1, 1) bias would broadcast.
        if bias_row.shape != (1, weights.shape[1]):
            raise ValueError(f"group {i}: bias row must be 1x{weights.shape[1]}")
        blocks.append(x @ weights + bias_row)
    return np.hstack(blocks)


def stack_affine_groups(groups) -> np.ndarray:
    """Stack (weights, bias_row) groups into one (d+1) x width key.

    Multiplying the augmented input by this key reproduces
    classic_mapped_features exactly, which is the algebraic basis for doing
    the whole first stage as a single matrix product.
    """
    return np.hstack([np.vstack([w, b]) for w, b in groups])


def _finite_features(zn) -> np.ndarray:
    """Mapped features, checked where they are made; later layers take them as given."""
    if not np.all(np.isfinite(zn)):
        raise ValueError("mapped features contain non-finite entries")
    return zn


def mapped_features_simplified(x_aug, map_key, mix_key) -> np.ndarray:
    """Single-product form of the mapped features: (X_aug @ W0) @ W1."""
    return _finite_features((x_aug @ map_key) @ mix_key)


def assemble_mapped_features(own_a, cross_ab, cross_ba, own_b, mix_key) -> np.ndarray:
    """Tile the four blocks (A rows above B rows) and apply the mix key."""
    # np.block and the product reject the other mismatches; uneven columns
    # would tile silently.
    if len({own_a.shape[1], cross_ab.shape[1], cross_ba.shape[1], own_b.shape[1]}) != 1:
        raise ValueError("block column counts do not tile")
    block = np.block([[own_a, cross_ab], [cross_ba, own_b]])
    # Python 3.11+ hands call arguments to the callee, so this frees a caller's
    # temporary blocks before the mix product allocates its result.
    del own_a, cross_ab, cross_ba, own_b
    return block @ mix_key


def joint_mapped_features(x_a, x_b, key_a, key_b, mix_key) -> np.ndarray:
    """Blockwise mapped features for two stacked inputs and a split key.

    Computes the four per-client blocks separately and tiles and mixes them
    with ``assemble_mapped_features``, the server's step in the interactive
    protocol; with masking disabled the two agree bit for bit. One client's
    augmented copy is alive at a time.
    """
    def products(x):
        x_aug = augment(x)
        return x_aug @ key_a, x_aug @ key_b

    return _finite_features(assemble_mapped_features(*products(x_a), *products(x_b), mix_key))


def _preactivations(zn, keys) -> np.ndarray:
    """[Zn W_1 + b_1 | ... | Zn W_m + b_m], each group written into its column block."""
    if not keys:
        raise ValueError("at least one enhancement key is required")
    out = np.empty((len(zn), sum(weights.shape[1] for weights, _ in keys)))
    end = 0
    for weights, bias_row in keys:
        block = out[:, end : end + weights.shape[1]]
        end += weights.shape[1]
        np.matmul(zn, weights, out=block)
        block += bias_row
    return out


def enhancement_features(zn, keys, activation: str = "tanh",
                         health: dict | None = None) -> np.ndarray:
    """The test rows' enhancement features, under the keys ``fit_enhancement`` scaled.

    Each key is a (weights, bias_row) pair; outputs lie in (-1, 1) for tanh
    and (0, 1) for sigmoid, up to float64 saturation at the bounds,
    bit-identical to ``np.hstack([act(zn @ w + b) for w, b in keys])``. If
    ``health`` is a dict, it gets the rows' peak |pre-activation| over
    ``SHRINKAGE`` under ``"preact_ratio"``: above 1, the rows leave the
    range that the shrinkage scale was fitted on.
    """
    out = _preactivations(zn, keys)
    if health is not None:
        health["preact_ratio"] = float(max(out.max(), -out.min()) / SHRINKAGE)
    return ACTIVATIONS[activation](out, out=out)


def fit_enhancement(zn, keys, activation: str = "tanh"):
    """Scaled keys and the training rows' enhancement features H, in one pass.

    The keys are scaled by ``SHRINKAGE / max|Zn W + b|`` over the rows of
    ``zn`` and every group: the original BLS's shrinkage (Chen & Liu, IEEE
    TNNLS 2018), which keeps the activation out of saturation. H holds the
    pre-activations, scaled and activated in place, so it is finite by
    construction; it rounds differently from the test rows' map,
    ``enhancement_features(zn, scaled_keys)``, by about 1e-15. A peak that
    is not finite and positive, as when finite features overflow, raises
    ValueError.
    """
    h = _preactivations(zn, keys)
    peak = max(h.max(), -h.min())  # NaN if any entry is
    if not 0 < peak < np.inf:
        raise ValueError(f"shrinkage needs a finite, positive pre-activation peak, got {peak}")
    scale = SHRINKAGE / peak
    h *= scale
    ACTIVATIONS[activation](h, out=h)
    return [(weights * scale, bias_row * scale) for weights, bias_row in keys], h


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


def train_output_weights(zn, hm, y_onehot, ridge: float, health: dict | None = None) -> np.ndarray:
    """Ridge-solve the readout on [Zn | Hm] from its Gram blocks, never
    stacking the two; ``health`` as in ``ridge_solve_blocks``."""
    return ridge_solve_blocks([zn, hm], y_onehot, ridge, health)


def readout_scores(zn, hm, output_weights) -> np.ndarray:
    """[Zn | Hm] @ W as Zn @ W_z + Hm @ W_h, without the stacked copy; the
    one scorer of training and test rows. It rounds differently from the
    stacked product in ``predict_labels``: measured, by at most 4.3e-14 of
    the largest |score| and 1e-8 of the smallest gap between a row's top
    two scores, too little to move an argmax."""
    return zn @ output_weights[: zn.shape[1]] + hm @ output_weights[zn.shape[1]:]


def predict_labels(features, output_weights) -> np.ndarray:
    """Row-wise argmax of the linear readout; ties go to the lowest class."""
    features = as_matrix(features, "features")
    output_weights = as_matrix(output_weights, "output_weights")
    return np.argmax(features @ output_weights, axis=1)
