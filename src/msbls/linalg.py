"""Seeded randomness and the ridge-limit pseudoinverse used for readout training.

All matrices are dense 2-D float64 numpy arrays. Every function is a pure
function of its inputs plus the explicit random stream, so identical seeds
reproduce identical results run to run. The readout's condition estimate ports
LAPACK's ``dlacn2`` (Hager, ACM TOMS 10(4), 1984; Higham, ACM TOMS 14(4), 1988).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RNG_ALGORITHM = "pcg64"
# Rows per diagonal block of the readout's triangular solves.
TRIANGULAR_BLOCK = 128
# Rows per diagonal block the condition estimate inverts; at 128 its inversions took twice as long.
RCOND_BLOCK = 64


class SolverError(RuntimeError):
    """A positive-definite solve failed numerically."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass
class RngStream:
    """Single-owner deterministic random stream.

    Identical ``seed`` yields an identical draw sequence across runs and
    across transport backends. The algorithm, ``RNG_ALGORITHM``, is recorded
    in experiment metadata.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, rows: int, cols: int) -> np.ndarray:
        return self._gen.standard_normal((rows, cols))

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        # Generator.uniform's own arithmetic, lo + (hi - lo) * u, done in place:
        # the same bits and stream position, without its temporaries.
        out = self._gen.random((rows, cols))
        out *= hi - lo
        out += lo
        return out

    def words(self, n: int) -> np.ndarray:
        """``n`` uniform 32-bit words, as uint32."""
        return self._gen.integers(2**32, size=n, dtype=np.uint32)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def derive_streams(master_seed: int, names: list[str]) -> dict[str, RngStream]:
    """Derive one independent stream per name from a single master seed.

    Children are taken positionally from the master seed sequence, so the
    `names` list is part of the reproducibility contract.
    """
    children = np.random.SeedSequence(master_seed).spawn(len(names))
    return {
        name: RngStream(int(child.generate_state(1, np.uint64)[0]))
        for name, child in zip(names, children)
    }


def random_matrix(rows: int, cols: int, dist, rng: RngStream) -> np.ndarray:
    """Draw a rows x cols matrix with i.i.d. entries from ``dist``.

    ``dist`` is either the string ``"standard_normal"`` or a tuple
    ``("uniform", lo, hi)`` with lo < hi (lo == hi gives the degenerate
    constant matrix and is allowed for debugging).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if dist == "standard_normal":
        return rng.standard_normal(rows, cols)
    if isinstance(dist, tuple) and len(dist) == 3 and dist[0] == "uniform":
        _, lo, hi = dist
        if lo > hi:
            raise ValueError(f"uniform bounds must satisfy lo <= hi, got ({lo}, {hi})")
        return rng.uniform(lo, hi, rows, cols)
    raise ValueError(f"unknown distribution {dist!r}")


def check_ridge(ridge: float) -> None:
    """The ridge must be positive and finite: inf zeroes the weights, nan poisons them."""
    if not 0 < ridge < np.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")


def _lower_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``low^-1 @ rhs`` for lower-triangular ``low``: blocks by solve, the rest by matmul."""
    x = rhs.copy()
    for lo in range(0, len(low), TRIANGULAR_BLOCK):
        hi = lo + TRIANGULAR_BLOCK
        x[lo:hi] = np.linalg.solve(low[lo:hi, lo:hi], x[lo:hi])
        x[hi:] -= low[hi:, lo:hi] @ x[lo:hi]
    return x


def _rcond_estimate(low: np.ndarray, anorm: float) -> float:
    """LAPACK's ``dpocon`` for ``A = low @ low.T`` of 1-norm ``anorm``: ``dlacn2`` estimates
    ``||A^-1||_1``, applying the symmetric ``A^-1`` through ``low``'s inverted diagonal blocks."""
    n = len(low)
    spans = [slice(lo, lo + RCOND_BLOCK) for lo in range(0, n, RCOND_BLOCK)]
    blocks = [(s, np.linalg.inv(low[s, s])) for s in spans]

    def apply(v):
        v = v.copy()
        for s, inv in blocks:  # forward with low, then backward with low.T
            v[s] = inv @ v[s]
            v[s.stop:] -= low[s.stop:, s] @ v[s]
        for s, inv in blocks[::-1]:
            v[s] = inv.T @ v[s]
            v[:s.start] -= low[s, :s.start].T @ v[s]
        return v

    x = apply(np.full(n, 1.0 / n))
    est = np.abs(x).sum()
    sign = np.where(x >= 0, 1.0, -1.0)
    j = np.argmax(np.abs(apply(sign)))
    for _ in range(4):  # dlacn2's iterations 2 to ITMAX = 5
        x = apply(np.eye(1, n, j)[0])
        old, est = est, np.abs(x).sum()
        new_sign = np.where(x >= 0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= old:
            break
        sign = new_sign
        z = apply(sign)
        last, j = j, np.argmax(np.abs(z))
        if z[last] == abs(z[j]):
            break
    # Higham's alternating-sign test vector; at order 1 it cannot raise the exact estimate.
    alt = np.resize([1.0, -1.0], n) * np.linspace(1.0, 2.0, n)
    est = max(est, 2.0 * (np.abs(apply(alt)).sum() / (3 * n)))
    return 1.0 / est / anorm


def _leading_minor(gram: np.ndarray) -> int:
    """The order of the first leading minor that Cholesky fails on; numpy does not say."""
    lo, hi = 0, len(gram)  # gram[:lo, :lo] factors, gram[:hi, :hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(gram[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return hi


def _spd_solve(gram: np.ndarray, ridge: float, rhs: np.ndarray,
               health: dict | None = None) -> np.ndarray:
    # The ridge (> 0) on the diagonal makes the Gram matrix SPD for finite input;
    # a Cholesky failure means the problem is numerically out of reach. The factor
    # and the solves run on numpy's BLAS, whose threads the Gram has just woken.
    gram[np.diag_indices_from(gram)] += ridge
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"positive-definite factorization failed: {_leading_minor(gram)}-th "
                          "leading minor of the array is not positive definite") from exc
    if health is not None:
        # dpocon's O(f^2) reciprocal 1-norm condition estimate, by the dlacn2 port,
        # to three digits: its last bits vary from process to process.
        rcond = _rcond_estimate(low, np.linalg.norm(gram, 1))
        health["gram_rcond"] = float(f"{rcond:.3g}")
    # Forward with L, then backward with L^T, which reversed in both axes is lower-triangular.
    return np.ascontiguousarray(_lower_solve(low.T[::-1, ::-1], _lower_solve(low, rhs)[::-1])[::-1])


def pseudoinverse(a, ridge: float) -> np.ndarray:
    """Ridge surrogate of the Moore-Penrose pseudoinverse.

    Returns ``(A^T A + ridge*I)^-1 A^T``, which equals
    ``A^T (A A^T + ridge*I)^-1`` for any ridge > 0. Output shape is
    cols(A) x rows(A). The factorization runs on the smaller Gram matrix.
    """
    a = as_matrix(a, "A")
    return ridge_solve_blocks([a], np.eye(a.shape[0]), ridge)


def ridge_solve(a, y, ridge: float) -> np.ndarray:
    """Least-squares weights W minimizing ||AW - Y||^2 + ridge*||W||^2.

    Equivalent to ``pseudoinverse(A, ridge) @ Y`` but never materializes the
    pseudoinverse.
    """
    return ridge_solve_blocks([as_matrix(a, "A")], as_matrix(y, "Y"), ridge)


def ridge_solve_blocks(blocks, y, ridge: float, health: dict | None = None) -> np.ndarray:
    """``ridge_solve(np.hstack(blocks), y, ridge)`` without the stacked copy.

    With n >= f the f x f Gram matrix is filled block by block, each
    diagonal block as ``b.T @ b`` on one array so that numpy takes its
    symmetric kernel; with n < f the n x n kernel is the sum of ``b @ b.T``.
    ``ridge_solve`` is its one-block call, and checks its operands; here they
    are taken as given, finite 2-D float64 arrays. If ``health`` is a dict,
    the solve stores the factorized matrix's reciprocal condition estimate,
    to three significant digits, in it under ``"gram_rcond"``.
    """
    check_ridge(ridge)
    n = blocks[0].shape[0]
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    if n < edges[-1]:
        kernel = blocks[0] @ blocks[0].T
        for b in blocks[1:]:
            kernel += b @ b.T
        alpha = _spd_solve(kernel, ridge, y, health)
        return np.vstack([b.T @ alpha for b in blocks])
    gram = np.empty((edges[-1], edges[-1]))
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    for i, (b, rows) in enumerate(zip(blocks, spans)):
        gram[rows, rows] = b.T @ b
        for other, cols in zip(blocks[i + 1:], spans[i + 1:]):
            gram[rows, cols] = b.T @ other
            gram[cols, rows] = gram[rows, cols].T
    # y.T @ b walks b in row order: twice as fast as b.T @ y for a few columns of y.
    rhs = np.vstack([(y.T @ b).T for b in blocks])
    return _spd_solve(gram, ridge, rhs, health)
