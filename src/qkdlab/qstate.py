"""Dense linear algebra for small multi-qubit systems.

A pure state is a raw amplitude array whose leading axes are pairs of
length 4, indexed by Bell label (psi0..psi3 below), optionally followed by
an ancilla block; a density matrix is a checked square matrix over the
computational basis.  A pair is measured along an axis n in one way only:
:func:`rotate_pairs` takes it by (V(n) (x) V(n)) B, B's columns being the
Bell states (:data:`BELL_BASIS`) and V's rows <up_n| and <down_n|
(:func:`spin_frames`), so that each joint outcome is one rotated row.
Everything is dense and double precision: the intended regime is a handful
of qubit pairs plus a small ancilla, not general circuit simulation.

Conventions:
  * Measurement outcomes are 0 for spin up and 1 for spin down along the
    chosen axis.
  * The Bell basis is ordered singlet first:
        psi0 = (|01> - |10>)/sqrt2   (singlet)
        psi1 = (|01> + |10>)/sqrt2
        psi2 = (|00> + |11>)/sqrt2
        psi3 = (|00> - |11>)/sqrt2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-9
EIG_ATOL = 1e-6

# an axis is a 3-vector; these two are the rectilinear and diagonal bases
AXIS_Z = np.array([0.0, 0.0, 1.0])
AXIS_X = np.array([1.0, 0.0, 0.0])
# column k is psi_k over |00, 01, 10, 11>: it takes a pair's Bell label to its qubits
BELL_BASIS = np.array([[0, 0, 1, 1], [1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1]],
                      dtype=complex) / math.sqrt(2.0)
AXIS_Z.setflags(write=False)
AXIS_X.setflags(write=False)
BELL_BASIS.setflags(write=False)


def random_axes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` axes uniformly on the sphere, returned as an (n, 3) array."""
    v = rng.normal(size=(n, 3))
    while True:
        # np.linalg.norm(v, axis=1)'s order and bits, ~4x faster than its strided reduction
        norms = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])
        bad = norms < 1e-12
        if not bad.any():
            v /= norms[:, None]
            return v
        v[bad] = rng.normal(size=(int(bad.sum()), 3))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix shape {m.shape} is not square")
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=NORM_ATOL):
            raise ValueError("matrix is not Hermitian within 1e-9")
        tr = np.trace(m).real
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {NORM_ATOL}")
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if low < -EIG_ATOL:
            raise ValueError(f"matrix has eigenvalue {low} below -{EIG_ATOL}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def spin_frames(axes) -> np.ndarray:
    """The measurement frame V(n) of each axis: rows <up_n| and <down_n|.

    ``axes`` is (..., 3), every row any nonzero, finite 3-vector; rows are
    normalized here, so rows of :func:`random_axes` and
    :data:`AXIS_Z`/:data:`AXIS_X` pass as they are.  Returns (..., 2, 2).
    Raises ValueError for anything else.
    """
    n = np.asarray(axes, dtype=float)
    norm = np.linalg.norm(n, axis=-1) if n.shape[-1:] == (3,) else math.nan
    if not np.all((norm >= 1e-12) & (norm < math.inf)):
        raise ValueError(f"axis {axes!r} is not a nonzero finite 3-vector")
    nx, ny, nz = np.moveaxis(n / norm[..., None], -1, 0)
    # |up_n> is the ray of (1 + z, x + iy) and of (x - iy, 1 - z); take the
    # longer representative, of squared length 2 (1 + |z|).
    north = nz >= 0.0
    u0 = np.where(north, 1.0 + nz, nx - 1j * ny)
    u1 = np.where(north, nx + 1j * ny, 1.0 - nz)
    v = np.stack([np.stack([u0.conj(), u1.conj()], -1), np.stack([-u1, u0], -1)], -2)
    return v / np.sqrt(2.0 * (1.0 + np.abs(nz)))[..., None, None]


def rotate_pairs(x: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Rotate the leading pairs of ``x`` into their axes.

    ``x`` is (4^m, cols), its row index running over the Bell labels of m
    pairs, the first most significant; ``axes`` is (m, 3), row i being the
    axis of pair i.  Pair i is taken by (V(n) (x) V(n)) :data:`BELL_BASIS`
    (see :func:`spin_frames`), so rotated index 2a + b holds outcome a for
    Alice and b for Bob, and the pair came out parallel exactly when that
    index is 00 or 11.  Returns the (4^m, cols) rotated amplitudes.
    """
    v = spin_frames(axes)
    w = np.einsum("iac,ibd->iabcd", v, v).reshape(-1, 4, 4) @ BELL_BASIS
    out = x
    for i, wi in enumerate(w):
        out = wi @ out.reshape(4**i, 4, -1)
    return out.reshape(x.shape)


def measure_pair(
    amps: np.ndarray, axis: np.ndarray, rng: np.random.Generator
) -> tuple[int, int, np.ndarray]:
    """Measure both qubits of the leading pair of ``amps`` along ``axis``.

    ``amps`` is a raw amplitude array, the pair's Bell label most significant.
    The joint outcome is drawn once from the Born weights of the four
    rotated rows (see :func:`rotate_pairs`), and the drawn row is divided by
    the square root of its own weight.  Returns (outcome_a, outcome_b, the
    normalized amplitudes of everything after the pair).
    """
    rotated = rotate_pairs(np.reshape(amps, (4, -1)), np.reshape(axis, (1, -1)))
    probs = np.einsum("rc,rc->r", rotated.conj(), rotated).real
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise RuntimeError(f"outcome probabilities sum to {total}, expected 1")
    idx = int(rng.choice(4, p=probs / total))
    norm = math.sqrt(probs[idx])
    if norm < 1e-12:
        raise RuntimeError("projection onto a sampled outcome has vanishing norm")
    return idx // 2, idx % 2, rotated[idx] / norm


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho log2 rho) in bits.

    Eigenvalues that are not positive, none below -1e-6 since
    :class:`DensityMatrix` checked them, are dropped.
    """
    vals = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0)
    vals = vals[vals > 0.0]
    ent = float(-(vals * np.log2(vals)).sum())
    return ent if ent > 0.0 else 0.0
