"""Dense linear algebra for small multi-qubit systems.

States and density matrices carry an explicit subsystem factorization
(a tuple of dimensions, qubits being dimension 2 with an optional larger
ancilla block) so that measurements, rotations and partial traces can
address individual subsystems of a joint state.  Everything is dense and
double precision: the intended regime is a handful of qubit pairs plus a
small ancilla, not general circuit simulation.

Conventions:
  * Measurement outcomes are 0 for spin up and 1 for spin down along the
    chosen axis.
  * A "pair" occupies two adjacent qubit slots, the first belonging to
    Alice and the second to Bob; pair ``t`` sits on qubits ``2t, 2t+1``.
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

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# an axis is a 3-vector; these two are the rectilinear and diagonal bases
AXIS_Z = np.array([0.0, 0.0, 1.0])
AXIS_X = np.array([1.0, 0.0, 0.0])
AXIS_Z.setflags(write=False)
AXIS_X.setflags(write=False)


def random_axes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` axes uniformly on the sphere, returned as an (n, 3) array."""
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
        bad = norms < 1e-12
    return v / norms[:, None]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A normalized pure state with an explicit subsystem factorization."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude count {amps.size} does not match factorization {dims}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if self.dims is None:
            dims = (m.shape[0],) if m.ndim == 2 else ()
        else:
            dims = tuple(int(d) for d in self.dims)
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match factorization {dims}")
        if not np.allclose(m, m.conj().T, atol=NORM_ATOL):
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
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density(state: QuantumState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| of a pure state."""
    v = state.amplitudes
    return DensityMatrix(np.outer(v, v.conj()), state.dims)


def bell_vectors() -> np.ndarray:
    """4x4 array whose rows are psi0..psi3 in the computational basis |00,01,10,11>."""
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [0.0, s, -s, 0.0],
            [0.0, s, s, 0.0],
            [s, 0.0, 0.0, s],
            [s, 0.0, 0.0, -s],
        ],
        dtype=complex,
    )


def bell_basis() -> tuple[QuantumState, QuantumState, QuantumState, QuantumState]:
    """The four Bell states as two-qubit states, singlet first."""
    rows = bell_vectors()
    return tuple(QuantumState(rows[k], (2, 2)) for k in range(4))


def fidelity(m: DensityMatrix) -> float:
    """Singlet fidelity <psi0| m |psi0> of a two-qubit density matrix."""
    if m.dim != 4:
        raise ValueError("singlet fidelity is defined for two-qubit matrices")
    psi0 = bell_vectors()[0]
    return float(np.real(psi0.conj() @ m.matrix @ psi0))


def spin_projectors(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_up, P_down) onto the spin eigenstates along ``axis``.

    ``axis`` is any nonzero, finite 3-vector; it is normalized here, so
    rows of :func:`random_axes` and :data:`AXIS_Z`/:data:`AXIS_X` pass as
    they are.  Raises ValueError for anything else.
    """
    v = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(v)) if v.shape == (3,) else math.nan
    if not 1e-12 <= norm < math.inf:
        raise ValueError(f"axis {axis!r} is not a nonzero finite 3-vector")
    x, y, z = v / norm
    n_sigma = x * PAULI_X + y * PAULI_Y + z * PAULI_Z
    up = (IDENTITY_2 + n_sigma) / 2.0
    return up, IDENTITY_2 - up


def apply_operator(
    amps: np.ndarray, dims: tuple[int, ...], op: np.ndarray, targets: tuple[int, ...]
) -> np.ndarray:
    """Apply ``op`` to the ``targets`` subsystems of a raw amplitude vector.

    ``op`` must be square with dimension equal to the product of the target
    subsystem dimensions.  Returns a new flat amplitude vector; no
    normalization is performed, so projectors shrink the norm.
    """
    t = len(targets)
    tdims = [dims[q] for q in targets]
    arr = amps.reshape(dims)
    op_t = op.reshape(tdims + tdims)
    arr = np.tensordot(op_t, arr, axes=(list(range(t, 2 * t)), list(targets)))
    arr = np.moveaxis(arr, range(t), targets)
    return arr.reshape(-1)


def apply_unitary(state: QuantumState, u: np.ndarray, targets: tuple[int, ...]) -> QuantumState:
    """Apply a unitary to the given subsystems, returning a new state."""
    out = apply_operator(state.amplitudes, state.dims, np.asarray(u, dtype=complex), targets)
    return QuantumState(out, state.dims)


def pair_branches(
    state: QuantumState,
    pair_index: int,
    axis_a: np.ndarray,
    axis_b: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Project a pair onto each joint outcome, Alice's qubit along ``axis_a``
    and Bob's along ``axis_b`` (3-vectors, as :func:`spin_projectors` takes).

    Returns (branches, p): ``branches[2 * a + b]`` is the unnormalized
    state after outcomes (a, b) and ``p[a, b]`` its Born probability.  The two
    single-qubit measurements commute, so the order in which they are
    applied does not change ``p``.
    """
    qa, qb = 2 * pair_index, 2 * pair_index + 1
    if qb >= len(state.dims) or state.dims[qa] != 2 or state.dims[qb] != 2:
        raise ValueError(f"pair {pair_index} does not address two qubit subsystems")
    proj_a = spin_projectors(axis_a)
    proj_b = spin_projectors(axis_b)
    branches = []
    probs = np.empty((2, 2))
    for a in (0, 1):
        va = apply_operator(state.amplitudes, state.dims, proj_a[a], (qa,))
        for b in (0, 1):
            v = apply_operator(va, state.dims, proj_b[b], (qb,))
            branches.append(v)
            probs[a, b] = np.vdot(v, v).real
    return branches, probs


def measure_pair(
    state: QuantumState,
    pair_index: int,
    axis_a: np.ndarray,
    axis_b: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int, QuantumState]:
    """Measure both qubits of a pair, Alice's along ``axis_a`` and Bob's
    along ``axis_b``.

    Returns (outcome_a, outcome_b, post-measurement state).  The joint
    outcome is sampled from the Born distribution of the commuting pair of
    single-qubit measurements.
    """
    branches, probs = pair_branches(state, pair_index, axis_a, axis_b)
    probs = probs.reshape(-1)
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise RuntimeError(f"outcome probabilities sum to {total}, expected 1")
    idx = int(rng.choice(4, p=probs / total))
    v = branches[idx]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise RuntimeError("projection onto a sampled outcome has vanishing norm")
    return idx // 2, idx % 2, QuantumState(v / norm, state.dims)


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``."""
    k = len(rho.dims)
    keep_sorted = tuple(sorted(set(int(i) for i in keep)))
    if len(keep_sorted) != len(keep):
        raise ValueError("keep indices must be distinct")
    if not keep_sorted or keep_sorted[0] < 0 or keep_sorted[-1] >= k:
        raise ValueError(f"keep indices must be a nonempty subset of 0..{k - 1}")
    arr = rho.matrix.reshape(rho.dims + rho.dims)
    keep_set = set(keep_sorted)
    row = list(range(k))
    col = [i if i not in keep_set else k + i for i in range(k)]
    out = [i for i in keep_sorted] + [k + i for i in keep_sorted]
    red = np.einsum(arr, row + col, out)
    d = math.prod(rho.dims[i] for i in keep_sorted)
    return DensityMatrix(red.reshape(d, d), tuple(rho.dims[i] for i in keep_sorted))


def reduced_density(state: QuantumState, keep: tuple[int, ...]) -> DensityMatrix:
    """Reduced density matrix of a pure state on the ``keep`` subsystems.

    Avoids forming the full |psi><psi| outer product.
    """
    k = len(state.dims)
    keep_sorted = tuple(sorted(set(int(i) for i in keep)))
    if not keep_sorted or keep_sorted[0] < 0 or keep_sorted[-1] >= k:
        raise ValueError(f"keep indices must be a nonempty subset of 0..{k - 1}")
    arr = state.tensor()
    keep_set = set(keep_sorted)
    bra = [i if i not in keep_set else k + i for i in range(k)]
    out = [i for i in keep_sorted] + [k + i for i in keep_sorted]
    red = np.einsum(arr, list(range(k)), arr.conj(), bra, out)
    d = math.prod(state.dims[i] for i in keep_sorted)
    return DensityMatrix(red.reshape(d, d), tuple(state.dims[i] for i in keep_sorted))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho log2 rho) in bits.

    Eigenvalues in [-1e-6, 0) are clamped to zero; anything lower is
    rejected as non-physical input.
    """
    vals = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0)
    if vals.min() < -EIG_ATOL:
        raise ValueError(f"eigenvalue {vals.min()} below -{EIG_ATOL}: not a state")
    vals = np.clip(vals, 0.0, None)
    vals = vals[vals > 0.0]
    ent = float(-(vals * np.log2(vals)).sum())
    return ent if ent > 0.0 else 0.0


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random SU(2) element (a uniformly random Bloch rotation)."""
    u = random_unitary(2, rng)
    det = np.linalg.det(u)
    return u / np.sqrt(det)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phase = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phase
