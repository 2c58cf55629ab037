"""Quantum-mechanical facts the tests check the package against.

None of this is a step of the protocol, so none of it lives in the
package: Haar-random unitaries, the singlet fidelity and Werner state of
the channel, the row-format writer for attack files, and the cloning
verifier.  The verifier checks the information / disturbance tradeoff for
unitaries coupling a signal qubit to a probe: interactions that leave two
non-orthogonal signals untouched force identical probe outputs, and
interactions whose probe outputs are distinguishable must disturb at least
one signal.
"""

import math
from dataclasses import dataclass

import numpy as np

from qkdlab.adversary import CoherentAttack
from qkdlab.bounds import binary_entropy
from qkdlab.channel import label_probs
from qkdlab.qstate import BELL_BASIS, DensityMatrix, von_neumann_entropy


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phase = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phase


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random SU(2) element (a uniformly random Bloch rotation)."""
    u = random_unitary(2, rng)
    det = np.linalg.det(u)
    return u / np.sqrt(det)


def fidelity(m: DensityMatrix) -> float:
    """Singlet fidelity <psi0| m |psi0> of a two-qubit density matrix."""
    if m.matrix.shape != (4, 4):
        raise ValueError("singlet fidelity is defined for two-qubit matrices")
    psi0 = BELL_BASIS.T[0]
    return float(np.real(psi0.conj() @ m.matrix @ psi0))


def werner_state(f: float) -> DensityMatrix:
    """Bell-diagonal mixture with singlet weight ``f`` and uniform triplet rest."""
    rows = BELL_BASIS.T
    return DensityMatrix((rows.T * label_probs(f)) @ rows.conj())


def attack_to_text(attack: CoherentAttack) -> str:
    """Serialize the nonzero Bell-basis amplitudes in the attack-file row format."""
    arr = attack.amplitudes
    lines = []
    for idx in np.ndindex(*arr.shape):
        v = arr[idx]
        if abs(v) > 1e-12:
            labels = "".join(str(i) for i in idx[:-1])
            lines.append(
                f"{labels} {idx[-1]} {float(v.real)!r} {float(v.imag)!r}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cloning interactions: information gain forces disturbance


@dataclass(frozen=True)
class CloningReport:
    """Outcome of probing two signal states through one unitary interaction."""

    probe_overlap: float
    signal_fidelities: tuple[float, float]
    helstrom_bits: float
    holevo_bits: float

    @property
    def max_fidelity_deficit(self) -> float:
        return 1.0 - min(self.signal_fidelities)


def random_signal_pair(
    rng: np.random.Generator, min_overlap: float = 0.1, max_overlap: float = 0.9
) -> tuple[np.ndarray, np.ndarray]:
    """Two random qubit states with |<u1|u2>| drawn from [min, max]."""
    if not 0.0 < min_overlap <= max_overlap < 1.0:
        raise ValueError("overlap window must sit strictly inside (0, 1)")
    u1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    u1 /= np.linalg.norm(u1)
    perp = np.array([-np.conj(u1[1]), np.conj(u1[0])])
    c = rng.uniform(min_overlap, max_overlap)
    phase = np.exp(2j * np.pi * rng.random())
    u2 = c * u1 + math.sqrt(1.0 - c * c) * phase * perp
    return u1, u2 / np.linalg.norm(u2)


def signal_preserving_unitary(
    u1: np.ndarray,
    u2: np.ndarray,
    ancilla_dim: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """A random unitary on signal x probe that leaves both signals intact.

    Maps |u_i>|probe> to |u_i>|phi> for a random probe input and a random
    common probe output phi; unitarity fixes the probe outputs to be
    identical once both signals are preserved, and the rest of the map is
    completed Haar-randomly.
    Returns (U, probe).
    """
    if ancilla_dim < 2:
        raise ValueError("probe needs dimension >= 2")
    probe = rng.normal(size=ancilla_dim) + 1j * rng.normal(size=ancilla_dim)
    probe = probe / np.linalg.norm(probe)
    phi = rng.normal(size=ancilla_dim) + 1j * rng.normal(size=ancilla_dim)
    phi = phi / np.linalg.norm(phi)
    x1, x2 = np.kron(u1, probe), np.kron(u2, probe)
    y1, y2 = np.kron(u1, phi), np.kron(u2, phi)
    d = 2 * ancilla_dim

    def orthonormal_pair(a, b):
        e1 = a / np.linalg.norm(a)
        r = b - np.vdot(e1, b) * e1
        nr = np.linalg.norm(r)
        if nr < 1e-12:
            raise ValueError("signal states are (numerically) parallel")
        return e1, r / nr

    e1, e2 = orthonormal_pair(x1, x2)
    f1, f2 = orthonormal_pair(y1, y2)

    def complement(v1, v2):
        # Householder QR of [v1 v2 | I] yields an exactly orthonormal frame
        # whose first two columns span {v1, v2}; the rest is the complement.
        q = np.linalg.qr(np.column_stack([v1, v2, np.eye(d)]))[0]
        return q[:, 2:d]

    e_comp = complement(e1, e2)
    f_comp = complement(f1, f2)
    w = random_unitary(d - 2, rng)
    u = np.outer(f1, e1.conj()) + np.outer(f2, e2.conj()) + f_comp @ w @ e_comp.conj().T
    return u, probe


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    vals = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    return float(np.abs(vals).sum() / 2.0)


def cloning_report(
    u: np.ndarray, u1: np.ndarray, u2: np.ndarray, probe: np.ndarray
) -> CloningReport:
    """Evaluate one interaction unitary against two signal states.

    Reports the overlap of the two conditional probe outputs, the
    fidelity of each output signal with its input, and two measures of
    the probe's distinguishing information: the Holevo quantity of the
    probe ensemble (an upper bound) and the mutual information of the
    optimal two-outcome discrimination (achievable, via the trace
    distance).
    """
    anc = probe.shape[0]
    probe_states = []
    signal_fid = []
    probe_vecs = []
    for sig in (u1, u2):
        # rows run over the signal, columns over the probe
        vec = (u @ np.kron(sig, probe)).reshape(2, anc)
        rho_sig = vec @ vec.conj().T
        signal_fid.append(float(np.real(sig.conj() @ rho_sig @ sig)))
        probe_states.append(DensityMatrix(vec.T @ vec.conj()))
        proj = sig.conj() @ vec
        norm = np.linalg.norm(proj)
        probe_vecs.append(proj / norm if norm > 1e-12 else np.zeros(anc, dtype=complex))
    overlap = float(abs(np.vdot(probe_vecs[0], probe_vecs[1])))
    rho1, rho2 = probe_states
    avg = DensityMatrix((rho1.matrix + rho2.matrix) / 2.0)
    holevo = von_neumann_entropy(avg) - 0.5 * (
        von_neumann_entropy(rho1) + von_neumann_entropy(rho2)
    )
    d = trace_distance(rho1, rho2)
    helstrom = 1.0 - binary_entropy((1.0 + d) / 2.0)
    return CloningReport(
        probe_overlap=overlap,
        signal_fidelities=(signal_fid[0], signal_fid[1]),
        helstrom_bits=max(0.0, helstrom),
        holevo_bits=max(0.0, float(holevo)),
    )
