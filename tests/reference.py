"""The projector oracle: spin measurements as projectors on the full state.

These are the textbook forms the package's rotation kernel
(:func:`qkdlab.qstate.rotate_pairs`) is checked against: write the state
over qubits, build the projectors onto the spin eigenstates along an axis,
apply them to the addressed qubits of the whole amplitude vector, and read
Born weights off the norms of the projected branches.

It also keeps the whole-array Werner-pair sampler that
:func:`qkdlab.protocol.run_epr_session` replaced: an axis for every pair,
singlets included, then every pair's outcomes from its label and axis;
and the label sampler that :meth:`qkdlab.channel.ChannelModel.sample_labels`
replaced, numpy's own weighted choice.
"""

import math

import numpy as np

from qkdlab.channel import label_probs, sample_common_axis_outcomes
from qkdlab.qstate import random_axes

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def spin_projectors(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_up, P_down) onto the spin eigenstates along ``axis``.

    ``axis`` is any nonzero, finite 3-vector; it is normalized here.
    Raises ValueError for anything else.
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


def bell_to_computational(amps: np.ndarray, n_pairs: int) -> np.ndarray:
    """The flat computational-basis vector of a state whose first ``n_pairs``
    axes are Bell labels, singlet first, and whose rest is one ancilla block.

    Bell label k of a pair is its qubits in the state psi_k below, written
    over |00>, |01>, |10>, |11> (Alice's qubit first).
    """
    s = 1.0 / math.sqrt(2.0)
    psi = np.array([
        [0.0, s, -s, 0.0],  # psi0 = (|01> - |10>)/sqrt2, the singlet
        [0.0, s, s, 0.0],  # psi1 = (|01> + |10>)/sqrt2
        [s, 0.0, 0.0, s],  # psi2 = (|00> + |11>)/sqrt2
        [s, 0.0, 0.0, -s],  # psi3 = (|00> - |11>)/sqrt2
    ], dtype=complex)
    flat = np.reshape(amps, -1)
    dims = (4,) * n_pairs + (flat.size // 4**n_pairs,)
    for pair in range(n_pairs):
        flat = apply_operator(flat, dims, psi.T, (pair,))
    return flat


def pair_branches(
    amps: np.ndarray, dims: tuple[int, ...], pair_index: int, axis_a, axis_b
) -> tuple[list[np.ndarray], np.ndarray]:
    """Project pair ``pair_index`` onto each joint outcome, Alice's qubit
    along ``axis_a`` and Bob's along ``axis_b``.

    Returns (branches, p): ``branches[2 * a + b]`` is the unnormalized
    full-state vector after outcomes (a, b) and ``p[a, b]`` its Born weight.
    """
    qa, qb = 2 * pair_index, 2 * pair_index + 1
    proj_a = spin_projectors(axis_a)
    proj_b = spin_projectors(axis_b)
    branches = []
    probs = np.empty((2, 2))
    for a in (0, 1):
        va = apply_operator(amps, dims, proj_a[a], (qa,))
        for b in (0, 1):
            v = apply_operator(va, dims, proj_b[b], (qb,))
            branches.append(v)
            probs[a, b] = np.vdot(v, v).real
    return branches, probs


def measure_pair(
    amps: np.ndarray, dims: tuple[int, ...], pair_index: int, axis, rng: np.random.Generator
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Measure both qubits of a pair along ``axis`` on the full state.

    Draws the joint outcome once, as the package does, from the four
    branch weights.  Returns (outcome_a, outcome_b, the normalized full
    state after the measurement, the four weights in the order 2a + b).
    """
    branches, probs = pair_branches(amps, dims, pair_index, axis, axis)
    probs = probs.reshape(-1)
    idx = int(rng.choice(4, p=probs / probs.sum()))
    v = branches[idx]
    return idx // 2, idx % 2, v / np.linalg.norm(v), probs


def whole_array_outcomes(
    labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(axes, outcome_a, outcome_b) of pairs with Bell ``labels``, each pair
    measured along its own uniform axis, drawn for every pair."""
    axes = random_axes(labels.shape[0], rng)
    return (axes, *sample_common_axis_outcomes(labels, axes, rng))


def choice_labels(fidelity: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Bell labels of a channel of singlet ``fidelity`` by ``rng.choice``."""
    return rng.choice(4, size=n, p=label_probs(fidelity))
