"""Noisy pair sources modeled as Bell-diagonal (Werner) mixtures.

A :class:`ChannelModel` of singlet fidelity F delivers the singlet with
probability F and each of the three triplet Bell states with probability
(1 - F)/3.  :meth:`ChannelModel.sample_labels` inverts one uniform draw
per pair through the cdf of that law, which gives the same labels from
the same draws as ``rng.choice(4, p=...)``, as uint8.  When both halves
of a pair are measured along a common random axis the outcomes are
antiparallel with probability (1 + 2F)/3, so the error rate of the
ideal-singlet protocol, from which :meth:`ChannelModel.from_epsilon`
builds the channel, is

    epsilon = 1 - (1 + 2F)/3 = (2/3) (1 - F).

Per fixed common axis n the antiparallel probability of a single Bell
state is exact, not just an average:

    singlet          -> 1
    psi1 (|01>+|10>) -> n_z**2
    psi2 (|00>+|11>) -> n_y**2
    psi3 (|00>-|11>) -> n_x**2

which follows from the Bell states' diagonal spin correlation tensors.
Sampling a label and then outcomes from these conditionals reproduces the
full quantum measurement statistics, which is what lets sessions with
10**5 pairs run as vectorized classical sampling.  A singlet's outcomes
read no axis, so a session passes only its non-singlet pairs to
:func:`sample_common_axis_outcomes` and draws the singlets' axes only
for a written transcript.  On a single photon the labels act as Paulis
(:func:`pauli_flips`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

EPSILON_MAX = 2.0 / 3.0  # error rate of the F = 0 channel; no Werner state lies beyond

# antiparallel probability of label k along axis n is n[_LABEL_AXIS[k]]**2,
# and 1 for the singlet, which has no axis (-1)
_LABEL_AXIS = np.array([-1, 2, 1, 0])


def _check_fidelity(f: float) -> float:
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise ConfigError(f"fidelity {f} outside [0, 1]")
    return f


def label_probs(f: float) -> np.ndarray:
    """Law of the Bell labels 0..3 (singlet, psi1..psi3): [F, (1-F)/3, (1-F)/3, (1-F)/3]."""
    f = _check_fidelity(f)
    return np.array([f] + [(1.0 - f) / 3.0] * 3)


def antiparallel_prob_given_label(labels: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Exact per-axis antiparallel probability for each (label, axis) row.

    ``labels`` is an int array in 0..3, ``axes`` an (n, 3) array of unit
    vectors giving the common measurement axis of each pair.
    """
    comp = _LABEL_AXIS[np.asarray(labels)]
    # row i's component comp[i] sits at flat index 3 i + comp[i]
    p = np.take(np.asarray(axes, dtype=float), 3 * np.arange(comp.shape[0]) + comp) ** 2
    p[comp < 0] = 1.0
    return p


def pauli_flips(labels: np.ndarray, diag_basis: np.ndarray) -> np.ndarray:
    """Whether each Bell label flips a photon prepared in the given basis.

    Labels act on the flying photon as 0 -> identity, 1 -> Z, 2 -> Y,
    3 -> X: a Pauli flips the eigenstates of every axis but its own, so
    Z flips diagonal eigenstates, X flips rectilinear ones, Y both.
    """
    own = _LABEL_AXIS[labels]
    return (own >= 0) & (own != np.where(diag_basis, 0, 2))  # diagonal: x, else z


def sample_common_axis_outcomes(
    labels: np.ndarray, axes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (outcome_a, outcome_b) for pairs measured along common axes.

    Outcomes are 0/1 spin results.  Alice's outcome is unbiased and Bob's
    is anti-correlated or correlated according to the exact antiparallel
    probability of the pair's Bell label along its axis.
    """
    p_anti = antiparallel_prob_given_label(labels, axes)
    anti = rng.random(labels.shape[0]) < p_anti
    outcome_a = rng.integers(0, 2, size=labels.shape[0], dtype=np.uint8)
    outcome_b = outcome_a ^ anti.astype(np.uint8)
    return outcome_a, outcome_b


@dataclass(frozen=True)
class ChannelModel:
    """A pair source of given singlet fidelity."""

    fidelity: float = 1.0

    def __post_init__(self) -> None:
        _check_fidelity(self.fidelity)

    @classmethod
    def from_epsilon(cls, eps: float) -> "ChannelModel":
        """Invert the error-rate dictionary; valid for eps in [0, 2/3]."""
        eps = float(eps)
        if not 0.0 <= eps <= EPSILON_MAX + 1e-12:
            raise ConfigError(f"no Werner fidelity exists for error rate {eps}")
        return cls(max(0.0, 1.0 - 1.5 * eps))

    def sample_labels(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` Bell labels (0 = singlet, 1..3 = triplets) from the mixture.

        Each label inverts one uniform ``rng.random(n)`` draw through the
        normalized cdf of :func:`label_probs`: it counts the cdf entries
        at or below the draw.  These are the draws and the labels of
        ``rng.choice(4, size=n, p=label_probs(F))``, returned as uint8.
        """
        cdf = label_probs(self.fidelity).cumsum()
        cdf /= cdf[-1]
        u = rng.random(n)
        labels = (u >= cdf[0]).view(np.uint8)
        labels += u >= cdf[1]
        labels += u >= cdf[2]  # cdf[3] is 1, above every draw
        return labels
