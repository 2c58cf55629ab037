"""Eavesdropping models and their exact evaluation.

Three attack families are modeled:

  * intercept-resend on single photons (measure in a basis, resend the
    eigenstate seen; run by :func:`qkdlab.protocol.run_bb84_session`),
  * substitution of a fraction of pairs by triplet Bell states,
  * fully coherent attacks, where the attacker prepares the entire joint
    state of N pairs entangled with a private ancilla block:

        sum_{i1..iN} a_{i1..iN, r} |psi_i1> ... |psi_iN> |r>,

    stored as the tensor of the a's, one Bell-label axis per pair and one
    ancilla axis (:class:`CoherentAttack`).

For a test plan (which pairs are compared, along which axes, and how many
parallel outcomes are tolerated) the module computes the exact passing
probability, the attacker's ancilla state conditioned on passing, and the
Holevo bound S(rho) on what she can learn from it (:func:`eve_info_bound`).

A test of the pairs S sees only their reduced state rho_S.  The scoring
reshapes the attack tensor into a matrix X whose rows run over the Bell
labels of the tested pairs, so that X X^dagger = rho_S in that basis.  Each
tested pair is then taken from its Bell label to its outcomes along n by
:func:`qkdlab.qstate.rotate_pairs`, the same kernel a coherent session
measures with, so that "parallel along n" becomes the outcomes 00 and 11.
The squared row norms of the rotated matrix, grouped by how many pairs came
out parallel, are the exact error-count law.  The conditional ancilla state
keeps the untested pairs and the ancilla as the columns and sums the passing
rows.  Averaged over its axis, a pair's parallel projector is Bell-diagonal,
so axis averages are exact sums over the stored amplitudes' squared moduli
(:func:`axis_averaged_passing_probability`).  The dense state of 4^N times
the ancilla dimension amplitudes is why coherent attacks are capped at 6
pairs and ancilla dimension 16.

The typicality split weighs an attack on the words with fewer than T
non-singlet slots, for the caller's T; :mod:`qkdlab.bounds` bounds this
"atypical" subspace at T = ceil(2 N eps).  Passing a test does not confine
an attack there: weight on t non-singlet slots with 2 N eps <= t < 3 N eps
errs below rate 2 eps on average, so it passes the default ``two_epsilon``
test with probability tending to 1 as N grows (see
:func:`qkdlab.bounds.eve_info_upper`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RegimeError
from .qstate import NORM_ATOL, DensityMatrix, rotate_pairs, von_neumann_entropy

MAX_PAIRS = 6
MAX_ANCILLA_DIM = 16


# ---------------------------------------------------------------------------
# attack descriptions


@dataclass(frozen=True)
class InterceptResend:
    """Measure every photon in a basis chosen by ``policy`` and resend."""

    policy: str = "random"

    def __post_init__(self) -> None:
        if self.policy not in ("rectilinear", "diagonal", "random"):
            raise ConfigError(f"unknown intercept policy {self.policy!r}")


@dataclass(frozen=True)
class SubstituteAttack:
    """Replace a fraction of pairs by triplets drawn from ``label_weights``,
    the weights of the Bell labels 1, 2 and 3."""

    fraction: float
    label_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(f"substitution fraction {self.fraction} outside [0, 1]")
        w = tuple(float(x) for x in self.label_weights)
        if len(w) != 3:
            raise ConfigError("label weights must cover the three triplet labels")
        if any(x < 0.0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ConfigError("label weights must be nonnegative and sum to 1")
        object.__setattr__(self, "label_weights", w)


def substitute_pairs(
    labels: np.ndarray, attack: SubstituteAttack, rng: np.random.Generator
) -> np.ndarray:
    """A copy of ``labels`` with a random ``round(attack.fraction * n)``
    positions overwritten by triplet labels.

    The remaining positions keep their input labels, so composing with a
    noisy channel means sampling the input stream from that channel.
    """
    labels = np.array(labels, copy=True)
    n = labels.shape[0]
    count = int(round(attack.fraction * n))
    if count:
        positions = rng.choice(n, size=count, replace=False)
        labels[positions] = rng.choice([1, 2, 3], size=count, p=attack.label_weights)
    return labels


# ---------------------------------------------------------------------------
# coherent attacks


@dataclass(frozen=True, eq=False)
class CoherentAttack:
    """A joint pure state of N pairs plus one ancilla block.

    ``amplitudes`` is a read-only (4,)*N + (ancilla,) tensor over Bell
    labels, singlet first: entry (i1, ..., iN, r) is a_{i1..iN, r} of the
    module docstring.  The last axis is always the ancilla, even when it has
    dimension 4; an attack without an ancilla has an ancilla axis of length 1.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex, order="C")
        if arr.ndim < 2 or any(d != 4 for d in arr.shape[:-1]):
            raise ConfigError(f"need length-4 pair axes and an ancilla axis, not {arr.shape}")
        if arr.ndim - 1 > MAX_PAIRS:
            raise ConfigError(f"coherent attacks support 1..{MAX_PAIRS} pairs, got {arr.ndim - 1}")
        if not 1 <= arr.shape[-1] <= MAX_ANCILLA_DIM:
            raise ConfigError(f"ancilla dimension {arr.shape[-1]} outside 1..{MAX_ANCILLA_DIM}")
        # one dot over the float view, ~300x faster than np.linalg.norm's strided dots
        v = arr.reshape(-1).view(np.float64)
        norm = math.sqrt(np.einsum("i,i->", v, v))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ConfigError(f"attack state has norm {norm}; unnormalized input is rejected")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_pairs(self) -> int:
        return self.amplitudes.ndim - 1

    @property
    def ancilla_dim(self) -> int:
        return self.amplitudes.shape[-1]

    @classmethod
    def from_text(cls, text: str) -> "CoherentAttack":
        """Parse the row format ``<labels> <ancilla index> <real> <imag>``.

        ``labels`` is a string of N digits in 0..3 naming the Bell state of
        each pair.  Rows must describe a normalized state; unnormalized
        input is rejected, not renormalized.
        """
        entries: dict[tuple[str, int], complex] = {}
        n_pairs = None
        anc_max = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(f"line {lineno}: expected 'labels anc real imag'")
            labels, anc_s, re_s, im_s = parts
            # the sizes are checked per line, before the dense array exists
            if len(labels) > MAX_PAIRS:
                raise ConfigError(f"line {lineno}: coherent attacks support 1..{MAX_PAIRS} pairs")
            if n_pairs is None:
                n_pairs = len(labels)
            if len(labels) != n_pairs or not all(c in "0123" for c in labels):
                raise ConfigError(f"line {lineno}: bad label string {labels!r}")
            try:
                anc = int(anc_s)
                value = complex(float(re_s), float(im_s))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
            if not 0 <= anc < MAX_ANCILLA_DIM:
                raise ConfigError(
                    f"line {lineno}: ancilla index {anc} outside 0..{MAX_ANCILLA_DIM - 1}"
                )
            if (labels, anc) in entries:
                raise ConfigError(f"line {lineno}: duplicate row for {labels} {anc}")
            entries[(labels, anc)] = value
            anc_max = max(anc_max, anc)
        if not entries:
            raise ConfigError("attack file contains no amplitude rows")
        arr = np.zeros((4,) * n_pairs + (anc_max + 1,), dtype=complex)
        for (labels, anc), value in entries.items():
            arr[tuple(int(c) for c in labels) + (anc,)] = value
        return cls(arr)

    @classmethod
    def from_file(cls, path) -> "CoherentAttack":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass(frozen=True, eq=False)
class TestPlan:
    """Which pairs get compared, along which axes, and what error counts pass.

    ``indices`` is stored as a tuple of ints, from any sequence of
    integers.  ``axes`` is an (m, 3) array whose row i is the common axis
    of pair ``indices[i]``; rows need not be unit vectors, as the scoring
    normalizes each one when it rotates its pair into that axis.
    """

    __test__ = False  # not a pytest fixture despite the name

    indices: tuple[int, ...]
    axes: np.ndarray
    accept_lo: int
    accept_hi: int

    def __post_init__(self) -> None:
        indices = tuple(operator.index(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if np.shape(self.axes) != (len(indices), 3):
            raise ConfigError("one axis per tested pair is required")
        if len(set(indices)) != len(indices):
            raise ConfigError(f"test indices {indices} must be distinct")
        if indices and min(indices) < 0:
            raise ConfigError(f"test indices {indices} must be nonnegative")
        _check_accept(self.accept_lo, self.accept_hi, len(indices))


def _check_accept(lo: int, hi: int, m: int) -> None:
    if not 0 <= lo <= hi <= m:
        raise ConfigError(f"acceptance interval [{lo}, {hi}] is not a subrange of 0..{m}")


# Whether a rotated pair index (2a + b for outcomes a, b) counts as parallel.
_PARALLEL = np.array([1, 0, 0, 1])
# Whether a Bell label is a non-singlet slot.
_NONSINGLET = np.array([0, 1, 1, 1])


def _slot_counts(table: np.ndarray, m: int) -> np.ndarray:
    """Per index 0..4^m-1 of m pair slots, ``table`` summed over its base-4 digits."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        counts = (counts[:, None] + table).reshape(-1)
    return counts


def _rotated(attack: CoherentAttack, plan: TestPlan) -> tuple[np.ndarray, np.ndarray]:
    """The attack state as a (4^m, rest) matrix with each tested pair rotated
    into its plan axis, and each row's number of parallel outcomes.  The row
    index runs over the tested pairs' outcomes (first pair most significant)
    and the column index over the untested pairs, in order, and then the
    ancilla."""
    m = len(plan.indices)
    if plan.indices and max(plan.indices) >= attack.n_pairs:
        raise ConfigError(
            f"test indices {plan.indices} address pairs outside 0..{attack.n_pairs - 1}"
        )
    arr = np.moveaxis(attack.amplitudes, plan.indices, range(m)).reshape(4**m, -1)
    return rotate_pairs(arr, plan.axes), _slot_counts(_PARALLEL, m)


def _bell_weights(attack: CoherentAttack) -> np.ndarray:
    """Weight of each Bell word: |Bell amplitude|^2 summed over the ancilla."""
    return (np.abs(attack.amplitudes) ** 2).sum(axis=-1)


def error_count_distribution(attack: CoherentAttack, plan: TestPlan) -> np.ndarray:
    """Exact law of the number of parallel outcomes when the plan's pairs
    are tested along its axes: entry k is P(k errors)."""
    rows, counts = _rotated(attack, plan)
    # squared moduli summed along each row, read as (real, imaginary) float pairs
    parts = rows.view(np.float64)
    probs = np.einsum("rc,rc->r", parts, parts)
    return np.bincount(counts, weights=probs, minlength=len(plan.indices) + 1)


def axis_averaged_passing_probability(
    attack: CoherentAttack,
    m: int,
    rng: np.random.Generator,
    n_samples: int = 1000,
    accept: tuple[int, int] = (0, 0),
) -> tuple[float, float]:
    """Passing probability averaged exactly over uniform axes and sampled
    over test subsets: each sample draws a uniformly random m-subset S of
    tested pairs.

    Averaged over its axis, a pair's parallel projector is
    (I + sigma.sigma/3)/2: 0 on the singlet, 2/3 on each triplet.  So S
    passes with probability sum_w W(w) P(lo <= Binomial(j_S(w), 2/3) <= hi),
    W(w) being the Bell weight of the word w and j_S(w) its non-singlet
    slots in S.  Returns the mean over samples and its standard error.
    """
    if not 1 <= m <= attack.n_pairs:
        raise ConfigError(f"test size {m} outside 1..{attack.n_pairs}")
    if n_samples < 1:
        raise ConfigError(f"axis samples must be positive, got {n_samples}")
    lo, hi = accept
    _check_accept(lo, hi, m)
    weights = _bell_weights(attack)
    # P(lo <= Binomial(j, 2/3) <= hi), read at each tested word's non-singlet count j
    law = [sum(math.comb(j, k) * 2**k for k in range(lo, hi + 1)) / 3**j for j in range(m + 1)]
    passes = np.array(law)[_slot_counts(_NONSINGLET, m)]
    by_subset: dict[tuple[int, ...], float] = {}
    values = np.empty(n_samples)
    for s in range(n_samples):
        subset = tuple(sorted(int(i) for i in rng.choice(attack.n_pairs, m, replace=False)))
        if subset not in by_subset:
            untested = tuple(i for i in range(attack.n_pairs) if i not in subset)
            by_subset[subset] = float(weights.sum(axis=untested).reshape(-1) @ passes)
        values[s] = by_subset[subset]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def conditional_ancilla_state(attack: CoherentAttack, plan: TestPlan) -> DensityMatrix:
    """The attacker's ancilla state conditioned on the test passing.

    Averages the post-measurement ancilla over all passing outcome
    branches, weighted by their Born probabilities.  Raises RegimeError if
    the passing probability vanishes (there is nothing to condition on).
    """
    x, counts = _rotated(attack, plan)
    passing = (plan.accept_lo <= counts) & (counts <= plan.accept_hi)
    mat = x[passing].reshape(-1, attack.ancilla_dim)
    total = np.vdot(mat, mat).real
    if total < 1e-12:
        raise RegimeError("passing probability is zero; no conditional state exists")
    return DensityMatrix(mat.T @ mat.conj() / total)


def eve_info_bound(attack: CoherentAttack, plan: TestPlan) -> float | None:
    """Holevo bound in bits on the ancilla after the plan's test passes; None if it cannot pass."""
    try:
        return von_neumann_entropy(conditional_ancilla_state(attack, plan))
    except RegimeError:
        return None


def typicality_split(attack: CoherentAttack, threshold: int) -> tuple[float, float]:
    """Weights of the attack state on the typical / atypical count subspaces.

    The atypical subspace is spanned by Bell-product vectors with fewer
    than the integer ``threshold`` T of non-singlet slots (the bound chain's
    is ceil(2 N eps)); weight on its complement is what an error-rate test
    at eps is statistically able to notice.  The ancilla is summed over.
    """
    t = operator.index(threshold)
    n_pairs = attack.n_pairs
    weights = _bell_weights(attack)
    atypical = float(weights[_slot_counts(_NONSINGLET, n_pairs).reshape(weights.shape) < t].sum())
    return float(weights.sum() - atypical), atypical
