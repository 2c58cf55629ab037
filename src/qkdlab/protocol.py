"""Key-agreement sessions over noisy pair sources.

Two protocols are implemented.

Entanglement-based session (``run_epr_session``): N pairs are delivered,
Bob publicly acknowledges receiving all of them, and only then does Alice
announce a fresh random measurement axis per pair.  Both measure along
the common axes, publicly compare a random m-subset, and accept when the
number of parallel (erroneous) outcomes is inside the configured window.
Because the axes are announced only after the acknowledgment, no attack
interface in this module ever sees axis or basis information: attacks
act on the delivered pairs (label substitution, or wholesale coherent
preparation) before any axis exists.

Prepare-and-measure session (``run_bb84_session``): Alice sends photons
polarized in the rectilinear basis with probability 1 - omega and the
diagonal basis with probability omega; Bob measures likewise.  Positions
where the bases agree are the sifted set.  The test set holds k
diagonal-matched and k rectilinear-matched positions, k being the smaller
matched count, drawn at random from the larger class; it ignores
``test_size``, which :class:`SessionConfig` still requires to lie in
1..n_pairs.  Skewing omega toward 0 drives the sifted fraction
(1-omega)^2 + omega^2 toward 1 instead of 1/2.

Past their outcomes and test positions the two sessions are one: a tested
position where Bob's key bit differs from Alice's is an error, the session
accepts when the error count lies in :func:`accepted_count_interval`, and
the key is the sifted untested positions.

Channel noise is simulated classically through Bell labels / Pauli
errors, which reproduces the exact quantum statistics for these
measurement patterns (see :mod:`qkdlab.channel`).  A coherent attack is
measured exactly instead, one pair at a time with
:func:`qkdlab.qstate.measure_pair`.  A singlet comes out antiparallel
along every axis, so without a coherent attack only the non-singlet
pairs' axes are drawn with the session; the singlets' axes are drawn,
from a stream of their own, by a function the transcript calls on the
first read of its ``axes``, as :meth:`Transcript.write_jsonl` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import channel as channel_mod
from .adversary import (
    CoherentAttack,
    InterceptResend,
    SubstituteAttack,
    TestPlan,
    eve_info_bound,
    substitute_pairs,
)
from .channel import ChannelModel
from .errors import ConfigError
from .qstate import AXIS_X, AXIS_Z, BELL_BASIS, measure_pair, random_axes, spin_frames
from .rng import stream

if TYPE_CHECKING:
    from collections.abc import Callable

@dataclass(frozen=True)
class SessionConfig:
    """Session parameters shared by both protocols."""

    n_pairs: int
    test_size: int
    expected_error: float
    window_coeff: float = 1.0
    omega: float = 0.5
    threshold_mode: str = "two_epsilon"

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be positive, got {self.n_pairs}")
        if self.n_pairs > np.iinfo(np.intp).max:
            raise ConfigError(f"n_pairs {self.n_pairs} exceeds numpy's largest array length")
        if not 1 <= self.test_size <= self.n_pairs:
            raise ConfigError(
                f"test_size must lie in 1..{self.n_pairs}, got {self.test_size}"
            )
        if not 0.0 <= self.expected_error < 1.0:
            raise ConfigError(f"expected_error {self.expected_error} outside [0, 1)")
        if not 0.0 < self.window_coeff < math.inf:
            raise ConfigError(
                f"window_coeff must be positive and finite, got {self.window_coeff}"
            )
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega {self.omega} outside [0, 1]")
        if self.threshold_mode not in ("window", "two_epsilon"):
            raise ConfigError(f"unknown threshold_mode {self.threshold_mode!r}")


def accepted_count_interval(config: SessionConfig, m: int) -> tuple[int, int]:
    """The accepted error-count interval for a test of ``m`` >= 1 positions.

    ``window`` mode accepts the counts in [(eps - c eps^2) m,
    (eps + c eps^2) m], clamped to [0, m] and rounded inward (ceil below,
    floor above), and is a configuration error if that rounds empty;
    ``two_epsilon`` mode accepts the counts 0..m below 2 eps m, and 0 always.
    """
    eps, c = config.expected_error, config.window_coeff
    if config.threshold_mode == "window":
        lo = math.ceil(max(0.0, (eps - c * eps * eps) * m - 1e-9))
        hi = math.floor(min(float(m), (eps + c * eps * eps) * m + 1e-9))
        if hi < lo:
            raise ConfigError(f"acceptance window for eps={eps}, c={c}, m={m} rounds empty")
        return lo, hi
    return 0, min(max(0, math.ceil(2.0 * eps * m - 1e-9) - 1), m)


def select_test_set(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random m-subset of 0..n-1, returned sorted."""
    if not 1 <= m <= n:
        raise ConfigError(f"test size must lie in 1..{n}, got {m}")
    return np.sort(rng.choice(n, size=m, replace=False))


TRANSCRIPT_BLOCK = 1024  # positions formatted per write by Transcript.write_jsonl
_JSON_BOOL = ("false", "true")
_JSON_BASIS = ('"R"', '"D"')  # rectilinear 0, diagonal 1


@dataclass(eq=False)
class Transcript:
    """Everything a session produced, in per-position arrays.

    ``sifted`` marks positions where the bases agreed (always true for the
    entanglement-based protocol); key positions are sifted and not in the
    test set, so the two are disjoint.  For the entanglement-based
    protocol ``axes`` holds the common axis of each pair and the basis
    arrays are None; for the prepare-and-measure protocol the basis
    arrays hold 0 (rectilinear) / 1 (diagonal) and ``axes`` is None.
    ``axes`` is what ``_draw_axes`` returns, called on the first read and
    cached: :func:`run_epr_session` draws its singlets' axes there, and
    the default returns None.
    """

    verdict: str
    observed_error_count: int
    test_size: int
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    in_test: np.ndarray
    sifted: np.ndarray
    sifted_key_a: np.ndarray
    sifted_key_b: np.ndarray
    basis_a: np.ndarray | None = None
    basis_b: np.ndarray | None = None
    eve_holevo_bits: float | None = None
    eve_bits: np.ndarray | None = field(default=None, repr=False)
    _draw_axes: Callable[[], np.ndarray | None] = field(default=lambda: None, repr=False)

    @cached_property
    def axes(self) -> np.ndarray | None:
        """The common axis of each pair (None for bb84)."""
        return self._draw_axes()

    @property
    def n(self) -> int:
        return int(self.outcome_a.shape[0])

    @property
    def error_rate_estimate(self) -> float:
        return self.observed_error_count / self.test_size

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def sifted_fraction(self) -> float:
        return float(self.sifted.mean())

    def write_jsonl(self, path) -> None:
        """Write one JSON object per position, keys sorted, floats by ``repr``.

        Lines are formatted from column slices of ``TRANSCRIPT_BLOCK``
        positions at a time, so a long session is never formatted whole.
        """
        axes = self.axes
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for lo in range(0, self.n, TRANSCRIPT_BLOCK):
                block = slice(lo, lo + TRANSCRIPT_BLOCK)
                if axes is not None:
                    basis_a = basis_b = [
                        f"[{x!r}, {y!r}, {z!r}]" for x, y, z in axes[block].tolist()
                    ]
                else:
                    basis_a = [_JSON_BASIS[x] for x in self.basis_a[block].tolist()]
                    basis_b = [_JSON_BASIS[x] for x in self.basis_b[block].tolist()]
                rows = zip(
                    range(lo, lo + len(basis_a)),
                    basis_a,
                    basis_b,
                    self.in_test[block].tolist(),
                    self.outcome_a[block].tolist(),
                    self.outcome_b[block].tolist(),
                    self.sifted[block].tolist(),
                )
                fh.write("".join(
                    f'{{"basis_a": {ba}, "basis_b": {bb}, "in_test": {_JSON_BOOL[t]}, '
                    f'"index": {i}, "outcome_a": {a}, "outcome_b": {b}, '
                    f'"sifted": {_JSON_BOOL[s]}}}\n'
                    for i, ba, bb, t, a, b, s in rows
                ))


def _check_attack(attack, kinds: tuple[type, ...], protocol: str) -> None:
    if attack is not None and not isinstance(attack, kinds):
        raise ConfigError(
            f"attack {type(attack).__name__} is not applicable to the {protocol} protocol"
        )


def _conclude(config, outcome_a, outcome_b, key_b, in_test, sifted, **extra) -> Transcript:
    """Count the tested positions where Bob's key bit ``key_b`` differs from
    ``outcome_a``, judge the count, and keep the sifted untested positions as
    the keys.  ``extra`` holds the protocol's own transcript fields.
    """
    m = int(np.count_nonzero(in_test))
    errors = int(np.count_nonzero((outcome_a != key_b) & in_test))
    lo, hi = accepted_count_interval(config, m)
    keep = np.flatnonzero(sifted & ~in_test)
    return Transcript(
        verdict="accepted" if lo <= errors <= hi else "rejected",
        observed_error_count=errors,
        test_size=m,
        outcome_a=outcome_a,
        outcome_b=outcome_b,
        in_test=in_test,
        sifted=sifted,
        sifted_key_a=outcome_a[keep],
        sifted_key_b=key_b[keep],
        **extra,
    )


def run_epr_session(
    config: SessionConfig,
    channel: ChannelModel,
    attack,
    rng: np.random.Generator,
) -> Transcript:
    """Run one entanglement-based session and return its transcript.

    Axes are drawn only after the acknowledgment event; the attack
    interfaces act on delivered pairs and never receive axis data.  A
    coherent attack replaces the channel wholesale (the attacker prepares
    every pair herself).  Its pairs are then measured in order, each by
    :func:`qkdlab.qstate.measure_pair` on the amplitudes the earlier pairs
    left behind, which rotates the pair into its axis and draws the joint
    outcome once; the dense state limits this to small N.

    Otherwise only the non-singlet pairs draw an axis from ``rng`` and
    their outcomes from it; a singlet's outcomes, antiparallel along any
    axis, read none.  The singlets' axes are drawn only when the
    transcript's ``axes`` are first read, as ``write_jsonl`` does, from
    ``stream(a)``, ``a`` a 63-bit integer the session draws from ``rng``;
    no other draw reads that stream.
    """
    _check_attack(attack, (SubstituteAttack, CoherentAttack), "epr")
    n, m = config.n_pairs, config.test_size
    outcome_a = np.empty(n, dtype=np.uint8)
    outcome_b = np.empty(n, dtype=np.uint8)

    coherent = isinstance(attack, CoherentAttack)
    if coherent:
        if attack.n_pairs != n:
            raise ConfigError(
                f"coherent attack holds {attack.n_pairs} pairs but the session needs {n}"
            )
        axes = random_axes(n, rng)
        rest = attack.amplitudes
        for t in range(n):
            outcome_a[t], outcome_b[t], rest = measure_pair(rest, axes[t], rng)

        def draw_axes() -> np.ndarray:
            return axes
    else:
        labels = channel.sample_labels(n, rng)
        if isinstance(attack, SubstituteAttack):
            labels = substitute_pairs(labels, attack, rng)
        singlet = labels == 0
        noisy = np.flatnonzero(~singlet)
        noisy_axes = random_axes(noisy.size, rng)
        noisy_a, noisy_b = channel_mod.sample_common_axis_outcomes(
            labels[noisy], noisy_axes, rng)
        # a singlet's outcome is uniform and antiparallel along every axis;
        # Bob's complement is taken whole and the noisy pairs overwrite it
        outcome_a[singlet] = rng.integers(0, 2, size=n - noisy.size, dtype=np.uint8)
        np.bitwise_xor(outcome_a, 1, out=outcome_b)
        outcome_a[noisy], outcome_b[noisy] = noisy_a, noisy_b
        axes_seed = int(rng.integers(0, 2**63))

        def draw_axes() -> np.ndarray:
            drawn = np.empty((n, 3))
            drawn[singlet] = random_axes(n - noisy.size, stream(axes_seed))
            drawn[noisy] = noisy_axes
            return drawn

    test_idx = select_test_set(n, m, rng)
    in_test = np.zeros(n, dtype=bool)
    in_test[test_idx] = True
    eve_holevo = None
    if coherent:
        lo, hi = accepted_count_interval(config, m)
        eve_holevo = eve_info_bound(attack, TestPlan(test_idx, axes[test_idx], lo, hi))
    return _conclude(config, outcome_a, outcome_b, 1 - outcome_b, in_test,
                     np.ones(n, dtype=bool), eve_holevo_bits=eve_holevo, _draw_axes=draw_axes)


def run_bb84_session(
    config: SessionConfig,
    channel: ChannelModel,
    attack,
    rng: np.random.Generator,
) -> Transcript:
    """Run one prepare-and-measure session and return its transcript.

    The test set holds equally many diagonal-matched and rectilinear-matched
    positions: k of each, where k is the smaller matched count (so for small
    omega every diagonal match is consumed by the test and the key is built
    from rectilinear positions).  A session with no matched positions in one
    of the classes aborts with a ConfigError rather than running a one-sided
    test.
    """
    _check_attack(attack, (InterceptResend,), "bb84")
    n = config.n_pairs
    omega = config.omega

    basis_a = (rng.random(n) < omega).astype(np.uint8)
    bits_a = rng.integers(0, 2, size=n, dtype=np.uint8)

    labels = channel.sample_labels(n, rng)
    arrival = bits_a ^ channel_mod.pauli_flips(labels, basis_a).astype(np.uint8)

    basis_b = (rng.random(n) < omega).astype(np.uint8)
    # whoever sent Bob's photon: Alice, or Eve resending what she measured
    sender_basis, sender_bits, eve_bits = basis_a, arrival, None
    if isinstance(attack, InterceptResend):
        if attack.policy == "random":
            sender_basis = rng.integers(0, 2, size=n, dtype=np.uint8)
        else:
            sender_basis = np.full(n, attack.policy == "diagonal", dtype=np.uint8)
        sender_bits = eve_bits = np.where(
            sender_basis == basis_a, arrival, rng.integers(0, 2, size=n, dtype=np.uint8))
    outcome_b = np.where(
        basis_b == sender_basis, sender_bits, rng.integers(0, 2, size=n, dtype=np.uint8))

    matched = basis_a == basis_b

    diag_matched = np.flatnonzero(matched & (basis_a == 1))
    rect_matched = np.flatnonzero(matched & (basis_a == 0))
    k = min(diag_matched.size, rect_matched.size)
    if k == 0:
        raise ConfigError(
            f"cannot form a two-basis test: {diag_matched.size} diagonal-matched "
            f"and {rect_matched.size} rectilinear-matched positions"
        )
    in_test = np.zeros(n, dtype=bool)
    # k of each class, the diagonal drawn first; a class of exactly k is tested whole
    for matched_class in (diag_matched, rect_matched):
        drawn = matched_class.size > k
        in_test[rng.choice(matched_class, k, replace=False) if drawn else matched_class] = True

    return _conclude(config, bits_a, outcome_b, outcome_b, in_test, matched,
                     basis_a=basis_a, basis_b=basis_b, eve_bits=eve_bits)


# ---------------------------------------------------------------------------
# equivalence of the two constructions


EQUIVALENCE_ATOL = 1e-12  # float slack of the exact distance between the constructions


def epr_bb84_equivalence_check(fidelity: float, omega: float) -> float:
    """Total-variation distance between direct polarization sampling and the
    pair construction.

    Both are exact tables p[label, basis_a, basis_b, bit_a, bit_b]:
    ``direct`` sends a uniform bit through the Pauli channel of
    :func:`run_bb84_session`, and ``paired`` holds the Born weights
    |(V_a (x) V_b) psi_k|^2 of each Bell state psi_k, V being the spin frame
    of :func:`qkdlab.qstate.spin_frames` for each side's basis, with Bob's
    bit flipped.  The two measurements on a pair commute, so one table
    covers Alice measuring first and Bob measuring first alike.  The
    distance weighs both tables by the label law of ``fidelity`` and the
    basis law of ``omega``.
    """
    p_label = channel_mod.label_probs(fidelity)
    if not 0.0 <= omega <= 1.0:
        raise ConfigError(f"omega {omega} outside [0, 1]")
    bits = np.arange(2)
    # flips[label, basis]: the Pauli table run_bb84_session applies
    flips = channel_mod.pauli_flips(np.arange(4)[:, None], bits[None, :])
    # matched[label, basis, bit_a, bit_b]: Bob reads Alice's bit, flipped per label
    matched = 0.5 * ((bits[:, None] ^ flips[:, :, None, None]) == bits)
    # cross-basis bits are uniform
    direct = np.where(np.eye(2, dtype=bool)[:, :, None, None], matched[:, :, None], 0.25)
    frames = spin_frames(np.stack([AXIS_Z, AXIS_X]))
    kron = np.einsum("ixa,jyb->ijxyab", frames, frames).reshape(2, 2, 4, 4)
    amps = kron @ BELL_BASIS.T[:, None, None, :, None]
    # Alice's bit is her outcome, Bob's bit flips his
    paired = (np.abs(amps) ** 2).reshape(4, 2, 2, 2, 2)[..., ::-1]

    p_basis = np.array([1.0 - omega, omega])
    group_p = np.einsum("k,i,j->kij", p_label, p_basis, p_basis)
    return float(0.5 * np.einsum("kij,kijxy->", group_p, np.abs(direct - paired)))
