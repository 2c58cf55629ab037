"""Classical distillation of sifted keys.

The pipeline takes the error rate the public test observed, reconciles
Bob's key against Alice's by iterated block-parity bisection (counting
every exchanged parity bit as leaked), then compresses with a seeded
Toeplitz hash to the length the secrecy-rate bound permits after
subtracting the leakage:

    final length = floor(n_raw * max(0, 1 + k' eps log2 eps)) - leaked.

The length is computed at once; the hash runs on the first read of the
final keys, from the keys packed at distillation, so a caller that reads
only lengths, as ``qkdlab simulate`` does, never hashes.

Reconciliation is simulated on the positions where the keys disagree:
each pass draws only where its shuffle sends them, which has the same
law as drawing the whole shuffle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import secrecy_lower_bound
from .rng import stream

MAX_PASSES = 64  # upper limit on reconciliation passes


def reconcile(
    key_a,
    key_b,
    rng: np.random.Generator,
    qber_hint: float,
) -> tuple[np.ndarray, int]:
    """Correct ``key_b`` toward ``key_a`` by shuffled block-parity bisection.

    Each pass permutes both keys the same way, compares block parities,
    and binary-searches every odd block down to a single differing bit,
    which is flipped (so disagreement never increases).  Every compared
    parity counts one leaked bit.  The first block size is ceil(0.73/q)
    for the hinted error rate q, at least 2 and at most the key length; a
    hint of 0 makes the first block the whole key.
    The block size doubles between passes up to the larger of the first
    size and n // 16.  The loop stops after four consecutive passes find
    no mismatched block, or after MAX_PASSES passes.
    Returns (corrected key, leaked bits).

    The simulation follows only the d current disagreements.  A pass's
    parities, bisection path, flipped bit and leak depend on its
    permutation only through where it sends those d positions, and under
    a uniform permutation their images are a uniform injective map into
    range(n): the law of ``rng.choice(n, d, replace=False)``, drawn in
    O(d) rather than O(n).  So a pass with d > 0 makes exactly that one
    draw, its i-th image being that of the i-th smallest disagreeing
    position, and a pass with d = 0 draws nothing.

    Each search carries, beside its range [lo, hi), the index ``first``
    of the first sorted image at or above ``lo``.  A level then needs one
    ``searchsorted``, that of the midpoint: the images in [lo, mid) are
    the indices first .. first_right - 1, and ``first`` moves to
    ``first_right`` when the search goes right.  A finished search's
    ``first`` indexes the image it found.
    """
    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("keys must be one-dimensional arrays of equal length")
    n = a.size
    if n == 0:
        return b.copy(), 0
    q = max(float(qber_hint), 0.0)
    block = n if q <= 0.0 else min(n, max(2, math.ceil(min(0.73 / q, n))))
    block_cap = max(block, n // 16)
    wrong = np.flatnonzero(a != b)  # sorted positions of the disagreements
    leaked = 0
    clean = 0
    for _ in range(MAX_PASSES):
        leaked += -(-n // block)  # one parity per block
        lo = wrong[:0]  # the start of each odd block; none without disagreements
        if wrong.size:
            img = rng.choice(n, wrong.size, replace=False)
            order = np.argsort(img)
            img = img[order]
            # the parity of a permuted range [lo, hi) is the parity of the
            # number of images in it, so a block is odd when it holds an
            # odd number of them
            lo = np.flatnonzero(np.bincount(img // block) & 1) * block
        if lo.size == 0:
            clean += 1
            if clean >= 4:
                break
        else:
            clean = 0
            # the blocks are disjoint and nothing flips until every search
            # ends, so all odd blocks bisect together, one level per step;
            # a finished block (hi - lo == 1) has mid == lo and stays put
            hi = np.minimum(lo + block, n)
            first = np.searchsorted(img, lo)
            while (steps := int(np.count_nonzero(hi - lo > 1))) > 0:
                leaked += steps
                mid = (lo + hi) // 2
                first_right = np.searchsorted(img, mid)
                left = (first_right - first) & 1 == 1
                hi = np.where(left, mid, hi)
                lo = np.where(left, lo, mid)
                first = np.where(left, first, first_right)
            # each search ends on the one image in [lo, lo + 1), img[first];
            # its disagreement is corrected
            wrong = np.delete(wrong, order[first])
        block = min(block_cap, 2 * block)
    out = a.copy()
    out[wrong] ^= 1
    return out, leaked


def privacy_amplify(key_bits, output_length: int, hash_seed: int) -> np.ndarray:
    """Compress a bit array with a seeded binary Toeplitz matrix.

    The matrix is T[i, j] = d[n - 1 + i - j] for a seed-derived diagonal
    bit string d, applied over GF(2); the map is linear and fully
    determined by (len(key), output_length, hash_seed).
    """
    key = np.asarray(key_bits, dtype=np.uint8)
    if key.ndim != 1:
        raise ValueError("key must be a one-dimensional bit array")
    n = key.size
    if output_length < 0:
        raise ValueError("output length must be nonnegative")
    if output_length > n:
        raise ValueError(f"cannot stretch {n} bits to {output_length}")
    if output_length == 0:
        return np.zeros(0, dtype=np.uint8)
    diagonal = stream(hash_seed).integers(0, 2, size=n + output_length - 1, dtype=np.uint8)
    # T @ key over GF(2) is entries n-1 .. n+l-2 of the linear convolution
    # of d with key; a power-of-two circular convolution of length at least
    # n+l-1 holds them unaliased
    size = 1 << (n + output_length - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(diagonal, size) * np.fft.rfft(key, size), size)
    conv = conv[n - 1 : n - 1 + output_length]
    rounded = np.rint(conv)
    if np.abs(conv - rounded).max() > 1e-6:
        raise RuntimeError("convolution lost integer precision")
    return (rounded.astype(np.int64) & 1).astype(np.uint8)


def final_key_length(n_raw: int, eps: float, leaked_bits: int, kprime: float = 10.0) -> int:
    """Distillable length of an n_raw-bit key at error rate eps.

    Applies the secrecy-rate lower bound and subtracts reconciliation
    leakage, clamping at zero.  Valid in the bound's regime eps < 1/4.
    """
    if n_raw < 0 or leaked_bits < 0:
        raise ValueError("lengths must be nonnegative")
    rate = secrecy_lower_bound(eps, kprime)
    return max(0, math.floor(n_raw * rate) - leaked_bits)


@dataclass(eq=False)
class DistillationResult:
    """Final keys and accounting from one reconciliation + amplification run.

    :func:`distill_key` does not hash.  ``_amplify`` hashes both keys and
    returns the final keys; the first read of ``key_a``, ``key_b`` or
    ``keys_equal`` calls it once, caches the final keys and drops it, and
    with it the packed keys it holds.  A result with ``final_length == 0``
    holds no function and reads ``b""``.  The final keys are packed, most
    significant bit first; equal keys are one shared object.
    """

    final_length: int
    leaked_bits: int
    _amplify: Callable[[], tuple[bytes, bytes]] | None = field(default=None, repr=False)

    @cached_property
    def _final(self) -> tuple[bytes, bytes]:
        if self._amplify is None:
            return b"", b""
        final, self._amplify = self._amplify(), None
        return final

    @property
    def key_a(self) -> bytes:
        return self._final[0]

    @property
    def key_b(self) -> bytes:
        return self._final[1]

    @property
    def keys_equal(self) -> bool:
        return self.key_a == self.key_b


def distill_key(
    key_a,
    key_b,
    qber_estimate: float,
    rng: np.random.Generator,
    kprime: float = 10.0,
) -> DistillationResult:
    """Reconcile, measure leakage, and draw the seed of the privacy-amplification hash.

    The result hashes on the first read of its keys (see
    :class:`DistillationResult`), from the keys packed here.  Both keys go
    through the same Toeplitz map, so when reconciliation leaves Bob's key
    equal to Alice's it is hashed once and both final keys are that one hash.
    """
    a = np.asarray(key_a, dtype=np.uint8)
    corrected, leaked = reconcile(a, key_b, rng, qber_hint=qber_estimate)
    n_raw = a.size
    n_final = final_key_length(n_raw, qber_estimate, leaked, kprime)
    hash_seed = int(rng.integers(0, 2**63))
    if n_final == 0:
        return DistillationResult(n_final, leaked)
    packed_a = np.packbits(a).tobytes()
    packed_b = packed_a if np.array_equal(a, corrected) else np.packbits(corrected).tobytes()

    def amplify(packed: bytes) -> bytes:
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), count=n_raw)
        return np.packbits(privacy_amplify(bits, n_final, hash_seed)).tobytes()

    def amplify_both() -> tuple[bytes, bytes]:
        final_a = amplify(packed_a)
        return final_a, final_a if packed_b is packed_a else amplify(packed_b)

    return DistillationResult(n_final, leaked, amplify_both)
