"""Tests for reconciliation, privacy amplification, and key distillation."""

import hashlib
import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdlab.channel import ChannelModel
from qkdlab.cli import simulate_trial
from qkdlab.errors import RegimeError
from qkdlab.postprocess import (
    MAX_PASSES,
    distill_key,
    final_key_length,
    privacy_amplify,
    reconcile,
)
from qkdlab.protocol import SessionConfig
from qkdlab.rng import stream


def noisy_pair(n, p, rng):
    a = rng.integers(0, 2, size=n, dtype=np.uint8)
    flips = rng.random(n) < p
    return a, a ^ flips


def bisect_reference(key_a, key_b, perm_source, qber_hint):
    """Shuffled block-parity bisection, one odd block at a time.

    ``perm_source(wrong)`` returns each pass's whole permutation, given the
    sorted positions ``wrong`` where the keys disagree before that pass.
    """
    a = np.asarray(key_a, dtype=np.uint8).copy()
    b = np.asarray(key_b, dtype=np.uint8).copy()
    n = a.size
    if n == 0:
        return b, 0
    q = max(float(qber_hint), 0.0)
    block = n if q <= 0.0 else min(n, max(2, math.ceil(min(0.73 / q, n))))
    block_cap = max(block, n // 16)
    leaked = 0
    clean = 0
    for _ in range(MAX_PASSES):
        perm = perm_source(np.flatnonzero(a != b))
        pa, pb = a[perm], b[perm]
        starts = np.arange(0, n, block)
        par_a = np.add.reduceat(pa, starts) & 1
        par_b = np.add.reduceat(pb, starts) & 1
        leaked += starts.size
        odd_blocks = np.flatnonzero(par_a != par_b)
        if odd_blocks.size == 0:
            clean += 1
            if clean >= 4:
                break
        else:
            clean = 0
            for blk in odd_blocks:
                lo = int(starts[blk])
                hi = n if blk + 1 == starts.size else int(starts[blk + 1])
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    leaked += 1
                    if (int(pa[lo:mid].sum()) & 1) != (int(pb[lo:mid].sum()) & 1):
                        hi = mid
                    else:
                        lo = mid
                pb[lo] ^= 1
                b[perm[lo]] ^= 1
        block = min(block_cap, 2 * block)
    return b, leaked


class RecordingGenerator:
    """Delegates every call to a Generator and logs (method, args, kwargs, result)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, args, kwargs, out))
            return out

        return record


def permutations_from_images(n, images, counts):
    """Each pass's permutation, completed from the images ``reconcile`` drew.

    A pass with disagreements takes the next drawn images: ``perm[img]``
    holds the disagreeing positions in increasing order and the other
    slots hold the remaining positions in increasing order.  A pass with
    none uses the identity.  ``counts`` collects each pass's disagreement
    count.
    """
    images = iter(images)

    def source(wrong):
        counts.append(wrong.size)
        if wrong.size == 0:
            return np.arange(n)
        img = next(images)
        assert img.size == wrong.size
        perm = np.empty(n, dtype=np.int64)
        perm[img] = wrong
        perm[np.setdiff1d(np.arange(n), img)] = np.setdiff1d(np.arange(n), wrong)
        return perm

    return source


@st.composite
def reconcile_cases(draw):
    """(n, error rate, qber_hint, seed): the hint is 0, exact or arbitrary."""
    n = draw(st.integers(0, 3000))
    rate = draw(st.floats(0.0, 0.5))
    hint = draw(st.one_of(st.just(0.0), st.just(rate), st.floats(0.0, 0.5)))
    return n, rate, hint, draw(st.integers(0, 2**32 - 1))


class TestReconcile:
    def test_identical_keys_leak_only_parities(self):
        rng = stream(601)
        a = rng.integers(0, 2, size=100, dtype=np.uint8)
        rec = RecordingGenerator(stream(602))
        out, leaked = reconcile(a, a.copy(), rec, qber_hint=0.05)
        assert np.array_equal(out, a) and rec.calls == []  # d = 0 draws nothing
        # four clean passes, block capped at 15: 4 * ceil(100 / 15) parities
        assert leaked == 4 * 7

    def test_single_flip_corrected(self):
        rng = stream(603)
        a = rng.integers(0, 2, size=1024, dtype=np.uint8)
        b = a.copy()
        b[500] ^= 1
        out, leaked = reconcile(a, b, stream(604), qber_hint=0.01)
        assert np.array_equal(out, a)
        assert leaked < 150

    def test_typical_error_rate(self):
        for trial in range(5):
            a, b = noisy_pair(4096, 0.02, stream(605, trial))
            out, leaked = reconcile(a, b, stream(606, trial), qber_hint=0.02)
            assert (out != a).mean() < 1e-3
            assert 0 < leaked < 4096

    def test_disagreement_never_increases(self):
        for trial in range(4):
            a, b = noisy_pair(512, 0.3, stream(607, trial))
            before = (a != b).sum()
            out, _ = reconcile(a, b, stream(608, trial), qber_hint=0.3)
            assert (a != out).sum() <= before

    @settings(max_examples=200)
    @given(reconcile_cases())
    @example((1, 5e-324, 5e-324, 0))  # 0.73 / hint overflows a float
    @example((90000, 0.02, 0.02, 7))  # the README trial's key size and error rate
    def test_matches_per_block_reference(self, case):
        n, rate, hint, seed = case
        a, b = noisy_pair(n, rate, stream(seed))
        rng = RecordingGenerator(stream(seed, 1))
        out, leaked = reconcile(a, b, rng, qber_hint=hint)
        assert {name for name, *_ in rng.calls} <= {"choice"}
        images = [img for *_, img in rng.calls]
        counts = []
        want, want_leaked = bisect_reference(
            a, b, permutations_from_images(n, images, counts), qber_hint=hint)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert leaked == want_leaked
        # one draw per pass with disagreements, one image per disagreement
        assert [img.size for img in images] == [d for d in counts if d]
        replay = stream(seed, 1)
        for name, args, kwargs, result in rng.calls:
            assert np.array_equal(getattr(replay, name)(*args, **kwargs), result)
        assert rng.integers(2**63) == replay.integers(2**63)

    def test_draw_contract(self):
        # one choice(n, d, replace=False) per pass with d > 0, never a
        # permutation, and no draw once the keys agree
        a, b = noisy_pair(2000, 0.05, stream(618))
        rng = RecordingGenerator(stream(619))
        out, _ = reconcile(a, b, rng, qber_hint=0.05)
        assert np.array_equal(out, a)
        assert rng.calls and all(name == "choice" for name, *_ in rng.calls)
        wrong = int((a != b).sum())
        for _, args, kwargs, img in rng.calls:
            assert args == (2000, img.size) and kwargs == {"replace": False}
            assert 0 < img.size <= wrong
            wrong = img.size

    def test_empty_and_shape_checks(self):
        out, leaked = reconcile([], [], stream(609), qber_hint=0.05)
        assert out.size == 0 and leaked == 0
        with pytest.raises(ValueError):
            reconcile([0, 1], [1], stream(609), qber_hint=0.05)


class TestPrivacyAmplify:
    def test_zero_output_length(self):
        assert privacy_amplify([1, 0, 1], 0, 5).size == 0

    def test_zero_key_hashes_to_zero(self):
        out = privacy_amplify(np.zeros(256, dtype=np.uint8), 64, 9)
        assert not out.any()

    def test_linearity_over_gf2(self):
        rng = stream(610)
        a = rng.integers(0, 2, size=300, dtype=np.uint8)
        b = rng.integers(0, 2, size=300, dtype=np.uint8)
        ha = privacy_amplify(a, 128, 42)
        hb = privacy_amplify(b, 128, 42)
        hab = privacy_amplify(a ^ b, 128, 42)
        assert np.array_equal(hab, ha ^ hb)

    def test_deterministic_digest(self):
        key = stream(601).integers(0, 2, size=4096, dtype=np.uint8)
        out = privacy_amplify(key, 1000, hash_seed=77)
        assert zlib.crc32(np.packbits(out).tobytes()) == 0x6F3215BB

    @pytest.mark.parametrize(
        "n, length",
        [(1, 1), (64, 64), (4500, 100), (3000, 1500), (18000, 34), (9000, 9000)],
    )
    def test_matches_convolution_reference(self, n, length):
        key = stream(611).integers(0, 2, size=n, dtype=np.uint8)
        out = privacy_amplify(key, length, hash_seed=13)
        diag = stream(13).integers(0, 2, size=n + length - 1, dtype=np.uint8)
        conv = np.convolve(diag.astype(np.int64), key.astype(np.int64))
        want = (conv[n - 1 : n - 1 + length] & 1).astype(np.uint8)
        assert np.array_equal(out, want)

    def test_cannot_stretch(self):
        with pytest.raises(ValueError):
            privacy_amplify([0, 1], 3, 1)
        with pytest.raises(ValueError):
            privacy_amplify([0, 1], -1, 1)


class TestFinalKeyLength:
    def test_pinned_value(self):
        assert final_key_length(10 ** 4, 0.01, 500, 10.0) == 2856

    def test_monotone_in_leakage(self):
        lens = [final_key_length(4096, 0.02, leak, 5.0) for leak in (0, 100, 400)]
        assert lens[0] > lens[1] > lens[2]

    def test_clean_limit_returns_everything(self):
        assert final_key_length(777, 0.0, 0) == 777

    def test_clamped_at_zero(self):
        assert final_key_length(100, 0.02, 10 ** 6, 5.0) == 0
        assert final_key_length(100, 0.09, 0, 10.0) == 0  # rate floor hit

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            final_key_length(100, 0.3, 0)
        with pytest.raises(ValueError):
            final_key_length(-1, 0.01, 0)


class TestDistillKey:
    def test_round_trip(self):
        a, b = noisy_pair(4096, 0.02, stream(612))
        res = distill_key(a, b, 0.02, stream(613), kprime=5.0)
        assert res.keys_equal
        assert res.final_length == final_key_length(4096, 0.02, res.leaked_bits, 5.0)
        assert len(res.key_a) == math.ceil(res.final_length / 8)

    def test_exhausted_budget_gives_empty_key(self, monkeypatch):
        calls = self.count_amplify(monkeypatch)
        a, b = noisy_pair(64, 0.02, stream(614))
        res = distill_key(a, b, 0.02, stream(615), kprime=10.0)
        assert res.final_length == 0 and res._amplify is None  # nothing kept to hash
        assert res.key_a == b"" and res.keys_equal and len(calls) == 0

    @staticmethod
    def count_amplify(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return privacy_amplify(*args, **kwargs)

        monkeypatch.setattr("qkdlab.postprocess.privacy_amplify", counting)
        return calls

    @staticmethod
    def unequal_pair():
        """Two flips under a zero estimate: the whole-key block has even
        parity, so reconciliation leaves both errors in place."""
        a = stream(616).integers(0, 2, size=256, dtype=np.uint8)
        b = a.copy()
        b[[3, 200]] ^= 1
        return a, b

    def test_equal_keys_hashed_once(self, monkeypatch):
        calls = self.count_amplify(monkeypatch)
        a, b = noisy_pair(4096, 0.02, stream(612))
        res = distill_key(a, b, 0.02, stream(613), kprime=5.0)
        assert res.keys_equal and res.final_length > 0
        assert len(calls) == 1
        assert res.key_b is res.key_a and isinstance(res.key_a, bytes)

    def test_unequal_keys_hash_bobs_key(self, monkeypatch):
        a, b = self.unequal_pair()
        calls = self.count_amplify(monkeypatch)
        res = distill_key(a, b, 0.0, stream(617))
        replay = stream(617)
        corrected, leaked = reconcile(a, b, replay, qber_hint=0.0)
        hash_seed = int(replay.integers(0, 2**63))
        assert np.array_equal(corrected, b) and leaked == res.leaked_bits
        packed = [np.packbits(privacy_amplify(k, res.final_length, hash_seed)).tobytes()
                  for k in (a, corrected)]
        a ^= 1  # the result hashes the keys as they were when distill_key ran
        b ^= 1
        assert len(calls) == 0
        assert not res.keys_equal and res.final_length > 0
        assert len(calls) == 2
        assert [res.key_a, res.key_b] == packed

    @pytest.mark.parametrize("equal, read, hashes", [
        (True, "key_a", 1), (True, "key_b", 1), (True, "keys_equal", 1),
        (False, "key_a", 2), (False, "key_b", 2), (False, "keys_equal", 2),
    ])
    def test_keys_are_hashed_on_first_read(self, monkeypatch, equal, read, hashes):
        """distill_key hashes nothing; the first read of either key hashes both,
        once when they are equal, and drops the hash function with its packed
        inputs; later reads hash nothing."""
        a, b = self.unequal_pair()
        if equal:
            b = a.copy()
        calls = self.count_amplify(monkeypatch)
        res = distill_key(a, b, 0.0, stream(617))
        assert res.final_length > 0 and len(calls) == 0 and res._amplify is not None
        getattr(res, read)
        assert len(calls) == hashes and res._amplify is None
        assert (res.key_b is res.key_a) == equal and res.keys_equal == equal
        assert len(calls) == hashes

    def test_readme_trial_keys_pinned(self):
        """README trial 0: the lazily hashed key is the byte string the eager
        hash gave."""
        _, res = simulate_trial("epr", SessionConfig(100_000, 10_000, 0.02),
                                ChannelModel.from_epsilon(0.02), None,
                                seed=7, trial=0, kprime=5.0)
        assert (res.final_length, res.leaked_bits) == (20528, 15877)
        assert res.key_b is res.key_a
        assert hashlib.sha256(res.key_a).hexdigest() == (
            "fd9a6229260923c6e821b714ce7ae7022ecad4d4152351faebab975eef4001c0")
