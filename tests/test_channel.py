"""Tests for the spherically symmetric noisy pair channel."""

import numpy as np
import pytest

from qkdlab.channel import (
    ChannelModel,
    antiparallel_prob_given_label,
    label_probs,
    sample_common_axis_outcomes,
)
from qkdlab.errors import ConfigError
from qkdlab.qstate import BELL_BASIS, random_axes
from qkdlab.rng import stream
from physics import fidelity, random_rotation, werner_state
from reference import choice_labels


class TestWernerState:
    def test_pure_singlet_at_one(self):
        vecs = BELL_BASIS.T
        assert np.allclose(werner_state(1.0).matrix, np.outer(vecs[0], vecs[0].conj()))

    def test_quarter_is_maximally_mixed(self):
        assert np.allclose(werner_state(0.25).matrix, np.eye(4) / 4, atol=1e-12)

    def test_fidelity_round_trip(self):
        assert fidelity(werner_state(0.97)) == pytest.approx(0.97, abs=1e-12)
        assert fidelity(werner_state(0.9)) == pytest.approx(0.9, abs=1e-12)

    def test_rotation_invariant(self):
        rng = stream(201)
        m = werner_state(0.8).matrix
        for _ in range(20):
            r = random_rotation(rng)
            rr = np.kron(r, r)
            assert np.allclose(rr @ m @ rr.conj().T, m, atol=1e-9)

    def test_range_check(self):
        with pytest.raises(ConfigError):
            werner_state(1.2)

    def test_bell_diagonal_is_the_label_law(self):
        vecs = BELL_BASIS.T
        for f in (0.0, 0.3, 0.97, 1.0):
            diag = np.einsum("ki,ij,kj->k", vecs.conj(), werner_state(f).matrix, vecs)
            assert np.allclose(diag, label_probs(f), atol=1e-12)
            assert label_probs(f).sum() == pytest.approx(1.0, abs=1e-15)


class TestFidelityDictionary:
    """``from_epsilon`` inverts the rule epsilon = (2/3)(1 - F)."""

    def test_antiparallel_examples(self):
        # antiparallel probability 1 - epsilon = (1 + 2F)/3
        for f, anti in ((1.0, 1.0), (0.25, 0.5), (0.97, 0.98)):
            assert ChannelModel.from_epsilon(1 - anti).fidelity == pytest.approx(f)

    def test_epsilon_examples(self):
        assert ChannelModel.from_epsilon(0.0).fidelity == pytest.approx(1.0)
        assert ChannelModel.from_epsilon(0.02).fidelity == pytest.approx(0.97)
        assert ChannelModel.from_epsilon(0.5).fidelity == pytest.approx(0.25)

    def test_round_trip_grid(self):
        for f in np.linspace(0.0, 1.0, 100):
            eps = 2 * (1 - f) / 3
            assert ChannelModel.from_epsilon(eps).fidelity == pytest.approx(f, abs=1e-12)

    def test_inversion_rejects_impossible_rate(self):
        # 2/3 is the rate of the fully depolarized channel; nothing is noisier
        with pytest.raises(ConfigError):
            ChannelModel.from_epsilon(0.7)

    def test_channel_model_accessors(self):
        chan = ChannelModel.from_epsilon(0.02)
        assert chan.fidelity == pytest.approx(0.97)
        assert 2 * (1 - chan.fidelity) / 3 == pytest.approx(0.02)


class TestLabelSampling:
    def test_pure_channel_all_singlets(self):
        rng = stream(202)
        labels = ChannelModel(1.0).sample_labels(1000, rng)
        assert np.all(labels == 0)

    def test_zero_fidelity_never_singlet(self):
        rng = stream(203)
        labels = ChannelModel(0.0).sample_labels(3000, rng)
        assert np.all(labels > 0)
        counts = np.bincount(labels, minlength=4)
        assert np.all(np.abs(counts[1:] / 3000 - 1 / 3) < 3 * np.sqrt(2 / 9 / 3000))

    def test_singlet_frequency(self):
        rng = stream(204)
        n = 10 ** 5
        labels = ChannelModel(0.7).sample_labels(n, rng)
        freq = (labels == 0).mean()
        assert freq == pytest.approx(0.7, abs=0.0045)

    def test_scalar_variant(self):
        rng = stream(205)
        draws = [int(ChannelModel(0.5).sample_labels(1, rng)[0]) for _ in range(200)]
        assert set(draws) <= {0, 1, 2, 3}

    @pytest.mark.parametrize("f", [0.0, 0.25, 0.97, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 10 ** 5])
    def test_same_labels_and_draws_as_choice(self, f, n):
        """``sample_labels`` returns ``rng.choice``'s labels, as uint8, and
        leaves the stream where ``rng.choice`` leaves it."""
        ours, theirs = stream(206, n), stream(206, n)
        labels = ChannelModel(f).sample_labels(n, ours)
        assert labels.dtype == np.uint8
        assert np.array_equal(labels, choice_labels(f, n, theirs))
        assert ours.random() == theirs.random()


class TestPerAxisStatistics:
    def test_label_table_matches_projector_arithmetic(self):
        """Antiparallel weight per label equals the projective computation."""
        from reference import spin_projectors

        rng = stream(206)
        vecs = BELL_BASIS.T
        for vec in random_axes(50, rng):
            up, down = spin_projectors(vec)
            e_anti = np.kron(up, down) + np.kron(down, up)
            axes = vec[None, :]
            for label in range(4):
                psi = vecs[label]
                want = np.vdot(psi, e_anti @ psi).real
                got = antiparallel_prob_given_label(np.array([label]), axes)[0]
                assert got == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_consistency(self):
        """Sampled outcomes reproduce (1+2F)/3 on random common axes."""
        rng = stream(207)
        n = 10 ** 5
        for f in (0.97, 0.5):
            labels = ChannelModel(f).sample_labels(n, rng)
            axes = random_axes(n, rng)
            a, b = sample_common_axis_outcomes(labels, axes, rng)
            anti = (a != b).mean()
            want = (1 + 2 * f) / 3
            assert abs(anti - want) < 3 * np.sqrt(want * (1 - want) / n)
