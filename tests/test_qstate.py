"""Tests for state vectors, density matrices, and spin measurements."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from qkdlab.qstate import (
    AXIS_X,
    AXIS_Z,
    BELL_BASIS,
    DensityMatrix,
    measure_pair,
    random_axes,
    rotate_pairs,
    spin_frames,
    von_neumann_entropy,
)
from qkdlab.rng import stream
from physics import fidelity, random_rotation, random_unitary
from reference import apply_operator, spin_projectors


class TestBellBasis:
    def test_orthonormal(self):
        vecs = BELL_BASIS.T
        gram = vecs.conj() @ vecs.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_computational_amplitudes(self):
        s = 1 / np.sqrt(2)
        vecs = BELL_BASIS.T
        assert np.allclose(vecs[0], [0, s, -s, 0])
        assert np.allclose(vecs[1], [0, s, s, 0])
        assert np.allclose(vecs[2], [s, 0, 0, s])
        assert np.allclose(vecs[3], [s, 0, 0, -s])

    def test_singlet_rotation_invariant(self):
        """The first basis state is fixed (up to phase) by any R (x) R."""
        rng = stream(101)
        psi0 = BELL_BASIS.T[0]
        for _ in range(100):
            r = random_rotation(rng)
            rotated = np.kron(r, r) @ psi0
            assert abs(np.vdot(psi0, rotated)) == pytest.approx(1.0, abs=1e-9)


class TestFidelity:
    def test_pure_singlet(self):
        psi0 = BELL_BASIS.T[0]
        assert fidelity(DensityMatrix(np.outer(psi0, psi0.conj()))) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        mixed = DensityMatrix(np.eye(4) / 4)
        assert fidelity(mixed) == pytest.approx(0.25)

    def test_rotation_invariant(self):
        rng = stream(102)
        vecs = BELL_BASIS.T
        rho = 0.6 * np.outer(vecs[0], vecs[0].conj()) + 0.4 * np.outer(
            vecs[2], vecs[2].conj()
        )
        base = fidelity(DensityMatrix(rho))
        for _ in range(25):
            r = random_rotation(rng)
            rr = np.kron(r, r)
            rotated = DensityMatrix(rr @ rho @ rr.conj().T)
            assert fidelity(rotated) == pytest.approx(base, abs=1e-9)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            fidelity(DensityMatrix(np.eye(2) / 2))


class TestMeasurementAxis:
    def test_validates_norm(self):
        for bad in ((0.0, 0.0, 0.0), (1.0, 0.0), (np.nan, 0.0, 1.0)):
            for frame_of in (spin_projectors, spin_frames):
                with pytest.raises(ValueError):
                    frame_of(np.array(bad))
        # any other 3-vector is normalized, as random_axes rows and AXIS_Z are
        assert np.array_equal(spin_projectors([0.0, 0.0, 2.0])[0], spin_projectors(AXIS_Z)[0])

    def test_random_axes_unit_and_isotropic(self):
        rng = stream(103)
        axes = random_axes(20000, rng)
        norms = np.linalg.norm(axes, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        # components of a sphere-uniform vector have mean 0, variance 1/3
        assert np.all(np.abs(axes.mean(axis=0)) < 3 * np.sqrt(1 / 3 / 20000))


class TestRandomAxes:
    @settings(max_examples=40)
    @given(st.integers(1, 3000), st.integers(0, 2**63))
    @example(100_000, 0)
    def test_rows_are_the_stream_normals_over_their_norms(self, n, seed):
        v = stream(seed).normal(size=(n, 3))
        expected = v / np.linalg.norm(v, axis=1)[:, None]
        assert random_axes(n, stream(seed)).tobytes() == expected.tobytes()

    def test_zero_row_is_redrawn(self):
        class Draws:
            def __init__(self):
                self.sizes = []
                self.draws = [np.array([[3.0, 0.0, 4.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
                              np.array([[0.0, 0.0, 0.0]]),
                              np.array([[1.0, 2.0, 2.0]])]

            def normal(self, size):
                self.sizes.append(size)
                return self.draws.pop(0)

        rng = Draws()
        axes = random_axes(3, rng)
        assert rng.sizes == [(3, 3), (1, 3), (1, 3)]
        assert np.array_equal(axes, [[0.6, 0.0, 0.8], [1 / 3, 2 / 3, 2 / 3], [0.0, 1.0, 0.0]])


class TestSpinProjectors:
    def test_z_axis(self):
        up, down = spin_projectors(AXIS_Z)
        assert np.allclose(up, np.diag([1.0, 0.0]))
        assert np.allclose(down, np.diag([0.0, 1.0]))

    def test_x_axis(self):
        up, _ = spin_projectors(AXIS_X)
        assert np.allclose(up, np.full((2, 2), 0.5))

    def test_idempotent_and_complete(self):
        rng = stream(104)
        for vec in random_axes(1000, rng):
            up, down = spin_projectors(vec)
            assert np.allclose(up @ up, up, atol=1e-9)
            assert np.allclose(down @ down, down, atol=1e-9)
            assert np.allclose(up + down, np.eye(2), atol=1e-12)


class TestMeasurePair:
    def test_singlet_always_antiparallel(self):
        rng = stream(105)
        psi0 = np.eye(4)[0]  # a pair is given by its Bell label
        for axis in random_axes(50, rng):
            a, b, _ = measure_pair(psi0, axis, rng)
            assert a != b

    def test_triplet_z_antiparallel_x_parallel(self):
        rng = stream(106)
        psi1 = np.eye(4)[1]
        for _ in range(50):
            a, b, _ = measure_pair(psi1, AXIS_Z, rng)
            assert a != b
            a, b, _ = measure_pair(psi1, AXIS_X, rng)
            assert a == b

    def test_nonsinglet_antiparallel_third_of_the_time(self):
        """Each triplet averages P(antiparallel) = 1/3 over random axes."""
        rng = stream(107)
        n = 10 ** 5
        for which in (1, 2, 3):
            psi = BELL_BASIS.T[which]
            axes = random_axes(n, rng)
            # closed form per axis: nz^2, ny^2, nx^2 for psi1, psi2, psi3
            comp = {1: 2, 2: 1, 3: 0}[which]
            p_anti = axes[:, comp] ** 2
            hits = (rng.random(n) < p_anti).sum()
            assert hits / n == pytest.approx(1 / 3, abs=0.01)
        # and the sampled measurement agrees on a smaller run
        psi = np.eye(4)[1]
        hits = 0
        trials = 2000
        for axis in random_axes(trials, rng):
            a, b, _ = measure_pair(psi, axis, rng)
            hits += a != b
        sigma = np.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(hits / trials - 1 / 3) < 3 * sigma

    @pytest.mark.parametrize("axis_a", [AXIS_Z, AXIS_X])
    @pytest.mark.parametrize("axis_b", [AXIS_Z, AXIS_X])
    @pytest.mark.parametrize("label", range(4))
    def test_measurement_order_does_not_matter(self, label, axis_a, axis_b):
        """Alice first or Bob first: the same joint distribution p[a, b]."""
        vec = BELL_BASIS.T[label]
        proj_a, proj_b = spin_projectors(axis_a), spin_projectors(axis_b)
        alice_first = np.empty((2, 2))
        bob_first = np.empty((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                v = apply_operator(vec, (2, 2), proj_a[a], (0,))
                v = apply_operator(v, (2, 2), proj_b[b], (1,))
                alice_first[a, b] = np.vdot(v, v).real
                v = apply_operator(vec, (2, 2), proj_b[b], (1,))
                v = apply_operator(v, (2, 2), proj_a[a], (0,))
                bob_first[a, b] = np.vdot(v, v).real
        frames = spin_frames(np.stack([axis_a, axis_b]))
        p = (np.abs(np.kron(frames[0], frames[1]) @ vec) ** 2).reshape(2, 2)
        assert np.allclose(p, alice_first, rtol=0.0, atol=1e-12)
        assert np.allclose(bob_first, alice_first, rtol=0.0, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_post_state_normalized(self):
        rng = stream(108)
        post = np.kron(np.eye(4)[2], np.eye(4)[0])
        for axis in (AXIS_Z, AXIS_X):
            _, _, post = measure_pair(post, axis, rng)
            assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-9)


@st.composite
def coherent_states(draw, max_pairs=6, max_ancilla=16):
    """A random dense state of N pairs and an ancilla, N's axes and a seed."""
    n = draw(st.integers(1, max_pairs))
    anc = draw(st.integers(1, max_ancilla))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = stream(seed)
    amps = rng.normal(size=4**n * anc) + 1j * rng.normal(size=4**n * anc)
    return amps / np.linalg.norm(amps), (2,) * (2 * n) + (anc,), random_axes(n, rng), seed


class TestPairKernel:
    """The rotation kernel against the projector oracle in tests/reference.py."""

    @settings(max_examples=60)
    @given(coherent_states())
    def test_session_matches_projector_oracle(self, case):
        amps, dims, axes, seed = case
        rng, oracle_rng = stream(seed, 1), stream(seed, 1)
        # the kernel reads Bell labels, the oracle qubits
        n = len(axes)
        rest, full = amps, reference.bell_to_computational(amps, n)
        for t, axis in enumerate(axes):
            rotated = rotate_pairs(rest.reshape(4, -1), axis[None])
            probs = np.einsum("rc,rc->r", rotated.conj(), rotated).real
            a, b, rest = measure_pair(rest, axis, rng)
            want_a, want_b, full, want_probs = reference.measure_pair(full, dims, t, axis,
                                                                      oracle_rng)
            assert (a, b) == (want_a, want_b)
            assert np.allclose(probs, want_probs, rtol=0.0, atol=1e-12)
            # the oracle's state is (measured pairs) (x) rest, up to a phase
            rest_qubits = reference.bell_to_computational(rest, n - t - 1)
            measured = full.reshape(4 ** (t + 1), -1) @ rest_qubits.conj()
            assert np.linalg.norm(measured) == pytest.approx(1.0, abs=1e-9)
        assert rng.random() == oracle_rng.random()

    @settings(max_examples=100)
    @given(st.tuples(*[st.floats(-10.0, 10.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-6))
    @example((0.0, 0.0, 1.0))
    @example((0.0, 0.0, -1.0))
    @example((1.0, 0.0, 0.0))
    @example((0.6, -0.8, 0.0))
    def test_frame_rows_are_the_oracle_projectors(self, axis):
        frame = spin_frames(axis)
        for row, proj in zip(frame, spin_projectors(axis)):
            assert np.allclose(np.outer(row.conj(), row), proj, rtol=0.0, atol=1e-12)
        assert np.allclose(frame @ frame.conj().T, np.eye(2), rtol=0.0, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        psi3 = BELL_BASIS.T[3]
        rho = DensityMatrix(np.outer(psi3, psi3.conj()))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_half_of_singlet_is_one_bit(self):
        # rows of the reshaped singlet run over Alice, columns over Bob
        vec = BELL_BASIS.T[0].reshape(2, 2)
        rho = DensityMatrix(vec.T @ vec.conj())
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-9)

    def test_binary_mixture_curve(self):
        for p in (0.1, 0.3, 0.5):
            rho = DensityMatrix(np.diag([p, 1 - p]))
            expect = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
            assert von_neumann_entropy(rho) == pytest.approx(expect)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_rejects_asymmetry_above_1e9(self):
        """Hermiticity is checked within 1e-9 absolute, whatever the entries' size."""
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5 + 1e-7], [0.5, 0.5]]))

    def test_rejects_non_square(self):
        for m in (np.ones(4) / 4, np.ones((2, 3)) / 2):
            with pytest.raises(ValueError, match="not square"):
                DensityMatrix(m)


class TestRotationCovariance:
    """Simultaneous pair rotations preserve the non-singlet count."""

    def _count_projector_weights(self, amps, n_pairs):
        """Weight of the state on each non-singlet-count subspace."""
        vecs = BELL_BASIS.T
        # transform each pair axis to the Bell basis
        out = amps.reshape((4,) * n_pairs)
        for ax in range(n_pairs):
            out = np.tensordot(vecs.conj(), out, axes=([1], [ax]))
            out = np.moveaxis(out, 0, ax)
        n_nonsinglet = (np.indices(out.shape) != 0).sum(axis=0)
        return np.bincount(n_nonsinglet.ravel(), weights=np.abs(out.ravel()) ** 2,
                           minlength=n_pairs + 1)

    def test_counts_preserved_under_pair_rotations(self):
        rng = stream(111)
        vecs = BELL_BASIS.T
        # |psi1 psi0 psi3> has exactly two non-singlet slots
        amps = np.kron(np.kron(vecs[1], vecs[0]), vecs[3])
        before = self._count_projector_weights(amps, 3)
        assert before[2] == pytest.approx(1.0, abs=1e-12)
        for _ in range(20):
            rotated = amps
            for pair in range(3):
                r = random_rotation(rng)
                rotated = apply_operator(rotated, (2,) * 6, r, (2 * pair,))
                rotated = apply_operator(rotated, (2,) * 6, r, (2 * pair + 1,))
            after = self._count_projector_weights(rotated, 3)
            assert after[2] == pytest.approx(1.0, abs=1e-9)


class TestOperators:
    def test_apply_operator_matches_kron(self):
        rng = stream(112)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        u = random_unitary(2, rng)
        got = apply_operator(amps, (2, 2, 2), u, (1,))
        want = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ amps
        assert np.allclose(got, want, atol=1e-12)

    def test_random_unitary_is_unitary(self):
        rng = stream(113)
        for dim in (2, 3, 4):
            u = random_unitary(dim, rng)
            assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_random_rotation_special(self):
        rng = stream(114)
        r = random_rotation(rng)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r @ r.conj().T, np.eye(2), atol=1e-12)
