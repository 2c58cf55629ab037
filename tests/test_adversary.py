"""Tests for eavesdropping strategies and their exact evaluation."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.adversary import (
    CoherentAttack,
    InterceptResend,
    SubstituteAttack,
    TestPlan,
    axis_averaged_passing_probability,
    conditional_ancilla_state,
    error_count_distribution,
    eve_info_bound,
    holevo_on_pass,
    substitute_pairs,
    typicality_split,
)
from qkdlab.bounds import atypical_dim_chain, eve_info_upper
from qkdlab.channel import ChannelModel
from qkdlab.errors import ConfigError, RegimeError
from qkdlab.protocol import SessionConfig, run_bb84_session
from qkdlab.qstate import (
    AXIS_X,
    AXIS_Z,
    random_axes,
    rotate_pairs,
    von_neumann_entropy,
)
from qkdlab.rng import stream
from physics import (
    attack_to_text,
    cloning_report,
    random_rotation,
    random_signal_pair,
    random_unitary,
    signal_preserving_unitary,
)
from reference import apply_operator, bell_to_computational, spin_projectors

Z, X = AXIS_Z, AXIS_X


def bell_product_attack(labels, ancilla_dim=1, marker=0):
    """Attack state |psi_l1 ... psi_lN>|marker> as a CoherentAttack."""
    n = len(labels)
    shape = (4,) * n + (ancilla_dim,)
    t = np.zeros(shape, dtype=complex)
    t[tuple(labels) + (marker,)] = 1.0
    return CoherentAttack(t)


class TestSubstitutePairs:
    def test_exact_replacement_count(self):
        rng = stream(401)
        # from all-singlet labels, each substituted position is a nonzero label
        labels = np.zeros(1000, dtype=np.int64)
        new = substitute_pairs(labels, SubstituteAttack(0.1), rng)
        assert np.count_nonzero(new) == 100
        assert new.max() <= 3
        assert not labels.any()  # the input is left as it was

    def test_zero_fraction_identity(self):
        rng = stream(402)
        labels = np.array([0, 1, 2, 3, 0])
        new = substitute_pairs(labels, SubstituteAttack(0.0, (1, 0, 0)), rng)
        assert np.array_equal(new, labels)

    def test_composes_with_channel_labels(self):
        rng = stream(403)
        # weights (1, 0, 0) write label 1, so each substitution of a 2 shows
        labels = np.full(500, 2, dtype=np.int64)
        new = substitute_pairs(labels, SubstituteAttack(0.2, (1, 0, 0)), rng)
        assert np.count_nonzero(new == 1) == 100
        assert np.all((new == 1) | (new == 2))

    def test_rejects_singlet_weight(self):
        # a weight per Bell label, singlet first, is not the three triplet weights
        with pytest.raises(ConfigError):
            SubstituteAttack(fraction=0.5, label_weights=(0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ConfigError):
            SubstituteAttack(fraction=0.1, label_weights=(0.1, 0.3, 0.3, 0.3))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            SubstituteAttack(fraction=1.5)


def intercept_session(policy, seed, n=4000):
    """A noiseless BB84 session with every photon intercepted per ``policy``."""
    config = SessionConfig(n, 1, 0.0, threshold_mode="window")
    return run_bb84_session(config, ChannelModel(1.0), InterceptResend(policy), stream(seed))


class TestInterceptResend:
    def test_same_basis_transparent(self):
        tr = intercept_session("rectilinear", 406)
        rect = tr.basis_a == 0
        assert rect.sum() > 1000
        assert np.array_equal(tr.eve_bits[rect], tr.outcome_a[rect])

    def test_cross_basis_randomizes(self):
        tr = intercept_session("diagonal", 407)
        rect = tr.basis_a == 0
        agree = (tr.eve_bits[rect] == tr.outcome_a[rect]).mean()
        assert agree == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(rect.sum()))

    @pytest.mark.parametrize("policy", ["rectilinear", "diagonal"])
    def test_single_basis_eve_caught_at_biased_bases(self, policy):
        """At omega = 0.1 the test still takes as many diagonal-matched as
        rectilinear-matched positions, so an Eve who measures in one basis
        shows an error rate near 1/4 whichever basis she picks.  A test drawn
        uniformly from the sifted set would be ~99 % rectilinear and would see
        a rectilinear Eve only through ~0.6 % extra errors."""
        config = SessionConfig(20_000, 1, 0.01, omega=0.1)
        for seed in range(5):
            tr = run_bb84_session(config, ChannelModel.from_epsilon(0.01),
                                  InterceptResend(policy), stream(440 + seed))
            assert tr.verdict == "rejected"
            diag = tr.basis_a == 1
            assert np.count_nonzero(tr.in_test & diag) == np.count_nonzero(tr.in_test & ~diag)
            sigma = math.sqrt(0.25 * 0.75 / tr.test_size)
            assert abs(tr.error_rate_estimate - 0.25) <= 4 * sigma

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            InterceptResend(policy="circular")


class TestCoherentAttackConstruction:
    def test_all_singlet_roundtrip(self):
        atk = bell_product_attack((0, 0, 0))
        assert atk.n_pairs == 3
        assert atk.ancilla_dim == 1
        amps = atk.amplitudes
        assert amps[0, 0, 0, 0] == pytest.approx(1.0)

    def test_dimension_caps(self):
        with pytest.raises(ConfigError):
            bell_product_attack((0,) * 7)
        with pytest.raises(ConfigError):
            bell_product_attack((0, 0), ancilla_dim=32)

    @pytest.mark.parametrize("shape, value, what", [
        ((4, 3, 1), 1.0, "length-4 pair axes"),
        ((4,) * 7 + (1,), 1.0, "1..6 pairs"),
        ((4, 4, 0), None, "ancilla dimension"),
        ((4, 4, 17), 1.0, "ancilla dimension"),
        ((4, 4, 1), 0.0, "norm 0.0"),
        ((4, 4, 1), math.nan, "norm nan"),
    ], ids=["pair-axis-3", "7-pairs", "ancilla-0", "ancilla-17", "zero-norm", "nan-norm"])
    def test_constructor_checks(self, shape, value, what):
        t = np.zeros(shape, dtype=complex)
        if value is not None:
            t.flat[0] = value
        with pytest.raises(ConfigError, match=what):
            CoherentAttack(t)

    def test_amplitudes_are_a_read_only_copy(self):
        t = np.zeros((4, 4, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        atk = CoherentAttack(t)
        t[0, 0, 0], t[1, 2, 1] = 0.0, 1.0
        assert (atk.amplitudes[0, 0, 0], atk.amplitudes[1, 2, 1]) == (1.0, 0.0)
        assert not atk.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            atk.amplitudes[0, 0, 0] = 0.0

    def test_bell_conversion_pinned(self):
        """The kernel that takes Bell labels to outcomes along the axes, byte for byte."""
        rng = stream(430)
        t = rng.normal(size=(4,) * 4 + (3,)) + 1j * rng.normal(size=(4,) * 4 + (3,))
        atk = CoherentAttack(t / np.linalg.norm(t))
        rotated = rotate_pairs(atk.amplitudes.reshape(4**4, 3), random_axes(4, rng))
        assert hashlib.sha256(rotated.tobytes()).hexdigest() == (
            "4e57c1ec729fddab86a0de5129e3d92d77c986a9324e8b91f00cad45fcde79ee")

    def test_normalization_required(self):
        t = np.zeros((4, 4, 1), dtype=complex)
        t[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            CoherentAttack(t)

    def test_text_round_trip(self):
        s = 1 / math.sqrt(2)
        cases = [
            # (rows, n_pairs, ancilla_dim)
            (["# two-component attack", f"00 0 {s} 0", f"10 1 0 {s}"], 2, 2),
            # an ancilla of dimension 4 is not read as one more pair
            ([f"00 0 {s} 0", f"12 3 0 {s}"], 2, 4),
        ]
        for rows, n_pairs, ancilla_dim in cases:
            atk = CoherentAttack.from_text("\n".join(rows))
            assert atk.n_pairs == n_pairs
            assert atk.ancilla_dim == ancilla_dim
            again = CoherentAttack.from_text(attack_to_text(atk))
            assert np.allclose(again.amplitudes, atk.amplitudes, atol=1e-12)

    @settings(max_examples=50)
    @given(st.integers(1, 6), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
    def test_canonical_file_round_trips_exactly(self, n, anc, sparse, seed):
        """A file of the nonzero rows in np.ndindex order, floats written by
        repr, is read into exactly its numbers and written back byte for byte."""
        rng = stream(seed)
        shape = (4,) * n + (anc,)
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if sparse:
            t = np.where(rng.random(shape) < 0.2, t, 0.0)
            t[(3,) * n + (anc - 1,)] = 1.0  # the last row fixes the ancilla dimension
        t /= np.linalg.norm(t)
        text = "".join(
            f"{''.join(map(str, idx[:-1]))} {idx[-1]} {float(t[idx].real)!r} "
            f"{float(t[idx].imag)!r}\n"
            for idx in np.ndindex(*shape) if t[idx] != 0.0
        )
        atk = CoherentAttack.from_text(text)
        assert atk.amplitudes.tobytes() == t.tobytes()
        assert attack_to_text(atk) == text

    def test_text_rejects_unnormalized(self):
        with pytest.raises(ConfigError, match="[Uu]nnormalized"):
            CoherentAttack.from_text("00 0 0.5 0")

    def test_text_rejects_duplicate_rows(self):
        s = 1 / math.sqrt(2)
        with pytest.raises(ConfigError):
            CoherentAttack.from_text(f"00 0 {s} 0\n00 0 {s} 0")

    def test_text_rejects_oversized_rows_on_their_line(self):
        for text, what in [("0 0 1.0 0.0\n0 16 0.0 0.0", "line 2: ancilla index"),
                           ("0000000 0 1.0 0.0", "line 1: .* 1..6 pairs")]:
            with pytest.raises(ConfigError, match=what):
                CoherentAttack.from_text(text)
        # the largest sizes still parse
        assert CoherentAttack.from_text("000000 15 1.0 0.0").ancilla_dim == 16


class TestPassingProbability:
    def test_all_singlets_always_pass(self):
        rng = stream(408)
        atk = bell_product_attack((0, 0, 0, 0))
        for m in (1, 2, 4):
            idx = tuple(rng.choice(4, size=m, replace=False))
            plan = TestPlan(idx, random_axes(m, rng), 0, 0)
            assert error_count_distribution(atk, plan)[0] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_fixed_axis_component_weights(self):
        # |psi3 psi0>: error on pair 0 has weight 1 - nx^2 at axis n
        rng = stream(409)
        atk = bell_product_attack((3, 0))
        for vec in random_axes(20, rng):
            plan0 = TestPlan((0, 1), np.array([vec, Z]), 0, 0)
            plan1 = TestPlan((0, 1), np.array([vec, Z]), 1, 1)
            assert error_count_distribution(atk, plan0)[0] == pytest.approx(
                vec[0] ** 2, abs=1e-9
            )
            assert error_count_distribution(atk, plan1)[1] == pytest.approx(
                1 - vec[0] ** 2, abs=1e-9
            )

    def test_single_nonsinglet_axis_average(self):
        """P(pass) = 1 - (2/3)(m/N) for one bad pair at N=4, m=2."""
        rng = stream(410)
        atk = bell_product_attack((2, 0, 0, 0))
        mean, stderr = axis_averaged_passing_probability(
            atk, 2, rng, n_samples=20000
        )
        assert abs(mean - 2 / 3) < 4 * stderr
        assert stderr < 0.01

    def test_equal_superposition_average(self):
        """(|0000> + |1111>)/sqrt(2) passes m=N=4 with 1/2 + (1/2)(1/3)^4."""
        rng = stream(411)
        t = np.zeros((4, 4, 4, 4, 1), dtype=complex)
        t[0, 0, 0, 0, 0] = t[1, 1, 1, 1, 0] = 1 / math.sqrt(2)
        atk = CoherentAttack(t)
        mean, stderr = axis_averaged_passing_probability(
            atk, 4, rng, n_samples=20000
        )
        want = 0.5 + 0.5 * (1 / 3) ** 4
        assert abs(mean - want) <= 1e-12
        assert stderr <= 1e-12

    def test_permutation_invariance_common_axis(self):
        # same label multiset, permuted slots, one common axis: exact match
        rng = stream(412)
        a1 = bell_product_attack((1, 0, 3, 0))
        a2 = bell_product_attack((0, 3, 0, 1))
        for vec in random_axes(10, rng):
            plan = TestPlan((0, 1, 2, 3), np.tile(vec, (4, 1)), 0, 0)
            assert error_count_distribution(a1, plan)[0] == pytest.approx(
                error_count_distribution(a2, plan)[0], abs=1e-12
            )

    def test_monotone_in_tested_nonsinglets(self):
        """Axis-averaged passing decays like (1/3)^k; all-singlet is best."""
        rng = stream(413)
        means = []
        for k in range(4):
            labels = [1] * k + [0] * (4 - k)
            atk = bell_product_attack(tuple(labels))
            mean, stderr = axis_averaged_passing_probability(
                atk, 4, rng, n_samples=4000
            )
            assert abs(mean - (1 / 3) ** k) < 4 * max(stderr, 1e-12)
            means.append(mean)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_rejects_no_samples(self):
        atk = bell_product_attack((0, 0))
        for n_samples in (0, -1):
            with pytest.raises(ConfigError):
                axis_averaged_passing_probability(atk, 1, stream(422), n_samples=n_samples)

    def test_rejects_bad_plan_before_sampling(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("sampled before the plan was checked")

        monkeypatch.setattr("qkdlab.adversary.rotate_pairs", no_work)
        monkeypatch.setattr("qkdlab.adversary._bell_weights", no_work)
        atk = bell_product_attack((0, 0, 0, 0))
        rng = stream(424)
        for accept in ((0, 5), (2, 1), (-1, 0)):
            with pytest.raises(ConfigError):
                axis_averaged_passing_probability(atk, 2, rng, n_samples=3, accept=accept)
        assert rng.random() == stream(424).random()  # nothing was drawn
        axes = random_axes(2, stream(425))
        for indices in ((0, 0), (-1, 0), (0, 4)):
            with pytest.raises(ConfigError):
                error_count_distribution(atk, TestPlan(indices, axes, 0, 0))
        with pytest.raises(ConfigError):
            conditional_ancilla_state(atk, TestPlan((0, 4), axes, 0, 0))
        with pytest.raises(ConfigError):
            error_count_distribution(atk, TestPlan((0, 1), random_axes(3, stream(426)), 0, 0))


class TestPlanValidation:
    def test_one_axis_row_per_index(self):
        for axes in (random_axes(3, stream(423)), np.zeros((2, 2)), Z):
            with pytest.raises(ConfigError):
                TestPlan((0, 1), axes, 0, 0)
        assert TestPlan((0, 1), random_axes(2, stream(423)), 0, 2).axes.shape == (2, 3)


@st.composite
def attack_and_plan(draw, max_pairs=4, max_ancilla=4):
    """A random dense coherent attack, a random test plan and the seed that
    drew the attack's amplitudes and the plan's pairs and axes."""
    n = draw(st.integers(1, max_pairs))
    anc = draw(st.integers(1, max_ancilla))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = stream(seed)
    t = rng.normal(size=(4,) * n + (anc,)) + 1j * rng.normal(size=(4,) * n + (anc,))
    atk = CoherentAttack(t / np.linalg.norm(t))
    m = draw(st.integers(1, n))
    indices = tuple(int(i) for i in rng.choice(n, size=m, replace=False))
    lo = draw(st.integers(0, m))
    hi = draw(st.integers(lo, m))
    return atk, TestPlan(indices, random_axes(m, rng), lo, hi), seed


class TestErrorCountDistribution:
    @settings(max_examples=60)
    @given(attack_and_plan())
    def test_sums_to_one_and_conditions_to_unit_trace(self, case):
        atk, plan, _ = case
        probs = error_count_distribution(atk, plan)
        assert probs.shape == (len(plan.indices) + 1,)
        assert np.all(probs >= -1e-15)
        assert abs(probs.sum() - 1.0) <= 1e-12
        p_pass = probs[plan.accept_lo : plan.accept_hi + 1].sum()
        if p_pass > 1e-12:
            rho = conditional_ancilla_state(atk, plan)
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9


def outcome_classes_reference(attack, indices, axes):
    """Yield (leaf amplitudes, error count) for each of the 2^m outcome classes.

    The full-state walk the scoring used before the tested-pair reduction:
    tested pair ``indices[i]`` branches into antiparallel (no error) and
    parallel (one error) along ``axes[i]``, depth first.  Branch projectors
    commute across pairs and are orthogonal within a pair, so leaf norms are
    exact outcome-class probabilities.
    """
    dims = (2,) * (2 * attack.n_pairs) + (attack.ancilla_dim,)

    def rec(vec, i, errors):
        if i == len(indices):
            yield vec, errors
            return
        up, down = spin_projectors(axes[i])
        anti = np.kron(up, down) + np.kron(down, up)
        pair = (2 * indices[i], 2 * indices[i] + 1)
        yield from rec(apply_operator(vec, dims, anti, pair), i + 1, errors)
        yield from rec(apply_operator(vec, dims, np.eye(4) - anti, pair), i + 1, errors + 1)

    yield from rec(bell_to_computational(attack.amplitudes, attack.n_pairs), 0, 0)


def reference_law(attack, indices, axes):
    probs = np.zeros(len(indices) + 1)
    for vec, errors in outcome_classes_reference(attack, indices, axes):
        probs[errors] += np.vdot(vec, vec).real
    return probs


def reference_conditional_ancilla(attack, plan):
    """(unnormalized conditional ancilla state, passing probability)."""
    anc = attack.ancilla_dim
    accum = np.zeros((anc, anc), dtype=complex)
    total = 0.0
    for vec, errors in outcome_classes_reference(attack, plan.indices, plan.axes):
        if plan.accept_lo <= errors <= plan.accept_hi:
            mat = vec.reshape(-1, anc)
            accum += mat.T @ mat.conj()
            total += np.vdot(vec, vec).real
    return accum, total


def coordinate_axis_average(attack, indices, lo, hi):
    """The passing probability averaged over the 3^m plans whose axes are
    each x, y or z.

    Each pair's parallel projector is quadratic in its axis, and the three
    coordinate axes average any quadratic form to its sphere average, so
    this is the exact average over uniform axes.  Each plan is scored by the
    rotation kernel, which ``test_matches_outcome_class_walk`` checks against
    the outcome walk; walking all 3^m plans of a six-pair attack takes
    minutes."""
    plans = itertools.product(np.eye(3), repeat=len(indices))
    laws = [error_count_distribution(attack, TestPlan(indices, np.array(axes), lo, hi))
            for axes in plans]
    return np.mean(laws, axis=0)[lo : hi + 1].sum()


def reference_axis_average(attack, m, rng, n_samples, accept):
    """Per sample, a drawn subset scored by its coordinate-axis average, once
    per distinct subset."""
    by_subset = {}
    values = np.empty(n_samples)
    for s in range(n_samples):
        pairs = tuple(int(i) for i in rng.choice(attack.n_pairs, size=m, replace=False))
        if pairs not in by_subset:
            by_subset[pairs] = coordinate_axis_average(attack, pairs, *accept)
        values[s] = by_subset[pairs]
    stderr = values.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return values.mean(), stderr


class TestTestedPairReduction:
    """The rotated tested-pair scoring against the full-state outcome walk."""

    @settings(max_examples=60)
    @given(attack_and_plan(max_pairs=6, max_ancilla=16))
    def test_matches_outcome_class_walk(self, case):
        atk, plan, _ = case
        got = error_count_distribution(atk, plan)
        assert np.abs(got - reference_law(atk, plan.indices, plan.axes)).max() <= 1e-12
        accum, total = reference_conditional_ancilla(atk, plan)
        if total < 1e-12:
            with pytest.raises(ValueError):
                conditional_ancilla_state(atk, plan)
        else:
            rho = conditional_ancilla_state(atk, plan).matrix
            assert np.abs(rho - accum / total).max() <= 1e-12

    @settings(max_examples=30)
    @given(attack_and_plan(max_pairs=6, max_ancilla=16), st.integers(1, 8))
    def test_sampler_matches_per_sample_walk(self, case, n_samples):
        atk, plan, seed = case
        m = len(plan.indices)
        accept = (plan.accept_lo, plan.accept_hi)
        rng, ref_rng = stream(seed, 1), stream(seed, 1)
        got = axis_averaged_passing_probability(atk, m, rng, n_samples, accept)
        want = reference_axis_average(atk, m, ref_rng, n_samples, accept)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12
        assert np.array_equal(rng.random(4), ref_rng.random(4))

    @settings(max_examples=20)
    @given(attack_and_plan(max_pairs=6, max_ancilla=16))
    def test_sampled_subsets_average_to_the_exact_mean(self, case):
        """Drawn subsets average to within 3 sigma of the mean over all
        C(N, m) subsets, each scored exactly by its coordinate-axis average."""
        atk, plan, seed = case
        m = len(plan.indices)
        accept = (plan.accept_lo, plan.accept_hi)
        exact = np.mean([
            coordinate_axis_average(atk, subset, *accept)
            for subset in itertools.combinations(range(atk.n_pairs), m)
        ])
        mean, stderr = axis_averaged_passing_probability(atk, m, stream(seed, 2), 400, accept)
        assert abs(mean - exact) <= 3 * stderr + 1e-12


class TestConditionalAncilla:
    def test_decoupled_eve_learns_nothing(self):
        rng = stream(414)
        t = np.zeros((4, 4, 2), dtype=complex)
        t[0, 0, 0] = 0.6
        t[0, 0, 1] = 0.8
        atk = CoherentAttack(t)
        rho = conditional_ancilla_state(atk, TestPlan((0, 1), random_axes(2, rng), 0, 0))
        assert eve_info_bound(rho) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_markers_give_one_bit(self):
        # equally weighted passing components with orthogonal markers
        t = np.zeros((4, 4, 2), dtype=complex)
        t[0, 0, 0] = t[1, 0, 1] = 1 / math.sqrt(2)
        atk = CoherentAttack(t)
        plan = TestPlan((0, 1), np.array([Z, Z]), 0, 0)  # psi1 passes a z test
        rho = conditional_ancilla_state(atk, plan)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-9)
        assert eve_info_bound(rho) == pytest.approx(1.0, abs=1e-9)

    def test_unit_trace(self):
        rng = stream(415)
        t = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
        t /= np.linalg.norm(t)
        atk = CoherentAttack(t)
        rho = conditional_ancilla_state(atk, TestPlan((0, 1), random_axes(2, rng), 0, 1))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_fine_grained_outcome_oracle(self):
        """Brute-force enumeration of all outcome strings reproduces rho_R."""
        rng = stream(416)
        t = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
        t /= np.linalg.norm(t)
        atk = CoherentAttack(t)
        vecs = random_axes(2, rng)
        plan = TestPlan((0, 1), vecs, 0, 0)

        eigvecs = []
        for v in vecs:
            up, down = spin_projectors(v)
            eigvecs.append(
                (np.linalg.eigh(up)[1][:, -1], np.linalg.eigh(down)[1][:, -1])
            )
        amps = bell_to_computational(atk.amplitudes, 2).reshape(2, 2, 2, 2, 3)
        accum = np.zeros((3, 3), dtype=complex)
        total = 0.0
        for a0 in (0, 1):
            for b0 in (0, 1):
                if a0 == b0:
                    continue  # pair 0 must come out antiparallel
                for a1 in (0, 1):
                    for b1 in (0, 1):
                        if a1 == b1:
                            continue
                        bra = [
                            eigvecs[0][a0].conj(),
                            eigvecs[0][b0].conj(),
                            eigvecs[1][a1].conj(),
                            eigvecs[1][b1].conj(),
                        ]
                        anc = np.einsum(
                            "abcdr,a,b,c,d->r", amps, bra[0], bra[1], bra[2], bra[3]
                        )
                        accum += np.outer(anc, anc.conj())
                        total += float(np.vdot(anc, anc).real)
        oracle = accum / total
        rho = conditional_ancilla_state(atk, plan)
        assert error_count_distribution(atk, plan)[0] == pytest.approx(
            total, abs=1e-9
        )
        assert np.allclose(rho.matrix, oracle, atol=1e-9)

    def test_zero_passing_probability_rejected(self):
        # psi1 never passes an x-axis test (parallel with certainty)
        atk = bell_product_attack((1,))
        plan = TestPlan((0,), np.array([X]), 0, 0)
        with pytest.raises(ValueError):
            conditional_ancilla_state(atk, plan)

    def test_holevo_on_pass_is_none_only_for_an_unpassable_plan(self):
        # psi2 is parallel along z with certainty: the window (0, 0) never passes
        unpassable = TestPlan((0,), np.array([Z]), 0, 0)
        with pytest.raises(RegimeError):
            conditional_ancilla_state(bell_product_attack((2,)), unpassable)
        assert holevo_on_pass(bell_product_attack((2,)), unpassable) is None
        # a malformed plan is an error, not a plan that cannot pass
        atk = bell_product_attack((0, 0))
        axes = random_axes(2, stream(427))
        for plan, error in ((TestPlan((0, 5), axes, 0, 0), ConfigError),
                            (TestPlan((0, 1), np.zeros((2, 3)), 0, 0), ValueError),
                            (TestPlan((0, 1), np.full((2, 3), np.nan), 0, 0), ValueError)):
            with pytest.raises(error):
                holevo_on_pass(atk, plan)


class TestTypicalitySplit:
    def test_all_singlets_fully_atypical(self):
        atk = bell_product_attack((0, 0, 0, 0))
        typical, atypical = typicality_split(atk, 2)
        assert atypical == pytest.approx(1.0, abs=1e-12)
        assert typical == pytest.approx(0.0, abs=1e-12)

    def test_uniform_superposition_count(self):
        # T = 2: atypical vectors are the 13 with < 2 bad slots
        t = np.full((4, 4, 4, 4, 1), 1 / 16.0, dtype=complex)
        atk = CoherentAttack(t)
        typical, atypical = typicality_split(atk, 2)
        assert atypical == pytest.approx(13 / 256, abs=1e-12)
        assert typical + atypical == pytest.approx(1.0, abs=1e-9)

    def test_rotation_invariance(self):
        rng = stream(417)
        t = np.zeros((4, 4, 1), dtype=complex)
        t[1, 0, 0] = t[0, 0, 0] = t[2, 3, 0] = 1 / math.sqrt(3)
        atk = CoherentAttack(t)
        before = typicality_split(atk, 1)  # T = 1: the all-singlet word alone
        dims = (2,) * 4 + (1,)
        # the conversion to qubits as a matrix: the image of each Bell word
        conv = np.stack([bell_to_computational(e, 2) for e in np.eye(16)], axis=1)
        amps = conv @ atk.amplitudes.reshape(-1)
        for pair in range(2):
            r = random_rotation(rng)
            amps = apply_operator(amps, dims, r, (2 * pair,))
            amps = apply_operator(amps, dims, r, (2 * pair + 1,))
        back = (conv.conj().T @ amps).reshape(atk.amplitudes.shape)
        after = typicality_split(CoherentAttack(back), 1)
        assert after[0] == pytest.approx(before[0], abs=1e-9)
        assert after[1] == pytest.approx(before[1], abs=1e-9)

    def test_threshold_must_be_an_integer(self):
        # an error rate passed in its place would count only the all-singlet words
        with pytest.raises(TypeError):
            typicality_split(bell_product_attack((0, 1)), 0.2)


class TestEveInfoDominance:
    def test_upper_bound_dominates_conforming_attacks(self):
        """S(rho_R) of an atypical-supported attack stays under the count bound."""
        rng = stream(418)
        report = atypical_dim_chain(4, 0.13)  # T = 2: 13 atypical basis vectors
        upper = eve_info_upper(report, 0.0)
        atypical_idx = [(0, 0, 0, 0)]
        for slot in range(4):
            for lab in (1, 2, 3):
                idx = [0, 0, 0, 0]
                idx[slot] = lab
                atypical_idx.append(tuple(idx))
        assert len(atypical_idx) == 13
        for _ in range(20):
            t = np.zeros((4, 4, 4, 4, 16), dtype=complex)
            for idx in atypical_idx:
                t[idx] = rng.normal(size=16) + 1j * rng.normal(size=16)
            t /= np.linalg.norm(t)
            atk = CoherentAttack(t)
            _, aty = typicality_split(atk, report.threshold)
            assert aty == pytest.approx(1.0, abs=1e-9)
            m = int(rng.integers(1, 5))
            idxs = tuple(int(i) for i in rng.choice(4, size=m, replace=False))
            plan = TestPlan(idxs, random_axes(m, rng), 0, int(rng.integers(0, m + 1)))
            try:
                rho = conditional_ancilla_state(atk, plan)
            except ValueError:
                continue  # nothing passes; no conditional state to bound
            assert eve_info_bound(rho) <= upper + 1e-9


class TestCloningVerifier:
    def test_signal_pair_overlap_window(self):
        rng = stream(419)
        for _ in range(50):
            u1, u2 = random_signal_pair(rng, 0.2, 0.8)
            ov = abs(np.vdot(u1, u2))
            assert 0.2 - 1e-9 <= ov <= 0.8 + 1e-9
            assert np.linalg.norm(u1) == pytest.approx(1.0)
            assert np.linalg.norm(u2) == pytest.approx(1.0)

    def test_preserving_unitary_learns_nothing(self):
        rng = stream(420)
        for _ in range(30):
            u1, u2 = random_signal_pair(rng)
            u, probe = signal_preserving_unitary(u1, u2, 4, rng)
            assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-9)
            rep = cloning_report(u, u1, u2, probe)
            assert rep.signal_fidelities[0] == pytest.approx(1.0, abs=1e-9)
            assert rep.signal_fidelities[1] == pytest.approx(1.0, abs=1e-9)
            assert rep.probe_overlap == pytest.approx(1.0, abs=1e-9)
            assert rep.holevo_bits == pytest.approx(0.0, abs=1e-7)

    def test_information_implies_disturbance(self):
        rng = stream(421)
        informative = 0
        for _ in range(40):
            u1, u2 = random_signal_pair(rng)
            u = random_unitary(8, rng)
            probe = rng.normal(size=4) + 1j * rng.normal(size=4)
            probe /= np.linalg.norm(probe)
            rep = cloning_report(u, u1, u2, probe)
            assert rep.helstrom_bits <= rep.holevo_bits + 1e-9
            if rep.helstrom_bits >= 0.01:
                informative += 1
                assert rep.max_fidelity_deficit >= 1e-6
        assert informative > 10  # random interactions are rarely uninformative

    def test_report_pinned(self):
        # pinned from the partial traces of the full density matrix, to 1e-12
        rng = stream(422)
        u1, u2 = random_signal_pair(rng)
        u = random_unitary(8, rng)
        probe = rng.normal(size=4) + 1j * rng.normal(size=4)
        probe /= np.linalg.norm(probe)
        rep = cloning_report(u, u1, u2, probe)
        expected = (0.259851377831446, 0.5535213083793951, 0.351460369565706,
                    0.5501450987478744, 0.7450293435803266)
        got = (rep.probe_overlap, *rep.signal_fidelities, rep.helstrom_bits, rep.holevo_bits)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
