"""Tests for session state machines, windows, and the two constructions."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from physics import werner_state
from reference import spin_projectors, whole_array_outcomes
from scipy import stats

from qkdlab import channel, protocol
from qkdlab.adversary import (
    CoherentAttack,
    InterceptResend,
    SubstituteAttack,
    substitute_pairs,
)
from qkdlab.channel import ChannelModel
from qkdlab.errors import ConfigError
from qkdlab.protocol import (
    EQUIVALENCE_ATOL,
    SessionConfig,
    accepted_count_interval,
    epr_bb84_equivalence_check,
    run_bb84_session,
    run_epr_session,
    select_test_set,
)
from qkdlab.rng import stream


def all_singlet_attack(n):
    t = np.zeros((4,) * n + (1,), dtype=complex)
    t[(0,) * n + (0,)] = 1.0
    return CoherentAttack(t)


def window(eps, c=1.0):
    """A window-mode config; ``accepted_count_interval`` reads only eps and c."""
    return SessionConfig(1, 1, eps, window_coeff=c, threshold_mode="window")


class TestAcceptanceWindow:
    def test_documented_examples(self):
        assert accepted_count_interval(window(0.02), 10000) == (196, 204)
        assert accepted_count_interval(window(0.1), 100) == (9, 11)

    def test_zero_error_limit(self):
        assert accepted_count_interval(window(0.0), 500) == (0, 0)

    def test_vacuous_window_rejected(self):
        # 0.291..0.309 contains no integer once scaled by m=10
        with pytest.raises(ConfigError, match=r"acceptance window for eps=0.03, c=1.0, "
                                              r"m=10 rounds empty"):
            accepted_count_interval(window(0.03), 10)

    def test_two_epsilon_interval(self):
        cfg = SessionConfig(1000, 100, 0.02, threshold_mode="two_epsilon")
        assert accepted_count_interval(cfg, 100) == (0, 3)
        cfg_w = SessionConfig(10000, 10000, 0.02, threshold_mode="window")
        assert accepted_count_interval(cfg_w, 10000) == (196, 204)

    def test_two_epsilon_at_zero_rate_accepts_only_zero_errors(self):
        """At eps = 0 no count lies below 2 eps m; the rule's floor accepts 0, as
        the window does there."""
        cfg = SessionConfig(1000, 100, 0.0, threshold_mode="two_epsilon")
        assert accepted_count_interval(cfg, 100) == (0, 0)
        assert accepted_count_interval(window(0.0), 100) == (0, 0)

    def test_default_rule_is_two_epsilon(self):
        """The default test rule does not depend on the error rate."""
        for eps in (0.0, 0.02):
            assert SessionConfig(1000, 100, eps).threshold_mode == "two_epsilon"

    @settings(max_examples=300)
    @given(st.floats(0.0, 0.99), st.floats(0.01, 100.0), st.integers(1, 2000),
           st.sampled_from(["window", "two_epsilon"]))
    def test_interval_is_the_defined_count_set(self, eps, c, m, mode):
        """The interval holds exactly the integer counts its mode accepts."""
        cfg = SessionConfig(m, m, eps, window_coeff=c, threshold_mode=mode)
        k = np.arange(int((eps + c * eps * eps) * m) + m + 2)
        if mode == "window":
            accepted = k[(k <= m) & ((eps - c * eps * eps) * m - 1e-9 <= k)
                         & (k <= (eps + c * eps * eps) * m + 1e-9)].tolist()
        else:
            accepted = k[(k == 0) | ((k <= m) & (k < 2.0 * eps * m - 1e-9))].tolist()
        if not accepted:
            with pytest.raises(ConfigError):
                accepted_count_interval(cfg, m)
            return
        lo, hi = accepted_count_interval(cfg, m)
        assert list(range(lo, hi + 1)) == accepted


class TestSelectTestSet:
    def test_full_set(self):
        rng = stream(501)
        assert np.array_equal(select_test_set(5, 5, rng), np.arange(5))

    def test_size_validation(self):
        rng = stream(502)
        with pytest.raises(ConfigError):
            select_test_set(5, 0, rng)
        with pytest.raises(ConfigError):
            select_test_set(5, 6, rng)

    def test_uniform_inclusion(self):
        rng = stream(503)
        picks = np.array([select_test_set(2, 1, rng)[0] for _ in range(10 ** 5)])
        assert abs(picks.mean() - 0.5) < 0.005

    def test_sorted_unique(self):
        rng = stream(504)
        s = select_test_set(100, 30, rng)
        assert np.all(np.diff(s) > 0)


class TestSessionConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigError):
            SessionConfig(0, 1, 0.02)
        with pytest.raises(ConfigError):
            SessionConfig(10, 11, 0.02)
        with pytest.raises(ConfigError):
            SessionConfig(10, 5, 1.5)
        with pytest.raises(ConfigError):
            SessionConfig(10, 5, 0.02, omega=1.5)
        with pytest.raises(ConfigError):
            SessionConfig(10, 5, 0.02, threshold_mode="strict")


class TestEprSession:
    def test_ideal_channel(self):
        cfg = SessionConfig(500, 50, 0.0, threshold_mode="window")
        tr = run_epr_session(cfg, ChannelModel(1.0), None, stream(505))
        assert tr.verdict == "accepted"
        assert tr.observed_error_count == 0
        assert np.array_equal(tr.sifted_key_a, tr.sifted_key_b)
        assert tr.sifted_key_a.size == 450

    def test_event_ordering(self, monkeypatch):
        """Axes are drawn only after the pairs are delivered and tampered with."""
        calls = []

        def recorded(name, fn):
            def record(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return record

        monkeypatch.setattr(protocol, "random_axes", recorded("axes", protocol.random_axes))
        monkeypatch.setattr(protocol, "substitute_pairs",
                            recorded("substitute", protocol.substitute_pairs))
        monkeypatch.setattr(ChannelModel, "sample_labels",
                            recorded("labels", ChannelModel.sample_labels))
        cfg = SessionConfig(1000, 100, 0.02)
        for attack, delivered in ((None, ["labels"]),
                                  (SubstituteAttack(0.3), ["labels", "substitute"])):
            calls.clear()
            tr = run_epr_session(cfg, ChannelModel.from_epsilon(0.02), attack, stream(506))
            assert tr.axes.shape == (1000, 3)  # the singlets' deferred draw
            assert calls[:len(delivered) + 1] == [*delivered, "axes"]
            assert set(calls[len(delivered):]) == {"axes"}

    def test_noisy_channel_statistics(self):
        cfg = SessionConfig(20000, 2000, 0.02, threshold_mode="two_epsilon")
        tr = run_epr_session(cfg, ChannelModel.from_epsilon(0.02), None, stream(507))
        assert tr.verdict == "accepted"
        sigma = math.sqrt(0.02 * 0.98 / 2000)
        assert abs(tr.error_rate_estimate - 0.02) < 3 * sigma
        disagree = (tr.sifted_key_a != tr.sifted_key_b).mean()
        sigma_k = math.sqrt(0.02 * 0.98 / 18000)
        assert abs(disagree - 0.02) < 3 * sigma_k

    def test_test_and_key_positions_disjoint(self):
        cfg = SessionConfig(300, 60, 0.02)
        tr = run_epr_session(cfg, ChannelModel.from_epsilon(0.02), None, stream(508))
        assert tr.in_test.sum() == 60
        assert tr.sifted_key_a.size == 240
        assert tr.verdict == ("accepted" if tr.observed_error_count
                              <= accepted_count_interval(cfg, 60)[1] else "rejected")

    def test_error_counts_binomially_distributed(self):
        """Chi-square: per-session test error counts follow Binomial(m, eps)."""
        rng = stream(509)
        m, eps, sessions = 40, 0.05, 3000
        cfg = SessionConfig(80, m, eps, threshold_mode="window")
        chan = ChannelModel.from_epsilon(eps)
        counts = np.array(
            [
                run_epr_session(cfg, chan, None, rng).observed_error_count
                for _ in range(sessions)
            ]
        )
        kmax = 8
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = stats.binom.pmf(np.arange(kmax), m, eps)
        expected = np.append(pmf, 1.0 - pmf.sum()) * sessions
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.999, df=kmax)

    def test_substitution_attack_composes(self):
        cfg = SessionConfig(5000, 500, 0.01, threshold_mode="window")
        atk = SubstituteAttack(fraction=0.3)
        tr = run_epr_session(cfg, ChannelModel(1.0), atk, stream(510))
        # 30% substituted pairs erring 2/3 of the time: rate far above window
        assert tr.verdict == "rejected"
        assert tr.error_rate_estimate > 0.1

    # Uniform triplet weights (the CLI's substitute:0.3) twirl the law, so
    # antiparallel is independent of the axis; psi1 alone errs by n_z**2.
    @pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0)],
                             ids=["uniform", "psi1"])
    def test_sampler_keeps_the_whole_array_law(self, weights):
        """Sessions that draw axes for non-singlets only, and the old sampler
        that drew one for every pair, agree on (antiparallel, |n_z| tercile)
        within 4 sigma; every transcript axis is a unit vector whose
        components are each Uniform(-1, 1)."""
        n, sessions, eps = 20000, 8, 0.02
        cfg = SessionConfig(n, 100, eps, threshold_mode="window")
        chan = ChannelModel.from_epsilon(eps)
        atk = SubstituteAttack(fraction=0.3, label_weights=weights)

        def tercile_counts(anti, axes):
            tercile = np.minimum((3.0 * np.abs(axes[:, 2])).astype(int), 2)
            return np.bincount(3 * anti + tercile, minlength=6)

        new, old, written = np.zeros(6), np.zeros(6), []
        for s in range(sessions):
            tr = run_epr_session(cfg, chan, atk, stream(530, s))
            axes = tr.axes
            written.append(axes)
            new += tercile_counts(tr.outcome_a != tr.outcome_b, axes)
            rng = stream(531, s)
            labels = substitute_pairs(chan.sample_labels(n, rng), atk, rng)
            axes, a, b = whole_array_outcomes(labels, rng)
            old += tercile_counts(a != b, axes)
        total = sessions * n
        pooled = (new + old) / (2.0 * total)
        assert np.all(np.abs(new - old) <= 4.0 * np.sqrt(2.0 * total * pooled * (1.0 - pooled)))

        written = np.concatenate(written)
        assert np.abs(np.linalg.norm(written, axis=1) - 1.0).max() <= 1e-12
        for component in written.T:
            observed = np.histogram(component, bins=10, range=(-1.0, 1.0))[0]
            expected = component.size / 10.0
            assert ((observed - expected) ** 2 / expected).sum() < stats.chi2.ppf(0.999, df=9)

    def test_plain_session_draws_axes_for_non_singlets_only(self, monkeypatch):
        """No attack: one random_axes call sized to the non-singlet labels, one
        outcome draw for them, and the singlets' axes once, on the first read
        of ``axes``."""
        sizes, outcome_calls, drawn = [], [], []
        real_axes = protocol.random_axes
        real_outcomes = channel.sample_common_axis_outcomes
        real_labels = ChannelModel.sample_labels

        def counting_axes(k, rng):
            sizes.append(k)
            return real_axes(k, rng)

        def counting_outcomes(labels, axes, rng):
            outcome_calls.append(labels.size)
            return real_outcomes(labels, axes, rng)

        def recording_labels(self, k, rng):
            drawn.append(real_labels(self, k, rng))
            return drawn[-1]

        monkeypatch.setattr(protocol, "random_axes", counting_axes)
        monkeypatch.setattr(channel, "sample_common_axis_outcomes", counting_outcomes)
        monkeypatch.setattr(ChannelModel, "sample_labels", recording_labels)
        n = 5000
        tr = run_epr_session(SessionConfig(n, 500, 0.02), ChannelModel.from_epsilon(0.02),
                             None, stream(532))
        noisy = int(np.count_nonzero(drawn[0]))
        assert 0 < noisy < n
        assert sizes == [noisy]
        assert outcome_calls == [noisy]
        assert tr.axes.shape == (n, 3)
        assert sizes == [noisy, n - noisy]
        assert tr.axes.shape == (n, 3)
        assert sizes == [noisy, n - noisy]

    def test_coherent_attack_requires_matching_n(self):
        cfg = SessionConfig(5, 2, 0.0)
        with pytest.raises(ConfigError):
            run_epr_session(cfg, ChannelModel(1.0), all_singlet_attack(3), stream(511))

    def test_coherent_all_singlet_passes_with_zero_holevo(self):
        cfg = SessionConfig(3, 3, 0.0, threshold_mode="window")
        tr = run_epr_session(cfg, ChannelModel(1.0), all_singlet_attack(3), stream(512))
        assert tr.verdict == "accepted"
        assert tr.observed_error_count == 0
        assert tr.eve_holevo_bits == pytest.approx(0.0, abs=1e-9)

    def test_intercept_resend_not_applicable(self):
        cfg = SessionConfig(10, 2, 0.0)
        with pytest.raises(ConfigError):
            run_epr_session(cfg, ChannelModel(1.0), InterceptResend(), stream(513))


def bb84_cell_z(fidelity, omega, n, seed):
    """z-scores of a BB84 session's (basis_a, basis_b, bit_a, bit_b) counts.

    The expected law is the Werner pair's Born weights
    Tr[rho_W (P_a (x) P_b)] along each side's basis (z rectilinear, x
    diagonal), Bob's outcome flipped to his bit, times the basis law.
    """
    rho = werner_state(fidelity).matrix
    projectors = [spin_projectors(np.array(axis)) for axis in ((0, 0, 1), (1, 0, 0))]
    p_basis = (1.0 - omega, omega)
    law = np.empty((2, 2, 2, 2))
    for i, j, x, y in np.ndindex(law.shape):
        born = np.trace(rho @ np.kron(projectors[i][x], projectors[j][1 - y])).real
        law[i, j, x, y] = p_basis[i] * p_basis[j] * born
    cfg = SessionConfig(n, 1, 0.02, omega=omega)
    tr = run_bb84_session(cfg, ChannelModel(fidelity), None, stream(seed))
    cells = [tr.basis_a, tr.basis_b, tr.outcome_a, tr.outcome_b]
    counts = np.bincount(np.ravel_multi_index(cells, law.shape), minlength=16)
    law = law.ravel()
    return (counts - n * law) / np.sqrt(n * law * (1.0 - law))


class TestBb84Session:
    def test_counts_match_the_werner_table(self):
        assert np.abs(bb84_cell_z(0.97, 0.3, 200_000, 531)).max() <= 4.0

    def test_y_flipping_neither_basis_is_caught(self, monkeypatch):
        # a column swap of the Pauli table keeps these counts (the label is
        # never seen); the exact distance test covers that fault
        pauli_flips = channel.pauli_flips
        monkeypatch.setattr(channel, "pauli_flips",
                            lambda labels, diag: pauli_flips(labels, diag) & (labels != 2))
        assert np.abs(bb84_cell_z(0.97, 0.3, 200_000, 531)).max() > 4.0

    def test_symmetric_ideal(self):
        cfg = SessionConfig(4000, 1, 0.01, omega=0.5)
        tr = run_bb84_session(cfg, ChannelModel(1.0), None, stream(514))
        assert tr.observed_error_count == 0
        sigma = math.sqrt(0.5 * 0.5 / 4000)
        assert abs(tr.sifted_fraction - 0.5) < 3 * sigma
        assert np.array_equal(tr.sifted_key_a, tr.sifted_key_b)

    def test_sifted_fraction_grid(self):
        for omega in (0.5, 0.2, 0.05):
            cfg = SessionConfig(100000, 1, 0.01, omega=omega)
            tr = run_bb84_session(cfg, ChannelModel(1.0), None, stream(515))
            want = (1 - omega) ** 2 + omega ** 2
            sigma = math.sqrt(want * (1 - want) / 100000)
            assert abs(tr.sifted_fraction - want) < 3 * sigma

    def test_intercept_resend_qber(self):
        cfg = SessionConfig(100000, 1, 0.02, omega=0.5)
        tr = run_bb84_session(cfg, ChannelModel(1.0), InterceptResend("random"),
                              stream(516))
        sigma = math.sqrt(0.25 * 0.75 / tr.test_size)
        assert tr.test_size >= 10 ** 4
        assert abs(tr.error_rate_estimate - 0.25) < 3 * sigma
        assert tr.verdict == "rejected"

    def test_fixed_basis_intercept_half_qber(self):
        # Eve guessing one fixed basis is wrong half the time: QBER 1/8... no,
        # matched-basis errors appear only when Eve crossed: 1/2 * 1/2 = 1/4
        # of sifted positions for random policy, 1/4 for a fixed one too.
        cfg = SessionConfig(80000, 1, 0.02, omega=0.5)
        tr = run_bb84_session(cfg, ChannelModel(1.0), InterceptResend("rectilinear"),
                              stream(517))
        sigma = math.sqrt(0.25 * 0.75 / tr.test_size)
        assert abs(tr.error_rate_estimate - 0.25) < 4 * sigma

    def test_werner_channel_qber(self):
        cfg = SessionConfig(100000, 1, 0.02, omega=0.05)
        tr = run_bb84_session(cfg, ChannelModel(0.97), None, stream(518))
        assert tr.verdict == "accepted"
        sigma = math.sqrt(0.02 * 0.98 / tr.test_size)
        assert abs(tr.error_rate_estimate - 0.02) < 3 * sigma

    def test_undersampling_aborts(self):
        cfg = SessionConfig(1000, 1, 0.01, omega=1.0)
        with pytest.raises(ConfigError):
            run_bb84_session(cfg, ChannelModel(1.0), None, stream(519))

    def test_substitute_not_applicable(self):
        cfg = SessionConfig(100, 1, 0.01)
        with pytest.raises(ConfigError):
            run_bb84_session(cfg, ChannelModel(1.0), SubstituteAttack(0.1), stream(520))

    def test_equal_test_counts_per_basis(self):
        cfg = SessionConfig(20000, 1, 0.01, omega=0.2)
        tr = run_bb84_session(cfg, ChannelModel(1.0), None, stream(521))
        diag_tested = (tr.in_test & (tr.basis_a == 1)).sum()
        rect_tested = (tr.in_test & (tr.basis_a == 0)).sum()
        assert diag_tested == rect_tested
        # all positions in the test really carry matching bases
        assert np.all(tr.basis_a[tr.in_test] == tr.basis_b[tr.in_test])


@st.composite
def contract_sessions(draw):
    """A small session of one kind: plain or substitute EPR, intercept-resend
    BB84, or a random coherent attack on at most 4 pairs."""
    kind = draw(st.sampled_from(["epr", "substitute", "bb84", "coherent"]))
    # eps 0.4, c 2: a window that starts at 1 error and is nonempty for m >= 2
    window = draw(st.booleans())
    n = draw(st.integers(1 + window, 4) if kind == "coherent"
             else st.integers(40, 200) if kind == "bb84" else st.integers(1 + window, 200))
    m = draw(st.integers(1 + window, n))
    cfg = (SessionConfig(n, m, 0.4, window_coeff=2.0, threshold_mode="window") if window
           else SessionConfig(n, m, draw(st.sampled_from([0.05, 0.2]))))
    rng = stream(540, draw(st.integers(0, 2**32 - 1)))
    chan = ChannelModel(draw(st.sampled_from([1.0, 0.9, 0.6])))
    if kind == "bb84":
        return cfg, run_bb84_session(cfg, chan, InterceptResend(), rng)
    if kind == "coherent":
        amps = rng.normal(size=(4,) * n + (2, 2)) @ np.array([1.0, 1j])
        attack = CoherentAttack(amps / np.linalg.norm(amps))
    else:
        attack = SubstituteAttack(0.3) if kind == "substitute" else None
    return cfg, run_epr_session(cfg, chan, attack, rng)


class TestTranscriptContract:
    @settings(max_examples=120)
    @given(contract_sessions())
    def test_test_errors_keys_and_verdict(self, session):
        """Tests are sifted, keys are the sifted untested positions, errors are
        parallel outcomes (EPR) or unequal bits (BB84), and the verdict is the
        error count's membership in the accepted interval."""
        cfg, tr = session
        epr = tr.basis_a is None
        assert not (tr.in_test & ~tr.sifted).any()
        assert tr.test_size == tr.in_test.sum()
        keep = tr.sifted & ~tr.in_test
        key_b = 1 - tr.outcome_b if epr else tr.outcome_b
        assert np.array_equal(tr.sifted_key_a, tr.outcome_a[keep])
        assert np.array_equal(tr.sifted_key_b, key_b[keep])
        erred = tr.outcome_a == tr.outcome_b if epr else tr.outcome_a != tr.outcome_b
        assert tr.observed_error_count == erred[tr.in_test].sum()
        lo, hi = accepted_count_interval(cfg, tr.test_size)
        assert tr.verdict == ("accepted" if lo <= tr.observed_error_count <= hi else "rejected")


class TestTranscriptSerialization:
    def test_epr_jsonl(self, tmp_path):
        cfg = SessionConfig(50, 10, 0.02)
        tr = run_epr_session(cfg, ChannelModel.from_epsilon(0.02), None, stream(522))
        path = tmp_path / "epr.jsonl"
        tr.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 50
        assert rows[0].keys() == {
            "index", "basis_a", "basis_b", "outcome_a", "outcome_b",
            "in_test", "sifted",
        }
        assert all(len(r["basis_a"]) == 3 for r in rows)  # unit axis triple
        assert sum(r["in_test"] for r in rows) == 10

    def test_bb84_jsonl(self, tmp_path):
        cfg = SessionConfig(60, 1, 0.02, omega=0.5)
        tr = run_bb84_session(cfg, ChannelModel(1.0), None, stream(523))
        path = tmp_path / "bb84.jsonl"
        tr.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["basis_a"] for r in rows} <= {"R", "D"}
        sifted = [r for r in rows if r["sifted"]]
        assert all(r["basis_a"] == r["basis_b"] for r in sifted)


README_EPS = 0.02
PINNED_FIELDS = ("outcome_a", "outcome_b", "in_test", "sifted_key_a", "sifted_key_b")


class TestReadmeSizePins:
    """SHA-256 of every per-position array of a session at the README size
    (10**5 pairs, 10**4 tested, eps 0.02), so a faster sampler or gather
    must reproduce each drawn number."""

    @pytest.mark.parametrize("protocol_name, attack, seed, digests", [
        ("epr", None, 531, (
            "bf8e9417e6a2cfebb7a7b5bfbd11b1b1bff54723a7ffedc40e2da1414a51d69b",
            "a65127ed41a87910cde8eabe537306de1e74285dd71c4aeb76254d4ea62509ed",
            "0da16f1120f63eb53b4de13f90aa3aaddbbcea23cc7d62f73002243a0ab2f059",
            "fdffc23e98a69661a9974290083ec1cf2f7bf650996b237aa9d9128886b286d6",
            "a2035785e1bcc642e8132dcd4d500f9eae1d9ed59960fc05a7a2bad81de04011",
        )),
        ("epr", SubstituteAttack(0.005), 532, (
            "bc209b78c9f89b496659bb26553717b94ea33039d6a9618282cf28395830e069",
            "7774b8fd24b32704a92c150c9e30a0419d44ff8a6408ab480705cb7385155a20",
            "90a5ea5b530199dc1caf34ced53c16f4194d4bdc4626c4fc1d4c4fbaa5a7acad",
            "3500616ac9c359ebf304266907f21cf47acf748e83a826e157caef0e308476e2",
            "031c2d598f7e2604995ab07e0efd18be0696e14b62cbfcafbd223bfdd3ea337f",
        )),
        ("bb84", InterceptResend("random"), 533, (
            "29b426f33f192b6c1ac778d5653fa02dadcaac1affc577158a0f0ec3a313c076",
            "2d65b26fa15541a95cd27b6ba9364112bec0a3e8f210e8654c6a1d44ac605ec1",
            "fbdd3e00fa6b77962057869f49b79f30b9221ee2832f981a488aaaa92132ff46",
            "7a5665104b690a14afc19df6dfb357a889f524e4fd6851e690c3b1304dc0a474",
            "a99116892befc460dc75a42a76fb2e61aecc936844c5f15541c35d8a2f6b2252",
        )),
    ])
    def test_session_arrays_pinned(self, protocol_name, attack, seed, digests):
        session = run_epr_session if protocol_name == "epr" else run_bb84_session
        cfg = SessionConfig(10**5, 10**4, README_EPS, omega=0.1)  # only bb84 reads omega
        tr = session(cfg, ChannelModel.from_epsilon(README_EPS), attack, stream(seed))
        arrays = [getattr(tr, name) for name in PINNED_FIELDS]
        assert [a.dtype for a in arrays] == [np.uint8, np.uint8, bool, np.uint8, np.uint8]
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests


class TestEquivalence:
    def test_ideal_channel_consistent(self):
        assert epr_bb84_equivalence_check(1.0, 0.5) <= EQUIVALENCE_ATOL

    def test_noisy_channel_consistent(self):
        assert epr_bb84_equivalence_check(0.97, 0.5) <= EQUIVALENCE_ATOL

    def test_order_swap_agrees(self):
        # a skewed basis choice and a noisier channel
        assert epr_bb84_equivalence_check(0.9, 0.3) <= EQUIVALENCE_ATOL

    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_exactly_equivalent(self, fidelity, omega):
        assert epr_bb84_equivalence_check(fidelity, omega) <= 1e-12

    def test_wrong_pauli_table_is_inconsistent(self, monkeypatch):
        # the basis columns swapped: labels 1 and 3 flip the wrong basis
        pauli_flips = channel.pauli_flips
        monkeypatch.setattr(channel, "pauli_flips",
                            lambda labels, diag: pauli_flips(labels, 1 - diag))
        distance = epr_bb84_equivalence_check(0.97, 0.5)
        assert distance == pytest.approx(0.01)
        assert distance > EQUIVALENCE_ATOL
