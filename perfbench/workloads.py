"""The benchmark's workloads, as lists of ``qkdlab`` CLI invocations.

A workload is run in passes.  ``pass_ops(workload, seed, p, workdir)``
returns the ops of pass ``p``; every input (op seeds, grid order, attack
files, bound points) is drawn from ``(seed, p)``, so one seed always gives
the same inputs.  Each op is one ``qkdlab.cli.main(argv)`` call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1_000_000  # op seeds of workload seed s are s * SEED_STRIDE + k


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checks need to know about it."""

    label: str
    kind: str  # ops of one kind exercise the same path; pass 0 replays one of each
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the op writes
    pairs: int = 0  # pairs sent by a simulate op (n * trials)
    epsilon: float = 0.0  # channel error rate of a simulate op
    kprime: float = 10.0
    exact_passing: float | None = None  # known answer of an attack-eval op
    attack_shape: tuple[int, int] | None = None  # (pairs, ancilla dim) of its attack file

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: object  # (seed, p, workdir, tiny) -> list[Op]
    trace_passes: int  # passes of the traced (fixed-work) run
    must_cross: tuple[str, ...]  # traced boundaries that may not record zero calls


def _simulate(label, kind, workdir, *, n, m, epsilon, kprime, trials, seed, extra=(),
              summary=False, transcript=False) -> Op:
    base = os.path.join(workdir, label)
    argv = ["simulate", *extra, "--n", str(n), "--m", str(m), "--epsilon", repr(epsilon),
            "--kprime", repr(kprime), "--trials", str(trials), "--seed", str(seed),
            "--out", base + ".csv"]
    outputs = [base + ".csv"]
    if summary:
        argv += ["--summary", base + ".summary.json"]
        outputs.append(base + ".summary.json")
    if transcript:
        argv += ["--transcript", base + ".jsonl"]
        outputs.append(base + ".jsonl")
    return Op(label, kind, tuple(argv), tuple(outputs), pairs=n * trials, epsilon=epsilon,
              kprime=kprime)


# -- readme-epr ---------------------------------------------------------------

README_OPS_PER_PASS = 4


def readme_epr_pass(seed: int, p: int, workdir: str, tiny: bool) -> list[Op]:
    """The README scenario, one trial per op, the seed advancing op by op."""
    n, m = (2000, 200) if tiny else (100_000, 10_000)
    first = seed * SEED_STRIDE + p * README_OPS_PER_PASS
    return [
        _simulate(f"epr{k}", "readme", workdir, n=n, m=m, epsilon=0.02, kprime=5.0, trials=1,
                  seed=first + k, summary=True)
        for k in range(README_OPS_PER_PASS)
    ]


# -- finite-size-sweep --------------------------------------------------------

SWEEP_PROTOCOLS = (
    ("epr", ("--protocol", "epr")),
    ("bb84", ("--protocol", "bb84", "--omega", "0.1")),
)
SWEEP_N = (2000, 5000, 20000)
SWEEP_EPS = (0.005, 0.01, 0.02, 0.03)


def finite_size_sweep_pass(seed: int, p: int, workdir: str, tiny: bool) -> list[Op]:
    """Every grid cell once, in a seeded order; test sample m = n/10."""
    ns, epss, trials = ((2000,), (0.01, 0.03), 2) if tiny else (SWEEP_N, SWEEP_EPS, 10)
    cells = [(proto, n, eps) for proto in SWEEP_PROTOCOLS for n in ns for eps in epss]
    order = np.random.default_rng([seed, 2, p]).permutation(len(cells))
    first = seed * SEED_STRIDE + p * len(cells)
    ops = []
    for k, c in enumerate(order):
        (proto, flags), n, eps = cells[c]
        ops.append(_simulate(f"{proto}-n{n}-e{eps}", "sweep", workdir, n=n, m=n // 10, epsilon=eps,
                             kprime=5.0, trials=trials, seed=first + k, extra=flags,
                             transcript=True))
    return ops


# -- eve-analysis -------------------------------------------------------------

# Known-answer attacks on four pairs and no ancilla: (label, attack file text, m,
# axis samples, exact passing probability).  They keep one fixed seed, so their
# 3-sigma check is reproducible.
_H = repr(1.0 / math.sqrt(2.0))
KNOWN_ANSWERS = (
    # one triplet among four pairs: tested with probability 1/2, then errs 2/3 of the time
    ("ka-single-defect", "2000 0 1.0 0.0\n", 2, 400, 1.0 - 0.5 * (2.0 / 3.0)),
    # (|0000> + |1111>)/sqrt(2) in Bell labels, all four pairs tested
    ("ka-cat", f"0000 0 {_H} 0.0\n1111 0 {_H} 0.0\n", 4, 200, 0.5 + 0.5 * 3.0**-4),
)
KNOWN_ANSWER_SEED = 11
ATTACK_EPSILON = 0.13

# Pass composition.  Most ops are small attacks and cheap bound points, so the
# median op sits inside that cluster rather than in the gap above it; the two
# bound points near the ~1 s end make the slowest ops many samples of one kind.
ATTACK_PAIRS = (4, 4, 5, 5, 6)


def write_random_attack(path: str, rng: np.random.Generator, n_pairs: int, ancilla: int) -> None:
    """A normalized sparse attack state in the ``attack-eval`` row format."""
    amps: dict[tuple[str, int], complex] = {}
    rows = int(rng.integers(8, 33))
    for r in range(rows):
        labels = "".join(
            "0" if rng.random() < 0.75 else str(int(rng.integers(1, 4))) for _ in range(n_pairs)
        )
        anc = ancilla - 1 if r == 0 else int(rng.integers(0, ancilla))
        amps[(labels, anc)] = amps.get((labels, anc), 0j) + complex(*rng.normal(size=2))
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    with open(path, "w", encoding="utf-8") as fh:
        for (labels, anc), v in amps.items():
            v /= norm
            fh.write(f"{labels} {anc} {float(v.real)!r} {float(v.imag)!r}\n")


def _bounds_point(rng, n_range, t_range) -> tuple[int, float]:
    """(N, eps) with threshold 2*N*eps near a draw from t_range, inside eps < 1/4."""
    n = int(rng.integers(*n_range))
    t = int(rng.integers(t_range[0], min(t_range[1], (n + 1) // 2)))
    return n, round(t / (2.0 * n), 6)


def eve_analysis_pass(seed: int, p: int, workdir: str, tiny: bool) -> list[Op]:
    """Random coherent attacks, known answers, bound points and substitution sessions."""
    rng = np.random.default_rng([seed, 3, p])
    first = seed * SEED_STRIDE + p * 100
    ops = []
    samples = "4" if tiny else "16"
    for k, n_pairs in enumerate((4,) if tiny else ATTACK_PAIRS):
        ancilla = int(rng.integers(2, 4)) if tiny else int(rng.integers(5, 17))
        m = int(rng.integers(2, 4))
        path = os.path.join(workdir, f"attack{k}.txt")
        write_random_attack(path, rng, n_pairs, ancilla)
        ops.append(Op(f"eval{k}-N{n_pairs}", "eval", (
            "attack-eval", "--attack-file", path, "--m", str(m),
            "--epsilon", repr(ATTACK_EPSILON), "--axis-samples", samples,
            "--seed", str(first + k)), attack_shape=(n_pairs, ancilla)))
        ops.append(_simulate(f"coherent{k}-N{n_pairs}", "coherent", workdir, n=n_pairs, m=m,
                             epsilon=ATTACK_EPSILON, kprime=10.0, trials=3, seed=first + 10 + k,
                             extra=("--attack", "coherent", "--attack-file", path)))
    # An ancilla of dimension 4 makes every axis of the amplitude tensor 4 long, and
    # CoherentAttack.from_bell_amplitudes then reads the ancilla as one more pair.
    # attack-eval answers for the wrong state, which ok_frac counts; a coherent
    # simulate of it would exit 2, so none is run.
    path = os.path.join(workdir, "attack-anc4.txt")
    write_random_attack(path, rng, 4, 4)
    ops.append(Op("eval-anc4", "eval", (
        "attack-eval", "--attack-file", path, "--m", "2", "--epsilon", repr(ATTACK_EPSILON),
        "--axis-samples", samples, "--seed", str(first + 5)), attack_shape=(4, 4)))
    for label, text, m, ka_samples, exact in KNOWN_ANSWERS:
        path = os.path.join(workdir, label + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append(Op(label, "known-answer", (
            "attack-eval", "--attack-file", path, "--m", str(m),
            "--axis-samples", str(ka_samples // 10 if tiny else ka_samples),
            "--seed", str(KNOWN_ANSWER_SEED)), exact_passing=exact, attack_shape=(4, 1)))
    # (N range, threshold range) of the bound points
    cheap, medium, slow = ((50, 400), (4, 40)), ((400, 1000), (60, 121)), ((1000, 2001), (180, 201))
    strata = (cheap,) if tiny else (cheap, cheap, cheap, medium, slow, slow)
    for k, (n_range, t_range) in enumerate(strata):
        n, eps = _bounds_point(rng, n_range, t_range)
        ops.append(Op(f"bounds{k}", "bounds", ("bounds", "--n", str(n), "--epsilon", repr(eps))))
    # a quarter of the pairs tested, so the error estimate, and with it the key
    # length, varies little from session to session
    n, m = (5000, 1250) if tiny else (100_000, 25_000)
    for k in range(2):
        ops.append(_simulate(f"substitute{k}", "substitute", workdir, n=n, m=m, epsilon=0.02,
                             kprime=5.0, trials=1, seed=first + 20 + k,
                             extra=("--attack", "substitute:0.005")))
    return ops


_SIMULATE_LAYERS = (
    "cli.main", "rng.stream", "protocol.run_epr_session", "channel.sample_labels",
    "channel.sample_common_axis_outcomes", "qstate.random_axes", "postprocess.distill_key",
    "postprocess.reconcile", "postprocess.privacy_amplify",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-epr",
            readme_epr_pass, 3, _SIMULATE_LAYERS),
        Workload(
            "finite-size-sweep",
            finite_size_sweep_pass, 1,
            _SIMULATE_LAYERS + ("protocol.run_bb84_session", "protocol.Transcript.write_jsonl")),
        Workload(
            "eve-analysis",
            eve_analysis_pass, 1,
            ("cli.main", "adversary.CoherentAttack.from_file",
             "adversary.axis_averaged_passing_probability", "adversary.conditional_ancilla_state",
             "adversary.eve_info_bound", "qstate.measure_pair", "qstate.von_neumann_entropy",
             "qstate.random_axes", "bounds.atypical_dim_chain", "bounds.eve_info_upper",
             "protocol.run_epr_session", "postprocess.distill_key")),
    )
}
