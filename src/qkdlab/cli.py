"""Command-line front end.

Subcommands:
  simulate    run sessions (with optional attacks) and emit per-trial CSV
  bounds      evaluate the counting-bound chain and secrecy rate
  attack-eval evaluate a coherent attack state from a file
  equivalence compare the direct and pair-based protocol constructions
              exactly

A scenario JSON file (``--scenario``) overrides flags field by field.
All randomness derives from ``--seed`` through per-trial counter-based
streams, so a scenario re-run reproduces its outputs byte for byte.
Exit codes: 0 on success, 2 for configuration errors (a file that cannot be
read or written and a scenario file that is not UTF-8 JSON among them), 3 for
quantities outside a bound's validity regime.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .adversary import (
    CoherentAttack,
    InterceptResend,
    SubstituteAttack,
    TestPlan,
    axis_averaged_passing_probability,
    eve_info_bound,
)
from .bounds import (
    DEFAULT_KPRIME,
    EPS_REGIME,
    RegimeError,
    atypical_dim_chain,
    check_kprime,
    check_theta,
    eve_info_upper,
    secrecy_lower_bound,
)
from .channel import ChannelModel
from .errors import ConfigError
from .postprocess import DistillationResult, distill_key
from .protocol import (
    EQUIVALENCE_ATOL,
    SessionConfig,
    Transcript,
    epr_bb84_equivalence_check,
    run_bb84_session,
    run_epr_session,
    select_test_set,
)
from .qstate import random_axes
from .rng import stream

CSV_COLUMNS = (
    "trial",
    "verdict",
    "error_count",
    "m",
    "qber_estimate",
    "sifted_len",
    "final_len",
    "leaked_bits",
    "eve_holevo_bits",
)

# bounds grid CSV: BoundReport.to_dict() keys, the regime flag and the secrecy rate
GRID_COLUMNS = ("n_pairs", "epsilon", "in_regime", "threshold", "log2_exact", "log2_l1",
                "log2_l2", "log2_l3", "log2_l4", "log2_l5", "mu", "implied_k",
                "chain_holds", "secrecy_lower_bound")

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="qkdlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run key-agreement sessions")
    sim.add_argument("--protocol", choices=("epr", "bb84"), default="epr")
    sim.add_argument("--n", type=int, default=1000, help="pairs/photons per session")
    sim.add_argument("--m", type=int, default=100, help="test size in 1..n (bb84 ignores it)")
    sim.add_argument("--epsilon", type=float, default=None, help="channel error rate")
    sim.add_argument("--omega", type=float, default=SessionConfig.omega,
                     help="diagonal-basis probability")
    sim.add_argument("--attack", default="none",
                     help="none | intercept_resend[:policy] | substitute:FRACTION | coherent")
    sim.add_argument("--attack-file", dest="attack_file", default=None)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--c", type=float, default=SessionConfig.window_coeff,
                     help="window width coefficient")
    sim.add_argument("--threshold-mode", dest="threshold_mode",
                     choices=("window", "two_epsilon"), default=SessionConfig.threshold_mode)
    sim.add_argument("--kprime", type=float, default=DEFAULT_KPRIME)
    sim.add_argument("--out", default=None, help="per-trial CSV path (default stdout)")
    sim.add_argument("--summary", default=None, help="summary JSON path")
    sim.add_argument("--transcript", default=None, help="JSONL transcript of trial 0")
    sim.add_argument("--scenario", default=None, help="JSON file overriding flags")

    bnd = sub.add_parser("bounds", help="counting bounds and secrecy rate")
    bnd.add_argument("--n", type=int, default=None)
    bnd.add_argument("--epsilon", type=float, default=None)
    bnd.add_argument("--kprime", type=float, default=DEFAULT_KPRIME)
    bnd.add_argument("--theta", type=float, default=0.0)
    bnd.add_argument("--grid-n", dest="grid_n", default=None, help="comma list of N values")
    bnd.add_argument("--grid-eps", dest="grid_eps", default=None, help="comma list of eps values")
    bnd.add_argument("--out", default=None, help="CSV path for grid mode")
    bnd.add_argument("--summary", default=None)

    atk = sub.add_parser("attack-eval", help="evaluate a coherent attack file")
    atk.add_argument("--attack-file", dest="attack_file", required=True)
    atk.add_argument("--m", type=int, required=True, help="tested pairs per plan")
    atk.add_argument("--epsilon", type=float, default=None)
    atk.add_argument("--theta", type=float, default=0.0)
    atk.add_argument("--axis-samples", dest="axis_samples", type=int, default=1000,
                     help="sampled test subsets; the axes are averaged exactly")
    atk.add_argument("--seed", type=int, default=0)
    atk.add_argument("--accept-lo", dest="accept_lo", type=int, default=0)
    atk.add_argument("--accept-hi", dest="accept_hi", type=int, default=0)
    atk.add_argument("--summary", default=None)

    eqv = sub.add_parser("equivalence", help="direct vs pair-based construction")
    eqv.add_argument("--fidelity", type=float, default=1.0)
    eqv.add_argument("--omega", type=float, default=0.5)
    eqv.add_argument("--summary", default=None)
    return parser


def _apply_scenario(args: argparse.Namespace) -> None:
    if not args.scenario:
        return
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"scenario file is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scenario file must hold a JSON object")
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {a.dest: a for a in sub.choices["simulate"]._actions}
    for key, value in data.items():
        if key == "name":
            continue
        if key not in flags or key in ("help", "scenario"):
            raise ConfigError(f"unknown scenario field {key!r}")
        setattr(args, key, _scenario_value(flags[key], value))


def _scenario_value(flag: argparse.Action, value):
    """A JSON ``value`` as ``flag`` parses it: a float flag's number as a float.
    Raises ConfigError unless ``value`` has the flag's type and fits it."""
    if value is None:
        ok = flag.default is None
    else:
        kinds = {int: int, float: (int, float)}.get(flag.type, str)
        ok = (
            isinstance(value, kinds)
            and not isinstance(value, bool)
            and (flag.choices is None or value in flag.choices)
        )
    if ok and flag.type is float and value is not None:
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            ok = False
    if not ok:
        raise ConfigError(f"scenario field {flag.dest!r} cannot be {json.dumps(value)}")
    return value


def _load_attack_file(path) -> CoherentAttack:
    try:
        return CoherentAttack.from_file(path)
    except ValueError as exc:
        raise ConfigError(f"bad attack file {path}: {exc}") from exc


def _parse_attack(spec, attack_file):
    """The attack named by an ``--attack`` string; None for "none"."""
    kind, sep, arg = spec.partition(":")
    if attack_file and spec != "coherent":
        raise ConfigError("--attack-file is read only with --attack coherent")
    if spec == "none":
        return None
    if kind == "intercept_resend":
        return InterceptResend(policy=arg if sep else "random")
    if kind == "substitute":
        if not sep:
            raise ConfigError("substitute attack needs a fraction, e.g. substitute:0.02")
        try:
            return SubstituteAttack(fraction=float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad substitution fraction {arg!r}") from exc
    if spec == "coherent":
        if not attack_file:
            raise ConfigError("--attack coherent requires --attack-file")
        return _load_attack_file(attack_file)
    raise ConfigError(f"unknown attack {spec!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header, rows) -> str:
    """CSV text of a header line and one line per row, each cell through _fmt."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(_fmt, row) for row in (header, *rows))
    return buf.getvalue()


def _write(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to standard output without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def simulate_trial(
    protocol: str,
    config: SessionConfig,
    chan: ChannelModel,
    attack,
    seed: int,
    trial: int,
    kprime: float,
) -> tuple[Transcript, DistillationResult | None]:
    """Run trial ``trial`` of a simulation; return (transcript, distillation).

    The session draws from ``stream(seed, trial)``.  Only a session that
    was accepted, kept a non-empty sifted key and estimated an error rate
    below 1/4 (the secrecy bound's regime) is distilled, from
    ``stream(seed, trial, 1)``; otherwise the distillation is None.
    """
    if protocol not in ("epr", "bb84"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    run = run_epr_session if protocol == "epr" else run_bb84_session
    transcript = run(config, chan, attack, stream(seed, trial))
    if not (
        transcript.accepted
        and transcript.sifted_key_a.size > 0
        and transcript.error_rate_estimate < EPS_REGIME
    ):
        return transcript, None
    result = distill_key(
        transcript.sifted_key_a,
        transcript.sifted_key_b,
        transcript.error_rate_estimate,
        stream(seed, trial, 1),
        kprime=kprime,
    )
    return transcript, result


def cmd_simulate(args: argparse.Namespace) -> int:
    _apply_scenario(args)
    if args.trials < 1:
        raise ConfigError(f"trials must be positive, got {args.trials}")
    check_kprime(args.kprime)
    eps = 0.0 if args.epsilon is None else args.epsilon
    chan = ChannelModel.from_epsilon(eps)
    attack = _parse_attack(args.attack, args.attack_file)
    config = SessionConfig(args.n, args.m, eps, window_coeff=args.c, omega=args.omega,
                           threshold_mode=args.threshold_mode)

    rows = []  # one tuple per trial, in CSV_COLUMNS order
    sifted_fractions = []
    for trial in range(args.trials):
        transcript, result = simulate_trial(
            args.protocol, config, chan, attack, args.seed, trial, args.kprime
        )
        if trial == 0 and args.transcript:
            transcript.write_jsonl(args.transcript)
        sifted_fractions.append(transcript.sifted_fraction)
        rows.append((
            trial,
            transcript.verdict,
            transcript.observed_error_count,
            transcript.test_size,
            transcript.error_rate_estimate,
            int(transcript.sifted_key_a.size),
            0 if result is None else result.final_length,
            0 if result is None else result.leaked_bits,
            transcript.eve_holevo_bits,
        ))
    _write(_csv(CSV_COLUMNS, rows), args.out)

    if args.summary:
        col = dict(zip(CSV_COLUMNS, zip(*rows)))
        summary = {
            "protocol": args.protocol,
            "trials": args.trials,
            "n": args.n,
            "m": args.m,
            "fidelity": chan.fidelity,
            "epsilon_expected": eps,
            "omega": args.omega,
            "threshold_mode": config.threshold_mode,
            "attack": args.attack,
            "seed": args.seed,
            "kprime": args.kprime,
            "accept_rate": col["verdict"].count("accepted") / args.trials,
            "mean_qber_estimate": float(np.mean(col["qber_estimate"])),
            "mean_sifted_fraction": float(np.mean(sifted_fractions)),
            "mean_final_len": float(np.mean(col["final_len"])),
            "mean_leaked_bits": float(np.mean(col["leaked_bits"])),
        }
        _emit_json(summary, args.summary)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    check_kprime(args.kprime)  # before any bound is computed
    check_theta(args.theta)
    grid = bool(args.grid_n or args.grid_eps)
    unread = {"--n": args.n, "--epsilon": args.epsilon, "--summary": args.summary,
              "--theta": args.theta or None} if grid else {"--out": args.out}
    stray = [flag for flag, value in unread.items() if value is not None]
    if stray:
        raise ConfigError(f"{'grid' if grid else 'single-point'} mode ignores {', '.join(stray)}")
    if grid:
        if not (args.grid_n and args.grid_eps and args.out):
            raise ConfigError("grid mode needs --grid-n, --grid-eps and --out")
        try:
            ns = [int(x) for x in args.grid_n.split(",") if x.strip()]
            epss = [float(x) for x in args.grid_eps.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad grid value: {exc}") from exc
        if not (ns and epss):
            raise ConfigError("grid mode needs at least one N and one epsilon")
        rows = []
        for n in ns:
            for eps in epss:
                try:
                    report = atypical_dim_chain(n, eps)
                except RegimeError:
                    row = {"n_pairs": n, "epsilon": eps, "in_regime": False}
                else:
                    row = {**report.to_dict(), "in_regime": True,
                           "secrecy_lower_bound": secrecy_lower_bound(eps, args.kprime)}
                rows.append([row.get(col) for col in GRID_COLUMNS])
        _write(_csv(GRID_COLUMNS, rows), args.out)
        return 0
    if args.n is None or args.epsilon is None:
        raise ConfigError("single-point mode needs --n and --epsilon")
    report = atypical_dim_chain(args.n, args.epsilon)
    _emit_json({**report.to_dict(), "eve_info_upper": eve_info_upper(report, args.theta),
                "secrecy_lower_bound": secrecy_lower_bound(args.epsilon, args.kprime),
                "kprime": args.kprime, "theta": args.theta}, args.summary)
    return 0


def cmd_attack_eval(args: argparse.Namespace) -> int:
    check_theta(args.theta)
    attack = _load_attack_file(args.attack_file)
    upper = None
    if args.epsilon is not None:  # before sampling: a bad epsilon does no work
        upper = eve_info_upper(atypical_dim_chain(attack.n_pairs, args.epsilon), args.theta)
    rng = stream(args.seed)
    mean, stderr = axis_averaged_passing_probability(
        attack,
        args.m,
        rng,
        n_samples=args.axis_samples,
        accept=(args.accept_lo, args.accept_hi),
    )
    plan_rng = stream(args.seed, 1)
    indices = select_test_set(attack.n_pairs, args.m, plan_rng)
    plan = TestPlan(indices, random_axes(args.m, plan_rng), args.accept_lo, args.accept_hi)
    holevo = eve_info_bound(attack, plan)
    payload = {
        "n_pairs": attack.n_pairs,
        "ancilla_dim": attack.ancilla_dim,
        "m": args.m,
        "accept_interval": [args.accept_lo, args.accept_hi],
        "axis_samples": args.axis_samples,
        "passing_mean": mean,
        "passing_stderr": stderr,
        "holevo_bits_sample_plan": holevo,
    }
    if upper is not None:
        payload["eve_info_upper"] = upper
        payload["holevo_within_upper"] = None if holevo is None else holevo <= upper + 1e-9
    _emit_json(payload, args.summary)
    return 0


def cmd_equivalence(args: argparse.Namespace) -> int:
    distance = epr_bb84_equivalence_check(args.fidelity, args.omega)
    _emit_json({"consistent": distance <= EQUIVALENCE_ATOL, "distance": distance}, args.summary)
    return 0


def _emit_json(payload: dict, path) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, not stored in the cached parser, so the
    # handlers are the module's current ones
    handler = {
        "simulate": cmd_simulate,
        "bounds": cmd_bounds,
        "attack-eval": cmd_attack_eval,
        "equivalence": cmd_equivalence,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, OSError) as exc:  # an OSError's message names its path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3

