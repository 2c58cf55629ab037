#!/usr/bin/env python3
"""qkdlab benchmark: end-to-end and per-layer metrics of the ``qkdlab`` CLI.

    python3 perfbench/run.py --workload readme-epr --seed 1 --seconds 25 --trace 0

One client runs the workload's ops in a closed loop, in this process, each
op an in-process ``qkdlab.cli.main(argv)`` call on the ``src/`` tree next
to this directory.  ``--trace 0`` times whole passes of ops until
``--seconds`` have elapsed and reports the end-to-end metrics; ``--trace 1``
runs a fixed number of passes, each op once untraced and once traced, and
reports the per-layer metrics.  Every op's outputs are checked.  The report goes to
standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed and no op failed.  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
IMPORT_SAMPLES = 3  # fresh ``-X importtime`` processes; per-module medians
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qkdlab.cli as cli; cli.build_parser(); "
    "print(repr(time.perf_counter() - t0))"
)
IMPORT_CODE = "import numpy; import qkdlab; import qkdlab.cli"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "final_bits_per_pair": "bits/pair",
    "recon_f": "ratio",
    "ok_frac": "frac",
}

# traced span -> the fields reported for it
SPAN_FIELDS = {
    "rng.stream": ("calls", "busy_ms"),
    "qstate.random_axes": ("calls", "busy_ms"),
    "qstate.measure_pair": ("busy_ms",),
    "qstate.von_neumann_entropy": ("busy_ms",),
    "channel.sample_labels": ("busy_ms",),
    "channel.sample_common_axis_outcomes": ("busy_ms",),
    "protocol.run_epr_session": ("calls", "busy_ms", "self_ms"),
    "protocol.run_bb84_session": ("calls", "busy_ms", "self_ms"),
    "protocol.Transcript.write_jsonl": ("busy_ms",),
    "postprocess.reconcile": ("calls", "busy_ms"),
    "postprocess.privacy_amplify": ("calls", "busy_ms", "max_ms"),
    "postprocess.distill_key": ("self_ms",),
    "adversary.CoherentAttack.from_file": ("busy_ms",),
    "adversary.axis_averaged_passing_probability": ("calls", "busy_ms"),
    "adversary.conditional_ancilla_state": ("busy_ms",),
    "adversary.eve_info_bound": ("busy_ms",),
    "bounds.atypical_dim_chain": ("calls", "busy_ms", "max_ms"),
    "bounds.eve_info_upper": ("busy_ms",),
    "cli.main": ("calls", "busy_ms", "self_ms"),
}
FIELD_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms", "max_ms": "ms"}
COUNTER_UNITS = {
    "channel.sample_labels.pairs": "pairs",
    "protocol.Transcript.write_jsonl.records": "records",
    "postprocess.reconcile.bits": "bits",
    "postprocess.reconcile.leaked_bits": "bits",
    "postprocess.reconcile.residual_errors": "bits",
    "postprocess.key_mismatches": "count",
    "postprocess.privacy_amplify.bits_in": "bits",
    "postprocess.privacy_amplify.bits_out": "bits",
    "adversary.axis_averaged_passing_probability.samples": "count",
}


class Problems(list):
    """Failed checks; any entry makes the run incorrect."""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# -- set-up -------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_qkdlab():
    """Import qkdlab from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qkdlab", "cli.py")):
        raise SystemExit(f"perfbench: no qkdlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import qkdlab.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit(f"perfbench: qkdlab was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> list[float]:
    """Seconds a fresh process takes to import qkdlab and build the parser."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure_import_ms() -> dict[str, float]:
    """Median cumulative ``-X importtime`` of each qkdlab module.

    numpy and the ``qkdlab`` package are imported first, so numpy is charged
    to no module and ``cli`` is not charged for the package it lives in.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[2].strip().startswith("qkdlab."):
                continue
            name = parts[2].strip().split(".", 1)[1]
            samples.setdefault(name, []).append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) for name, v in samples.items()}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    commit = commit or "unknown"
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k, "") for k in BLAS_ENV},
        "git_commit": commit,
        "seed": seed,
    }


# -- ops ----------------------------------------------------------------------

@dataclass
class OpResult:
    op: object
    ok: bool
    error: str | None
    latency: float  # seconds inside cli.main
    digest: str  # SHA-256 of standard output and every output file
    nbytes: int
    stdout: str | None
    files: dict | None
    distillations: list  # the DistillationResults cli received
    wrong: str | None = None  # what was wrong with an answer the op gave


def run_op(cli, op, observer) -> OpResult:
    """Run one op in-process and collect its outputs; files are read after timing."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    observer.results.clear()
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an op that raises is a failed op, reported with its traceback
        rc, error = None, traceback.format_exc()
    latency = time.perf_counter() - t0
    if rc not in (0, None):
        error = f"exit code {rc}: {err.getvalue().strip()}"
    stdout = out.getvalue()
    files = {}
    digest = hashlib.sha256(stdout.encode())
    for path in op.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[path] = fh.read()
            digest.update(files[path])
    nbytes = len(stdout.encode()) + sum(len(b) for b in files.values())
    return OpResult(op, rc == 0, error, latency, digest.hexdigest(), nbytes, stdout, files,
                    list(observer.results))


def _binary_entropy(x: float) -> float:
    # kept apart from qkdlab.bounds.binary_entropy, so that recon_f's yardstick
    # does not move with the program it measures
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class Quality:
    """Key-rate sums over the simulate ops of a run."""

    def __init__(self):
        self.pairs = 0
        self.final_bits = 0
        self.leaked = 0
        self.shannon = 0.0  # sum of sifted_len * h(eps_channel) over rows with final_len > 0
        self.distillations = 0


def check_op(res: OpResult, quality: Quality, problems: Problems) -> None:
    """Check one successful op's outputs and add its key accounting."""
    op = res.op
    name = f"{op.label} ({' '.join(op.argv)})"
    if op.command == "simulate":
        from qkdlab.postprocess import final_key_length

        data = res.files.get(op.outputs[0])
        problems.check(data is not None, f"{name}: no CSV written")
        if data is None:
            return
        for path in op.outputs[1:]:
            problems.check(bool(res.files.get(path)), f"{name}: {os.path.basename(path)} missing")
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        distilled = [r for r in rows if r["verdict"] == "accepted" and int(r["sifted_len"]) > 0
                     and float(r["qber_estimate"]) < 0.25]
        problems.check(len(distilled) == len(res.distillations),
                       f"{name}: {len(distilled)} distilled rows but cli received "
                       f"{len(res.distillations)} DistillationResults")
        for row, dist in zip(distilled, res.distillations):
            problems.check(int(row["final_len"]) == dist.final_length,
                           f"{name}: trial {row['trial']} final_len differs from its distillation")
        for row in rows:
            final, leaked = int(row["final_len"]), int(row["leaked_bits"])
            sifted = int(row["sifted_len"])
            if row in distilled:
                want = final_key_length(sifted, float(row["qber_estimate"]), leaked, op.kprime)
            else:
                want = 0
            problems.check(final == want, f"{name}: trial {row['trial']} final_len {final} "
                                          f"!= final_key_length {want}")
            quality.final_bits += final
            if final > 0:
                quality.leaked += leaked
                quality.shannon += sifted * _binary_entropy(op.epsilon)
        quality.pairs += op.pairs
        quality.distillations += len(res.distillations)
        if any(d.final_length > 0 and not d.keys_equal for d in res.distillations):
            res.wrong = "unequal final keys"
    elif op.command == "bounds":
        payload = json.loads(res.stdout)
        problems.check(payload.get("chain_holds") is True, f"{name}: chain_holds is not true")
    elif op.command == "attack-eval":
        payload = json.loads(res.stdout)
        if op.attack_shape != (payload["n_pairs"], payload["ancilla_dim"]):
            res.wrong = (f"attack of shape {op.attack_shape} read as "
                         f"({payload['n_pairs']}, {payload['ancilla_dim']})")
        if op.exact_passing is None:
            return
        mean, stderr = payload["passing_mean"], payload["passing_stderr"]
        problems.check(abs(mean - op.exact_passing) <= 3.0 * stderr + 1e-9,
                       f"{name}: passing_mean {mean!r} is not within 3 sigma ({stderr!r}) "
                       f"of the exact {op.exact_passing!r}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def slot_medians(results: list[OpResult]) -> list[float]:
    """Median latency of each op of a pass, taken over the passes of the run.

    An op keeps its label from pass to pass, so the medians are taken slot
    by slot; a few seconds of a slowed host or one rare slow input then
    moves one sample of a slot, not the slot's median.
    """
    by_label: dict[str, list[float]] = {}
    for r in results:
        by_label.setdefault(r.op.label, []).append(r.latency)
    return [statistics.median(v) for v in by_label.values()]


# -- one workload ---------------------------------------------------------------

class Run:
    """State of one workload run: ops attempted, checks, outputs and report lines."""

    def __init__(self, cli, workload, seed: int, tiny: bool):
        from tracer import DistillObserver

        self.cli, self.workload, self.seed, self.tiny = cli, workload, seed, tiny
        self.workdir = os.path.join(WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.observer = DistillObserver()
        self.problems = Problems()
        self.attempted = 0
        self.failed = 0
        self.report: list[str] = []
        self.pass0_len = 0

    def ops(self, p: int):
        return self.workload.make_pass(self.seed, p, self.workdir, self.tiny)

    def execute(self, op, quality: Quality) -> OpResult:
        res = run_op(self.cli, op, self.observer)
        self.attempted += 1
        if not res.ok:
            self.failed += 1
            self.report.append(f"FAILED op {op.label}: {res.error}")
        else:
            check_op(res, quality, self.problems)
        res.stdout, res.files = None, None  # keep only the digest of what was checked
        return res

    def warm_up(self) -> dict[int, str]:
        """Run the first op of each kind in pass 0; returns digests by position."""
        ops = self.ops(0)
        self.pass0_len = len(ops)
        firsts: dict[str, int] = {}
        for i, op in enumerate(ops):
            firsts.setdefault(op.kind, i)
        digests = {}
        with self.observer:
            for i in firsts.values():
                res = run_op(self.cli, ops[i], self.observer)
                if res.ok:
                    digests[i] = res.digest
        return digests

    def check_replay(self, reference: dict[int, str], pass0: list[OpResult]) -> None:
        """Pass 0 of the measured run must reproduce the warm-up outputs byte for byte."""
        for i, digest in reference.items():
            if pass0[i].ok:
                self.problems.check(pass0[i].digest == digest,
                                    f"{pass0[i].op.label}: outputs differ between two runs "
                                    "of one seed")
        self.report.append(f"replayed {len(reference)} ops of pass 0 against a second run")
        self.report.append("pass 0 output digest: " + hashlib.sha256(
            "".join(r.digest for r in pass0).encode()).hexdigest())

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def timed_run(run: Run, seconds: float, setup: list[float]) -> dict:
    """End-to-end metrics from whole passes run until ``seconds`` have passed."""
    reference = run.warm_up()
    quality = Quality()
    results = []
    wrong: dict[str, int] = {}
    pass_s = []
    with run.observer:
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for op in run.ops(len(pass_s)):
                res = run.execute(op, quality)
                if res.ok and res.wrong:
                    wrong[res.wrong] = wrong.get(res.wrong, 0) + 1
                results.append(res)
            pass_s.append(time.perf_counter() - pass_start)
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    run.check_replay(reference, results[:run.pass0_len])
    run.problems.check(quality.distillations > 0, "no DistillationResult was observed")
    run.problems.check(quality.shannon > 0, "no simulate row produced a key")
    latencies = [r.latency for r in results]
    pct, tail_value = tail(latencies)
    slot_s = slot_medians(results)
    run.report.append(f"{len(results)} ops in {len(pass_s)} passes of "
                      + ", ".join(f"{t:.2f}" for t in pass_s) + f" s "
                      f"({len(results) / elapsed:.4g} ops/s overall); tail is "
                      f"p{pct:.2f} of {len(results)} samples; {run.failed} ops failed")
    run.report.append(f"{len(slot_s)} ops per pass, median latency of each: "
                      + ", ".join(f"{t * 1e3:.1f}" for t in slot_s) + " ms")
    slowest = sorted(results, key=lambda r: r.latency, reverse=True)[:TAIL_BEYOND + 1]
    run.report.append("slowest ops: " + ", ".join(f"{r.op.label} {r.latency * 1e3:.0f}"
                                                  for r in slowest) + " ms")
    for what, count in sorted(wrong.items()):
        run.report.append(f"{count} ops answered wrongly: {what}")
    ok = run.attempted - run.failed - sum(wrong.values())
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(slot_s) / sum(slot_s),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_bits_per_pair": quality.final_bits / quality.pairs if quality.pairs else 0.0,
        "recon_f": quality.leaked / quality.shannon if quality.shannon else 0.0,
        "ok_frac": ok / run.attempted,
    }


def traced_run(run: Run, import_ms: dict) -> dict:
    """Per-layer metrics from fixed passes, each op run once untraced and once traced."""
    from tracer import LAYERS, Tracer

    reference = run.warm_up()
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    results: dict[bool, list] = {False: [], True: []}
    for p in range(1 if run.tiny else run.workload.trace_passes):
        for op in run.ops(p):
            i = len(results[True])
            tracer.op = f"{i}:{op.label}"
            # alternate which run goes first, so that warm caches favour neither
            for traced in (False, True) if i % 2 == 0 else (True, False):
                with tracer if traced else contextlib.nullcontext(), run.observer:
                    res = run.execute(op, Quality())
                seconds[traced] += res.latency
                results[traced].append(res)
    run.check_replay(reference, results[False][:run.pass0_len])
    run.problems.check([r.digest for r in results[False]] == [r.digest for r in results[True]],
                       "outputs differ with and without the tracing wrappers")
    stats = tracer.stats()
    for span in run.workload.must_cross:
        run.problems.check(stats.get(span, {}).get("calls", 0) > 0,
                           f"traced boundary {span} recorded zero calls")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{run.workload.name}-{run.seed}.jsonl")
    tracer.write_spans(spans_path)
    run.report.append(f"{len(results[True])} ops traced, {len(tracer.spans)} spans written to "
                      f"{os.path.relpath(spans_path, ROOT)}")

    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        for field in fields:
            metrics[f"{span}.{field}"] = (stats.get(span, {}).get(field, 0), FIELD_UNITS[field])
    counters = tracer.counters
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (counters.get(name, 0), unit)
    sessions = counters.get("protocol.sessions", 0)
    metrics["protocol.sifted_fraction"] = (
        counters.get("protocol.sifted_fraction_sum", 0) / sessions if sessions else 0.0, "frac")
    metrics["protocol.accept_rate"] = (
        counters.get("protocol.accepted", 0) / sessions if sessions else 0.0, "frac")
    aap = "adversary.axis_averaged_passing_probability"
    samples = counters.get(f"{aap}.samples", 0)
    metrics[f"{aap}.ms_per_sample"] = (
        stats.get(aap, {}).get("busy_ms", 0) / samples if samples else 0.0, "ms/sample")
    metrics["cli.output_bytes"] = (sum(r.nbytes for r in results[True]), "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.import_ms"] = (import_ms.get(layer, 0.0), "ms")
    metrics["trace.overhead_frac"] = (1.0 - seconds[False] / seconds[True], "frac")
    return metrics


def run_workload(cli, workload, seed: int, seconds: float, trace: bool, tiny: bool,
                 setup: list[float] | None, import_ms: dict | None):
    run = Run(cli, workload, seed, tiny)
    try:
        if trace:
            metrics = traced_run(run, import_ms)
        else:
            values = timed_run(run, seconds, setup)
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    finally:
        run.close()
    return run, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli = load_qkdlab()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    setup = None if args.trace else measure_setup()
    import_ms = measure_import_ms() if args.trace else None
    if setup:
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, values = run_workload(cli, WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), args.tiny, setup, import_ms)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in run.report:
            print("  " + line)
        for problem in run.problems:
            print("  CHECK FAILED: " + problem)
        for metric, (value, unit) in values.items():
            print(f"  {metric:<58} {value:>16.6g} {unit}")
        correct = correct and not run.problems
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
