"""Command-line interface tests: exit codes, file formats, determinism."""

import ast
import collections
import contextlib
import csv
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdlab
from qkdlab import bounds, cli
from qkdlab.cli import CSV_COLUMNS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_attack_file(path, n, labels=None):
    """Single-branch product attack over n pairs (default all singlets)."""
    labels = "0" * n if labels is None else labels
    path.write_text(f"{labels} 0 1.0 0.0\n")
    return str(path)


class TestExitCodes:
    def test_simulate_ok(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "200", "--m", "20", "--epsilon", "0.02",
             "--trials", "2", "--seed", "3"], capsys)
        assert code == 0
        assert out.startswith(",".join(CSV_COLUMNS))

    def test_bare_simulate(self, capsys):
        code, out, err = run_cli(["simulate"], capsys)
        assert code == 0, err
        assert out.startswith(",".join(CSV_COLUMNS))

    def test_noiseless_rules_agree(self, tmp_path, capsys):
        """At eps = 0 both test rules accept only the zero-error test, so the
        bare command and either explicit rule write the same CSV."""
        csvs = []
        for flags in ([], ["--epsilon", "0", "--threshold-mode", "two_epsilon"],
                      ["--epsilon", "0", "--threshold-mode", "window"]):
            out = tmp_path / f"runs{len(csvs)}.csv"
            assert run_cli(["simulate", "--trials", "3", "--out", str(out), *flags],
                           capsys)[0] == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_bad_epsilon_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--n", "100", "--m", "10", "--epsilon", "0.9"], capsys)
        assert code == 2
        assert "epsilon" in err.lower() or "error rate" in err.lower()

    def test_simulate_has_no_fidelity_flag(self, capsys):
        """simulate names its channel by --epsilon only; argparse rejects --fidelity."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fidelity", "0.9"])
        assert exc.value.code == 2
        assert "--fidelity" in capsys.readouterr().err

    def test_unknown_attack(self, capsys):
        # attack names match whole, not by prefix
        for attack in ("laser-blinding", "intercept_resendX", "substitutes:0.1"):
            code, _, _ = run_cli(["simulate", "--protocol", "bb84", "--epsilon", "0.02",
                                  "--attack", attack], capsys)
            assert code == 2, attack

    def test_bounds_out_of_regime(self, capsys):
        code, _, err = run_cli(["bounds", "--n", "100", "--epsilon", "0.3"], capsys)
        assert code == 3
        assert "regime" in err.lower()

    def test_bounds_past_the_int_print_limit(self, capsys):
        """L2 at this point has over 4,300 digits: it is written as null, and the
        chain is still checked on the exact integers."""
        code, out, _ = run_cli(["bounds", "--n", "7254", "--epsilon", "0.1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["l2"] is None and data["chain_holds"] is True
        assert data["l1"].bit_length() == 13924

    def test_undersampled_session(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--protocol", "bb84", "--n", "500", "--epsilon", "0.01",
             "--omega", "1.0"], capsys)
        assert code == 2


SCENARIO_MISTAKES = {
    "int_as_string": {"n": "100"},
    "int_as_float": {"trials": 2.0},
    "int_as_bool": {"seed": True},
    "float_as_string": {"epsilon": "0.02"},
    "string_as_number": {"summary": 0},
    "null_without_none_default": {"omega": None},
    # integers past the float range, for each float flag a run reads
    **{f"huge_int_{key}": {key: 10**400} for key in ("epsilon", "c", "kprime")},
}


class TestConfigMistakes:
    """Each mistake exits 2 with a config error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"],
        ["attack-eval", "--attack-file", "ATTACK", "--m", "1", "--seed", "-1"],
        ["simulate", "--kprime", "0"],
        ["simulate", "--kprime", "inf"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--kprime", "0"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--kprime", "nan"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--kprime", "inf"],
        ["simulate", "--n", "2000", "--m", "200", "--epsilon", "0.01",
         "--attack", "substitute:0.5", "--kprime", "0", "--trials", "2"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--theta", "-1"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--theta", "nan"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--theta", "inf"],
        ["bounds", "--grid-n", "50", "--grid-eps", "0.01", "--out", "g.csv", "--theta", "nan"],
        ["attack-eval", "--attack-file", "ATTACK", "--m", "1", "--theta", "nan"],
        ["attack-eval", "--attack-file", "ATTACK4", "--m", "1", "--epsilon", "0.2",
         "--theta", "nan"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--theta", "1e308"],
        ["attack-eval", "--attack-file", "ATTACK4", "--m", "1", "--epsilon", "0.2",
         "--theta", "1e308"],
        *(["bounds", "--grid-n", "50", "--grid-eps", "0.01", "--out", "g.csv", *stray]
          for stray in (["--n", "7"], ["--epsilon", "0.01"], ["--summary", "s.json"],
                        ["--theta", "0.1"])),
        ["bounds", "--n", "100", "--epsilon", "0.01", "--out", "g.csv"],
        ["simulate", "--c", "nan", "--threshold-mode", "window"],
        # a NaN epsilon is a bad parameter in every command, not a regime error
        ["simulate", "--epsilon", "nan"],
        ["bounds", "--n", "100", "--epsilon", "nan"],
        ["attack-eval", "--attack-file", "ATTACK4", "--m", "1", "--epsilon", "nan"],
        ["bounds", "--grid-n", "50,100", "--grid-eps", "0.01,nan", "--out", "g.csv"],
        ["simulate", "--protocol", "bb84", "--attack", "intercept_resend:"],
        ["simulate", "--c", "inf", "--threshold-mode", "window"],
        ["simulate", "--attack-file", "ATTACK"],
        ["equivalence", "--fidelity", "1.5"],
        ["equivalence", "--omega", "2"],
        ["attack-eval", "--attack-file", "ATTACK", "--m", "1", "--axis-samples", "0"],
        *(["simulate", "--scenario", f"SCENARIO:{name}"] for name in SCENARIO_MISTAKES),
        ["bounds", "--grid-n", ",", "--grid-eps", ",", "--out", "g.csv"],
        # files qkdlab cannot write (a directory that does not exist, or a
        # directory where a file should be) or read (a scenario not in UTF-8)
        *(["simulate", "--n", "200", "--m", "20", flag, "missing/f"]
          for flag in ("--out", "--summary", "--transcript")),
        ["simulate", "--n", "200", "--m", "20", "--out", "TMPDIR"],
        ["bounds", "--grid-n", "50", "--grid-eps", "0.01", "--out", "missing/g.csv"],
        ["bounds", "--n", "100", "--epsilon", "0.01", "--summary", "missing/s.json"],
        ["attack-eval", "--attack-file", "ATTACK", "--m", "1", "--axis-samples", "10",
         "--summary", "missing/s.json"],
        ["equivalence", "--summary", "missing/s.json"],
        ["simulate", "--scenario", "NOT_UTF8"],
        # an N past the float range, and one past numpy's largest array length
        # (so that no array of that length is asked for)
        ["bounds", "--n", "10**400", "--epsilon", "0.02"],
        ["bounds", "--grid-n", "10**400", "--grid-eps", "0.02", "--out", "g.csv"],
        ["simulate", "--n", str(10**20), "--m", "10"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv).replace("SCENARIO:", ""))
    def test_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        argv = list(argv)
        for i, arg in enumerate(argv):
            if arg.startswith("ATTACK"):  # ATTACK<n> holds n pairs, ATTACK two
                argv[i] = write_attack_file(tmp_path / "atk.txt", int(arg[6:] or 2))
            elif arg.startswith("SCENARIO:"):
                argv[i] = str(tmp_path / "scen.json")
                (tmp_path / "scen.json").write_text(json.dumps(SCENARIO_MISTAKES[arg[9:]]))
            elif arg == "NOT_UTF8":
                argv[i] = str(tmp_path / "scen.json")
                (tmp_path / "scen.json").write_bytes('{"n": 200}'.encode("utf-16"))
            elif arg == "TMPDIR":
                argv[i] = str(tmp_path)
            elif arg == "10**400":
                argv[i] = str(10**400)
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "g.csv").exists()  # a failed grid writes no rows

    def test_unwritable_transcript_stops_after_trial_0(self, tmp_path, monkeypatch, capsys):
        """Trial 0's transcript is written as soon as trial 0 ends."""
        calls = []
        simulate_trial = cli.simulate_trial
        monkeypatch.setattr("qkdlab.cli.simulate_trial",
                            lambda *a: calls.append(a) or simulate_trial(*a))
        code, _, err = run_cli(["simulate", "--n", "200", "--m", "20", "--trials", "3",
                                "--transcript", str(tmp_path / "missing" / "t.jsonl")], capsys)
        assert (code, len(calls)) == (2, 1)
        assert "config error" in err and "t.jsonl" in err

    def test_checked_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr("qkdlab.cli.simulate_trial", no_work)
        monkeypatch.setattr("qkdlab.adversary.rotate_pairs", no_work)
        monkeypatch.setattr("qkdlab.adversary._bell_weights", no_work)
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        grid = tmp_path / "grid.csv"
        for argv in (
            ["simulate", "--epsilon", "0.01", "--kprime", "0"],
            ["attack-eval", "--attack-file", atk, "--m", "2", "--accept-hi", "5"],
            ["bounds", "--grid-n", "50,100", "--grid-eps", "0.3,0.01",
             "--out", str(grid), "--kprime", "0"],
            ["bounds", "--grid-n", "50,100", "--grid-eps", "0.3,0.01",
             "--out", str(grid), "--theta", "nan"],
            ["bounds", "--grid-n", "50,100", "--grid-eps", "0.3,0.01",
             "--out", str(grid), "--summary", str(tmp_path / "s.json")],
        ):
            code, _, err = run_cli(argv, capsys)
            assert (code, "config error" in err) == (2, True), argv
        assert not grid.exists()

    def test_scenario_values_of_the_right_type_run(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"n": 200, "m": 20, "epsilon": 0, "kprime": 5,
                                    "threshold_mode": "window", "attack_file": None}))
        assert run_cli(["simulate", "--scenario", str(scen)], capsys)[0] == 0

    def test_scenario_numbers_take_their_flag_type(self, tmp_path, capsys):
        """A JSON integer for a float flag is read as that float, as the flag is."""
        values = {"kprime": 5, "omega": 1, "n": 200, "m": 20, "epsilon": 0.02}
        scen, by_file, by_flag = (tmp_path / f for f in ("scen.json", "file.json", "flag.json"))
        scen.write_text(json.dumps(values))
        assert run_cli(["simulate", "--scenario", str(scen), "--summary", str(by_file)],
                       capsys)[0] == 0
        flags = [arg for key, value in values.items() for arg in (f"--{key}", str(value))]
        assert run_cli(["simulate", *flags, "--summary", str(by_flag)], capsys)[0] == 0
        assert by_file.read_bytes() == by_flag.read_bytes()


# The exit-code property's grammar: small valid base commands (N <= 2,000,
# coherent N = 4), and for each flag the values a mutation may give it.
# Upper-case values name files each example writes in its own directory.
PROPERTY_BASES = (
    ("simulate", "--n", "200", "--m", "20", "--epsilon", "0.02", "--seed", "3"),
    ("simulate", "--protocol", "bb84", "--n", "400", "--epsilon", "0.02", "--omega", "0.3"),
    ("simulate", "--n", "4", "--m", "2", "--epsilon", "0.2", "--attack", "coherent",
     "--attack-file", "ATTACK", "--trials", "2"),
    ("simulate", "--scenario", "SCENARIO"),
    ("attack-eval", "--attack-file", "ATTACK", "--m", "2", "--axis-samples", "20"),
    ("bounds", "--n", "100", "--epsilon", "0.02"),
    ("bounds", "--grid-n", "50,100", "--grid-eps", "0.02,0.3", "--out", "g.csv"),
    ("equivalence", "--fidelity", "0.97"),
)
_EDGES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-320")
_JUNK = ("", "x", ",", "1,")
_PATHS = ("missing/f", ".", "f.out", "")
PROPERTY_FLAGS = {
    "--n": (*_EDGES, *_JUNK, "1", "2000"),
    "--m": (*_EDGES, *_JUNK, "1", "2", "2000"),
    "--trials": (*_EDGES, *_JUNK, "2"),
    "--seed": (*_EDGES, *_JUNK, "2000"),
    "--epsilon": (*_EDGES, *_JUNK, "0.02", "0.25", "0.5", "0.7"),
    "--fidelity": (*_EDGES, *_JUNK, "0.9", "1.5"),
    "--omega": (*_EDGES, *_JUNK, "0.1", "2"),
    "--c": (*_EDGES, *_JUNK, "0.5"),
    "--kprime": (*_EDGES, *_JUNK, "0.5"),
    "--theta": (*_EDGES, *_JUNK, "0.5"),
    "--axis-samples": (*_EDGES, *_JUNK, "1", "2000"),
    "--accept-lo": (*_EDGES, *_JUNK, "1", "4"),
    "--accept-hi": (*_EDGES, *_JUNK, "1", "4"),
    "--grid-n": (*_EDGES, *_JUNK, "50,2000", "-5,50"),
    "--grid-eps": (*_EDGES, *_JUNK, "0.02,0.3", "0.01,nan"),
    "--protocol": ("epr", "bb84", "x"),
    "--attack": ("none", "coherent", "intercept_resend", "intercept_resend:diagonal",
                 "intercept_resend:x", "intercept_resend:", "substitute:", "substitute:0.1", "substitute:nan",
                 "substitute:2", "x"),
    "--threshold-mode": ("window", "two_epsilon", "x"),
    "--attack-file": ("ATTACK", "BAD_ATTACK", "missing/a.txt", ".", ""),
    "--scenario": ("SCENARIO", "NOT_JSON", "missing/s.json", ".", ""),
    "--out": _PATHS,
    "--summary": _PATHS,
    "--transcript": _PATHS,
}
# scenario fields, real and not, and JSON values of every type
SCENARIO_FIELDS = ("n", "m", "epsilon", "fidelity", "omega", "attack", "attack_file",
                   "trials", "seed", "c", "threshold_mode", "kprime", "protocol", "out",
                   "summary", "transcript", "name", "scenario", "help", "bogus")
SCENARIO_VALUES = (None, True, "x", "", [], {}, 0, -1, 3, 0.5, 1e308, math.nan,
                   "ATTACK", "missing/f")


@st.composite
def cli_cases(draw):
    """A base command and one to three mutations: set a flag, drop a flag or set
    a scenario field (which also passes ``--scenario SCENARIO``)."""
    flag = st.sampled_from(sorted(PROPERTY_FLAGS))
    mutation = st.one_of(
        flag.flatmap(lambda f: st.tuples(st.just(f), st.sampled_from(PROPERTY_FLAGS[f]))),
        flag.map(lambda f: (f, None)),
        st.tuples(st.sampled_from(SCENARIO_FIELDS), st.sampled_from(SCENARIO_VALUES)),
    )
    return draw(st.sampled_from(PROPERTY_BASES)), draw(st.lists(mutation, min_size=1, max_size=3))


def run_in_grammar_dir(argv, scenario):
    """(exit code, standard error) of ``main(argv)`` run in a new directory
    holding the grammar's upper-case files, ``SCENARIO`` being ``scenario``."""
    files = {"ATTACK": "0000 0 1.0 0.0\n", "BAD_ATTACK": "0 0 nan 0\n", "NOT_JSON": "{",
             "SCENARIO": json.dumps(scenario)}
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # file names in the grammar resolve here; "." is a directory
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects a flag
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


PROPERTY_SCENARIO = {"n": 200, "m": 20, "epsilon": 0.02, "seed": 1}


class TestExitCodeProperty:
    """Whatever the flags, ``main`` exits 0, 2 or 3, and a 2 says why."""

    @pytest.mark.parametrize("base", PROPERTY_BASES,
                             ids=lambda base: "-".join(a.lstrip("-") for a in base))
    def test_bases_run_clean(self, base):
        """Each base command is valid, so a mutation is what a nonzero exit tests."""
        code, err = run_in_grammar_dir(list(base), PROPERTY_SCENARIO)
        assert code == 0, err

    @settings(max_examples=150)
    @given(cli_cases())
    def test_exits_0_2_or_3(self, case):
        base, mutations = case
        argv = list(base)
        scenario = dict(PROPERTY_SCENARIO)
        for key, value in mutations:
            if not key.startswith("--"):
                scenario[key] = value
                key, value = "--scenario", "SCENARIO"
            if key in argv:
                i = argv.index(key)
                del argv[i:i + 2]
            if value is not None:
                argv += [key, value]
        code, err = run_in_grammar_dir(argv, scenario)
        assert code in (0, 2, 3), (argv, err)
        if code == 2:
            assert "config error: " in err or re.search(r"^qkdlab.*: error: ", err, re.M), argv


def src_env():
    """The environment with this qkdlab's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(qkdlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_process_output(argv):
    """Standard output of ``python -m qkdlab`` in a new interpreter."""
    done = subprocess.run([sys.executable, "-m", "qkdlab", *argv], env=src_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestCachedParser:
    """One parser serves every main() call of a process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_leak_between_calls(self, tmp_path, monkeypatch, capsys):
        point = ["bounds", "--n", "100", "--epsilon", "0.01"]
        assert run_cli([*point, "--theta", "0.5"], capsys)[0] == 0
        code, out, _ = run_cli(point, capsys)
        assert code == 0
        assert out == fresh_process_output(point)

        monkeypatch.chdir(tmp_path)
        sim = ["simulate", "--n", "200", "--m", "20", "--epsilon", "0.02", "--kprime", "5"]
        assert run_cli([*sim, "--summary", "s.json"], capsys)[0] == 0
        os.remove("s.json")
        assert run_cli(sim, capsys)[0] == 0
        assert os.listdir(".") == []

    def test_scenario_checks_types_through_the_shared_parser(self, tmp_path, capsys):
        build_parser()
        built = build_parser.cache_info().misses
        scen = tmp_path / "scen.json"
        for fields, want in (({"n": "200"}, 2), ({"n": 200, "m": 20, "kprime": 5}, 0)):
            scen.write_text(json.dumps(fields))
            assert run_cli(["simulate", "--scenario", str(scen)], capsys)[0] == want
        assert build_parser.cache_info().misses == built

    def test_handlers_are_looked_up_per_call(self, monkeypatch, capsys):
        """A handler patched after the parser exists still runs, as tracing needs."""
        build_parser()
        seen = []
        monkeypatch.setattr("qkdlab.cli.cmd_equivalence",
                            lambda args: seen.append(args.fidelity) or 0)
        assert run_cli(["equivalence", "--fidelity", "0.5"], capsys)[0] == 0
        assert seen == [0.5]


class TestSimulateOutputs:
    def test_csv_columns_and_types(self, tmp_path, capsys):
        out_csv = tmp_path / "runs.csv"
        code, _, _ = run_cli(
            ["simulate", "--n", "2000", "--m", "200", "--epsilon", "0.02",
             "--trials", "3", "--seed", "11", "--out", str(out_csv)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 3
        assert tuple(rows[0]) == CSV_COLUMNS
        assert [r["trial"] for r in rows] == ["0", "1", "2"]
        for r in rows:
            assert r["verdict"] in ("accepted", "rejected")
            assert int(r["m"]) == 200
            assert float(r["qber_estimate"]) >= 0.0
            assert r["eve_holevo_bits"] == ""  # classical run: column stays empty

    def test_summary_json(self, tmp_path, capsys):
        summ = tmp_path / "s.json"
        code, _, _ = run_cli(
            ["simulate", "--n", "1000", "--m", "100", "--epsilon", "0.02",
             "--trials", "4", "--seed", "5", "--summary", str(summ),
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0
        data = json.loads(summ.read_text())
        assert 0.0 <= data["accept_rate"] <= 1.0
        assert data["trials"] == 4
        assert data["protocol"] == "epr"
        assert data["epsilon_expected"] == 0.02  # as given, not via the fidelity
        # keys are emitted sorted for reproducible files
        assert list(data) == sorted(data)

    @pytest.mark.parametrize("flags, n, digest", [
        (["--n", "50", "--m", "10"], 50,
         "425ecd2d75803373857796d54995b354fc0a64c3e72e0ab639f646d98953f991"),
        (["--protocol", "bb84", "--omega", "0.1", "--n", "200", "--m", "20"], 200,
         "d92e587db88df72ffd8cf2a4eebfb8c85f21621b75ddf6e0dbe3dd415bf0cf46"),
    ], ids=["epr", "bb84"])
    def test_transcript_jsonl(self, tmp_path, capsys, flags, n, digest):
        tr = tmp_path / "t.jsonl"
        code, _, _ = run_cli(
            ["simulate", *flags, "--epsilon", "0.02",
             "--transcript", str(tr), "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0
        lines = tr.read_text().splitlines()
        assert len(lines) == n
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == list(range(n))
        assert all(list(r) == sorted(r) for r in records)
        # pinned: each line is json.dumps(record, sort_keys=True) of its position
        assert hashlib.sha256(tr.read_bytes()).hexdigest() == digest

    def test_coherent_outputs_pinned(self, tmp_path, monkeypatch, capsys):
        """Exact coherent-attack scoring: session, transcript and attack-eval digests."""
        monkeypatch.chdir(tmp_path)
        Path("attack.txt").write_text(
            "0000 0 0.6 0.0\n0100 1 0.0 0.6\n0030 2 0.5291502622129181 0.0\n")
        assert run_cli(["simulate", "--n", "4", "--m", "2", "--epsilon", "0.2",
                        "--attack", "coherent", "--attack-file", "attack.txt",
                        "--trials", "20", "--seed", "5", "--out", "sim.csv",
                        "--transcript", "sim.jsonl"], capsys)[0] == 0
        assert run_cli(["attack-eval", "--attack-file", "attack.txt", "--m", "2",
                        "--epsilon", "0.2", "--axis-samples", "200", "--seed", "3",
                        "--summary", "ae.json"], capsys)[0] == 0
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("sim.csv", "sim.jsonl", "ae.json")}
        assert digests == {
            "sim.csv": "919ef4db67f6be08ccd6cd72132585d6511d6564740d0565efc79b8540d1b34d",
            "sim.jsonl": "be569d638117c35fdaa0862161536ba8b27c2eea10d4babfebb11eb87c3502aa",
            "ae.json": "2e898091a9d6ff654d2bb443d527c89a4b16a0bd1e2d1f858b8df841fe6bcc91",
        }

    def test_bounds_outputs_pinned(self, tmp_path, monkeypatch, capsys):
        """Exact counting bounds: a single point near N = 1600 and the README grid."""
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["bounds", "--n", "1601", "--epsilon", "0.060899"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "84085d75057a0edc809ac5765c72f207ebea7f0fb83e53f80b71116c8c49b6bb")
        assert run_cli(["bounds", "--grid-n", "50,100,200", "--grid-eps", "0.01,0.02,0.05",
                        "--out", "grid.csv"], capsys)[0] == 0
        assert hashlib.sha256(Path("grid.csv").read_bytes()).hexdigest() == (
            "fd31265da410e7a45f4617474630af11dc8098090b0209b1177f3d6e10a3cd05")

    def test_out_of_regime_grid_pinned(self, tmp_path, capsys):
        """A bounds grid whose rows fall outside the regime in both N and eps."""
        grid = tmp_path / "grid.csv"
        assert run_cli(["bounds", "--grid-n", "3,50,100", "--grid-eps", "0.3,0.01,0.1",
                        "--out", str(grid)], capsys)[0] == 0
        assert [r["in_regime"] for r in csv.DictReader(io.StringIO(grid.read_text()))] == (
            ["false"] * 4 + ["true", "true", "false", "true", "true"])
        assert hashlib.sha256(grid.read_bytes()).hexdigest() == (
            "bd0da3e0f3a868607bcb307055d8f02e894231005b62474497a0feeda3e82a29")

    @pytest.mark.parametrize("policy, digests", [
        ("random", ("22ef71dd58e51f8666b6980ed3210c8f64d773c88b0e669d29f918aac5b5a6ee",
                    "d2de22a49061b41c8eb5859b444180811950a37224dc27953ba01b65e92b6c72",
                    "8328daad163be144190083695996f2bcd08213703fce7cb6b6a98b8677b4b48c")),
        ("rectilinear", ("9935cde5a5f96b41c92cbf3fb0b4628518c1f9782c1485b1c2c1ff9426f1e5bc",
                         "0eae15b8560e14fef703599fe79d6fcbc03c2cf8bd22c1f5b96ac4234402f00a",
                         "00557436f39b89db8473d83be2f9170924746de212cc3ac57066d65269bb50c7")),
        ("diagonal", ("328a02e6508cbe7cad82c192dad82d9de60a7a9bb913b82fab5d788fbae6c514",
                      "3b66cb67c319c9f20a539b0c70ab55516323030fcea0a9d6c427268d286c07a6",
                      "941595f4731ebc002adba7facf5040676ef77e6bf6c821c7dd6b997dadbc857d")),
    ])
    def test_intercept_resend_outputs_pinned(self, tmp_path, capsys, policy, digests):
        """BB84 under each intercept-resend policy: CSV, summary and transcript digests."""
        paths = [tmp_path / name for name in ("x.csv", "s.json", "t.jsonl")]
        assert run_cli(["simulate", "--protocol", "bb84", "--n", "300", "--epsilon", "0.02",
                        "--attack", f"intercept_resend:{policy}", "--trials", "3",
                        "--seed", "8", "--out", str(paths[0]), "--summary", str(paths[1]),
                        "--transcript", str(paths[2])], capsys)[0] == 0
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == digests

    def test_unpassable_test_leaves_holevo_empty(self, tmp_path, monkeypatch, capsys):
        """A test the all-singlet attack cannot pass has no conditional ancilla state:
        attack-eval prints null and the simulate column stays empty."""
        monkeypatch.chdir(tmp_path)
        atk4 = write_attack_file(tmp_path / "atk4.txt", 4)
        atk2 = write_attack_file(tmp_path / "atk2.txt", 2)
        code, out, _ = run_cli(["attack-eval", "--attack-file", atk4, "--m", "2",
                                "--epsilon", "0.2", "--accept-lo", "2", "--accept-hi", "2",
                                "--axis-samples", "50", "--seed", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert (data["holevo_bits_sample_plan"], data["holevo_within_upper"]) == (None, None)
        assert data["passing_mean"] == 0.0 and data["passing_stderr"] == 0.0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fbd8be357817939ee801bd1e5c8fe690bfb39632c2bd382ffe7b9a9c77d8da25")
        # the window [1, 1] needs one error; singlets never err
        assert run_cli(["simulate", "--n", "2", "--m", "2", "--epsilon", "0.5",
                        "--threshold-mode", "window", "--attack", "coherent",
                        "--attack-file", atk2, "--trials", "2", "--out", "sim.csv",
                        "--summary", "sim.json"], capsys)[0] == 0
        rows = list(csv.DictReader(io.StringIO(Path("sim.csv").read_text())))
        assert [(r["verdict"], r["eve_holevo_bits"]) for r in rows] == [("rejected", "")] * 2
        assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                     for p in ("sim.csv", "sim.json")) == (
            "d0aed38cf50e56d4f4b1a8e4f81d059aec3a5d3abb221decf22fc7067d88c739",
            "1318661d53d51aa7ad0692ff943de85a5eb6090b697ae9c265cc4e964ce4527f")

    def test_equivalence_output_pinned(self, capsys):
        """The README equivalence command: the exact distance and its verdict."""
        code, out, _ = run_cli(["equivalence", "--fidelity", "0.97"], capsys)
        assert code == 0
        assert json.loads(out) == {"consistent": True, "distance": 1.9428902930940225e-16}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d86d621c13af095663a4ce99c0ac725e15d8bb90c66285c4a3f19e74509fabf1")

    @pytest.mark.parametrize("flags, digests", [
        ([], ("4bd86e85ff93f94a3c5ef7d33999d3209d0425328d18d33b36c2450071a1c262",
              "17ac9c7fcd02751e8e334ffed3395b129c629c9933ad638aa1dbf9c1f6f4e2ac")),
        (["--protocol", "bb84", "--omega", "0.1"],
         ("ca62bd35081f0dddf4fbc96231876a75d730f0de739cf6f8caaf1d1d72f64df7",
          "cf45de083ea0a2c6a219433d48bb02343ecd1359227aac4ebca7fa3f2e21d539")),
    ], ids=["epr", "bb84"])
    def test_distilled_outputs_pinned(self, tmp_path, capsys, flags, digests):
        """Trials that reconcile hundreds of odd blocks: CSV and summary digests."""
        out, summ = tmp_path / "x.csv", tmp_path / "s.json"
        assert run_cli(["simulate", "--n", "20000", "--m", "2000", "--epsilon", "0.02",
                        "--kprime", "5", "--trials", "5", "--seed", "7", *flags,
                        "--out", str(out), "--summary", str(summ)], capsys)[0] == 0
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in (out, summ)) == digests

    def test_bb84_ignores_m_but_checks_it(self, tmp_path, capsys):
        """BB84 draws its own test set, so --m changes no CSV byte; it must still
        lie in 1..n, as for EPR."""
        args = ["simulate", "--protocol", "bb84", "--n", "400", "--epsilon", "0.02",
                "--trials", "3", "--seed", "2"]
        csvs = []
        for m in ("1", "400"):
            csvs.append(tmp_path / f"m{m}.csv")
            assert run_cli([*args, "--m", m, "--out", str(csvs[-1])], capsys)[0] == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        code, _, err = run_cli([*args, "--m", "0"], capsys)
        assert code == 2
        assert "test_size must lie in 1..400, got 0" in err

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--n", "3000", "--m", "300", "--epsilon", "0.03",
                "--trials", "5", "--seed", "42", "--kprime", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--n", "3000", "--m", "300"],
        ["--n", "3000", "--m", "300", "--attack", "substitute:0.3"],
        ["--protocol", "bb84", "--omega", "0.1", "--n", "3000", "--m", "300"],
        ["--n", "4", "--m", "2", "--attack", "coherent"],
    ], ids=["epr", "substitute", "bb84", "coherent"])
    def test_transcript_changes_nothing_else(self, tmp_path, capsys, flags):
        """Writing trial 0's transcript leaves the CSV and the summary byte-identical."""
        if "coherent" in flags:
            attack = tmp_path / "attack.txt"
            attack.write_text(
                "0000 0 0.6 0.0\n0100 1 0.0 0.6\n0030 2 0.5291502622129181 0.0\n")
            flags = flags + ["--attack-file", str(attack)]
        base = ["simulate", *flags, "--epsilon", "0.2" if "coherent" in flags else "0.03",
                "--trials", "3", "--seed", "8", "--kprime", "5"]
        outputs = {}
        for name, extra in (("plain", []), ("written", ["--transcript", str(tmp_path / "t.jsonl")])):
            out, summ = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run_cli(base + extra + ["--out", str(out), "--summary", str(summ)],
                           capsys)[0] == 0
            outputs[name] = (out.read_bytes(), summ.read_bytes())
        assert (tmp_path / "t.jsonl").stat().st_size > 0
        assert outputs["plain"] == outputs["written"]

    def test_different_seed_changes_output(self, tmp_path, capsys):
        base = ["simulate", "--n", "3000", "--m", "300", "--epsilon", "0.03"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(base + ["--seed", "1", "--out", str(a)], capsys)
        run_cli(base + ["--seed", "2", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_scenario_file_overrides(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "name": "smoke", "protocol": "bb84", "n": 5000, "epsilon": 0.02,
            "omega": 0.2, "trials": 2, "seed": 9,
        }))
        out_csv = tmp_path / "o.csv"
        code, _, _ = run_cli(
            ["simulate", "--scenario", str(scen), "--out", str(out_csv)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 2
        assert int(rows[0]["sifted_len"]) > 2000

    def test_scenario_attack_is_the_flag_string(self, tmp_path, capsys):
        base = ["simulate", "--n", "2000", "--m", "200", "--epsilon", "0.01", "--seed", "4"]
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert run_cli(base + ["--attack", "substitute:0.01", "--out", str(by_flag)],
                       capsys)[0] == 0
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"attack": "substitute:0.01"}))
        assert run_cli(base + ["--scenario", str(scen), "--out", str(by_file)],
                       capsys)[0] == 0
        assert by_flag.read_bytes() == by_file.read_bytes()
        scen.write_text(json.dumps({"attack": {"kind": "substitute", "fraction": 0.01}}))
        assert run_cli(base + ["--scenario", str(scen)], capsys)[0] == 2

    def test_scenario_unknown_field(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"n": 100, "bogus_knob": 1}))
        code, _, err = run_cli(["simulate", "--scenario", str(scen)], capsys)
        assert code == 2
        assert "bogus_knob" in err
        scen.write_text(json.dumps({"protocol": "b92"}))
        assert run_cli(["simulate", "--scenario", str(scen)], capsys)[0] == 2
        scen.write_text(json.dumps({"fidelity": 0.97}))  # simulate has no --fidelity
        code, _, err = run_cli(["simulate", "--scenario", str(scen)], capsys)
        assert code == 2
        assert "'fidelity'" in err

    def test_coherent_attack_records_holevo(self, tmp_path, capsys):
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        out_csv = tmp_path / "o.csv"
        code, _, _ = run_cli(
            ["simulate", "--n", "4", "--m", "2", "--epsilon", "0",
             "--threshold-mode", "window", "--attack", "coherent",
             "--attack-file", atk, "--out", str(out_csv)], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert row["verdict"] == "accepted"
        assert float(row["eve_holevo_bits"]) == pytest.approx(0.0, abs=1e-9)

    def test_coherent_attack_with_a_window_wider_than_m(self, tmp_path, capsys):
        # the window [-2, 6] clamps to 0..2, a valid test plan for two pairs
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        code, out, err = run_cli(
            ["simulate", "--n", "4", "--m", "2", "--epsilon", "0.5",
             "--threshold-mode", "window", "--c", "10", "--attack", "coherent",
             "--attack-file", atk], capsys)
        assert code == 0, err
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["verdict"], row["error_count"]) == ("accepted", "0")

    def test_window_wider_than_any_float(self, capsys):
        # (eps -/+ c eps^2) m overflows to -inf and inf, which clamp to 0 and m
        code, out, err = run_cli(
            ["simulate", "--n", "1000", "--m", "1000", "--epsilon", "0.5",
             "--threshold-mode", "window", "--c", "1e308"], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(row["verdict"] == "accepted" for row in rows)


class TestBounds:
    def test_single_point_payload(self, capsys):
        code, out, _ = run_cli(["bounds", "--n", "100", "--epsilon", "0.01"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["exact_count"] == 301
        assert data["chain_holds"] is True
        assert data["secrecy_lower_bound"] == pytest.approx(
            1 + 10 * 0.01 * np.log2(0.01))

    def test_grid_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["bounds", "--grid-n", "50,100", "--grid-eps", "0.01,0.02,0.3",
             "--out", str(out_csv)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 6
        good = [r for r in rows if r["in_regime"] == "true"]
        bad = [r for r in rows if r["in_regime"] == "false"]
        assert len(bad) == 2  # the eps=0.3 column
        assert all(r["log2_exact"] == "" for r in bad)
        for r in good:
            assert float(r["log2_l1"]) >= float(r["log2_exact"]) - 1e-12
            assert r["chain_holds"] == "true"

    def test_requires_point_or_grid(self, capsys):
        assert run_cli(["bounds"], capsys)[0] == 2
        assert run_cli(["bounds", "--grid-n", "10"], capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "0", "--epsilon", "0.1"],
        ["--n", "-5", "--epsilon", "0.1"],
        ["--grid-n", "0,100", "--grid-eps", "0.01", "--out", "GRID"],
    ], ids=["n-0", "n-negative", "grid"])
    def test_nonpositive_n_is_config_error(self, tmp_path, capsys, argv):
        """A nonpositive N is a bad value (exit 2), not a point outside the regime."""
        grid = tmp_path / "grid.csv"
        code, _, err = run_cli(["bounds", *(str(grid) if a == "GRID" else a for a in argv)],
                               capsys)
        assert code == 2
        assert "config error: N must be positive" in err
        assert not grid.exists()

    @pytest.mark.parametrize("argv", [
        ["--n", "200000", "--epsilon", "0.02"],
        ["--grid-n", "100,200000", "--grid-eps", "0.02", "--out", "GRID"],
    ], ids=["point", "grid"])
    def test_past_the_feasible_limit_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                     argv):
        """A point whose exact count would pass MAX_CHAIN_WORK exits 2 before
        counting; a grid holding one writes nothing."""
        counted, count = [], bounds.atypical_counts
        monkeypatch.setattr(bounds, "atypical_counts",
                            lambda *args: counted.append(args) or count(*args))
        grid = tmp_path / "grid.csv"
        code, out, err = run_cli(["bounds", *(str(grid) if a == "GRID" else a for a in argv)],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == ("config error: N=200000, eps=0.02 is past the feasible limit of the "
                       "exact count: 3.49e+09 > 1e+09 steps times bits\n")
        assert all(n < 200000 for n, _ in counted) and not grid.exists()

    @pytest.mark.parametrize("n, eps", [(100000, 0.02), (7254, 0.1), (100, 0.01),
                                        (2000, 0.05), (2000, 0.0502)])
    def test_documented_points_are_feasible(self, monkeypatch, n, eps):
        """The README's points, CI's and the benchmark's largest reach the count."""
        counted = []
        monkeypatch.setattr(bounds, "atypical_counts", lambda *args: counted.append(args) or (1, 1))
        bounds.atypical_dim_chain(n, eps)
        assert counted == [(n, bounds.atypical_threshold(n, eps))]

    def test_single_point_counts_the_atypical_subspace_once(self, monkeypatch, capsys):
        """The chain's report is the one producer of the exact atypical count."""
        calls, count = [], bounds.atypical_counts
        monkeypatch.setattr(bounds, "atypical_counts",
                            lambda *args: calls.append(args) or count(*args))
        assert run_cli(["bounds", "--n", "2000", "--epsilon", "0.05"], capsys)[0] == 0
        assert calls == [(2000, 200)]


class TestAttackEval:
    def test_all_singlet_attack(self, tmp_path, capsys):
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        code, out, _ = run_cli(
            ["attack-eval", "--attack-file", atk, "--m", "2",
             "--axis-samples", "400", "--seed", "7"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["passing_mean"] == pytest.approx(1.0)
        assert data["holevo_bits_sample_plan"] == pytest.approx(0.0, abs=1e-9)

    def test_single_defect_attack(self, tmp_path, capsys):
        atk = write_attack_file(tmp_path / "atk.txt", 4, labels="0200")
        code, out, _ = run_cli(
            ["attack-eval", "--attack-file", atk, "--m", "2", "--epsilon", "0.13",
             "--axis-samples", "2000", "--seed", "7"], capsys)
        assert code == 0
        data = json.loads(out)
        # the defective pair is tested with prob 1/2 and errs 2/3 of the time
        assert data["passing_mean"] == pytest.approx(2 / 3, abs=0.04)
        assert data["eve_info_upper"] == pytest.approx(np.log2(13))
        assert data["holevo_within_upper"] is True

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(
            ["attack-eval", "--attack-file", "/nonexistent", "--m", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("row", ["0000 40000 1.0 0.0", "012301230 0 1.0 0.0"],
                             ids=["ancilla-index", "label-length"])
    @pytest.mark.parametrize("command", [
        ["attack-eval", "--m", "2"],
        ["simulate", "--n", "4", "--m", "2", "--epsilon", "0.13", "--attack", "coherent"],
    ], ids=["attack-eval", "simulate"])
    def test_oversized_file_rejected_before_allocating(self, tmp_path, capsys, row, command):
        path = tmp_path / "atk.txt"
        path.write_text(row + "\n")
        tracemalloc.start()
        try:
            code, _, err = run_cli([*command, "--attack-file", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "config error" in err
        assert peak < 2**20

    @pytest.mark.parametrize("rows", ["00 0 1.0 0\n01 0 nan 0\n", "00 0 nan 0\n"],
                             ids=["one-nan-row", "only-nan"])
    @pytest.mark.parametrize("command", [
        ["attack-eval", "--m", "1"],
        ["simulate", "--n", "2", "--m", "1", "--attack", "coherent"],
    ], ids=["attack-eval", "simulate"])
    def test_nan_amplitudes_rejected(self, tmp_path, capsys, rows, command):
        path = tmp_path / "atk.txt"
        path.write_text(rows)
        code, _, err = run_cli([*command, "--attack-file", str(path)], capsys)
        assert code == 2 and "config error" in err


class TestEquivalence:
    def test_summary_fields(self, capsys):
        code, out, _ = run_cli(["equivalence", "--fidelity", "0.9", "--omega", "0.3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert sorted(data) == ["consistent", "distance"]
        assert data["consistent"] is True


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that json.dumps writes by default."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def readme_shell_steps():
    """Yield ("file", name, text) and ("run", argv) steps from README sh blocks."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line.strip())
            if heredoc:
                body = "".join(f"{row}\n" for row in iter(lines.__next__, "EOF"))
                yield ("file", heredoc.group(1), body)
            elif line.startswith("qkdlab "):
                yield ("run", shlex.split(line)[1:])


class TestDocumentation:
    def test_readme_commands_run_as_written(self, tmp_path, monkeypatch, capsys):
        import qkdlab.postprocess

        monkeypatch.chdir(tmp_path)
        # simulate reads only key lengths, so its distilled trials never hash
        hashes, amplify = [], qkdlab.postprocess.privacy_amplify
        monkeypatch.setattr("qkdlab.postprocess.privacy_amplify",
                            lambda *args: hashes.append(args) or amplify(*args))
        ran, json_outputs = [], 0
        for step in readme_shell_steps():
            if step[0] == "file":
                Path(step[1]).write_text(step[2], encoding="utf-8")
            else:
                argv = step[1]
                code, out, err = run_cli(argv, capsys)
                assert code == 0, f"{' '.join(argv)}: {err}"
                ran.append(argv[0])
                docs = [out] if out.startswith("{") else []
                if "--summary" in argv:
                    docs.append(Path(argv[argv.index("--summary") + 1]).read_text())
                for doc in docs:
                    strict_json(doc)
                json_outputs += len(docs)
        assert sorted(set(ran)) == ["attack-eval", "bounds", "equivalence", "simulate"]
        assert json_outputs == 4  # bounds, attack-eval and equivalence print; simulate writes
        rows = csv.DictReader(io.StringIO(Path("runs.csv").read_text()))
        assert any(int(r["final_len"]) > 0 for r in rows)
        assert hashes == []
        assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                for name in ("runs.csv", "summary.json")} == {
            "runs.csv": "539f221944d98bf9bbec6402a377ebed3cb939b11a189de8465013feed7cb4c4",
            "summary.json": "53d16399f7557958f4be6d871354e6794a1a9375a72f11c06257fc42dc78edf9",
        }

    def test_cli_import_does_not_load_scipy(self):
        probe = "import sys, qkdlab.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe], env=src_env()).returncode == 0


def _load_bench_module(name):
    """Import a perfbench file by path, under a name of its own."""
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


def _resolve(span):
    """The qkdlab object a tracer span name stands for."""
    methods = {name: f"{layer}.{cls}.{meth}"
               for name, layer, cls, meth in _load_bench_module("tracer").METHODS}
    layer, *attrs = methods.get(span, span).split(".")
    obj = importlib.import_module(f"qkdlab.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class TestBenchmarkBindings:
    """The benchmark patches and counts qkdlab names; they must keep existing."""

    def test_must_cross_names_resolve(self):
        workloads = _load_bench_module("workloads").WORKLOADS
        names = {n for w in workloads.values() for n in w.must_cross}
        run_py = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
        names |= {".".join(m) for m in re.findall(r"from qkdlab\.(\w+) import (\w+)", run_py)}
        assert "postprocess.final_key_length" in names
        for name in sorted(names):
            assert callable(_resolve(name)), name

    def test_traced_methods_exist(self):
        for _span, layer, cls_name, meth in _load_bench_module("tracer").METHODS:
            cls = getattr(importlib.import_module(f"qkdlab.{layer}"), cls_name)
            assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"

    def test_counter_arguments_exist(self):
        for name, count in _load_bench_module("tracer").COUNTERS.items():
            params = inspect.signature(_resolve(name)).parameters
            for arg in re.findall(r'args\["(\w+)"\]', inspect.getsource(count)):
                assert arg in params, f"{name} lost parameter {arg!r}"

    def test_session_measures_through_qstate_measure_pair(self, tmp_path, monkeypatch, capsys):
        """The benchmark traces qstate.measure_pair where protocol looks it up."""
        import qkdlab.protocol
        import qkdlab.qstate

        assert qkdlab.protocol.measure_pair is qkdlab.qstate.measure_pair
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return qkdlab.qstate.measure_pair(*args, **kwargs)

        monkeypatch.setattr("qkdlab.protocol.measure_pair", counting)
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        code, _, _ = run_cli(["simulate", "--n", "4", "--m", "2", "--epsilon", "0.2",
                              "--attack", "coherent", "--attack-file", atk,
                              "--trials", "3"], capsys)
        assert (code, len(calls)) == (0, 4 * 3)

    def test_holevo_value_goes_through_adversary_globals(self, tmp_path, monkeypatch, capsys):
        """The benchmark traces the conditional state and its Holevo bound by
        rebinding every qkdlab module attribute that holds them; a coherent
        session and attack-eval both reach them through such a binding."""
        import qkdlab.adversary

        calls = {"conditional_ancilla_state": 0, "eve_info_bound": 0}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qkdlab" or name.startswith("qkdlab."))]
        for name in calls:
            original = getattr(qkdlab.adversary, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        atk = write_attack_file(tmp_path / "atk.txt", 4)
        for argv in (
            ["simulate", "--n", "4", "--m", "2", "--epsilon", "0.2", "--attack", "coherent",
             "--attack-file", atk, "--trials", "3"],
            ["attack-eval", "--attack-file", atk, "--m", "2", "--axis-samples", "5"],
        ):
            calls.update(dict.fromkeys(calls, 0))
            assert run_cli(argv, capsys)[0] == 0
            assert min(calls.values()) > 0, (argv[0], calls)

    def test_distill_key_is_looked_up_in_cli(self):
        import qkdlab.cli
        from qkdlab.postprocess import distill_key

        assert qkdlab.cli.distill_key is distill_key


# Public names only tests read, each with the reason it stays in src/.
TEST_ONLY_NAMES = {
    "adversary.typicality_split": "kept for the planned check that passing confines "
                                  "an attack to the atypical subspace, at a threshold "
                                  "the check picks",
    "adversary.error_count_distribution": "the exact per-plan error-count law that c05 "
                                          "and the rotation tests read",
}
# public methods and properties read only where the guard cannot tie the read
# to their class (see _tied_reads), and where that is
UNTIED_METHODS = {
    "postprocess.DistillationResult.keys_equal": "perfbench's checker and tracer read it on "
                                                 "results that carry no annotation",
    "protocol.Transcript.accepted": "cli.simulate_trial reads it on the transcript of the "
                                    "session function it picked, perfbench on a traced result",
}
# dataclass fields that nothing in src/ or perfbench/ reads, and why they stay
TEST_ONLY_FIELDS = {
    "protocol.Transcript.eve_bits": "the bits an intercept-resend Eve holds, which the "
                                    "tests check against Bob's",
}


def _source_trees():
    """The parsed modules of src/qkdlab and perfbench, by path."""
    files = sorted((ROOT / "src" / "qkdlab").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _names_used(node, docstrings):
    """Every identifier ``node`` names: in code, imports and string constants
    (the benchmark names what it traces in strings), but not in docstrings."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            used.update(re.findall(r"\w+", n.value))
    return used


def _own_nodes(scope):
    """``scope`` and the nodes under it, except inside nested function definitions."""
    todo = [scope]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.FunctionDef))


def _tied_reads(trees, docstrings):
    """The (class, name) pairs read as an attribute where the read can be tied
    to a class of src/qkdlab: on ``self`` or ``cls`` inside that class, as
    ``C.name`` in code or in a string (the benchmark names what it traces in
    strings), or on a name whose annotation, or the annotated return or
    constructor of the call that bound it, names the class.  A method's reads
    of its own name inside its body do not count."""
    classes = {c.name for path, tree in trees.items() if path.parent.name == "qkdlab"
               for c in tree.body if isinstance(c, ast.ClassDef)}
    returns = {f.name: f.returns for tree in trees.values() for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.returns is not None}
    owners = {id(f): c.name for tree in trees.values() for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) for f in c.body if isinstance(f, ast.FunctionDef)}

    def named(ann):
        return set(re.findall(r"\w+", ast.unparse(ann))) & classes if ann else set()

    def element(ann, i):  # item i of a tuple[...] annotation
        if isinstance(ann, ast.Subscript) and isinstance(ann.slice, ast.Tuple) \
                and ast.unparse(ann.value) == "tuple" and i < len(ann.slice.elts):
            return ann.slice.elts[i]
        return None

    reads = set()
    for tree in trees.values():
        for scope in [tree] + [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]:
            env = collections.defaultdict(set)
            owner = owners.get(id(scope))
            if scope is not tree:
                args = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
                for a in args:
                    env[a.arg] |= named(a.annotation)
                if owner and args and args[0].arg in ("self", "cls"):
                    env[args[0].arg].add(owner)
            nodes = list(_own_nodes(scope))
            for n in nodes:
                if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                    env[n.target.id] |= named(n.annotation)
                elif isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
                    callee = ast.unparse(n.value.func).rsplit(".", 1)[-1]
                    ann = n.value.func if callee in classes else returns.get(callee)
                    for t in n.targets:
                        pairs = enumerate(t.elts) if isinstance(t, ast.Tuple) else [(None, t)]
                        for i, e in pairs:
                            if isinstance(e, ast.Name):
                                env[e.id] |= named(ann if i is None else element(ann, i))
            found = set()
            for n in nodes:
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    if isinstance(n.value, ast.Name):  # x.name, or C.name
                        tied = env.get(n.value.id, {n.value.id} & classes)
                    else:  # module.C.name
                        tied = {getattr(n.value, "attr", None)} & classes
                    found.update((c, n.attr) for c in tied)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                        and id(n) not in docstrings:
                    for dotted in re.findall(r"\w+(?:\.\w+)+", n.value):
                        parts = dotted.split(".")
                        found.update(zip(parts, parts[1:]))
            reads |= found - {(owner, getattr(scope, "name", None))}
    return reads


class TestEveryNameIsUsed:
    def test_public_definitions_have_a_caller(self):
        """Each public function, class and method in src/qkdlab is named in
        src/ or perfbench/*.py outside its own definition, a method or
        property by a read tied to its class (see :func:`_tied_reads`)."""
        trees = _source_trees()
        docstrings = {id(n.body[0].value) for tree in trees.values() for n in ast.walk(tree)
                      if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and n.body and isinstance(n.body[0], ast.Expr)
                      and isinstance(n.body[0].value, ast.Constant)}
        used = sum((_names_used(tree, docstrings) for tree in trees.values()),
                   collections.Counter())
        tied = _tied_reads(trees, docstrings)
        unused = set()
        for path, tree in trees.items():
            if path.parent.name != "qkdlab":
                continue
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                defs = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    defs += [(f"{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef)]
                for qualname, d in defs:
                    name = d.name
                    if name.startswith("_"):
                        continue
                    if d is not node:  # a method or property
                        if (node.name, name) not in tied:
                            unused.add(f"{path.stem}.{qualname}")
                    elif used[name] - _names_used(d, docstrings)[name] <= 0:
                        unused.add(f"{path.stem}.{qualname}")
        assert unused == set(TEST_ONLY_NAMES) | set(UNTIED_METHODS)

    def test_dataclass_fields_are_read(self):
        """Each field of a dataclass in src/qkdlab is read as an attribute in
        src/ or perfbench/*.py, or its class serializes itself with ``asdict``."""
        trees = _source_trees()
        read = {n.attr for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        unread = set()
        for path, tree in trees.items():
            for node in tree.body if path.parent.name == "qkdlab" else ():
                if not (isinstance(node, ast.ClassDef) and any(
                        ast.unparse(d).startswith("dataclass") for d in node.decorator_list)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == "asdict" for n in ast.walk(node)):
                    continue
                unread.update(f"{path.stem}.{node.name}.{stmt.target.id}" for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read)
        assert unread == set(TEST_ONLY_FIELDS)


# underscore names src/qkdlab reads on objects it does not own, and why
FOREIGN_PRIVATE_NAMES = {
    "_actions": "argparse has no public way to list a subcommand's flags, and "
                "_apply_scenario derives the scenario fields from them",
}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


class TestNoPrivateAccess:
    def test_private_names_stay_with_their_owner(self):
        """In src/qkdlab an attribute with one leading underscore is used only
        on ``self`` or ``cls``, and no import names a ``_name``."""
        found = set()
        for path in sorted((ROOT / "src" / "qkdlab").glob("*.py")):
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(n, ast.Attribute) and _is_private(n.attr) and not (
                        isinstance(n.value, ast.Name) and n.value.id in ("self", "cls")):
                    found.add((n.attr, f"{path.name}: {ast.unparse(n)}"))
                elif isinstance(n, (ast.Import, ast.ImportFrom)):
                    names = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
                    found.update((part, f"{path.name}: import {name}") for name in names
                                 for part in name.split(".") if _is_private(part))
        assert sorted(where for name, where in found if name not in FOREIGN_PRIVATE_NAMES) == []
        assert {name for name, _ in found} == set(FOREIGN_PRIVATE_NAMES)
