"""End-to-end checks of the primfield command line interface."""

import argparse
import dataclasses
import filecmp
import importlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import primfield
from primfield import PolySet, read_set, write_set
from primfield import cli
from primfield.counting import CountTable
from primfield.cli import main
from primfield.errors import VerificationError
from primfield.sieve import irreducible_slice

from oracles import mertens_exact


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_poly_file(path, q, horizon, indices):
    ps = PolySet(q, horizon, tuple(indices))
    with open(path, "w") as fh:
        write_set(ps, fh)
    return path


# ----------------------------------------------------------------------
# Global plumbing
# ----------------------------------------------------------------------

def test_version_and_missing_command(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0 and "primfield" in out
    code, _, err = run([], capsys)
    assert code == 1 and "error" in err


def test_usage_errors_exit_one(capsys):
    cases = [
        ["irr", "count"],                            # missing --max-n
        ["frobnicate"],                              # unknown command
        ["verify", "norton", "--x", "abc"],          # not a rational
        ["irr", "count", "--max-n", "0"],            # domain error
        ["count", "table", "--max-n", "5", "--exclude", "oops"],
        ["irr", "count", "--max-n", "3", "--precision-bits", "8"],
        ["irr", "count", "--max-n", "3", "--budget-bytes", "0"],
        ["irr", "count", "--max-n", "3", "--budget-seconds", "-1"],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert "error" in err or "budget" in err, argv
        if "--budget-bytes" in argv:
            assert err == "primfield: error: --budget-bytes must be positive\n"


@pytest.mark.parametrize("argv,message", [
    (["count", "table", "--max-n", "4", "--exclude", "2:-1"],
     "bad --exclude entry '2:-1': count is negative"),
    # a negative part may not cancel a positive one for the same degree
    (["count", "table", "--max-n", "4", "--exclude", "2:-1,2:1"],
     "bad --exclude entry '2:-1': count is negative"),
    (["count", "table", "--max-n", "4", "--exclude", "1:1,2:-1"],
     "bad --exclude entry '2:-1': count is negative"),
    (["irr", "brackets", "--k-lo", "10", "--k-hi", "100", "--slack", "nan"],
     "slack must be finite (got nan)"),
    (["irr", "brackets", "--k-lo", "10", "--k-hi", "100", "--slack", "inf"],
     "slack must be finite (got inf)"),
], ids=["exclude-negative", "exclude-cancelled", "exclude-second-part",
        "slack-nan", "slack-inf"])
def test_an_out_of_domain_value_is_a_usage_error(capsys, argv, message):
    assert run(argv, capsys) == (1, "", f"primfield: error: {message}\n")


def test_sieve_budget_exit_one(capsys):
    code, out, err = run(["irr", "kth", "--q", "2", "--k", "1000000",
                          "--budget-bytes", "20000000"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("primfield: budget exceeded: memory budget")


@pytest.mark.parametrize("command", [
    ["set", "check"], ["set", "erdos-sum"], ["set", "density"],
    ["verify", "erdos-density"],
])
def test_set_file_commands_check_budget_after_read(capsys, tmp_path, command):
    path = write_poly_file(tmp_path / "big.txt", 2, 14, range(2**14, 2**15))
    code, out, err = run([*command, "--in", str(path),
                          "--budget-seconds", "1e-9"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("primfield: budget exceeded: ")
    assert ("soft time budget of 1e-09s exceeded; partial results dropped"
            " as incomplete") in err


def test_internal_error_is_one_line(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_irr_count", boom)
    code, out, err = run(["irr", "count", "--max-n", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "primfield: internal error: RuntimeError: unexpected state\n"


def test_time_budget_exit_one(capsys):
    code, _, err = run(["construct", "besicovitch", "--q", "2",
                        "--eps", "1/4", "--horizon", "10",
                        "--budget-seconds", "1e-9"], capsys)
    assert code == 1 and "budget" in err


# arguments that make each leaf subcommand succeed without a deadline;
# SET stands for a small primitive set file
LEAF_ARGS = {
    ("irr", "count"): ["--max-n", "5"],
    ("irr", "kth"): ["--k", "10"],
    ("irr", "brackets"): ["--k-lo", "10", "--k-hi", "100"],
    ("count", "table"): ["--max-n", "10"],
    ("verify", "hr"): ["--max-n", "10"],
    ("verify", "recurrence"): ["--max-n", "10"],
    ("verify", "norton"): [],
    ("verify", "erdos-density"): ["--in", "SET"],
    ("eval", "g"): [],
    ("eval", "mertens"): ["--max-n", "5"],
    ("eval", "erdos-irr"): [],
    ("set", "check"): ["--in", "SET"],
    ("set", "erdos-sum"): ["--in", "SET"],
    ("set", "density"): ["--in", "SET"],
    ("set", "random"): ["--horizon", "5", "--seed", "1"],
    ("construct", "besicovitch"): ["--eps", "1/4", "--horizon", "8"],
    ("construct", "mp"): ["--L", "log:eps=0.1", "--horizon", "12"],
}


def test_leaf_args_cover_every_leaf_subcommand():
    def subparsers(parser):
        return [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    leaves = set()
    for group in subparsers(cli.build_parser())[0].choices.values():
        for sub in subparsers(group):
            leaves |= {p.get_default("command") for p in sub.choices.values()}
    assert leaves == set(LEAF_ARGS)


@pytest.mark.parametrize("command", sorted(LEAF_ARGS),
                         ids="-".join)
def test_every_leaf_subcommand_stops_at_the_deadline(capsys, tmp_path,
                                                      command):
    path = str(write_poly_file(tmp_path / "s.txt", 2, 6, [2, 3, 7, 11]))
    argv = [*command, *(path if a == "SET" else a for a in LEAF_ARGS[command]),
            "--budget-seconds", "1e-9"]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("primfield: budget exceeded: ")


def test_deadline_stops_a_running_handler(capsys, monkeypatch):
    """The deadline interrupts a stage that never yields, then restores the
    previous SIGALRM handler and leaves no timer armed."""
    def spin(args):
        start = time.monotonic()
        while time.monotonic() - start < 5:
            pass
        return 0

    monkeypatch.setattr(cli, "cmd_irr_count", spin)
    before = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    code, out, err = run(["irr", "count", "--max-n", "3",
                          "--budget-seconds", "0.2"], capsys)
    assert code == 1 and out == ""
    assert time.monotonic() - start < 2
    assert err.startswith(
        "primfield: budget exceeded: soft time budget of 0.2s exceeded;")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_deadline_is_never_ignored(capsys):
    """A deadline the interval timer cannot hold, or one asked for off the
    main thread, is a usage error rather than a run without a deadline."""
    for seconds in ("nan", "inf", "1e300"):
        code, out, err = run(["irr", "count", "--max-n", "3",
                              "--budget-seconds", seconds], capsys)
        assert code == 1 and out == "", seconds
        assert err.startswith("primfield: error: --budget-seconds "), seconds
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(
        ["irr", "count", "--max-n", "3", "--budget-seconds", "5"])))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and codes == [1]
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("primfield: error: --budget-seconds needs a POSIX "
                       "interval timer on the main thread\n")


def address_space_limit():
    return resource.getrlimit(resource.RLIMIT_AS)


def spin(args):
    start = time.monotonic()
    while time.monotonic() - start < 5:
        pass
    return 0


@pytest.mark.parametrize("command", sorted(LEAF_ARGS), ids="-".join)
def test_every_leaf_subcommand_runs_unchanged_under_a_wide_ceiling(
        capsys, tmp_path, command):
    path = str(write_poly_file(tmp_path / "s.txt", 2, 6, [2, 3, 7, 11]))
    argv = [*command, *(path if a == "SET" else a for a in LEAF_ARGS[command])]
    before = address_space_limit()
    plain = run(argv, capsys)
    assert run([*argv, "--budget-bytes", "1000000000"], capsys) == plain
    assert address_space_limit() == before


@pytest.mark.parametrize("argv,seconds", [
    pytest.param(["irr", "kth", "--q", "2", "--k", "1000000",
                  "--budget-bytes", "20000000"], 2, id="irr-kth"),
    pytest.param(["construct", "besicovitch", "--q", "2", "--eps", "1/4",
                  "--horizon", "24", "--budget-bytes", "100000000"], 2,
                 id="construct-besicovitch"),
    # the table fits the heap mapped at startup; its 1.5 MB of text
    # does not, so this run stops at output, no sooner than uncapped
    pytest.param(["count", "table", "--q", "2", "--max-n", "400",
                  "--budget-bytes", "1000000"], None, id="count-table"),
])
def test_the_ceiling_stops_a_stage_that_allocates_past_it(argv, seconds):
    """Each command runs in a fresh process, as from the shell: memory a
    long-lived process has freed but kept mapped is reused without
    growing the address space, so a small ceiling binds only in a
    process of its own.  Uncapped, the first two succeed at a peak RSS
    of about 110 MB and 180 MB: the degree-24 slice alone is 2^24 int64
    members."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(primfield.__file__).parents[1]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "primfield.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    if seconds is not None:
        assert time.monotonic() - start < seconds
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        f"primfield: budget exceeded: memory budget of {argv[-1]} bytes "
        "exceeded; partial results dropped as incomplete\n")


def fresh_process(*args):
    """Run `python *args` with this package on the path, in a new
    interpreter that has loaded nothing yet."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(primfield.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_irr_kth_reads_one_degree_slice_under_a_64_mb_ceiling():
    """The k-th irreducible of degree 22 comes from a 4 MB boolean slice
    marked by the irreducibles of degree <= 11, not from a least-factor
    table of 2 * 2^22 entries per array, which alone passes the ceiling."""
    done = fresh_process("-m", "primfield.cli", "irr", "kth", "--q", "2",
                         "--k", "246094", "--budget-bytes", "64000000")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].split(",")[:3] == [
        "246094", "22", "4968059"]


def test_a_degree_18_slice_is_checked_under_a_20_mb_ceiling(tmp_path):
    """The 262,144 members of a degree-18 slice stay one 2 MB int64 array
    from the file to the certificate.  As a tuple of Python ints, about
    36 B a member, with list copies made while the file is read, the
    same two commands need about 27 MB past their start."""
    path = write_poly_file(tmp_path / "bes.txt", 2, 18, range(2**18, 2**19))
    for command in (["set", "check"], ["verify", "erdos-density"]):
        done = fresh_process("-m", "primfield.cli", *command, "--in",
                             str(path), "--budget-bytes", "20000000")
        assert done.returncode == 0, (command, done.stderr)
        report = json.loads(done.stdout)
        assert report["primitive"] is True and report["size"] == 2**18


@pytest.mark.parametrize("command", sorted(LEAF_ARGS), ids="-".join)
def test_every_leaf_subcommand_runs_unchanged_under_small_budgets(
        capsys, tmp_path, command):
    """In a fresh process the subcommand's code, numpy and mpmath are
    loaded before either budget is armed: 8 MB of address space is less
    than numpy alone maps, so a budget that metered loading would stop
    the run."""
    path = str(write_poly_file(tmp_path / "s.txt", 2, 6, [2, 3, 7, 11]))
    argv = [*command, *(path if a == "SET" else a for a in LEAF_ARGS[command])]
    plain = run(argv, capsys)
    done = fresh_process("-m", "primfield.cli", *argv,
                         "--budget-bytes", "8000000", "--budget-seconds", "60")
    assert (done.returncode, done.stdout, done.stderr) == plain


# What each command leaves unloaded: the exact counts run on the standard
# library alone, and the certified brackets need mpmath but not numpy.
UNLOADED = {
    ("--version",): {"numpy", "mpmath"},
    ("count", "table", "--max-n", "10"): {"numpy", "mpmath"},
    ("verify", "recurrence", "--max-n", "10"): {"numpy", "mpmath"},
    ("eval", "erdos-irr"): {"numpy", "mpmath"},
    ("verify", "hr", "--max-n", "10"): {"numpy"},
    ("eval", "g"): {"numpy"},
    ("eval", "mertens", "--max-n", "5"): {"numpy"},
    ("verify", "norton"): {"numpy"},
    ("construct", "besicovitch", "--eps", "1/4", "--horizon", "6"):
        {"mpmath"},
}


@pytest.mark.parametrize("argv", sorted(UNLOADED), ids="-".join)
def test_a_command_loads_only_the_code_it_runs(argv):
    """sys.modules of a fresh process after main returns: numpy and
    mpmath are loaded exactly when the command's code needs them."""
    probe = ("import json, sys\n"
             "from primfield.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(json.dumps([code, sorted({'numpy', 'mpmath'}"
             " & set(sys.modules))]))\n")
    done = fresh_process("-c", probe, *argv)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    assert set(loaded) == {"numpy", "mpmath"} - UNLOADED[argv]


def test_the_limit_is_restored_on_every_path(capsys):
    before = address_space_limit()
    ceiling = ["--budget-bytes", "20000000"]
    code, out, _ = run(["irr", "kth", "--k", "10", *ceiling], capsys)
    assert code == 0 and out
    assert address_space_limit() == before
    code, _, err = run(["irr", "kth", "--k", "1000000", *ceiling], capsys)
    assert code == 1 and "memory budget" in err
    assert address_space_limit() == before
    # the ceiling is armed before the deadline is refused
    code, _, err = run(["irr", "kth", "--k", "10", *ceiling,
                        "--budget-seconds", "nan"], capsys)
    assert code == 1 and err.startswith("primfield: error: --budget-seconds")
    assert address_space_limit() == before


def test_a_lower_soft_limit_is_never_raised(capsys, monkeypatch):
    seen = []

    def read_limit(args):
        seen.append(address_space_limit())
        return 0

    monkeypatch.setattr(cli, "cmd_irr_count", read_limit)
    before = address_space_limit()
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    lower = (mapped + 2**32, before[1])
    resource.setrlimit(resource.RLIMIT_AS, lower)
    try:
        for budget in (2**40, 2**24):
            code, _, _ = run(["irr", "count", "--max-n", "3",
                              "--budget-bytes", str(budget)], capsys)
            assert code == 0
            assert address_space_limit() == lower
    finally:
        resource.setrlimit(resource.RLIMIT_AS, before)
    assert seen[0] == lower
    assert mapped < seen[1][0] < lower[0] and seen[1][1] == lower[1]


def test_ceiling_and_deadline_work_together(capsys, monkeypatch):
    limit, handler = address_space_limit(), signal.getsignal(signal.SIGALRM)
    both = ["--budget-bytes", "20000000", "--budget-seconds", "30"]
    code, out, err = run(["irr", "kth", "--k", "1000000", *both], capsys)
    assert code == 1 and out == ""
    assert err.startswith("primfield: budget exceeded: memory budget of "
                          "20000000 bytes exceeded;")
    monkeypatch.setattr(cli, "cmd_irr_count", spin)
    start = time.monotonic()
    code, out, err = run(["irr", "count", "--max-n", "3",
                          "--budget-bytes", "20000000",
                          "--budget-seconds", "0.2"], capsys)
    assert code == 1 and out == ""
    assert time.monotonic() - start < 2
    assert err.startswith(
        "primfield: budget exceeded: soft time budget of 0.2s exceeded;")
    assert address_space_limit() == limit
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_sieve_past_numpy_indexing_is_a_budget_error(capsys):
    code, out, err = run(["irr", "kth", "--q", "2", "--k", str(10**30)],
                         capsys)
    assert code == 1 and out == ""
    assert err.startswith("primfield: budget exceeded: sieve for q=2, "
                          "horizon=106 needs ")
    assert err.endswith(" bytes, more than numpy can index\n")


def test_an_unarmed_memory_error_is_one_line(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(cli, "cmd_irr_count", exhaust)
    code, out, err = run(["irr", "count", "--max-n", "3"], capsys)
    assert code == 1 and out == ""
    assert err == ("primfield: budget exceeded: out of memory: "
                   "Unable to allocate 16.0 GiB\n")


def test_manifest_records_both_budgets(capsys, tmp_path):
    man = tmp_path / "man.json"
    code, _, _ = run(["irr", "count", "--max-n", "3", "--manifest", str(man),
                      "--budget-bytes", "1000000000"], capsys)
    assert code == 0
    manifest = json.loads(man.read_text())
    assert manifest["budgets"] == {"bytes": 1000000000, "seconds": None}
    stale = tmp_path / "stale.json"
    manifest["argv"] += ["--budget-sieve-entries", "100"]
    stale.write_text(json.dumps(manifest))
    code, out, err = run(["replay", "--manifest", str(stale)], capsys)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --budget-sieve-entries 100" in err



def test_large_field_orders_answer_in_seconds(tmp_path):
    """Primality of the field order is no longer trial division: a header
    naming 2^61 - 1 is read at once, and orders past the exact range
    of the test exit 1.  Each run is a child process with a timeout, so
    a hang fails the test instead of stalling the suite."""
    path = tmp_path / "big.txt"
    path.write_text("q=2305843009213693951;horizon=1\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(primfield.__file__).parents[1]))

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "primfield.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=30)

    done = cli_run("set", "check", "--in", str(path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "counterexample": None, "horizon": 1, "primitive": True,
        "q": 2305843009213693951, "size": 0}
    done = cli_run("irr", "count", "--q", "1000000000000000003", "--max-n", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1] == \
        "1,1000000000000000003,1000000000000000003"
    done = cli_run("irr", "count", "--q", "318665857834031151167461",
                   "--max-n", "2")
    assert done.returncode == 1
    assert "past exact primality testing" in done.stderr


# ----------------------------------------------------------------------
# Counting subcommands
# ----------------------------------------------------------------------

def test_irr_count_csv_and_json(capsys):
    code, out, _ = run(["irr", "count", "--q", "2", "--max-n", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,irreducible,cumulative"
    assert lines[1] == "1,2,2" and lines[2] == "2,1,3"
    code, out, _ = run(["irr", "count", "--q", "2", "--max-n", "6",
                        "--format", "json"], capsys)
    payload = json.loads(out)
    assert [r["irreducible"] for r in payload["rows"]] == [2, 1, 2, 3, 6, 9]
    assert payload["rows"][-1]["cumulative"] == 23


def test_irr_kth_golden(capsys):
    code, out, _ = run(["irr", "kth", "--q", "2", "--k", "5",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3 and payload["index"] == 13


def test_irr_brackets_cli(capsys):
    code, out, _ = run(["irr", "brackets", "--q", "2", "--k-lo", "10",
                        "--k-hi", "1000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["checked"] == 991
    code, _, err = run(["irr", "brackets", "--q", "2", "--k-lo", "1",
                        "--k-hi", "10"], capsys)
    assert code == 1 and "error" in err


def test_irr_brackets_verdicts_past_float64(capsys):
    # degree 59, above L(k) = 58.90: float64 took degree 58
    k = str(primfield.pi_cumulative(2, 58) + 1)
    code, out, err = run(["irr", "brackets", "--q", "2", "--k-lo", k,
                          "--k-hi", k, "--slack", "0"], capsys)
    assert code == 2 and "degree bracket violated" in err
    payload = json.loads(out)
    assert payload["violation_count"] == 1 and not payload["ok"]
    code, out, err = run(["irr", "brackets", "--q", "2",
                          "--k-lo", "9223372036854775807",
                          "--k-hi", "9223372036854775809"], capsys)
    assert code in (0, 2) and "internal error" not in err
    assert json.loads(out)["checked"] == 3


@pytest.mark.parametrize("k", ["16", "256", "65536"])
def test_irr_brackets_exact_ties_hold_at_slack_zero(capsys, k):
    code, out, _ = run(["irr", "brackets", "--q", "2", "--k-lo", k,
                        "--k-hi", k, "--slack", "0"], capsys)
    assert code == 0 and json.loads(out)["ok"]


def test_count_table_csv_golden(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(["count", "table", "--q", "2", "--max-n", "6",
                        "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("n,k,count\n")
    assert "\n2,2,1\n" in text
    for argv, text in (
        ([], "n,k,count\n0,0,1\n1,0,0\n1,1,2\n2,0,0\n2,1,1\n2,2,1\n"
             "3,0,0\n3,1,2\n3,2,2\n3,3,0\n4,0,0\n4,1,3\n4,2,4\n4,3,1\n"
             "4,4,0\n"),
        (["--exclude", "1:1"],
         "n,k,count\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n2,2,0\n"
         "3,0,0\n3,1,2\n3,2,1\n3,3,0\n4,0,0\n4,1,3\n4,2,2\n4,3,0\n"
         "4,4,0\n"),
    ):
        assert run(["count", "table", "--q", "2", "--max-n", "4", *argv],
                   capsys) == (0, text, "")
    code, out, _ = run(["count", "table", "--q", "2", "--max-n", "6",
                        "--exclude", "1:1", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["excluded_degrees"] == [[1, 1]]
    assert payload["rows"][1] == [0, 1]


# ----------------------------------------------------------------------
# Verification subcommands
# ----------------------------------------------------------------------

def test_verify_hr_and_recurrence(capsys):
    code, out, _ = run(["verify", "hr", "--q", "2", "--max-n", "30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["cells"] == 465
    code, out, _ = run(["verify", "recurrence", "--q", "3",
                        "--max-n", "20"], capsys)
    assert code == 0 and json.loads(out)["ok"]


def test_verify_norton_defaults(capsys):
    code, out, _ = run(["verify", "norton"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["checks"]) == 3
    assert payload["alpha"] == "1/2" and payload["beta"] == "3/2"


def test_verify_erdos_density_cli(capsys, tmp_path):
    good = write_poly_file(tmp_path / "good.txt", 2, 3, [2, 3, 7])
    code, out, _ = run(["verify", "erdos-density", "--in", str(good)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["primitive"] and payload["ok"]
    bad = write_poly_file(tmp_path / "bad.txt", 2, 2, [2, 6])
    code, out, err = run(["verify", "erdos-density", "--in", str(bad)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["primitive"] is False
    assert payload["counterexample"]["divisor"] == "q=2;0,1"
    assert "not primitive" in err
    # a degree-13 irreducible: the exact left side has 4882 digits
    p = int(irreducible_slice(2, 13)[0])
    big = write_poly_file(tmp_path / "big.txt", 2, 13, [p])
    code, out, err = run(["verify", "erdos-density", "--in", str(big)], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] and payload["lhs"].endswith("... (len 4882)")


# A failed verdict: its report is written in full, then main prints the
# one-line complaint and exits 2.  NP is the two-member set {x, x^2}.
NP_SET = "q=2;horizon=2\nq=2;0,1\nq=2;0,0,1\n"
NP_PAIR = {"divisor": "q=2;0,1", "multiple": "q=2;0,0,1"}
STUB = {"ok": False, "stub": True}


def dump(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class FailedReport:
    """A report as a checking library call returns it when the check fails."""

    ok = False
    x = Fraction(7)

    def to_json(self):
        return dict(STUB)


def stub(module, name, value):
    def install(monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(importlib.import_module(f"primfield.{module}"),
                            name, lambda *args, **kwargs: value)
    return install


def raise_from_library(monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise VerificationError("bound fails at n=3, k=2")
    monkeypatch.setattr(primfield.counting, "verify_hr_bound", fail)


MP_ARGV = ["construct", "mp", "--L", "log:eps=0.1", "--horizon", "12"]


def uncross_mp(monkeypatch, capsys, tmp_path):
    """Run mp once as it is, then make its members fail the cross-check:
    the failed report is the plain one with cross_checked false."""
    from primfield import constructions
    plain = tmp_path / "plain.json"
    assert run([*MP_ARGV, "--report", str(plain)], capsys)[0] == 0
    assert '"cross_checked": true' in plain.read_text()
    real = constructions.mp_construct
    monkeypatch.setattr(constructions, "mp_construct", lambda *a, **kw:
                        dataclasses.replace(real(*a, **kw),
                                            cross_checked=False))


# site: (break it, argv, stderr, {"stdout" or "OUT": bytes}); NP and GOOD
# are set files and OUT the path given to --out or --report
VERDICT_SITES = {
    "irr-brackets": (
        stub("irreducibles", "check_degree_brackets", FailedReport()),
        ["irr", "brackets", "--k-lo", "10", "--k-hi", "100"],
        "degree bracket violated; see report", {"stdout": dump(STUB)}),
    "verify-hr": (
        stub("counting", "verify_hr_bound", FailedReport()),
        ["verify", "hr", "--max-n", "5", "--out", "OUT"],
        "upper bound violated; see report", {"stdout": "", "OUT": dump(STUB)}),
    "verify-recurrence": (
        stub("counting", "verify_recurrence_bound", FailedReport()),
        ["verify", "recurrence", "--max-n", "5"],
        "recurrence bound violated; see report", {"stdout": dump(STUB)}),
    "verify-norton": (
        stub("counting", "norton_check", FailedReport()),
        ["verify", "norton", "--x", "7"],
        "tail bound fails at x=7; see report",
        {"stdout": dump({"alpha": "1/2", "beta": "3/2", "checks": [STUB],
                         "ok": False})}),
    "verify-erdos-density-not-primitive": (
        None, ["verify", "erdos-density", "--in", "NP"],
        "input set is not primitive: q=2;0,1 divides q=2;0,0,1",
        {"stdout": dump({"counterexample": NP_PAIR, "primitive": False})}),
    "verify-erdos-density-bound": (
        stub("primitive", "verify_erdos_density_inequality", FailedReport()),
        ["verify", "erdos-density", "--in", "GOOD"],
        "weighted density bound violated; see report",
        {"stdout": dump({**STUB, "primitive": True})}),
    "set-check": (
        None, ["set", "check", "--in", "NP", "--out", "OUT"],
        "not primitive: q=2;0,1 divides q=2;0,0,1",
        {"stdout": "", "OUT": dump({"counterexample": NP_PAIR, "horizon": 2,
                                    "primitive": False, "q": 2, "size": 2})}),
    "construct-besicovitch": (
        stub("constructions", "besicovitch_construct",
             SimpleNamespace(ok=True, members=PolySet(2, 2, (2, 4)),
                             to_json=lambda: {"levels": [2]})),
        ["construct", "besicovitch", "--eps", "1/4", "--horizon", "2",
         "--out", "OUT"],
        "construction did not certify; see report",
        {"stdout": dump({"certified_primitive": False,
                         "counterexample": NP_PAIR, "levels": [2]}),
         "OUT": NP_SET}),
    "construct-mp": (
        uncross_mp, [*MP_ARGV, "--report", "OUT"],
        "construction did not certify; see report",
        {"stdout": "mp construction: 333 members to degree 12, counts to "
                   "degree 12, certified=True\n",
         "OUT": lambda tmp_path: (tmp_path / "plain.json").read_text()
         .replace('"cross_checked": true', '"cross_checked": false')}),
    "library-raise": (
        raise_from_library, ["verify", "hr", "--max-n", "5"],
        "bound fails at n=3, k=2", {"stdout": ""}),
}


@pytest.mark.parametrize("site", sorted(VERDICT_SITES))
def test_a_failed_verdict_writes_its_report_then_exits_two(
        capsys, tmp_path, monkeypatch, site):
    setup, argv, complaint, want = VERDICT_SITES[site]
    paths = {"NP": write_poly_file(tmp_path / "np.txt", 2, 2, [2, 4]),
             "GOOD": write_poly_file(tmp_path / "good.txt", 2, 3, [2, 3, 7]),
             "OUT": tmp_path / "out"}
    if setup is not None:
        setup(monkeypatch, capsys, tmp_path)
    code, out, err = run([str(paths.get(a, a)) for a in argv], capsys)
    assert (code, err) == (2, complaint + "\n")
    assert out == want["stdout"]
    if "OUT" in want:
        text = want["OUT"]
        if callable(text):
            text = text(tmp_path)
        assert paths["OUT"].read_text() == text


# ----------------------------------------------------------------------
# Evaluation subcommands
# ----------------------------------------------------------------------

def test_eval_g_cli(capsys):
    code, out, _ = run(["eval", "g", "--q", "2", "--z", "0", "--z", "1/2",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 2
    at0 = payload["values"][0]
    assert Fraction(at0["lo"]) <= 1 <= Fraction(at0["hi"])


def test_eval_mertens_cli(capsys):
    code, out, _ = run(["eval", "mertens", "--q", "2", "--max-n", "5",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 5
    for v in payload["values"]:
        assert Fraction(v["normalized"]["lo"]) <= Fraction(v["normalized"]["hi"])


def test_eval_mertens_past_printable_exact(capsys):
    """Past n=12 the exact rational has over 4300 digits and is omitted."""
    code, out, _ = run(["eval", "mertens", "--q", "2", "--max-n", "40"],
                       capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,normalized_lo,normalized_hi" and len(rows) == 41
    code, out, _ = run(["eval", "mertens", "--q", "2", "--max-n", "40",
                        "--format", "json"], capsys)
    assert code == 0
    values = json.loads(out)["values"]
    assert [v["n"] for v in values] == list(range(1, 41))
    for v in values:
        if v["n"] <= 12:
            assert Fraction(v["exact"]) == mertens_exact(2, v["n"])
        else:
            assert "exact" not in v


def test_eval_mertens_and_g_in_large_fields(capsys):
    """A field order near 10^18 keeps 1e-36-wide brackets; the terms used
    to be rounded before their scaling by pi'(d) ~ q^d/d, and both
    commands exited 1 with "precision exhausted"."""
    q = "1000000000000000003"
    for argv in (["eval", "mertens", "--q", q, "--max-n", "3"],
                 ["eval", "g", "--q", q, "--z", "1", "--z", "2"]):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        for row in out.splitlines()[1:]:
            _, lo, hi = row.split(",")
            assert 0 <= Fraction(hi) - Fraction(lo) <= Fraction(1, 10**35)


def test_eval_erdos_irr_cli(capsys):
    code, out, _ = run(["eval", "erdos-irr", "--q", "2", "--eps", "1/100",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    lo, hi = Fraction(payload["lo"]), Fraction(payload["hi"])
    assert lo < hi and hi - lo < Fraction(1, 100)
    assert payload["width_float"] < 0.01


# ----------------------------------------------------------------------
# Set subcommands
# ----------------------------------------------------------------------

def test_set_check_and_witness(capsys, tmp_path):
    good = write_poly_file(tmp_path / "good.txt", 2, 1, [2, 3])
    code, out, _ = run(["set", "check", "--in", str(good)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["primitive"] and payload["counterexample"] is None
    bad = write_poly_file(tmp_path / "bad.txt", 2, 2, [2, 6])
    code, out, err = run(["set", "check", "--in", str(bad)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["counterexample"] == {"divisor": "q=2;0,1",
                                         "multiple": "q=2;0,1,1"}
    assert "not primitive" in err


def test_set_erdos_sum_cli(capsys, tmp_path):
    path = write_poly_file(tmp_path / "s.txt", 2, 1, [2, 3])
    code, out, _ = run(["set", "erdos-sum", "--in", str(path),
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["erdos_sum"]["exact"] == "1/1"


def test_set_density_cli(capsys, tmp_path):
    path = write_poly_file(tmp_path / "s.txt", 2, 1, [2, 3])
    code, out, _ = run(["set", "density", "--in", str(path),
                        "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["n"] == 1 and rows[0]["ratio"] == "2/3"


def test_set_check_unreadable_file(capsys, tmp_path):
    code, _, err = run(["set", "check", "--in",
                        str(tmp_path / "missing.txt")], capsys)
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize("command", [("set", "check"),
                                     ("verify", "erdos-density")])
def test_a_set_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path,
                                                      command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"q=2;horizon=4\nq=2;0,1\n\xff\n")
    code, out, err = run([*command, "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"primfield: error: cannot read {str(path)!r}: not UTF-8"
                   " text (invalid start byte 0xff)\n")


def test_set_random_seed_contract(capsys, tmp_path):
    code, _, err = run(["set", "random", "--q", "2", "--horizon", "8"],
                       capsys)
    assert code == 1 and "--seed" in err
    argv = ["set", "random", "--q", "2", "--horizon", "8", "--seed", "7"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    code, second, _ = run(argv, capsys)
    assert first == second
    out_path = tmp_path / "r.txt"
    code, _, _ = run(argv + ["--out", str(out_path)], capsys)
    assert code == 0 and out_path.read_text() == first


# ----------------------------------------------------------------------
# Constructions and replay
# ----------------------------------------------------------------------

def test_construct_besicovitch_cli(capsys, tmp_path):
    set_path = tmp_path / "bes.txt"
    code, out, _ = run(["construct", "besicovitch", "--q", "2",
                        "--eps", "1/4", "--horizon", "10",
                        "--out", str(set_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["levels"] == [10] and report["certified_primitive"]
    with open(set_path) as fh:
        ps = read_set(fh)
    assert len(ps) == 1024
    code, out, _ = run(["set", "check", "--in", str(set_path)], capsys)
    assert code == 0 and json.loads(out)["primitive"]


def test_construct_mp_cli(capsys, tmp_path):
    rpt_path = tmp_path / "mp.json"
    set_path = tmp_path / "mp.txt"
    code, out, _ = run(["construct", "mp", "--q", "2",
                        "--L", "log:eps=0.1", "--horizon", "12",
                        "--enum-horizon", "12",
                        "--report", str(rpt_path),
                        "--out", str(set_path)], capsys)
    assert code == 0
    assert out.startswith("mp construction:")
    report = json.loads(rpt_path.read_text())
    for key in ("t_sequence", "k0", "partial_sum", "tail_bound",
                "S_prime_counts", "R_values", "sandwich_band",
                "certificate_total", "certified", "cross_checked",
                "certified_primitive", "member_count"):
        assert key in report, key
    assert report["certified"] and report["cross_checked"]
    assert report["certified_primitive"]
    assert len(report["R_values"]) == 13
    assert report["member_count"] == sum(report["R_values"])
    with open(set_path) as fh:
        ps = read_set(fh)
    assert len(ps) == report["member_count"]


def test_terms_budget_flag_is_gone(capsys):
    code, out, err = run(["construct", "mp", "--q", "2", "--L", "log:eps=0.1",
                          "--horizon", "12", "--terms-budget", "100"], capsys)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --terms-budget 100" in err


def test_each_command_builds_a_sieve_at_most_once(capsys, tmp_path,
                                                  monkeypatch):
    from primfield import constructions, sieve
    from primfield import primitive as primitive_mod
    built = []
    real = sieve.build_factor_sieve

    def counted(q, horizon):
        built.append((q, horizon))
        return real(q, horizon)

    for mod in (sieve, primitive_mod, constructions):
        monkeypatch.setattr(mod, "build_factor_sieve", counted)
    mp_path = tmp_path / "mp.txt"
    good = write_poly_file(tmp_path / "good.txt", 2, 3, [2, 3, 7])
    bad = write_poly_file(tmp_path / "bad.txt", 2, 2, [2, 6])
    for argv, code, sieves in (
        (["construct", "mp", "--q", "2", "--L", "log:eps=0.1",
          "--horizon", "40", "--out", str(mp_path)], 0, [(2, 18)]),
        (["verify", "erdos-density", "--in", str(mp_path)], 0, [(2, 18)]),
        (["set", "check", "--in", str(mp_path)], 0, []),
        (["verify", "erdos-density", "--in", str(good)], 0, [(2, 2)]),
        (["verify", "erdos-density", "--in", str(bad)], 2, []),
        (["irr", "kth", "--q", "3", "--k", "40000"], 0, []),
        (["construct", "besicovitch", "--q", "2", "--eps", "1/4",
          "--horizon", "12"], 0, []),
    ):
        built.clear()
        assert run(argv, capsys)[0] == code, argv
        assert built == sieves, argv


def test_construct_mp_count_mismatch_exits_two(capsys, tmp_path,
                                               monkeypatch):
    # a count table one off in every cell: the enumerated members no
    # longer reproduce the counts, and the run reports that verdict
    from primfield import constructions
    build = constructions.build_count_table

    def one_off(q, N):
        table = build(q, N)
        return CountTable(q, N, tuple(tuple(v + 1 for v in row)
                                      for row in table.rows))

    monkeypatch.setattr(constructions, "build_count_table", one_off)
    rpt_path = tmp_path / "mp.json"
    code, _, err = run(["construct", "mp", "--q", "2",
                        "--L", "log:eps=0.1", "--horizon", "12",
                        "--enum-horizon", "12",
                        "--report", str(rpt_path)], capsys)
    assert code == 2 and "construction did not certify" in err
    assert json.loads(rpt_path.read_text())["cross_checked"] is False


def test_construct_mp_enum_horizon_zero_fails_before_any_count_table(
        capsys, monkeypatch):
    from primfield import constructions
    tables = []
    monkeypatch.setattr(constructions, "build_count_table",
                        lambda *a, **kw: tables.append(a))
    code, out, err = run(["construct", "mp", "--q", "2", "--L", "log:eps=0.1",
                          "--horizon", "60", "--enum-horizon", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "primfield: error: enum_horizon must be >= 1\n"
    assert tables == []


def test_construct_mp_horizon_below_first_term_is_usage_error(capsys):
    code, out, err = run(["construct", "mp", "--q", "2", "--L", "log:eps=5",
                          "--horizon", "2"], capsys)
    assert code == 1 and out == ""
    assert err == "primfield: error: horizon below the first usable degree\n"


def test_manifest_and_replay_byte_identical(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    man = tmp_path / "man.json"
    code, _, _ = run(["irr", "count", "--q", "3", "--max-n", "8",
                      "--format", "json", "--out", str(out1),
                      "--manifest", str(man)], capsys)
    assert code == 0
    manifest = json.loads(man.read_text())
    assert manifest["tool"] == "primfield" and manifest["q"] == 3
    assert manifest["params"]["max_n"] == 8
    code, _, _ = run(["replay", "--manifest", str(man),
                      "--out", str(out2)], capsys)
    assert code == 0
    assert filecmp.cmp(out1, out2, shallow=False)


def test_replay_rejects_foreign_manifest(capsys, tmp_path):
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"tool": "elsewhere", "argv": ["x"]}))
    code, _, err = run(["replay", "--manifest", str(alien)], capsys)
    assert code == 1 and "manifest" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = run(["replay", "--manifest", str(broken)], capsys)
    assert code == 1 and "JSON" in err
