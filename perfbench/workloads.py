"""Workload definitions: the CLI commands each workload runs, in order,
and how each command's output is checked.

An op is one launch of `python -m primfield.cli <argv>` in the run's work
directory. Ops that succeed on the current code are checked against a
SHA-256 golden of every byte they emit (stdout and the files they write).
Ops that fail today are checked by meaning instead, so that a fix passes
without editing the benchmark. Seeded ops are checked by the independent
oracle in oracle.py.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import oracle

WORKLOADS = ("setpipe", "certify", "sieve")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()   # files written into the work directory
    check: str = "golden"           # golden | density | mertens | kth
    params: dict = field(default_factory=dict, compare=False)
    tag: str = ""                   # workload, plus ".smoke" at reduced size

    @property
    def key(self) -> str:
        """Golden key: the same argv reads different inputs per workload."""
        return f"{self.tag}: {' '.join(self.argv)}"


def _op(text: str, *outputs: str, check: str = "golden", **params) -> Op:
    argv = tuple(text.split())
    if argv[:2] == ("construct", "mp") and int(_flag(argv, "--q")) >= 3 \
            and "--enum-horizon" not in argv:
        # At the default enum horizon a q=3 mp construction enumerates
        # every monic polynomial to degree 18: one run was OOM-killed at
        # 7.6 GB RSS.
        raise ValueError(f"construct mp at q >= 3 needs --enum-horizon: {text}")
    return Op(argv, tuple(outputs), check, params)


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else "2"


def _seeded_k(rng: random.Random, q: int, degree: int) -> int:
    """A rank k whose irreducible has exactly this degree, uniformly."""
    lo = oracle.irreducible_cumulative(q, degree - 1)
    return rng.randint(lo + 1, oracle.irreducible_cumulative(q, degree))


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one workload run. smoke shrinks every size but keeps the
    op mix, including the known `eval mertens` crash (from n=13)."""
    tag = workload + (".smoke" if smoke else "")
    return [replace(op, tag=tag) for op in _ops(workload, seed, smoke)]


def _ops(workload: str, seed: int, smoke: bool) -> list[Op]:
    if workload == "setpipe":
        h_bes, h_mp = (10, "30 --enum-horizon 10") if smoke else (18, "60")
        return [
            _op(f"construct besicovitch --q 2 --eps 1/4 --horizon {h_bes} "
                "--out bes.txt", "bes.txt"),
            _op("set check --in bes.txt"),
            _op("verify erdos-density --in bes.txt", check="density",
                set_file="bes.txt"),
            _op(f"construct mp --q 2 --L log:eps=0.1 --horizon {h_mp} "
                "--report mp.json --out mp.txt", "mp.json", "mp.txt"),
            _op("set check --in mp.txt"),
            _op("verify erdos-density --in mp.txt", check="density",
                set_file="mp.txt"),
        ]
    if workload == "certify":
        if smoke:
            n, n3, g_eps, m, e_eps, xs, k_hi = 60, 20, "1/1000000", 13, \
                "1/500", (5, 10), 100000
        else:
            n, n3, g_eps, m, e_eps, xs, k_hi = 300, 60, \
                "1/1000000000000000000", 40, "1/8000", (5, 10, 20, 200), 1000000
        return [
            _op(f"count table --q 2 --max-n {n} --format json --out table.json",
                "table.json"),
            _op(f"verify hr --q 2 --max-n {n}"),
            _op(f"verify hr --q 3 --max-n {n}"),
            _op(f"verify recurrence --q 2 --max-n {n}"),
            _op(f"verify recurrence --q 3 --max-n {n3}"),
            _op(f"eval g --q 2 --z 0 --z 1/2 --z 1 --z 3/2 --z 2 --eps {g_eps}"),
            _op(f"eval mertens --q 2 --max-n {m}", check="mertens", max_n=m),
            _op(f"eval erdos-irr --q 2 --eps {e_eps}"),
            _op("verify norton " + " ".join(f"--x {x}" for x in xs)),
            _op(f"irr brackets --q 2 --k-lo 1000 --k-hi {k_hi}"),
        ]
    if workload == "sieve":
        rng = random.Random(seed)
        degrees = ((2, 12), (3, 6), (5, 4)) if smoke else ((2, 22), (3, 12), (5, 8))
        ops = []
        for q, d in degrees:
            k = _seeded_k(rng, q, d)
            ops.append(_op(f"irr kth --q {q} --k {k}", check="kth",
                           q=q, k=k, degree=d))
        h3 = 6 if smoke else 11
        ops.append(_op(f"construct besicovitch --q 3 --eps 1/4 --horizon {h3} "
                       "--out b3.txt", "b3.txt"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def digests(op: Op, stdout: bytes, workdir: str) -> dict[str, str]:
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for name in op.outputs:
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check(op: Op, stdout: bytes, workdir: str, goldens: dict) -> str | None:
    """None when the op's output is right, else what is wrong."""
    try:
        return _CHECKS[op.check](op, stdout, workdir, goldens)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_golden(op, stdout, workdir, goldens):
    got = digests(op, stdout, workdir)
    want = goldens.get(op.key)
    if want is None:
        return f"no golden recorded; output digests {got}"
    if got != want:
        return f"output differs from golden; digests {got}"
    return None


def _member_lines(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh.readlines()[1:] if line.strip())


def _check_density(op, stdout, workdir, goldens):
    report = json.loads(stdout)
    size = _member_lines(os.path.join(workdir, op.params["set_file"]))
    if report.get("primitive") is not True or report.get("ok") is not True:
        return "density report is not primitive and ok"
    if report.get("size") != size:
        return f"report size {report.get('size')} != {size} set members"
    return None


def _check_mertens(op, stdout, workdir, goldens):
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    if rows[0] != ["n", "normalized_lo", "normalized_hi"]:
        return f"unexpected header {rows[0]}"
    if [int(r[0]) for r in rows[1:]] != list(range(1, op.params["max_n"] + 1)):
        return "rows do not run n = 1 .. max-n"
    for n, lo, hi in rows[1:]:
        if not 0 < Fraction(lo) <= Fraction(hi):
            return f"bad bracket at n={n}: [{lo}, {hi}]"
    return None


def _check_kth(op, stdout, workdir, goldens):
    q, k, d = op.params["q"], op.params["k"], op.params["degree"]
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    if rows[0] != ["k", "degree", "index", "poly"] or len(rows) != 2:
        return f"unexpected table {rows}"
    got_k, got_d, index = (int(v) for v in rows[1][:3])
    coeffs = oracle.index_coeffs(q, index)
    if (got_k, got_d) != (k, d) or len(coeffs) != d + 1 or coeffs[-1] != 1:
        return f"k={got_k} degree={got_d} index={index}, want k={k} degree={d}"
    if rows[1][3] != f"q={q};" + ",".join(map(str, coeffs)):
        return f"poly text {rows[1][3]!r} does not match index {index}"
    if not oracle.rabin_irreducible(q, coeffs):
        return f"index {index} is reducible by Rabin's test"
    return None


_CHECKS = {"golden": _check_golden, "density": _check_density,
           "mertens": _check_mertens, "kth": _check_kth}
