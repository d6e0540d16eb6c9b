"""Command line interface: exact counts, certified inequality checks,
and primitive-set constructions over F_q[x].

Handlers write their output and raise the package's typed errors; main
alone turns them into exit codes: 0 success or inequality verified, 2 a
VerificationError (a failed verdict, whose report is already written and
whose one-line complaint goes to stderr), 1 usage, budget, or precision
errors.  Certified quantities are printed as exact strings or {lo, hi}
decimal brackets.  Bare floats are display diagnostics: the *_float fields,
min_log_margin (verify hr, recurrence), worst_low_margin, worst_high_margin
and slack (irr brackets), and scaled, band_lo, band_hi, z_worst (construct mp).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator

from . import DEFAULT_PRECISION_BITS, __version__
from .errors import BudgetError, PrecisionError, UsageError, VerificationError

# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------

def _json_pieces(payload) -> Iterator[str]:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n" in pieces, each
    the encoder's chunks joined a batch at a time: a count table's rows
    are tens of thousands of chunks, each a str object, which a whole
    list of them would hold at once beside the text."""
    import json
    from itertools import islice
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, _BATCH)):
        yield batch
    yield "\n"


def _dump_json(payload) -> str:
    return "".join(_json_pieces(payload))


def _csv_pieces(header, rows) -> Iterator[str]:
    """The csv text of header and rows, a batch of rows at a time."""
    import csv
    import io
    from itertools import chain, islice
    rows = chain([header], rows)
    while True:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(islice(rows, _BATCH))
        if not (text := buf.getvalue()):
            return
        yield text


# encoder chunks, or csv rows, joined into one string at a time
_BATCH = 4096

# While _write_file opens its path, the deadline's SIGALRM handler leaves
# its BudgetError here instead of raising it; None at any other time.
_deferred: list[BudgetError] | None = None


def _release_deadline() -> None:
    """End the hold _write_file put on the deadline, raising the
    BudgetError left while it was held."""
    global _deferred
    deferred, _deferred = _deferred, None
    if deferred:
        raise deferred[0]


def _write_file(path: str, fill) -> None:
    """Call fill(fh) with a text handle on path, as open(path, "w") makes
    one, and rewrite the file in place: it is opened without O_TRUNC and,
    once fill returns, a regular file is cut to the written length.  A
    truncate frees the old file's blocks, and on a filesystem mounted with
    discard it waits until they are discarded; a rerun over its own output
    frees none, or only the tail a shorter output leaves.  A path that
    cannot be opened, or a write the system refuses (a full disk, a file
    size limit), is a UsageError naming the path.  An exception out of the
    write empties a regular file, removes the path and propagates, so
    neither a partial output nor new bytes over an old tail survive it,
    under any name the file has (a symlink's target, another hard link).
    The run's deadline is held from before the open until the file is
    guarded, so its BudgetError comes before the file is made or where an
    exception removes it, never between the two."""
    import os
    import stat
    global _deferred
    _deferred = []
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
    except OSError as exc:
        _release_deadline()
        raise UsageError(f"cannot write {path!r}: {exc}") from None
    try:
        _release_deadline()
        with open(fd, "w") as fh:
            fill(fh)
            if regular:
                fh.truncate()
    except BaseException as exc:
        if regular:
            os.truncate(path, 0)
            os.remove(path)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {path!r}: {exc}") from None
        raise


def _check_writable(path: str) -> None:
    """Before the run, the UsageError _write_file's open would raise for a
    path in a missing directory, a directory or a path not writable.  It
    opens nothing (a FIFO would block) and creates nothing (a new file
    would outlive a run its budget stops)."""
    import errno
    import os
    import stat
    new = not os.path.exists(path)      # then its directory must take it
    target = (os.path.dirname(path) or ".") if new else path
    try:
        if stat.S_ISDIR(os.stat(target).st_mode) != new:
            code = errno.ENOTDIR if new else errno.EISDIR
        elif os.access(target, os.W_OK):
            return
        else:
            code = errno.EACCES
    except OSError as exc:      # a directory on the way missing or shut
        code = exc.errno
    raise UsageError(f"cannot write {path!r}: "
                     f"{OSError(code, os.strerror(code), path)}")


def _write_out(args: argparse.Namespace, pieces: Iterable[str]) -> None:
    """Write the text pieces to --out as they come, or to stdout in one
    write once every piece is made, so a run stopped midway prints
    nothing."""
    if args.out:
        _write_file(args.out, lambda fh: fh.writelines(pieces))
    else:
        sys.stdout.write("".join(pieces))


def _emit(args: argparse.Namespace, header, rows, payload) -> None:
    """Tabular output honoring --format; the JSON payload mirrors the rows."""
    if args.fmt == "json":
        _write_out(args, _json_pieces(payload))
    else:
        _write_out(args, _csv_pieces(header, rows))


def _report(args: argparse.Namespace, payload, ok: bool,
            complaint: str | None) -> None:
    """Write a verdict's JSON report, then raise its complaint if it failed."""
    _write_out(args, _json_pieces(payload))
    if not ok:
        raise VerificationError(complaint)


def _decimal_pair(fr, digits: int = 36) -> dict:
    from .brackets import fraction_to_decimal
    return {"exact": f"{fr.numerator}/{fr.denominator}",
            "lo": fraction_to_decimal(fr, digits, "floor"),
            "hi": fraction_to_decimal(fr, digits, "ceil")}


def _counterexample(q: int, witness: tuple[int, int]) -> dict:
    from .fieldpoly import format_index
    a, b = witness
    return {"divisor": format_index(q, a), "multiple": format_index(q, b)}


def _read_set_file(path: str):
    from .primitive import read_set
    try:
        with open(path, encoding="utf-8") as fh:
            return read_set(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path!r}: not UTF-8 text ({exc.reason}"
                         f" {exc.object[exc.start]:#04x})") from None


_COMMON_DESTS = frozenset({
    "q", "out", "fmt", "precision_bits", "budget_bytes", "budget_seconds",
    "seed", "manifest", "func", "command",
})


def _jsonable(v):
    from fractions import Fraction
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def _write_manifest(args: argparse.Namespace, argv: list[str]) -> None:
    """Record enough to replay the run byte for byte (no timestamps)."""
    if not args.manifest:
        return
    params = {k: _jsonable(v) for k, v in sorted(vars(args).items())
              if k not in _COMMON_DESTS}
    payload = {
        "tool": "primfield",
        "version": __version__,
        "command": list(getattr(args, "command", ())),
        "q": args.q,
        "precision_bits": args.precision_bits,
        "format": args.fmt,
        "seed": args.seed,
        "budgets": {"bytes": args.budget_bytes,
                    "seconds": args.budget_seconds},
        "params": params,
        "argv": list(argv),
    }
    _write_file(args.manifest, lambda fh: fh.write(_dump_json(payload)))


# ----------------------------------------------------------------------
# Subcommand handlers.  Each writes its output and reports a failed
# verdict by raising VerificationError once its report is written.  Each
# imports the library code and the standard modules it calls (json, csv,
# fractions as well), so a launch loads only what its command runs.
# ----------------------------------------------------------------------

def cmd_irr_count(args) -> None:
    from .irreducibles import pi_cumulative, pi_prime
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    pi_prime(args.q, args.max_n)    # one Moebius pass, to the top degree only
    rows = [(n, pi_prime(args.q, n), pi_cumulative(args.q, n))
            for n in range(1, args.max_n + 1)]
    payload = {"q": args.q,
               "rows": [{"n": n, "irreducible": a, "cumulative": c}
                        for n, a, c in rows]}
    _emit(args, ["n", "irreducible", "cumulative"], rows, payload)


def cmd_irr_kth(args) -> None:
    from .fieldpoly import format_index, index_degree
    from .irreducibles import kth_irreducible
    f = kth_irreducible(args.q, args.k)
    text = format_index(args.q, f)
    degree = index_degree(args.q, f)
    payload = {"q": args.q, "k": args.k, "degree": degree,
               "index": f, "poly": text}
    _emit(args, ["k", "degree", "index", "poly"],
          [(args.k, degree, f, text)], payload)


def cmd_irr_brackets(args) -> None:
    from .irreducibles import check_degree_brackets
    report = check_degree_brackets(args.q, args.k_lo, args.k_hi, args.slack)
    _report(args, report.to_json(), report.ok,
            "degree bracket violated; see report")


def _parse_excludes(text: str | None) -> dict[int, int] | None:
    if not text:
        return None
    out: dict[int, int] = {}
    for part in text.split(","):
        try:
            d, c = (int(v) for v in part.split(":"))
        except ValueError:
            raise UsageError(
                f"bad --exclude entry {part!r}, want degree:count") from None
        if c < 0:
            raise UsageError(
                f"bad --exclude entry {part!r}: count is negative")
        out[d] = out.get(d, 0) + c
    return out


def cmd_count_table(args) -> None:
    from .counting import build_count_table
    table = build_count_table(args.q, args.max_n,
                              excluded_degrees=_parse_excludes(args.exclude))
    cells = ((n, k, v) for n, row in enumerate(table.rows)
             for k, v in enumerate(row))
    # the encoder writes tuples as lists, so the rows go in uncopied
    payload = {"q": table.q, "N": table.N,
               "excluded_degrees": table.excluded_degrees, "rows": table.rows}
    _emit(args, ["n", "k", "count"], cells, payload)


def cmd_verify_hr(args) -> None:
    from .counting import verify_hr_bound
    report = verify_hr_bound(args.q, args.max_n,
                             precision_bits=args.precision_bits)
    _report(args, report.to_json(), report.ok,
            "upper bound violated; see report")


def cmd_verify_recurrence(args) -> None:
    from .counting import verify_recurrence_bound
    report = verify_recurrence_bound(args.q, args.max_n)
    _report(args, report.to_json(), report.ok,
            "recurrence bound violated; see report")


def cmd_verify_norton(args) -> None:
    from .counting import norton_check
    xs = args.x or [5, 10, 20]
    reports = [norton_check(x, args.alpha, args.beta,
                            precision_bits=args.precision_bits) for x in xs]
    bad = next((r.x for r in reports if not r.ok), None)
    payload = {"alpha": str(args.alpha), "beta": str(args.beta),
               "checks": [r.to_json() for r in reports], "ok": bad is None}
    _report(args, payload, bad is None,
            f"tail bound fails at x={bad}; see report")


def cmd_verify_erdos_density(args) -> None:
    from .primitive import is_primitive, verify_erdos_density_inequality
    ps = _read_set_file(args.infile)
    ok_prim, witness = is_primitive(ps)
    if ok_prim:
        report = verify_erdos_density_inequality(ps)
        _report(args, {**report.to_json(), "primitive": True}, report.ok,
                "weighted density bound violated; see report")
    else:
        pair = _counterexample(ps.q, witness)
        _report(args, {"primitive": False, "counterexample": pair}, False,
                f"input set is not primitive: {pair['divisor']} divides "
                f"{pair['multiple']}")


def cmd_eval_g(args) -> None:
    from .counting import evaluate_G
    zs = args.z or [1]
    rows, values = [], []
    for z in zs:
        b = evaluate_G(args.q, z, eps=args.eps,
                       precision_bits=args.precision_bits)
        d = b.to_json()
        rows.append((str(z), d["lo"], d["hi"]))
        values.append({"z": str(z), **d})
    payload = {"q": args.q, "eps": str(args.eps), "values": values}
    _emit(args, ["z", "lo", "hi"], rows, payload)


def cmd_eval_mertens(args) -> None:
    from .counting import mertens_rows
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    rows, values = [], []
    for mv in mertens_rows(args.q, args.max_n,
                           precision_bits=args.precision_bits):
        d = mv.normalized.to_json()
        rows.append((mv.n, d["lo"], d["hi"]))
        values.append(mv.to_json())
    payload = {"q": args.q, "values": values}
    _emit(args, ["n", "normalized_lo", "normalized_hi"], rows, payload)


def cmd_eval_erdos_irr(args) -> None:
    from .irreducibles import erdos_sum_irreducibles
    b = erdos_sum_irreducibles(args.q, eps=args.eps)
    d = b.to_json()
    payload = {"q": args.q, "eps": str(args.eps), **d,
               "width_float": float(b.width)}
    _emit(args, ["lo", "hi"], [(d["lo"], d["hi"])], payload)


def cmd_set_check(args) -> None:
    from .primitive import is_primitive
    ps = _read_set_file(args.infile)
    ok, witness = is_primitive(ps)
    pair = None if ok else _counterexample(ps.q, witness)
    payload = {"q": ps.q, "horizon": ps.horizon, "size": len(ps),
               "primitive": ok, "counterexample": pair}
    _report(args, payload, ok, None if ok else
            f"not primitive: {pair['divisor']} divides {pair['multiple']}")


def cmd_set_erdos_sum(args) -> None:
    from .primitive import erdos_sum
    ps = _read_set_file(args.infile)
    value = erdos_sum(ps)
    d = _decimal_pair(value)
    payload = {"q": ps.q, "size": len(ps), "erdos_sum": d}
    _emit(args, ["exact", "lo", "hi"], [(d["exact"], d["lo"], d["hi"])], payload)


def cmd_set_density(args) -> None:
    from .primitive import density_profile
    ps = _read_set_file(args.infile)
    profile = density_profile(ps)
    rows = [(r.n, r.count, r.monic_total,
             f"{r.ratio.numerator}/{r.ratio.denominator}",
             float(r.ratio)) for r in profile]
    payload = {"q": ps.q, "rows": [r.to_json() for r in profile]}
    _emit(args, ["n", "count", "monic_total", "ratio", "ratio_float"],
          rows, payload)


def cmd_set_random(args) -> None:
    import io

    from .primitive import random_primitive_set, write_set
    if args.seed is None:
        raise UsageError("set random generates data; pass --seed so the "
                         "run is reproducible")
    ps = random_primitive_set(args.q, args.horizon, args.seed,
                              per_degree=args.per_degree)
    buf = io.StringIO()
    write_set(ps, buf)
    _write_out(args, [buf.getvalue()])


def cmd_construct_besicovitch(args) -> None:
    from .constructions import besicovitch_construct
    from .primitive import is_primitive, write_set
    result = besicovitch_construct(args.q, args.eps, args.horizon)
    report = result.to_json()
    ok_prim, witness = is_primitive(result.members)
    report["certified_primitive"] = ok_prim
    if witness is not None:
        report["counterexample"] = _counterexample(args.q, witness)
    if args.out:
        _write_file(args.out, lambda fh: write_set(result.members, fh))
    sys.stdout.write(_dump_json(report))
    if not (result.ok and ok_prim):
        raise VerificationError("construction did not certify; see report")


def cmd_construct_mp(args) -> None:
    from .constructions import (GrowthFunction, build_t_sequence,
                                mp_construct, mp_diagnostics)
    from .fieldpoly import format_index
    from .primitive import write_set
    # the sandwich diagnostics scale degree n by the float q^n; q >= 2 puts
    # any horizon past 1024 beyond float64 without forming q^horizon
    if args.q ** max(0, min(args.horizon, 1025)) > sys.float_info.max:
        raise UsageError("q^horizon above 1.8e308, the float64 limit of the"
                         " sandwich diagnostics")
    growth = GrowthFunction.parse(args.L)
    tseq = build_t_sequence(args.q, growth, materialize=args.materialize,
                            precision_bits=args.precision_bits)
    result = mp_construct(args.q, tseq, args.horizon,
                          enum_horizon=args.enum_horizon)
    diag = mp_diagnostics(result)
    witness = result.witness
    ok_prim = witness is None
    report = {
        "q": args.q,
        "horizon": result.horizon,
        "enum_horizon": result.enum_horizon,
        "t_sequence": {
            "growth": growth.format(),
            "K": tseq.K,
            "ranks_head": list(tseq.ranks[:args.materialize]),
            "degrees_head": list(tseq.degrees[:args.materialize]),
            "terms": [format_index(args.q, t) for t in tseq.terms],
        },
        "k0": tseq.k0,
        "k_max": result.k_max,
        "partial_sum": _decimal_pair(tseq.suffix_sum),
        "tail_bound": _decimal_pair(tseq.tail_bound),
        "certificate_total": _decimal_pair(tseq.suffix_sum + tseq.tail_bound),
        "certified": tseq.certified,
        "S_prime_counts": [{"k": k + 1, "counts": list(row)}
                           for k, row in enumerate(result.counts)],
        "R_values": list(result.total_by_degree()),
        "erdos_partial": _decimal_pair(result.erdos_partial),
        "erdos_partial_from_k0": _decimal_pair(result.erdos_partial_from_k0),
        "sandwich_band": [r.to_json() for r in diag],
        "member_count": len(result.members),
        "cross_checked": result.cross_checked,
        "certified_primitive": ok_prim,
    }
    if witness is not None:
        report["counterexample"] = _counterexample(args.q, witness)
    if args.out:
        _write_file(args.out, lambda fh: write_set(result.members, fh))
    text = _dump_json(report)
    certified = tseq.certified and result.cross_checked and ok_prim
    if args.report:
        _write_file(args.report, lambda fh: fh.write(text))
        summary = (f"mp construction: {len(result.members)} members to degree "
                   f"{result.enum_horizon}, counts to degree {result.horizon}, "
                   f"certified={certified}\n")
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
    if not certified:
        raise VerificationError("construction did not certify; see report")


def cmd_replay(args) -> None:
    """Rerun a manifest's argv; the rerun writes no manifest of its own."""
    import json
    try:
        with open(args.manifest_in) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest is not valid JSON: {exc}") from None
    if manifest.get("tool") != "primfield":
        raise UsageError("not a primfield manifest")
    argv = manifest.get("argv")
    if not isinstance(argv, list) or not argv:
        raise UsageError("manifest does not record an argv to replay")
    argv = [str(a) for a in argv]
    if args.out:
        argv += ["--out", args.out]
    _run(argv, record=False)


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; keep 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _common_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("common options")
    g.add_argument("--q", type=int, default=2, metavar="Q",
                   help="field size, a prime (default 2)")
    g.add_argument("--out", metavar="PATH",
                   help="write the primary output here instead of stdout")
    g.add_argument("--format", dest="fmt", choices=("csv", "json"),
                   default="csv",
                   help="tabular output format; reports are always JSON")
    g.add_argument("--precision-bits", type=int,
                   default=DEFAULT_PRECISION_BITS, metavar="B",
                   help="working precision for certified brackets")
    g.add_argument("--budget-bytes", type=int, default=None, metavar="B",
                   help="address space the run may add (Linux)")
    g.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                   help="wall-clock deadline over the whole run")
    g.add_argument("--seed", type=int, default=None,
                   help="seed for randomized generators (required by them)")
    g.add_argument("--manifest", metavar="PATH",
                   help="record run parameters to this JSON file")
    return p


def build_parser() -> _Parser:
    common = _common_parent()
    root = _Parser(prog="primfield",
                   description="Exact counting and certified analysis of "
                               "primitive sets of monic polynomials over F_q[x].")
    root.add_argument("--version", action="version",
                      version=f"primfield {__version__}")
    subs = root.add_subparsers(dest="group", metavar="command", required=True)

    def leaf(group_subs, name, func, command, help_text):
        p = group_subs.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func, command=command)
        return p

    irr = subs.add_parser("irr", help="irreducible counts and ordering")
    irr_subs = irr.add_subparsers(dest="action", metavar="action",
                                  required=True)
    p = leaf(irr_subs, "count", cmd_irr_count, ("irr", "count"),
             "irreducible and cumulative counts by degree")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p = leaf(irr_subs, "kth", cmd_irr_kth, ("irr", "kth"),
             "k-th irreducible in the index ordering")
    p.add_argument("--k", type=int, required=True)
    p = leaf(irr_subs, "brackets", cmd_irr_brackets, ("irr", "brackets"),
             "two-sided degree brackets for the k-th irreducible")
    p.add_argument("--k-lo", type=int, required=True)
    p.add_argument("--k-hi", type=int, required=True)
    p.add_argument("--slack", type=float, default=0.5)

    cnt = subs.add_parser("count", help="exact squarefree count tables")
    cnt_subs = cnt.add_subparsers(dest="action", metavar="action",
                                  required=True)
    p = leaf(cnt_subs, "table", cmd_count_table, ("count", "table"),
             "table of counts by degree and factor count")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p.add_argument("--exclude", metavar="D:C[,D:C...]",
                   help="withhold C irreducibles of degree D from the supply")

    ver = subs.add_parser("verify", help="certified inequality checks")
    ver_subs = ver.add_subparsers(dest="action", metavar="action",
                                  required=True)
    p = leaf(ver_subs, "hr", cmd_verify_hr, ("verify", "hr"),
             "factor-count upper bound over a full table")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p = leaf(ver_subs, "recurrence", cmd_verify_recurrence,
             ("verify", "recurrence"),
             "supply-splitting recurrence bound over a full table")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p = leaf(ver_subs, "norton", cmd_verify_norton, ("verify", "norton"),
             "Poisson tail bounds at chosen parameters")
    p.add_argument("--x", type=_fraction, action="append", metavar="X",
                   help="Poisson mean; repeatable (default 5, 10, 20)")
    p.add_argument("--alpha", type=_fraction, default="1/2")
    p.add_argument("--beta", type=_fraction, default="3/2")
    p = leaf(ver_subs, "erdos-density", cmd_verify_erdos_density,
             ("verify", "erdos-density"),
             "weighted density bound for a primitive set file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")

    ev = subs.add_parser("eval", help="certified bracket evaluations")
    ev_subs = ev.add_subparsers(dest="action", metavar="action",
                                required=True)
    p = leaf(ev_subs, "g", cmd_eval_g, ("eval", "g"),
             "degree-weighted singular series G(z)")
    p.add_argument("--z", type=_fraction, action="append", metavar="Z",
                   help="evaluation point; repeatable (default 1)")
    p.add_argument("--eps", type=_fraction, default="1/1000000")
    p = leaf(ev_subs, "mertens", cmd_eval_mertens, ("eval", "mertens"),
             "normalized truncated Mertens products")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p = leaf(ev_subs, "erdos-irr", cmd_eval_erdos_irr, ("eval", "erdos-irr"),
             "Erdos sum over all irreducibles")
    p.add_argument("--eps", type=_fraction, default="1/1000")

    st = subs.add_parser("set", help="operations on primitive set files")
    st_subs = st.add_subparsers(dest="action", metavar="action",
                                required=True)
    p = leaf(st_subs, "check", cmd_set_check, ("set", "check"),
             "decide primitivity, reporting a counterexample pair")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p = leaf(st_subs, "erdos-sum", cmd_set_erdos_sum, ("set", "erdos-sum"),
             "exact Erdos sum of a set file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p = leaf(st_subs, "density", cmd_set_density, ("set", "density"),
             "degree-by-degree density profile of a set file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p = leaf(st_subs, "random", cmd_set_random, ("set", "random"),
             "seeded random primitive set (refuses without --seed)")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--per-degree", type=int, default=8)

    con = subs.add_parser("construct", help="primitive-set constructions")
    con_subs = con.add_subparsers(dest="action", metavar="action",
                                  required=True)
    p = leaf(con_subs, "besicovitch", cmd_construct_besicovitch,
             ("construct", "besicovitch"),
             "layered degree-slice set of positive density")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p = leaf(con_subs, "mp", cmd_construct_mp, ("construct", "mp"),
             "thinned-irreducible family with certificate and counts")
    p.add_argument("--L", required=True, metavar="SPEC",
                   help="growth law, e.g. 'log:eps=0.1' or 'iterlog:j=2,eps=2'")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--enum-horizon", type=int, default=None,
                   help="materialize members up to this degree (default: "
                        "the largest h <= horizon with q^h <= 2^18)")
    p.add_argument("--materialize", type=int, default=64)
    p.add_argument("--report", metavar="FILE",
                   help="write the JSON report here (summary to stdout)")

    rp = subs.add_parser("replay", help="rerun a recorded manifest")
    rp.add_argument("--manifest", dest="manifest_in", required=True,
                    metavar="FILE")
    rp.add_argument("--out", default=None,
                    help="override the recorded output path")
    rp.set_defaults(func=cmd_replay, command=("replay",))

    return root


def _load_library() -> None:
    """Import every library module, numpy and the standard modules the
    handlers import.  Under a budget this runs before either limit is
    armed, so the budgets meter the subcommand's work, not its loading."""
    for module in ("csv", "fractions", "io", "json", "numpy"):
        __import__(module)
    import primfield
    for name in primfield.__all__:
        getattr(primfield, name)


def _run_limited(args: argparse.Namespace) -> None:
    """args.func(args) under the run's deadline and memory ceiling, each
    armed only when its flag is given and disarmed on every way out: an
    interval timer whose SIGALRM handler raises BudgetError, and a soft
    RLIMIT_AS of the address space mapped now plus the budget, never above
    the soft limit in force, under which an allocation fails where it is
    made and its MemoryError becomes a BudgetError.  Either way nothing
    more is written: an output file the handler was writing is removed
    (_write_file), and one it had finished, or not yet opened, keeps its
    bytes."""
    seconds, nbytes = args.budget_seconds, args.budget_bytes
    if seconds is not None:
        import signal
        import threading
        if not hasattr(signal, "setitimer") or \
                threading.current_thread() is not threading.main_thread():
            raise UsageError("--budget-seconds needs a POSIX interval timer "
                             "on the main thread")
    if seconds is not None or nbytes is not None:
        _load_library()
    previous_limit = None
    if nbytes is not None:
        try:
            import resource
            with open("/proc/self/statm") as fh:
                limit = int(fh.read().split()[0]) * resource.getpagesize()
            previous_limit = soft, hard = resource.getrlimit(
                resource.RLIMIT_AS)
            limit += nbytes
            if soft != resource.RLIM_INFINITY:
                limit = min(limit, soft)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        except (ImportError, AttributeError, OSError, ValueError,
                OverflowError) as exc:
            raise UsageError(f"--budget-bytes {nbytes} cannot be armed: "
                             f"{exc}") from None

    def expire(signum, frame):
        exc = BudgetError(f"soft time budget of {seconds}s exceeded; "
                          "partial results dropped as incomplete")
        if _deferred is None:
            raise exc
        _deferred.append(exc)

    try:
        try:
            if seconds is not None:
                previous_handler = signal.signal(signal.SIGALRM, expire)
                try:
                    signal.setitimer(signal.ITIMER_REAL, seconds)
                except (ValueError, OverflowError) as exc:
                    raise UsageError(f"--budget-seconds {seconds}: {exc}") \
                        from None
            args.func(args)
        finally:
            if seconds is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous_handler)
            if previous_limit is not None:
                resource.setrlimit(resource.RLIMIT_AS, previous_limit)
    except MemoryError:
        if previous_limit is None:
            raise
        raise BudgetError(f"memory budget of {nbytes} bytes exceeded; "
                          "partial results dropped as incomplete") from None


def _run(argv: list[str], record: bool = True) -> None:
    args = build_parser().parse_args(argv)
    if args.func is cmd_replay:
        cmd_replay(args)
        return
    if args.precision_bits < 16:
        raise UsageError("--precision-bits must be at least 16")
    if args.budget_bytes is not None and args.budget_bytes <= 0:
        raise UsageError("--budget-bytes must be positive")
    if args.budget_seconds is not None and args.budget_seconds <= 0:
        raise UsageError("--budget-seconds must be positive")
    for path in (args.out, getattr(args, "report", None)):
        if path:
            _check_writable(path)
    if record:
        _write_manifest(args, argv)
    _run_limited(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _run(argv)
        return 0
    except VerificationError as exc:
        print(exc, file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"primfield: error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"primfield: budget exceeded: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("primfield: budget exceeded: out of memory: "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"primfield: precision exhausted: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"primfield: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
