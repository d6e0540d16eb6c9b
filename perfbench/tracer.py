"""Run one primfield CLI command with layer spans recorded around it.

Usage: python tracer.py SPANS_OUT -- <primfield cli arguments>

Before calling `primfield.cli.main(argv)` this wraps the public functions
of every layer, both the module attribute and each name another primfield
module imported, so calls between modules pass through the wrapper. Spans
nest: a span's self time is its duration minus that of its traced
children. Hot per-item calls (marked `hot` below) keep only aggregate
counts and times, not one record per call. Everything stays in memory
and is written to SPANS_OUT as JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
import types
from fractions import Fraction

T_START = time.monotonic()

LAYERS = ("brackets", "constructions", "counting", "fieldpoly",
          "irreducibles", "primitive")


class Tracer:
    def __init__(self, base_bits: int):
        self.base_bits = base_bits
        self.stack: list[list] = []     # [start, child s, layer, span id]
        self.agg: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self.sieves: list[list[int]] = []
        self.ids = itertools.count()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, layer: str) -> bool:
        return any(frame[2] == layer for frame in self.stack)

    def wrap(self, fn, layer: str, hot: bool = False, on_return=None):
        agg = self.agg.setdefault(layer, [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        ids = self.ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0, layer, None if hot else next(ids)]
            parent = stack[-1][3] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                agg[0] += 1
                agg[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not hot:
                    spans.append({"id": frame[3], "parent": parent,
                                  "layer": layer, "start": frame[0],
                                  "end": end, "self_s": dur - frame[1]})
            if on_return is not None:
                try:
                    on_return(result, args, kwargs)
                except Exception:   # a counter must never fail the command
                    self.count("trace.counter_errors", 1)
            return result
        return traced


def _replace(modules, original, replacement) -> None:
    """Rebind every module-level name that refers to `original`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _file_size(fh) -> int:
    try:
        fh.flush()
        return os.fstat(fh.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _cache_grew(cache):
    """A check, after each call, of whether the call added to `cache`
    (a miss) or found its entry there (a hit). Without the cache every
    call is a miss."""
    seen = [len(cache) if cache is not None else 0]

    def grew() -> bool:
        if cache is None:
            return True
        added = len(cache) > seen[0]
        seen[0] = len(cache)
        return added
    return grew


def install(tr: Tracer) -> None:
    import primfield
    from primfield import cli
    modules = [primfield, cli]
    for name in LAYERS:
        try:
            modules.append(importlib.import_module(f"primfield.{name}"))
        except ImportError:
            modules.append(types.ModuleType(name))
    brackets, constructions, counting, fieldpoly, irreducibles, primitive = \
        modules[2:]

    # A name the program no longer has is skipped, and its metrics read 0:
    # the benchmark must keep working while the code under it is refactored.
    def fn(mod, attr, layer, hot=False, on_return=None):
        original = getattr(mod, attr, None)
        if original is None:
            return
        _replace(modules, original,
                 tr.wrap(original, layer, hot=hot, on_return=on_return))

    def method(cls, attr, layer, on_return=None):
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            return
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(
                tr.wrap(original.__func__, layer, hot=True)))
        else:
            setattr(cls, attr, tr.wrap(original, layer, hot=True,
                                       on_return=on_return))

    def sieve_built(result, args, kwargs):
        entries = int(result.spf.size)
        tr.count("fieldpoly.build_factor_sieve.entries", entries)
        tr.sieves.append([int(args[0]), int(args[1])])
        if tr.inside("irreducibles.kth_irreducible"):
            tr.count("irreducibles.kth_irreducible.sieve_entries", entries)

    fn(fieldpoly, "build_factor_sieve", "fieldpoly.build_factor_sieve",
       on_return=sieve_built)
    method(getattr(fieldpoly, "FactorSieve", None), "factor_index",
           "fieldpoly.factor_index")
    method(getattr(fieldpoly, "MonicPoly", None), "__init__",
           "fieldpoly.monicpoly")
    fn(fieldpoly, "parse_poly", "fieldpoly.parse_poly", hot=True)
    fn(fieldpoly, "format_poly", "fieldpoly.format_poly", hot=True)

    fn(irreducibles, "kth_irreducible", "irreducibles.kth_irreducible")
    fn(irreducibles, "check_degree_brackets",
       "irreducibles.check_degree_brackets")

    table_missed = _cache_grew(getattr(counting, "_TABLE_CACHE", None))
    parts_missed = _cache_grew(getattr(counting, "_MERTENS_PARTS_CACHE", None))

    def table_built(table, args, kwargs):
        if table_missed():
            tr.count("counting.build_count_table.cells",
                     sum(len(row) for row in table.rows))
        else:
            tr.count("counting.build_count_table.cache_hits", 1)

    def parts_built(parts, args, kwargs):
        if parts_missed():
            tr.count("counting.mertens_exact_parts.bits", parts[0].bit_length())

    fn(counting, "build_count_table", "counting.build_count_table",
       on_return=table_built)
    fn(counting, "mertens_exact_parts", "counting.mertens_exact_parts",
       on_return=parts_built)
    for attr in ("verify_hr_bound", "verify_recurrence_bound",
                 "mertens_product", "evaluate_G", "norton_check"):
        fn(counting, attr, f"counting.{attr}")

    method(getattr(brackets, "BracketedValue", None), "from_iv",
           "brackets.from_iv")
    fn(brackets, "fraction_to_decimal", "brackets.fraction_to_decimal",
       hot=True)
    precision = getattr(brackets, "precision", None)

    def counted_precision(bits):
        tr.count("brackets.precision.calls", 1)
        if bits > tr.base_bits:
            tr.count("brackets.precision.escalations", 1)
        return precision(bits)
    if precision is not None:
        _replace(modules, precision, counted_precision)

    fn(primitive, "read_set", "primitive.read_set",
       on_return=lambda ps, args, kw: (
           tr.count("primitive.read_set.members", len(ps)),
           tr.count("primitive.read_set.bytes", _file_size(args[0]))))
    fn(primitive, "write_set", "primitive.write_set",
       on_return=lambda _, args, kw: tr.count("primitive.write_set.bytes",
                                              _file_size(args[1])))
    method(getattr(primitive, "PolySet", None), "__init__",
           "primitive.polyset")
    fn(primitive, "is_primitive", "primitive.is_primitive",
       on_return=lambda _, args, kw: tr.count("primitive.is_primitive.members",
                                              len(args[0])))
    fn(primitive, "verify_erdos_density_inequality",
       "primitive.verify_erdos_density_inequality")

    def erdos_terms(_, args, kwargs):
        eps = Fraction(kwargs.get("eps", args[1] if len(args) > 1
                                  else Fraction(1, 100)))
        tr.count("primitive.erdos_sum_irreducibles.terms", int(1 / eps) + 1)
    fn(primitive, "erdos_sum_irreducibles", "primitive.erdos_sum_irreducibles",
       on_return=erdos_terms)

    for attr in ("besicovitch_construct", "divisor_degree_masks",
                 "build_t_sequence", "mp_construct"):
        fn(constructions, attr, f"constructions.{attr}")

    for attr in ("_dump_json", "_emit", "_write_out"):
        fn(cli, attr, "cli.emit", hot=True)
    method(getattr(counting, "CountTable", None), "write_csv", "cli.emit")
    fn(cli, "main", "cli.main")


def _base_bits(argv: list[str]) -> int:
    if "--precision-bits" in argv:
        return int(argv[argv.index("--precision-bits") + 1])
    from primfield import brackets
    return getattr(brackets, "DEFAULT_PRECISION_BITS", 128)


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- <cli arguments>")
    from primfield import cli
    tr = Tracer(_base_bits(argv))
    install(tr)
    t_main = time.monotonic()
    try:
        code = cli.main(argv)
    finally:
        t_end = time.monotonic()
        record = {"t_start": T_START, "t_main": t_main, "t_end": t_end,
                  "layers": {k: {"calls": v[0], "self_s": v[1]}
                             for k, v in tr.agg.items()},
                  "counters": tr.counters, "sieves": tr.sieves,
                  "spans": tr.spans}
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
