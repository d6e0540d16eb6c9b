"""primfield benchmark: run the CLI the way a researcher does.

    python3 perfbench/run.py --workload setpipe --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1
    python3 perfbench/run.py --smoke

One client, closed loop: each op is one `python -m primfield.cli` launch
from the checkout's `src/`, started only after the previous one exited.
A run first times `--version` launches (setup_s), then cycles through the
workload's ops in order until --seconds have passed, always completing at
least one full pass. Every op is checked for correct output; see
workloads.py. With --trace 1 each op runs twice per cycle, untraced and
then under tracer.py, and the run reports per-layer metrics plus the
tracing overhead instead of the end-to-end metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. attempted and failed count ops (distinct commands of the
workload); an op fails if any of its launches exits non-zero, prints a
traceback, hits the per-op memory or time guard, or fails its output
check. README.md in this directory explains the choices.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 2          # timed before the ops, and again after them
OP_MEMORY_BYTES = 2 << 30   # address-space cap per child
OP_TIMEOUT_S = 120.0        # per-launch guard
RUN_LIMIT_S = 165.0         # no launch may run past this point of a run

CLI = [sys.executable, "-m", "primfield.cli"]
TRACED_CLI = [sys.executable, os.path.join(HERE, "tracer.py")]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "ratio"}

# Per-layer metrics from the traced run: <module>.<function>.<field>.
# A field is a counter the tracer keeps, or else self_s or calls of the
# layer's spans; created is the call count of a constructor.
PER_LAYER = {
    "fieldpoly.build_factor_sieve.self_s": "s",
    "fieldpoly.build_factor_sieve.calls": "count",
    "fieldpoly.build_factor_sieve.entries": "count",
    "fieldpoly.build_factor_sieve.repeat_calls": "count",
    "fieldpoly.factor_index.calls": "count",
    "fieldpoly.factor_index.self_s": "s",
    "fieldpoly.monicpoly.created": "count",
    "fieldpoly.monicpoly.self_s": "s",
    "fieldpoly.parse_poly.calls": "count",
    "fieldpoly.format_poly.calls": "count",
    "irreducibles.kth_irreducible.self_s": "s",
    "irreducibles.kth_irreducible.calls": "count",
    "irreducibles.kth_irreducible.sieve_entries": "count",
    "irreducibles.check_degree_brackets.self_s": "s",
    "counting.build_count_table.self_s": "s",
    "counting.build_count_table.calls": "count",
    "counting.build_count_table.cache_hits": "count",
    "counting.build_count_table.cells": "count",
    "counting.verify_hr_bound.self_s": "s",
    "counting.verify_recurrence_bound.self_s": "s",
    "counting.mertens_product.self_s": "s",
    "counting.mertens_exact_parts.self_s": "s",
    "counting.mertens_exact_parts.bits": "bit",
    "counting.evaluate_G.self_s": "s",
    "counting.norton_check.self_s": "s",
    "brackets.from_iv.calls": "count",
    "brackets.from_iv.self_s": "s",
    "brackets.fraction_to_decimal.calls": "count",
    "brackets.fraction_to_decimal.self_s": "s",
    "brackets.precision.calls": "count",
    "brackets.precision.escalations": "count",
    "primitive.read_set.self_s": "s",
    "primitive.read_set.members": "count",
    "primitive.read_set.bytes": "B",
    "primitive.write_set.self_s": "s",
    "primitive.write_set.bytes": "B",
    "primitive.polyset.self_s": "s",
    "primitive.is_primitive.self_s": "s",
    "primitive.is_primitive.members": "count",
    "primitive.verify_erdos_density_inequality.self_s": "s",
    "primitive.erdos_sum_irreducibles.self_s": "s",
    "primitive.erdos_sum_irreducibles.terms": "count",
    "constructions.besicovitch_construct.self_s": "s",
    "constructions.divisor_degree_masks.self_s": "s",
    "constructions.build_t_sequence.self_s": "s",
    "constructions.mp_construct.self_s": "s",
    "cli.main.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.out_bytes": "B",
    # overhead_s = wall_s - untraced_wall_s. unattributed_s = wall_s -
    # startup_s - self_sum_s - exit_s: traced time that no layer, process
    # start (launch to main) or process exit (main's return to exit) holds.
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.startup_s": "s",
    "trace.self_sum_s": "s",
    "trace.exit_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Launch:
    """One finished child process."""

    seconds: float
    code: int
    rss_mb: float
    timed_out: bool
    stderr: str
    t_launch: float         # time.monotonic() at launch and at exit
    t_exit: float


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (OP_MEMORY_BYTES, OP_MEMORY_BYTES))


def launch(cmd, cwd, env, stdout_path, timeout) -> Launch:
    """Run cmd to exit, timing launch to exit and taking its peak RSS from
    wait4; kill it if it outlives timeout."""
    stderr_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_launch = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=err, preexec_fn=_limit_memory)
        pidfd = os.pidfd_open(proc.pid)
        fired = threading.Event()

        def kill():
            fired.set()
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            t_exit = time.monotonic()
        except BaseException:       # interrupted: leave no child running
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return Launch(seconds, proc.returncode, usage.ru_maxrss / 1024,
                  fired.is_set(), stderr, t_launch, t_exit)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False):
        self.workload = workload
        self.ops = workloads.build(workload, seed, smoke=smoke)
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.workdir = os.path.join(ROOT, ".perfbench_work",
                                    f"{workload}-{os.getpid()}")
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        with open(os.path.join(HERE, "goldens.json")) as fh:
            self.goldens = json.load(fh)
        self.problems: dict[int, list[str]] = {i: [] for i in range(len(self.ops))}
        self.wrong = False       # an op exited 0 but its output was wrong
        self.setup_times: list[float] = []

    # -- launching -----------------------------------------------------

    def _remaining(self) -> float:
        return self.t_start + RUN_LIMIT_S - time.monotonic()

    def _launch(self, cmd, stdout_path) -> Launch:
        return launch(cmd, self.workdir, self.env, stdout_path,
                      min(OP_TIMEOUT_S, self._remaining()))

    def setup_launches(self, n: int) -> list[float]:
        times = []
        for _ in range(n):
            res = self._launch(CLI + ["--version"],
                               os.path.join(self.workdir, "version"))
            with open(os.path.join(self.workdir, "version"), "rb") as fh:
                out = fh.read()
            if res.code != 0 or not out.startswith(b"primfield "):
                raise SystemExit(f"primfield --version failed (exit {res.code}):"
                                 f"\n{res.stderr}")
            times.append(res.seconds)
        return times

    def run_op(self, i: int, traced: bool):
        op = self.ops[i]
        stdout_path = os.path.join(self.workdir, f"op{i}.out")
        if self._remaining() < 1:
            self.problems[i].append("run time limit reached before launch")
            return None, None
        spans_path = os.path.join(self.workdir, f"op{i}.spans.json")
        prefix = TRACED_CLI + [spans_path, "--"] if traced else CLI
        res = self._launch(prefix + list(op.argv), stdout_path)
        problem = None
        if res.timed_out:
            problem = "killed by the per-op time guard"
        elif res.code != 0:
            problem = f"exit code {res.code}"
        elif "Traceback (most recent call last)" in res.stderr:
            problem = "printed a traceback"
        if problem is None:
            with open(stdout_path, "rb") as fh:
                problem = workloads.check(op, fh.read(), self.workdir,
                                          self.goldens)
            self.wrong |= problem is not None
        if problem is not None:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            self.problems[i].append(f"{problem}; stderr: {tail[0][:300]}")
        record = None
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                record = json.load(fh)
            os.remove(spans_path)
            record["startup_s"] = record["t_main"] - res.t_launch
            record["exit_s"] = res.t_exit - record["t_end"]
            record["out_bytes"] = self._out_bytes(op, stdout_path)
        return res, record

    def _out_bytes(self, op, stdout_path) -> int:
        return sum(os.path.getsize(p) for p in
                   [stdout_path] + [os.path.join(self.workdir, f)
                                    for f in op.outputs] if os.path.exists(p))

    # -- measuring -----------------------------------------------------

    def cycle(self, step) -> None:
        """Call step(i) for each op in order, round after round, until the
        run's seconds are spent and at least one full pass is done."""
        deadline = self.t_start + self.seconds
        n = len(self.ops)
        k = 0
        while k < n or (time.monotonic() < deadline and self._remaining() > 1):
            step(k % n)
            k += 1

    def run(self) -> dict:
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self.setup_launches(1)          # warm-up: compiles bytecode
            if self.trace:
                metrics = self._traced()
            else:
                metrics = self._untraced()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:
                pass                # another run still uses it
        failed = sum(1 for p in self.problems.values() if p)
        return {"correct": not self.wrong, "attempted": len(self.ops),
                "failed": failed, "metrics": metrics}

    def _untraced(self) -> dict:
        # Host speed drifts over seconds, so setup launches are spread
        # over the run, one after each op, rather than timed in one burst.
        setup = self.setup_launches(SETUP_LAUNCHES)
        self.t_start = time.monotonic()
        times = [[] for _ in self.ops]
        rss = [[] for _ in self.ops]

        def step(i):
            res, _ = self.run_op(i, traced=False)
            if res is not None:
                times[i].append(res.seconds)
                rss[i].append(res.rss_mb)
            setup.extend(self.setup_launches(1))
        self.cycle(step)
        setup += self.setup_launches(SETUP_LAUNCHES)
        self.setup_times = setup
        self.times = times
        ok = sum(1 for p in self.problems.values() if not p)
        values = {
            "wall_s": sum(statistics.median(t) for t in times if t),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(statistics.median(r) for r in rss if r),
            "ops_ok_frac": ok / len(self.ops),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def _traced(self) -> dict:
        plain = [[] for _ in self.ops]
        traced = [[] for _ in self.ops]   # (seconds, record)

        def step(i):
            res, _ = self.run_op(i, traced=False)
            if res is not None:
                plain[i].append(res.seconds)
            res, record = self.run_op(i, traced=True)
            if record is not None:
                traced[i].append((res.seconds, record))
        self.cycle(step)
        self.times = [[s for s, _ in runs] for runs in traced]
        values = dict.fromkeys(PER_LAYER, 0.0)
        for i, runs in enumerate(traced):
            if not runs:
                continue
            for name in PER_LAYER:
                if not name.startswith("trace."):
                    values[name] += statistics.median(
                        _layer_value(rec, name) for _, rec in runs)
            values["trace.wall_s"] += statistics.median(s for s, _ in runs)
            for part in ("startup_s", "exit_s"):
                values[f"trace.{part}"] += statistics.median(
                    rec[part] for _, rec in runs)
            values["trace.self_sum_s"] += statistics.median(
                sum(v["self_s"] for v in rec["layers"].values())
                for _, rec in runs)
        values["trace.untraced_wall_s"] = sum(
            statistics.median(t) for t in plain if t)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - values["trace.untraced_wall_s"])
        values["trace.unattributed_s"] = (values["trace.wall_s"]
                                          - values["trace.startup_s"]
                                          - values["trace.self_sum_s"]
                                          - values["trace.exit_s"])
        values["fieldpoly.build_factor_sieve.repeat_calls"] = _repeat_builds(
            [runs[0][1] for runs in traced if runs])
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def _layer_value(record: dict, name: str) -> float:
    if name == "cli.out_bytes":
        return record["out_bytes"]
    if name in record["counters"]:
        return record["counters"][name]
    layer, _, field = name.rpartition(".")
    span = record["layers"].get(layer, {})
    return span.get("calls" if field == "created" else field, 0)


def _repeat_builds(records: list[dict]) -> int:
    """Sieve builds, over one pass in op order, of a (q, horizon) already
    built earlier in the pass, in the same op or an earlier one."""
    seen, repeats = set(), 0
    for record in records:
        for key in map(tuple, record["sieves"]):
            repeats += key in seen
            seen.add(key)
    return repeats


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "commit": _commit()}


def _commit() -> str:
    """The checked-out commit, or else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def summarize(runner: Runner, result: dict) -> str:
    lines = [f"workload {runner.workload}: {result['attempted']} ops, "
             f"ops_failed_frac {result['failed']}/{result['attempted']}, "
             f"{len(runner.setup_times)} timed setup launches"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<48} {m['value']:>14.4f} {m['unit']}")
    for op, times in zip(runner.ops, runner.times):
        if times:
            lines.append(f"  op median {statistics.median(times):8.3f} s, min "
                         f"{min(times):8.3f} s, max {max(times):8.3f} s, "
                         f"n={len(times)}: {op.key}")
    for i, problems in runner.problems.items():
        if problems:
            lines.append(f"  failed op: {runner.ops[i].key}: {problems[0]}")
    return "\n".join(lines)


def run_workload(name, seed, seconds, trace, smoke=False):
    runner = Runner(name, seed, seconds, trace, smoke=smoke)
    result = runner.run()
    print(summarize(runner, result), flush=True)
    return runner, result


def smoke() -> int:
    """Reduced-size self-test of the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {"0": {m["name"] for m in spec["end_to_end"]},
                "1": {m["name"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.py")
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            runner, result = run_workload(name, 1, 1, trace, smoke=True)
            emitted = set(result["metrics"])
            want = declared["1" if trace else "0"]
            if emitted != want:
                raise SystemExit(f"{name}: metric names {sorted(emitted ^ want)}"
                                 " differ from BENCHMARK.json")
            if not result["correct"]:
                raise SystemExit(f"{name}: an output check failed")
            if name == "certify":
                mertens = [i for i, op in enumerate(runner.ops)
                           if op.argv[:2] == ("eval", "mertens")]
                if not all(runner.problems[i] for i in mertens) or \
                        result["failed"] < len(mertens):
                    raise SystemExit("the eval mertens crash was not counted")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size self-test of the benchmark")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "primfield", "cli.py")):
        print(f"no primfield sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps({"environment": environment(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        _, results[name] = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace))
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
