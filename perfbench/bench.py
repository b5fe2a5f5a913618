"""Harness: argument parsing, closed-loop timing, operation accounting and
the result line.

One process, one client: every workload runs its passes back to back and
starts the next only when the previous one has finished. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# set-ups per untraced run; setup_s is their median
SETUPS = 3


class Ops:
    """Counts operations: every CLI command, call under test and check.

    A command that exits non-zero, a call that raises and a check that does
    not hold each count as one failed operation.
    """

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict[str, list[int]] = {}  # label -> [ok, failed]
        self.timings: dict[str, dict[str, list[float]]] = {}  # label -> wall/cpu seconds
        self.log = log or sys.stderr

    def _count(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        tally = self.outcomes.setdefault(label, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: {detail}", file=self.log)
        return ok

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        return self._count(label, bool(ok), detail)

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn; returns (ok, result). An exception is a failed operation."""
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the operation under test failed; keep measuring
            self._count(label, False, traceback.format_exc())
            return False, None
        self._count(label, True)
        return True, result

    def command(self, label: str, argv: list[str]) -> float | None:
        """Run ``m3enc.cli.main(argv)``; returns its wall seconds, or None
        when it failed. The CLI's own output goes to stderr."""
        from m3enc import cli
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(self.log):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the arguments
            rc = e.code
        except Exception:  # the command under test crashed; keep measuring
            self._count(label, False, traceback.format_exc())
            return None
        seconds = perf_counter() - t0
        timing = self.timings.setdefault(label, {"wall": [], "cpu": []})
        timing["wall"].append(seconds)
        timing["cpu"].append(process_time() - c0)
        ok = self._count(label, rc == 0, f"exit code {rc} from m3enc {' '.join(argv)}")
        return seconds if ok else None


@dataclasses.dataclass
class Context:
    """One workload run: its inputs' seed, time budget, sizes and counters."""

    workload: str
    seed: int
    seconds: float
    sizes: object  # workloads.Sizes
    ops: Ops
    workdir: Path
    samples: dict[str, list[float]] = dataclasses.field(default_factory=dict)  # per metric
    info: dict[str, float] = dataclasses.field(default_factory=dict)  # reported, not a metric


def sub_seed(seed: int, *names) -> int:
    """A child seed for one input stream of the run."""
    h = hashlib.sha256(repr((seed,) + names).encode()).digest()
    return int.from_bytes(h[:4], "little")


def _blas_threads():
    import numpy as np
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            f = getattr(lib, fn, None)
            if f is not None:
                f.restype = ctypes.c_int
                return f()
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _git_head(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def run_untraced(wl, ctx: Context) -> dict[str, float]:
    """Set up ``SETUPS`` times, then run passes back to back until
    ``ctx.seconds`` have passed (at least one pass).

    ``items_per_s`` is the best pass's work items over its wall time: other
    load on a shared host only ever slows a pass, so the fastest pass is the
    closest to the program's own cost. The quality figures of the first pass
    are reported as info.
    """
    setup_s = []
    for _ in range(SETUPS):  # identical inputs each time; only the time differs
        t0 = perf_counter()
        state = wl.setup(ctx)
        setup_s.append(perf_counter() - t0)
    wl.prepare(ctx, state)
    rates = []
    t_end = perf_counter() + ctx.seconds
    while not rates or perf_counter() < t_end:
        pass_dir = ctx.workdir / f"pass{len(rates)}"
        t0 = perf_counter()
        items, results = wl.run_pass(ctx, state, pass_dir, contextlib.nullcontext)
        rates.append(items / (perf_counter() - t0))
        out = wl.verify(ctx, state, pass_dir, results)
        shutil.rmtree(pass_dir, ignore_errors=True)
        # passes are compared by digest, so peak_rss_mb does not grow with their number
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        if len(rates) == 1:
            first = digest
            if out is not None:
                ctx.info.update(wl.quality(out))
        else:
            ctx.ops.check(f"{ctx.workload}.repeatable", digest == first,
                          f"pass {len(rates) - 1} differs from pass 0")
        results = out = None  # free them before the next pass allocates its own
    ctx.samples.update(items_per_s=rates, setup_s=setup_s)
    metrics = {"items_per_s": max(rates),
               "setup_s": statistics.median(setup_s),
               "peak_rss_mb": peak_rss_mb()}
    print(f"{ctx.workload}: {len(rates)} pass(es), setup x{len(setup_s)}",
          file=sys.stderr)
    return metrics


def run_traced(wl, ctx: Context) -> dict[str, float]:
    """One untraced pass, then the same pass traced; per-layer metrics."""
    from .layers import MODULES, layer_metrics
    from .tracer import Tracer

    state = wl.setup(ctx)
    wl.prepare(ctx, state)
    untraced_dir, traced_dir = ctx.workdir / "untraced", ctx.workdir / "traced"
    t0 = perf_counter()
    _, results = wl.run_pass(ctx, state, untraced_dir, contextlib.nullcontext)
    untraced_s = perf_counter() - t0
    plain = wl.verify(ctx, state, untraced_dir, results)

    tracer = Tracer()
    restore = tracer.install("m3enc", MODULES)
    try:
        t0 = perf_counter()
        _, results = wl.run_pass(ctx, state, traced_dir,
                                 lambda name: tracer.span(f"bench.{name}"))
        traced_s = perf_counter() - t0
    finally:
        restore()
    traced = wl.verify(ctx, state, traced_dir, results)
    for path in (untraced_dir, traced_dir):
        shutil.rmtree(path, ignore_errors=True)
    ctx.ops.check(f"{ctx.workload}.traced_equals_untraced", traced == plain,
                  f"traced {traced} vs untraced {plain}")
    tracer.write(ctx.workdir / "spans.jsonl")
    return layer_metrics(tracer.spans, wl.steps(ctx), untraced_s, traced_s)


def make_context(name: str, seed: int, seconds: float, sizes, ops: Ops,
                 trace: bool) -> Context:
    """A context with a fresh work directory for one workload run."""
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return Context(name, seed, seconds, sizes, ops, workdir)


def run_workload(ctx: Context, trace: bool) -> dict[str, float]:
    from .workloads import WORKLOADS
    wl = WORKLOADS[ctx.workload]
    return run_traced(wl, ctx) if trace else run_untraced(wl, ctx)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=("train", "sweep", "search", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured time per workload; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _units(trace: bool) -> dict[str, str]:
    if trace:
        from .layers import UNITS
        return UNITS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def _src_ok() -> bool:
    src = ROOT / "src" / "m3enc" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: no m3enc sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    import m3enc
    if Path(m3enc.__file__).resolve() != src.resolve():
        print(f"perfbench: imported m3enc from {m3enc.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def main(argv=None, sizes=None) -> int:
    """The command line; ``sizes`` replaces the full-size inputs (tests)."""
    args = _parser().parse_args(argv)
    if not _src_ok():
        return 2
    from .workloads import FULL
    sizes = sizes or FULL
    names = ("train", "sweep", "search") if args.workload == "all" else (args.workload,)
    units = _units(bool(args.trace))
    env = environment()
    ops = Ops()
    metrics: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    info: dict[str, float] = {}
    for name in names:
        ctx = make_context(name, args.seed, args.seconds, sizes, ops, bool(args.trace))
        got = run_workload(ctx, bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + key: got[key] for key in units})  # every manifest metric
        samples.update({prefix + k: v for k, v in ctx.samples.items()})
        info.update({prefix + k: v for k, v in ctx.info.items()})
    for key, value in metrics.items():
        print(f"{key:<48} {value:>16.6f} {units[key.split('/')[-1]]}")
    for key, value in info.items():
        print(f"info {key:<43} {value}")
    for label, (ok, bad) in ops.outcomes.items():
        print(f"check {label:<42} {'ok' if not bad else 'FAILED'} ({ok} ok, {bad} failed)")
    print(f"operations: {ops.failed} failed of {ops.attempted} attempted")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sizes=dataclasses.asdict(sizes), env=env,
                  checks=ops.outcomes, samples=samples, info=info,
                  command_seconds=ops.timings)
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0
