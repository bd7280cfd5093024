"""gsdelay benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload cold-solve --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters, started between stretches of the timed loop, of start to
import plus warm-up), ops_per_s, op_ms_p50,
op_ms_p90, fail_ratio and peak_rss_mb. The timed metrics are scaled to a
reference host speed by a calibration kernel timed between ops, so that
phases of host load do not move them. --trace 1 prints the per-layer
metrics instead, from a traced pass over a fixed number of ops; end-to-end
numbers never come from a traced pass. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
attempted and failed count ops: an op fails when it raises or its output
check fails. Each run also writes a result file with an environment record
to benchmarks/out/ and, when traced, its spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402
from tracer import CHECK_OP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # one before the timed loop, one after each of its stretches
PER_OP_CHECKS = ("op", "traced = untraced")
# Op times are scaled to a host on which calibrate(), run between ops,
# takes this long: about its median on the 2-core host of the baseline
# (3.0-3.9 ms per run), so scaled and raw figures are close there.
CALIBRATION_REF_S = 0.0035
CALIBRATION_WINDOW = 5  # an op is scaled by the median calibration of the 2 * 5 + 1 ops around it
_calibration_data = None


def import_gsdelay():
    """Import gsdelay from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    gs = importlib.import_module("gsdelay")
    importlib.import_module("gsdelay.reports")
    if Path(gs.__file__).resolve().parent != ROOT / "src" / "gsdelay":
        raise SystemExit(f"error: imported gsdelay from {gs.__file__}, not from this checkout")
    return gs


def calibrate() -> float:
    """Seconds one pass of a fixed kernel takes: the host's speed at this moment.

    The host's speed moves by up to 1.5x in phases of seconds, because of
    load outside the benchmark, and op times move with it. The kernel is
    pure-Python arithmetic plus numpy elementwise work, as the library is,
    and it never calls the library, so a change to the library leaves it
    alone.
    """
    global _calibration_data
    import numpy as np

    if _calibration_data is None:
        _calibration_data = np.linspace(0.0, 1.0, 100_000)
    t0 = perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    np.exp(_calibration_data).sum()
    np.sort(_calibration_data[::-1]).sum()
    return perf_counter() - t0


def speed_factors(calibrations: list[float]) -> list[float]:
    """Per op, CALIBRATION_REF_S over the median calibration of the ops around it."""
    w, n = CALIBRATION_WINDOW, len(calibrations)
    return [CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - w):min(n, i + w + 1)])
            for i in range(n)]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported gsdelay and warmed up."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


class Checks:
    """Output checks attempted and failed, by kind."""

    def __init__(self):
        self.kinds: dict[str, list[int]] = {}

    def add(self, kind: str, ok: bool) -> None:
        counts = self.kinds.setdefault(kind, [0, 0])
        counts[0] += 1
        counts[1] += not ok

    def totals(self, per_op: bool) -> tuple[int, int]:
        """(attempted, failed) over the per-op checks, or over the once-per-run checks."""
        counts = [c for kind, c in self.kinds.items() if (kind in PER_OP_CHECKS) == per_op]
        return sum(a for a, _ in counts), sum(f for _, f in counts)

    def fail_ratio(self) -> float:
        """Failed share of the per-op checks plus failed share of the once-per-run checks.

        Each share has its own denominator, so the ratio does not move with
        the number of ops a run completes.
        """
        return sum(f / a for a, f in (self.totals(True), self.totals(False)) if a)


def run_ops(wl, indices, checks: Checks, seconds: float | None = None, keep: int = 1 << 30,
            tracer: Tracer | None = None, calibrations: list | None = None, **run_kwargs):
    """Closed loop over op inputs; returns per-op latencies and the first ``keep`` fingerprints.

    With ``seconds`` the loop stops at the first end of a block of the
    workload's mix after the ops' own time reaches it. Output
    checks, and calibrate() when ``calibrations`` is given, run between ops,
    outside the timed region; with a tracer, spans they cause are tagged as
    check spans, not as the op's.
    """
    latencies, prints = [], []
    busy = 0.0
    for i in indices:
        x = wl.input(i)
        if tracer:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            out = wl.run(x, **run_kwargs)
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            latencies.append(perf_counter() - t0)
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        else:
            latencies.append(perf_counter() - t0)
        if tracer:
            tracer.op_id = CHECK_OP
        busy += latencies[-1]
        if calibrations is not None:
            calibrations.append(calibrate())
        ok = out is not None and wl.check(x, out)
        checks.add("op", ok)
        if len(prints) < keep:
            prints.append(None if out is None else wl.fingerprint(out))
        if seconds is not None and busy >= seconds and wl.ends_block(i):
            break
    return latencies, prints


def reference_checks(gs, checks: Checks) -> dict:
    """Reference cells, golden digests and the accuracy panel; returns their findings."""
    known = set(references.load("known_cell_failures.json"))
    failing = []
    for report in gs.reports.verify_all():
        for cell in report.checks:
            checks.add("reference cell", cell.ok)
            if not cell.ok:
                failing.append(references.cell_id(cell))

    golden = references.load("golden.json")
    produced = {name: references.sha256(text)
                for name, text in references.bundled_csvs(gs, ROOT).items()}
    digest_mismatch = []
    for name, digest in golden.items():
        checks.add("golden digest", produced.get(name) == digest)
        if produced.get(name) != digest:
            digest_mismatch.append(name)

    panel = references.load("panel.json")["designs"]
    errors = []
    for spec, ref in zip(references.panel_specs(gs), panel):
        got = references.panel_values(gs.build_design(spec))
        rel = [abs(got["n_max"] - ref["n_max"]) / ref["n_max"], abs(got["ess"] - ref["ess"]) / ref["ess"]]
        rel += [abs(a - b) / abs(b) for a, b in zip(got["efficacy"], ref["efficacy"])]
        checks.add("accuracy panel", ref["label"] == references.panel_label(spec)
                   and len(got["efficacy"]) == len(ref["efficacy"])
                   and max(rel) <= references.PANEL_TOLERANCE)
        errors.append(rel[0])
    return {
        "failing_cells": failing,
        "unexpected_cells": sorted(set(failing) - known),
        "digest_mismatch": digest_mismatch,
        "nmax_rel_err_max": max(errors),
    }


def openblas_threads():
    """Threads OpenBLAS will use, asked of numpy's bundled library; None if unavailable."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(gs, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gsdelay": gs.__version__,
        "default_nodes": gs.sequential.DEFAULT_NODES,
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and warm up, print 'ready', exit (times set-up)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gsdelay" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} holds no gsdelay checkout (src/gsdelay and scenarios/)", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]

    if args.setup_probe:
        factory(args.seed, import_gsdelay(), ROOT).setup()
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed)]
    t0 = perf_counter()
    gs = import_gsdelay()
    import_s = perf_counter() - t0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = factory(args.seed, gs, ROOT)
    wl.setup()
    if tracer:
        tracer.uninstall()

    checks = Checks()
    thread_speedup = 0.0
    if not args.trace:
        # set-up is probed between stretches of the loop, so its samples span
        # the run rather than one stretch of the host's load
        latencies, prints, calibrations = [], [], []
        for _ in range(SETUP_PROBES - 1):
            lat, first = run_ops(wl, range(len(latencies), 10**9), checks,
                                 seconds=args.seconds / (SETUP_PROBES - 1), keep=1,
                                 calibrations=calibrations)
            latencies += lat
            prints = prints or first
            setup_samples.append(probe_setup(args.workload, args.seed))
    else:
        # each op runs untraced and traced back to back, so the overhead compares
        # runs under the same load on the host; the order alternates, so running
        # second is no advantage to either side
        n = wl.trace_ops
        latencies, prints, traced_lat = [], [], []
        for i in range(n):
            if i % 2:
                lat, untraced = run_ops(wl, [i], checks)
            tracer.install()
            lat_traced, traced = run_ops(wl, [i], checks, tracer=tracer)
            tracer.uninstall()
            if not i % 2:
                lat, untraced = run_ops(wl, [i], checks)
            checks.add("traced = untraced", traced == untraced)
            latencies += lat
            traced_lat += lat_traced
            prints = prints or untraced
        trace_overhead = sum(traced_lat) / sum(latencies)
        if wl.threads > 1:
            thread_speedup = sum(run_ops(wl, range(n), checks, threads=1)[0]) / sum(latencies)
    ops = len(latencies)

    if wl.threads > 1:
        _, single = run_ops(wl, [0], checks, threads=1)
        checks.add("1 thread = 2 threads", single[0] == prints[0])
    found = reference_checks(gs, checks)
    ops_attempted, ops_failed = checks.kinds["op"]
    correct = not found["unexpected_cells"] and all(
        f == 0 for kind, (_, f) in checks.kinds.items() if kind != "reference cell")

    env = environment(gs, args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    counts = ", ".join(f"{kind} {f}/{a}" for kind, (a, f) in checks.kinds.items())
    print(f"env: {json.dumps(env, sort_keys=True)}")
    passes = ", each run untraced and traced" if args.trace else ""
    print(f"{wl.name} seed {args.seed}: {ops} ops{passes}, closed loop, 1 client, threads={wl.threads}")

    if not args.trace:
        raw = latencies
        latencies = [t * f for t, f in zip(raw, speed_factors(calibrations))]
        busy = sum(latencies)
        p50 = statistics.median(latencies) * 1e3
        p90 = statistics.quantiles(latencies, n=10)[8] * 1e3 if ops >= 2 else p50
        calibration = statistics.median(calibrations)

        def scaled(raw_value, unit):
            return (f"scaled to reference host speed; raw {raw_value:.4g} {unit}, calibration "
                    f"median {calibration * 1e3:.3f} ms vs {CALIBRATION_REF_S * 1e3:g} ms")

        raw_p90 = statistics.quantiles(raw, n=10)[8] if ops >= 2 else raw[0]
        metrics = {
            "setup_s": (statistics.median(setup_samples) * CALIBRATION_REF_S / calibration, "s",
                        f"median of {len(setup_samples)} fresh interpreters, "
                        + scaled(statistics.median(setup_samples), "s")),
            "ops_per_s": (ops / busy, "ops/s", f"{ops} ops in {busy:.3f} s of scaled op time, "
                          + scaled(ops / sum(raw), "ops/s")),
            "op_ms_p50": (p50, "ms", f"{ops} samples, " + scaled(statistics.median(raw) * 1e3, "ms")),
            "op_ms_p90": (p90, "ms", f"{ops} samples, {sum(l * 1e3 > p90 for l in latencies)} beyond, "
                          + scaled(raw_p90 * 1e3, "ms")),
            "fail_ratio": (checks.fail_ratio(), "ratio",
                           "failed {1} of {0} per-op checks + failed {3} of {2} once-per-run "
                           "checks: ".format(*checks.totals(True), *checks.totals(False)) + counts),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "peak RSS of this process"),
        }
    else:
        layer = tracer.layer_metrics()
        layer["design.nmax_rel_err_max"] = found["nmax_rel_err_max"]
        layer["simulate.thread_speedup"] = thread_speedup
        layer["import_s"] = import_s
        layer["trace_overhead"] = trace_overhead
        units = {"calls": "count", "solves": "count", "builds": "count", "rows": "count",
                 "kernel_evals": "count", "self_s": "s", "import_s": "s", "call_us_p50": "us",
                 "kernel_mb": "MB", "recursions_per_solve": "calls/solve",
                 "power_recursions_per_build": "calls/build", "recursions_per_row": "calls/row"}
        notes = {
            "sequential.kernel_evals": "computed: sum of (K-1)*nodes^2",
            "sequential.kernel_mb": "computed: kernel_evals * 8 bytes",
            "scenario.self_s": "during set-up",
            "design.nmax_rel_err_max": f"accuracy panel vs {references.PANEL_NODES} nodes",
            "simulate.thread_speedup": (f"{n} ops at 1 vs {wl.threads} threads" if thread_speedup
                                        else "no threaded ops"),
            "import_s": "in this process",
            "trace_overhead": f"traced / untraced time of the same {n} ops",
        }
        metrics = {name: (value, units.get(name.split(".")[-1], "ratio"),
                          "absent" if value is None else notes.get(name, f"over {n} traced ops"))
                   for name, value in layer.items()}
        tracer.write(out_dir / f"{stem}.spans.csv.gz")
        if tracer.foreign_calls:
            print(f"warning: {tracer.foreign_calls} traced calls came from worker threads "
                  "and are not in the spans", file=sys.stderr)

    for name, (value, unit, note) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:38s} {shown:>12s} {unit:6s} {note}")
    if found["unexpected_cells"] or found["digest_mismatch"]:
        print(f"unexpected failing cells: {found['unexpected_cells']}; "
              f"digest mismatches: {found['digest_mismatch']}")
    print(f"failing reference cells, counted in fail_ratio: {len(found['failing_cells'])}, "
          f"{len(found['failing_cells']) - len(found['unexpected_cells'])} of them known")

    result = {
        "correct": correct,
        "attempted": ops_attempted,
        "failed": ops_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {"environment": env, "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "checks": checks.kinds, "findings": found, "import_s": import_s,
              "setup_samples_s": setup_samples, "op_latencies_s": latencies,
              "raw_op_latencies_s": None if args.trace else raw,
              "calibrations_s": None if args.trace else calibrations,
              "notes": {name: note for name, (_, _, note) in metrics.items()}, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
