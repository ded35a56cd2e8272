"""tritterlab benchmark: one workload per run, measured end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gen-w-ideal --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
gen-w-ideal, gen-ghzp-noisy, scan-tritter, multiport. The package is imported
from ``src/`` of the current directory, never from an installed copy; without
``src/tritterlab`` the run exits with code 2 and prints no result.

A run builds the workload's inputs from ``--seed``, warms up, then repeats
whole passes over its operations until ``--seconds`` have passed, checking
every output. All work runs in this process on one thread, with BLAS pinned
to one thread. Timings are reported at reference speed (see SpeedProbe), so
that a shared machine's drifting CPU speed does not swamp the bounds; the raw
wall-clock figures are printed beside them.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it give the
environment and every metric by name and unit, including those that may be
zero (fail_ratio, unconverged_fit_ratio) or undefined (op_s_p90 needs 100
operations). A traced run executes every operation twice, once with spans
and once without, alternating which goes first, so the tracing overhead is
measured on identical work. Results and spans are written to
``.perfbench_out/``.

Seed 4242 was not used while the benchmark was written; keep it for
confirming later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
SETUP_PROBES = 5
OUT_DIR = ".perfbench_out"
#: op_s_p90 is reported only with at least ten samples above it
P90_MIN_SAMPLES = 100
#: the reference speed is sampled after at least this much operation time
GROUP_S = 0.1
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def prepare(root: Path) -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the import path."""
    if not (root / "src" / "tritterlab" / "__init__.py").is_file():
        print(f"error: {root} has no src/tritterlab; run from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))


def import_package(root: Path) -> None:
    import tritterlab
    import tritterlab.cli  # noqa: F401

    location = Path(tritterlab.__file__).resolve()
    if not location.is_relative_to((root / "src").resolve()):
        print(f"error: imported tritterlab from {location}, not from {root / 'src'}", file=sys.stderr)
        raise SystemExit(2)


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
        ),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def setup_probe(args, root: Path) -> None:
    """Child process: time importing the package and building the workload's inputs."""
    start = time.perf_counter()
    import_package(root)
    import workloads

    workload = workloads.build(args.workload, args.seed, root / OUT_DIR / "tmp")
    elapsed = time.perf_counter() - start
    workload.close()
    print(repr(elapsed))


class SpeedProbe:
    """Times a fixed reference kernel to track how fast this CPU runs right now.

    On a shared machine the CPU speed can drift by tens of percent over seconds as
    neighbouring tenants come and go, and an operation of a second or more
    averages over that drift. Every timing is therefore also scaled to the
    reference speed: ``raw * REFERENCE_S / reference``, where ``reference``
    is the kernel's median time measured next to the timing. Both figures are
    kept; the metrics use the scaled one, in seconds at reference speed.
    """

    REFERENCE_S = 1e-3
    SAMPLES = 7

    def __init__(self):
        import numpy as np

        k = np.arange(8)
        self._unitary = np.exp(2j * np.pi * np.outer(k, k) / 8) / np.sqrt(8)

    def _kernel(self) -> None:
        # half interpreter work, half small complex matrix products, like the package
        total = 0
        for i in range(9_000):
            total += i * i
        x = self._unitary
        for _ in range(90):
            x = x @ self._unitary

    def sample(self) -> float:
        times = []
        for _ in range(self.SAMPLES):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2.0)


def measure_setup(args, root: Path, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled set-up times of fresh processes.

    Runs after this process imported the package once, so every sample
    finds the bytecode cache in place.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    raw, scaled = [], []
    before = probe.sample()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120, check=True)
        after = probe.sample()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.scale(before, after))
        before = after
    return raw, scaled


class Tally:
    """Latencies (raw and speed-scaled) and failures of the operations of one run."""

    def __init__(self, n_ops: int):
        self.raw: list[list[float]] = [[] for _ in range(n_ops)]
        self.scaled: list[list[float]] = [[] for _ in range(n_ops)]
        self.paired_untraced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op, error: str | None, output) -> None:
        """Count the operation; a raise or a failed check counts as a failure, never dropped."""
        self.attempted += 1
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # a broken output must be counted, not crash the run
                error = f"check raised {exc!r}"
        if error:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.kind}: {error}")


def execute(op) -> tuple[float, str | None, object]:
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # counted as a failed operation by Tally.record
        return time.perf_counter() - start, f"raised {exc!r}", None
    return time.perf_counter() - start, None, output


def run_untraced(workload, seconds: float, fits, tracing, probe: SpeedProbe) -> Tally:
    """Whole passes until ``seconds`` have passed.

    The reference kernel is timed after each group of operations lasting at
    least ``GROUP_S``, so a long operation is bracketed by its own samples.
    """
    tally = Tally(len(workload.ops))
    group: list[tuple[int, float]] = []
    before = probe.sample()
    with tracing.Patch(tracing.fit_counter_targets(fits)):
        start = time.perf_counter()
        while True:
            for position, op in enumerate(workload.ops):
                took, error, output = execute(op)
                tally.record(op, error, output)
                group.append((position, took))
                if sum(t for _, t in group) >= GROUP_S or position == len(workload.ops) - 1:
                    after = probe.sample()
                    factor = probe.scale(before, after)
                    before = after
                    for pos, t in group:
                        tally.raw[pos].append(t)
                        tally.scaled[pos].append(t * factor)
                    group.clear()
            if time.perf_counter() - start >= seconds:
                return tally


def run_traced(workload, seconds: float, tracer, fits, tracing) -> Tally:
    """Each operation once untraced and once traced; per-layer data comes from the traced ones."""
    tally = Tally(len(workload.ops))
    spans = tracing.Patch(tracing.span_targets(tracer, fits))
    # the untraced half runs exactly what a --trace 0 run runs
    counter = tracing.Patch(tracing.fit_counter_targets(tracing.FitCounter()))
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.ops:
            order = (False, True) if index % 2 == 0 else (True, False)
            index += 1
            for traced in order:
                with spans if traced else counter:
                    root_span = tracer.open(tracing.ROOT_SPAN) if traced else None
                    try:
                        took, error, output = execute(op)
                    finally:
                        if traced:
                            tracer.close(root_span)
                if not traced:
                    tally.paired_untraced.append(took)
                tally.record(op, error, output)
        if time.perf_counter() - start >= seconds:
            return tally


def _throughput(samples: list[list[float]]) -> float:
    """Operations per second of a typical pass: each operation at its median over passes."""
    return len(samples) / sum(statistics.median(s) for s in samples)


def end_to_end(tally: Tally, setup: tuple[list[float], list[float]], fits) -> tuple[dict, list[str]]:
    """End-to-end metrics at reference speed; a failed operation counts as not completed."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    completed = 1.0 - tally.failed / tally.attempted
    scaled = [x for s in tally.scaled for x in s]
    raw = [x for s in tally.raw for x in s]
    setup_raw, setup_scaled = setup
    metrics = {
        "ops_per_s": completed * _throughput(tally.scaled),
        "op_s_p50": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    notes = [
        f"operations per pass {len(tally.raw)}, passes {len(tally.raw[0])}",
        f"raw wall time: ops_per_s {completed * _throughput(tally.raw)!r} 1/s,"
        f" op_s_p50 {statistics.median(raw)!r} s, setup_s {statistics.median(setup_raw)!r} s",
        f"setup_s samples at reference speed: {[round(x, 4) for x in setup_scaled]}",
    ]
    if len(scaled) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(scaled, n=10)[8]
        above = sum(1 for x in scaled if x > p90)
        notes.append(f"op_s_p90 {p90!r} s (n={len(scaled)}, {above} above)")
    else:
        notes.append(f"op_s_p90 undefined (n={len(scaled)} < {P90_MIN_SAMPLES})")
    notes.append(f"fail_ratio {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted})")
    if fits.calls:
        notes.append(
            f"unconverged_fit_ratio {fits.unconverged / fits.calls!r} ({fits.unconverged}/{fits.calls})"
        )
    else:
        notes.append("unconverged_fit_ratio undefined (no reconstructions)")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    prepare(root)
    if args.setup_probe:
        setup_probe(args, root)
        return 0

    import_package(root)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    out_dir = root / OUT_DIR
    workload = workloads.build(args.workload, args.seed, out_dir / "tmp")
    try:
        workload.warmup()
        fits = tracing.FitCounter()
        if args.trace:
            tracer = tracing.Tracer()
            tally = run_traced(workload, args.seconds, tracer, fits, tracing)
            metrics = tracing.layer_metrics(tracing.summarize(tracer), fits, sum(tally.paired_untraced))
            units = tracing.PER_LAYER_UNITS
            notes = [f"traced operations: {len(tally.paired_untraced)}, spans: {len(tracer)}"]
        else:
            probe = SpeedProbe()
            setup = measure_setup(args, root, probe)
            tally = run_untraced(workload, args.seconds, fits, tracing, probe)
            metrics, notes = end_to_end(tally, setup, fits)
            units = END_TO_END_UNITS
    finally:
        workload.close()

    env = environment(root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        tracer.save(out_dir / f"{stem}.spans.npz")
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {"args": vars(args), "env": env, "facts": workload.facts, "metrics": metrics,
             "notes": notes, "failures": tally.failures,
             "latencies": tally.raw, "scaled_latencies": tally.scaled},
            indent=2, default=str,
        ) + "\n",
        encoding="utf-8",
    )

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for line in notes + tally.failures:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
