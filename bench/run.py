"""nslocc benchmark: seeded CLI workloads, end-to-end and per-module metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller drives ``nslocc.cli.main`` in this
process in a closed loop (the next iteration starts when the previous one
returns) for S seconds, after one untimed warm-up iteration.  Iterations
cycle through INPUTS_PER_RUN input seeds derived from N, so a run's median
covers a spread of inputs rather than one draw.  Every iteration's output is
checked.

--trace 0 reports the end-to-end metrics: wall_s, wall_s_tail, setup_s,
peak_rss_mb, ok_frac.  wall_s and setup_s are scaled to a reference machine
speed measured by a calibration kernel run between iterations (Calibrator);
the raw times are printed next to them.  --trace 1 alternates traced and
untraced iterations and reports per-module self time and call counts from an
outside-in tracer (bench/tracer.py), plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  BLAS runs with as many threads as this process may use
CPUs.  Scratch output (gen-channel files, trace spans) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
INPUTS_PER_RUN = 16   # run seed N uses input seeds 16N .. 16N+15
SETUP_SPAWNS = 6      # fresh interpreters timed before and again after the loop
SETUP_CODE = ("import numpy, nslocc.cli; "
              "numpy.linalg.eigvalsh(numpy.eye(2, dtype=complex))")
RSS_CODE = """
import sys
from nslocc.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write([ln for ln in fh if ln.startswith("VmHWM")][0])
sys.exit(rc)
"""
TAIL_BEYOND = 10      # samples beyond the reported tail percentile
# Calibrator.sample time (seconds) that defines the reference speed wall_s and
# setup_s are scaled to; close to its median on the measuring machine.
CAL_REFERENCE_S = 0.008

LAYERS = {
    "tensor_core": ("partial_trace", "embed", "trace_norm", "permutation_matrix",
                    "symmetric_projector", "operator_to_json"),
    "channels": ("symmetrize_channel", "is_nonsignalling", "is_cptp",
                 "marginal_channel", "measure_and_prepare_choi",
                 "random_nonsignalling_choi"),
    "definetti": ("purify_extension", "branch_extension", "build_grid",
                  "extract_measure", "subspace_residual", "approx_error"),
    "locc": ("build_locc_protocol", "concentration_report", "tp_repair"),
    "risk": ("risk_gap_experiment", "expected_risk", "protocol_risk",
             "r_operator"),
}
TARGETS = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


def input_seeds(seed: int) -> list[int]:
    return [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _blas_threads() -> tuple[int | str, str]:
    """Thread count reported by the loaded OpenBLAS, or the variable set."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn(), symbol
    return os.environ["OPENBLAS_NUM_THREADS"], "OPENBLAS_NUM_THREADS"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    np.linalg.eigvalsh(np.eye(2))   # make sure the BLAS library is loaded
    threads, source = _blas_threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads,
            "blas_threads_source": source, "nproc": NPROC,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_cli(workload, seed: int) -> tuple[float, list, list[str]]:
    """One iteration's CLI calls: (seconds, parsed outputs, problems)."""
    from nslocc import cli

    calls = workload.calls(seed, OUT_DIR)
    stdouts = []
    start = perf_counter()
    try:
        for argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                return perf_counter() - start, [], [f"{argv[0]} exited {rc}"]
            stdouts.append(buf.getvalue())
    except Exception:       # the loop must go on; the failure is counted
        return perf_counter() - start, [], ["raised:\n" + traceback.format_exc()]
    elapsed = perf_counter() - start
    try:
        return elapsed, [workload.parse(a, o) for a, o in zip(calls, stdouts)], []
    except Exception:
        return elapsed, [], ["output does not parse:\n" + traceback.format_exc()]


class Loop:
    """Closed-loop runner: counts attempts and failed attempts."""

    def __init__(self, workload, seed: int, oracle, reference: dict | None,
                 plant: bool):
        self.workload, self.seed = workload, seed
        self.inputs = input_seeds(seed)
        self.oracle, self.reference, self.plant = oracle, reference, plant
        self.attempted = 0
        self.failures: set[int] = set()

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, attempt: int, problems: list[str]) -> None:
        self.failures.add(attempt)
        print(f"iteration {attempt} FAILED: " + "; ".join(problems),
              file=sys.stderr)

    def step(self) -> float:
        """One checked iteration.  Attempt 0 is the warm-up, so with
        --plant-fault the first timed iteration's output is corrupted."""
        attempt = self.attempted
        self.attempted += 1
        seed = self.inputs[attempt % len(self.inputs)]
        elapsed, outputs, problems = run_cli(self.workload, seed)
        if not problems:
            try:
                if self.plant and attempt == 1:
                    self.workload.plant(outputs)
                problems = self.workload.check(seed, outputs, self.oracle)
                if self.reference is not None:
                    problems += self.workload.compare(
                        outputs, self.reference[str(seed)])
            except Exception:
                problems = ["output check raised:\n" + traceback.format_exc()]
        if problems:
            self.fail(attempt, problems)
        return elapsed

    def timed(self, seconds: float, each=None, between=None) -> list[float]:
        """Iterate until `seconds` have passed; `each(i)` wraps iteration i,
        `between()` runs untimed after each iteration."""
        durations = []
        deadline = perf_counter() + seconds
        while True:
            with (each(len(durations)) if each else contextlib.nullcontext()):
                durations.append(self.step())
            if between:
                between()
            if perf_counter() >= deadline:
                return durations


class Calibrator:
    """Times a fixed kernel that does not touch nslocc, between iterations.

    On a shared machine the speed available to one process drifts by a
    quarter or more over minutes, and every time the benchmark takes drifts
    with it.  The kernel mixes the work the workloads do (dense complex
    matmuls, many small eigendecompositions, Python object churn), so its
    median over a run measures the machine's speed during that run;
    ``factor`` rescales the run's times to the speed at which the kernel
    takes CAL_REFERENCE_S.  A change to nslocc cannot move the kernel.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self.small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(60)]
        self.samples: list[float] = []

    def sample(self) -> None:
        np = self.np
        start = perf_counter()
        for _ in range(6):
            self.big @ self.big
        for m in self.small:
            h = m + m.conj().T
            np.linalg.eigvalsh(h)
            np.kron(h, h).trace()
        {i: [float(i)] for i in range(5000)}
        self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        return CAL_REFERENCE_S / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def measure_setup(spawns: int) -> list[float]:
    """Wall time of fresh interpreters that import nslocc.cli and finish their
    first LAPACK call: what every nslocc invocation pays before its work."""
    times = []
    for _ in range(spawns):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                       check=True)
        times.append(perf_counter() - start)
    return times


def measure_peak_rss(workload, seed: int) -> float:
    """Peak RSS in MB of child interpreters that run only this workload's CLI
    calls (the largest, when an iteration makes several).

    Each child reads its own VmHWM just before exiting: unlike the rusage a
    parent collects, it belongs to the child's own address space and does not
    inherit the parent's size across fork and exec.
    """
    peak_kb = 0
    for argv in workload.calls(seed, OUT_DIR):
        done = subprocess.run([sys.executable, "-c", RSS_CODE, *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=_child_env())
        lines = [ln for ln in done.stderr.splitlines() if ln.startswith("VmHWM")]
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"child {argv} exited {done.returncode}: "
                               f"{done.stderr[-2000:]}")
        peak_kb = max(peak_kb, int(lines[-1].split()[1]))
    return peak_kb / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, seconds: float) -> dict:
    cal = Calibrator()
    # the first spawn after idle pays cold-cache costs no later one sees
    setup = measure_setup(SETUP_SPAWNS + 1)[1:]
    peak = measure_peak_rss(loop.workload, loop.inputs[0])
    loop.step()                                   # warm-up, untimed
    cal.sample()
    durations = loop.timed(seconds, between=cal.sample)
    setup += measure_setup(SETUP_SPAWNS)
    f = cal.factor()
    wall = statistics.median(durations)
    tail_value, pct = tail(durations)
    setup_s = statistics.median(setup)
    fail_frac = loop.failed / loop.attempted
    print(f"calibration: kernel median {statistics.median(cal.samples):.6f} s over "
          f"{len(cal.samples)} samples; times below are raw and scaled by "
          f"{f:.4f} to the reference speed")
    print(f"wall_s      {wall:.6f} s raw, {wall * f:.6f} s scaled  "
          f"(median of {len(durations)} iterations)")
    print(f"wall_s_tail {tail_value:.6f} s raw, not scaled  "
          f"(p{pct:.1f} of {len(durations)} samples, "
          f"{min(TAIL_BEYOND, len(durations) - 1)} beyond)")
    print(f"setup_s     {setup_s:.6f} s raw, {setup_s * f:.6f} s scaled  (median "
          f"of {len(setup)} fresh interpreters, {min(setup):.3f}..{max(setup):.3f})")
    print(f"peak_rss_mb {peak:.3f} MB")
    print(f"fail_frac   {fail_frac:.6f}  ({loop.failed} of {loop.attempted} "
          f"attempted, warm-up included)")
    return {
        "wall_s": metric(wall * f, "s"),
        # the tail is set by short stalls, not by the machine's speed, and
        # scaling it by the run's median kernel time made it less steady
        "wall_s_tail": metric(tail_value, "s"),
        "setup_s": metric(setup_s * f, "s"),
        "peak_rss_mb": metric(peak, "MB"),
        "ok_frac": metric(1.0 - fail_frac, "frac"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(loop: Loop, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer(TARGETS + ["cli.main"],
                    keep_results=("definetti.build_grid",
                                  "locc.build_locc_protocol"))
    loop.step()                                   # warm-up, untimed

    @contextlib.contextmanager
    def every_other(i):
        # even iterations traced, odd ones untraced: same conditions for both
        if i % 2:
            yield
            return
        tracer.iteration = loop.attempted
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    durations = loop.timed(seconds, every_other)
    traced = durations[0::2]
    untraced = durations[1::2] or traced
    per_it = tracer.per_iteration()
    its = sorted(per_it)
    grids = dict.fromkeys(its, 0)
    for it, grid in tracer.results["definetti.build_grid"]:
        grids[it] += grid.count
    repaired, points = dict.fromkeys(its, 0), dict.fromkeys(its, 0)
    for it, protocol in tracer.results["locc.build_locc_protocol"]:
        repaired[it] += protocol.provenance["repaired_count"]
        points[it] += protocol.provenance["grid_count"]

    # sanity gates: the tracer must see every call the pipeline makes
    for it in its:
        gates = {"channels.symmetrize_channel": loop.workload.symmetrize_calls,
                 "locc.tp_repair": repaired[it]}
        bad = [f"{name}.calls {per_it[it][name][1]} != {want}"
               for name, want in gates.items() if per_it[it][name][1] != want]
        if bad:
            loop.fail(it, ["trace gate: " + "; ".join(bad)])
    spans_path = OUT_DIR / f"spans-{loop.workload.name}-{loop.seed}.jsonl"
    tracer.write_spans(spans_path)

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in TARGETS:
        out[f"{name}.self_s"] = metric(med([per_it[i][name][0] for i in its]), "s")
        out[f"{name}.calls"] = metric(med([per_it[i][name][1] for i in its]), "count")
    out["cli.self_s"] = metric(med([per_it[i]["cli.main"][0] for i in its]), "s")
    out["definetti.grid_points"] = metric(med([grids[i] for i in its]), "count")
    out["locc.repaired_frac"] = metric(
        med([repaired[i] / points[i] if points[i] else 0.0 for i in its]), "frac")
    out["trace.overhead_s"] = metric(med(traced) - med(untraced), "s")
    print(f"traced {len(traced)} / untraced {len(untraced)} iterations; "
          f"bindings patched per function: {tracer.bindings}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, m in out.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def record_reference(workloads: dict, default_seed: int, path: Path) -> None:
    """Write the summaries of every input of the default seed's run."""
    data = {"seed": default_seed, "workloads": {}}
    for name, workload in workloads.items():
        data["workloads"][name] = {}
        for seed in input_seeds(default_seed):
            _, outputs, problems = run_cli(workload, seed)
            if problems:
                raise RuntimeError(f"{name} input {seed}: {problems}")
            data["workloads"][name][str(seed)] = workload.summary(outputs)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt the first timed iteration's output "
                             "(a control: the run must report a failure)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds are)")

    # BLAS reads its thread count once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    src = ROOT / "src"
    if not (src / "nslocc" / "cli.py").is_file():
        print(f"error: no nslocc sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as wl
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference(wl.WORKLOADS, wl.DEFAULT_SEED, wl.REFERENCE_PATH)
        return 0
    if args.workload not in wl.WORKLOADS:
        print(f"error: --workload must be one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: closed loop, one caller, "
          f"{args.seconds:g} s, input seeds {input_seeds(args.seed)[0]}.."
          f"{input_seeds(args.seed)[-1]}")
    reference = (wl.load_reference(workload.name)
                 if args.seed == wl.DEFAULT_SEED else None)
    loop = Loop(workload, args.seed, workload.oracle(), reference,
                args.plant_fault)
    if args.trace:
        metrics = per_layer(loop, args.seconds)
    else:
        metrics = end_to_end(loop, args.seconds)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
