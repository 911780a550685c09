"""qmeas benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is compose-heavy, trial-heavy, single-process, or all (each workload
in its own process, one after another). A seeded generator (gen.py) writes
the scenario files of one round; the client sends the round's ops to
``qmeas.cli.main`` one after another, in whole rounds, until S seconds have
passed and the tail has enough samples, and checks every report (checks.py). The last line of output is a
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds in which every layer boundary is traced (tracing.py) for
S seconds, and reports per-layer metrics per round together with the
tracing overhead. The exit code is 0 only when every op passed its
checks. The BLAS thread count is pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("compose-heavy", "trial-heavy", "single-process")

#: BLAS threads, capped at the CPUs this process may run on. Compose at d=8
#: takes 1.6 s with two threads and 2.8 s with one on a 2-core machine, so
#: the count is pinned rather than left to the library.
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started to measure set-up; the median is reported.
SETUP_REPEATS = 9

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Spans reported by the traced run, named <module>.<function or class>.
#: README.md says which end-to-end metric each should move, on which workload.
SPANS = (
    "intersubjectivity.compose_joint_scenario",
    "intersubjectivity.JointScenario",
    "intersubjectivity.verify_oit",
    "intersubjectivity.joint_distribution",
    "intersubjectivity.check_intersubjectivity",
    "intersubjectivity.sample_outcomes",
    "linalg.SpectralDecomposition",
    "linalg.random_state",
    "linalg.complete_isometry_to_unitary",
    "linalg.hermitian_eig",
    "linalg.tensor",
    "observables.born_probabilities",
    "observables.Povm",
    "observables.Observable",
    "processes.naimark_dilation",
    "processes.heisenberg_meter",
    "processes.induced_povm",
    "processes.effect_gaps",
    "vonneumann.build_vn_process",
    "vonneumann.entangled_state",
    "vonneumann.check_observable_entanglement",
    "cli.main",
)

#: Spans whose dense work the tracer counts from argument shapes.
COUNTED_SPANS = (
    "intersubjectivity.compose_joint_scenario",
    "linalg.SpectralDecomposition",
    "processes.heisenberg_meter",
    "intersubjectivity.joint_distribution",
)

COMPOSE = "intersubjectivity.compose_joint_scenario"

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from qmeas import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.total_s": "s"})
        units.update({f"{span}.self_s": "s", f"{span}.errors": "count"})
    for span in COUNTED_SPANS:
        units.update({f"{span}.flops_computed": "flop", f"{span}.bytes_computed": "B"})
    units[f"{COMPOSE}.gflops_achieved"] = "Gflop/s"
    units.update({"trace.untraced_op_s": "s", "trace.traced_op_s": "s"})
    units.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    return units


def pin_blas_threads() -> None:
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": int(os.environ[THREAD_VARS[0]]),
        "blas_threads_runtime": _blas_runtime_threads(),
        "seed": seed,
    }


def import_qmeas():
    """Import qmeas from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qmeas.cli

    if Path(qmeas.__file__).resolve().parent != SRC / "qmeas":
        raise ImportError(f"qmeas was imported from {qmeas.__file__}, not {SRC}")
    return qmeas.cli


class Client:
    """One closed-loop client: each op starts when the previous one has ended."""

    def __init__(self, cli, plan: dict, work_dir: Path):
        import checks

        self._cli = cli
        self._problems = checks.problems
        self.work_dir = work_dir
        self.ops = plan["ops"]
        self.payloads = {op["name"]: json.loads((work_dir / op["input"]).read_text()) for op in self.ops}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        # The round lists its costliest op kind last. Enough rounds that this
        # kind alone has TAIL_BEYOND + 1 samples keep the tail on it even
        # when a slower program completes fewer rounds in the time.
        costliest = sum(op["shape"] == self.ops[-1]["shape"] for op in self.ops)
        self.min_rounds = -(-(TAIL_BEYOND + 1) // costliest)

    def argv(self, op: dict) -> list[str]:
        return [op["command"], "--input", str(self.work_dir / op["input"]), "--json"]

    def check(self, op: dict, code, out: str, err: str) -> None:
        self.attempted += 1
        found = self._problems(op, self.payloads[op["name"]], code, out)
        if found:
            self.failures.append((op["name"], found + [err.strip()]))

    def run(self, op: dict) -> float:
        """Run one op through cli.main, check its report, return its latency."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._cli.main(self.argv(op))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op; keep measuring
            code = "raised: " + traceback.format_exc(limit=3)
        latency = perf_counter() - start
        self.check(op, code, out.getvalue(), err.getvalue())
        return latency

    def warm_up(self) -> None:
        """Run one op of each distinct shape, untimed; the warm-up op goes first."""
        shapes = {}
        for op in self.ops:
            shapes.setdefault(op["shape"], op)
        for op in shapes.values():
            self.run(op)

    def round(self) -> list[float]:
        """Run every op of the round once; return their latencies in order."""
        return [self.run(op) for op in self.ops]

    def fresh_setup_s(self) -> float:
        """Wall time for a new interpreter to import qmeas and run the warm-up op."""
        op = self.ops[0]
        cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), *self.argv(op)]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        self.check(op, proc.returncode, proc.stdout, proc.stderr)
        return elapsed


def tail(samples: list[tuple[float, str]]) -> tuple[float, float, str]:
    """(latency, percentile, op name) at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1][0], 100.0, xs[-1][1]
    latency, name = xs[-TAIL_BEYOND - 1]
    return latency, 100.0 * (len(xs) - TAIL_BEYOND) / len(xs), name


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(client: Client, seconds: float) -> tuple[dict, list[str]]:
    setups = [client.fresh_setup_s() for _ in range(SETUP_REPEATS)]
    client.warm_up()
    latencies, rounds, start = [], 0, perf_counter()
    while perf_counter() - start < seconds or rounds < client.min_rounds:
        latencies += client.round()
        rounds += 1
    per_op = [statistics.median(latencies[i :: len(client.ops)]) for i in range(len(client.ops))]
    names = [op["name"] for op in client.ops] * rounds
    tail_s, tail_pct, tail_op = tail(list(zip(latencies, names)))
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(client.ops) / sum(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters",
        f"op_p50_s: {len(latencies)} samples over {rounds} rounds of {len(client.ops)} ops",
        f"op_tail_s: p{tail_pct:.1f}, {len(latencies)} samples, "
        f"{min(TAIL_BEYOND, len(latencies) - 1)} beyond it, from op {tail_op} "
        f"(at least {client.min_rounds} rounds)",
        "ops_per_s: ops in a round / sum over the round's ops of each op's median latency",
        "peak_rss_mb: ru_maxrss of this process",
    ]
    return {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}, notes


def per_layer(client: Client, seconds: float) -> tuple[dict, list[str]]:
    import tracing

    client.warm_up()
    tracer = tracing.Tracer()
    plain, traced, rounds, start = [], [], 0, perf_counter()
    # Untraced and traced rounds alternate, so drift in machine speed
    # falls on both sides of the overhead alike.
    while perf_counter() - start < seconds:
        plain += client.round()
        with tracing.traced(tracer):
            traced += client.round()
        rounds += 1
        leftover = tracing.wrapped_bindings()
        if leftover:
            client.failures.append(("trace", [f"bindings still wrapped: {leftover}"]))
    values = {}
    for span in SPANS:
        stats = tracer.stats.get(span, tracing.LayerStats())
        values[f"{span}.calls"] = stats.calls / rounds
        values[f"{span}.total_s"] = stats.total_s / rounds
        values[f"{span}.self_s"] = stats.self_s / rounds
        values[f"{span}.errors"] = stats.errors / rounds
    for span in COUNTED_SPANS:
        stats = tracer.stats.get(span, tracing.LayerStats())
        values[f"{span}.flops_computed"] = stats.flops / rounds
        values[f"{span}.bytes_computed"] = stats.nbytes / rounds
    compose = tracer.stats.get(COMPOSE, tracing.LayerStats())
    values[f"{COMPOSE}.gflops_achieved"] = compose.flops / compose.total_s / 1e9 if compose.calls else 0.0
    values["trace.untraced_op_s"] = sum(plain) / rounds
    values["trace.traced_op_s"] = sum(traced) / rounds
    values["trace.overhead_s"] = values["trace.traced_op_s"] - values["trace.untraced_op_s"]
    values["trace.overhead_frac"] = values["trace.overhead_s"] / values["trace.untraced_op_s"]
    units = per_layer_units()
    op_s = values["cli.main.total_s"]
    notes = [f"per round, {rounds} untraced and {rounds} traced rounds of {len(client.ops)} ops, alternating"]
    notes.append(f"compose_joint_scenario share of op time: {values[f'{COMPOSE}.total_s'] / op_s:.3f}")
    intersubjectivity = sum(s.calls for n, s in tracer.stats.items() if n.startswith("intersubjectivity."))
    notes.append(f"intersubjectivity calls per round: {intersubjectivity / rounds:g}")
    notes.append("all spans (calls, total_s, self_s per round):")
    for name, stats in sorted(tracer.stats.items(), key=lambda item: -item[1].self_s):
        notes.append(
            f"  {name:50s} {stats.calls / rounds:10g} {stats.total_s / rounds:10.4f} "
            f"{stats.self_s / rounds:10.4f}"
        )
    return {k: _metric(v, units[k]) for k, v in values.items()}, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Generate one workload's inputs, measure it and return the result object."""
    import gen

    cli = import_qmeas()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        client = Client(cli, gen.generate(workload, seed, work_dir, size), work_dir)
        measure = per_layer if trace else end_to_end
        metrics, notes = measure(client, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
        "notes": notes,
        "failures": client.failures,
    }


def _print_result(workload: str, result: dict, facts: dict) -> None:
    print(f"workload {workload}  facts {json.dumps(facts, sort_keys=True)}")
    for note in result["notes"]:
        print(f"  note {note}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  fail_frac = {fail_frac:g} ratio ({result['failed']}/{result['attempted']} ops)")
    for name, found in result["failures"]:
        print(f"  FAILED {name}: {found}")


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmeas CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "qmeas" / "__init__.py").is_file():
        print(f"error: no qmeas sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, result, machine_facts(args.seed))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
