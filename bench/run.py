"""caltest benchmark: time real CLI calls and check every output.

    python3 bench/run.py --workload compute-500k --seed 1 --seconds 30 --trace 0

A run, all inside the checkout that holds this file:

1. set-up: writes the workload's input files from --seed, several times;
2. reference pass: computes the same result in-process through caltest's
   public functions under the outside-in tracer, then spot-checks a seeded
   sample of the binomial kernel's decisions against scipy.stats.binomtest.
   The set-up time is the median time of writing the inputs plus the time
   of this pass: both run caltest before the first timed call, so work
   moved out of the calls into either shows there. For simulate the inputs
   are a small config file, and the pass is nearly all of its set-up;
3. timed loop: one client runs the yardstick (yardstick.py), then
   `python -m caltest.cli` and the yardstick again, each in a fresh child
   process, waiting for each, and goes on with a call and a yardstick while
   another such pair fits in --seconds (at least MIN_CALLS calls). Wall
   time counts from spawn to exit; CPU time and peak RSS come from the
   child's wait4 rusage, taken by a small helper process that starts the
   children (see spawner.py). Each call's output is compared with the
   in-process reference and, when bench/reference holds one for this seed,
   with the output of the commit that defined the benchmark.

The end-to-end times are reported as ratios: a call's wall (CPU) time over
the mean wall (CPU) time of the two yardstick runs around it, median over
the calls. On a shared host a core's speed drifts by half or more within
minutes, which a median of seconds cannot remove and the ratio cancels. For
the same reason setup_s is the set-up time scaled to a host on which the
yardstick takes YARDSTICK_REFERENCE_S. The seconds as measured are printed
and kept in the results file.

A call fails on a non-zero exit or an output mismatch; every call fails when
the oracle disagrees with the kernel the outputs were computed with. The
last stdout line is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A results file with provenance goes to
.bench_work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
YARDSTICK = BENCH / "yardstick.py"
WORK_DIR = ROOT / ".bench_work"

# setup_s is scaled to a host on which the yardstick's wall time is this,
# about its median on a 2-vCPU Xeon VM under other tenants' load.
YARDSTICK_REFERENCE_S = 2.0
MIN_CALLS = 3
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 2.0
IMPORT_PROBES = 3
CALL_TIMEOUT_S = 60.0

# Single-threaded numerics in the children and in the reference pass, so the
# numbers measure caltest and not the BLAS thread pool or the scheduler.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

@dataclass
class Call:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rows", type=int, default=None,
        help="scored rows per input instead of the workload's size (smoke test)",
    )
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}


class Spawner:
    """The small process that starts every timed call; see spawner.py."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        return self

    def call(self, argv: list[str], work: Path) -> Call:
        request = {
            "argv": argv,
            "cwd": str(work),
            "stdout": str(work / "stdout.txt"),
            "stderr": str(work / "stderr.txt"),
            "timeout_s": CALL_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the spawner process exited")
        return Call(**json.loads(answer), problems=[])

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.proc.terminate()  # the spawner then kills the call it is waiting for
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_seconds() -> float:
    """Median time of a fresh `import caltest.cli`, measured inside the child."""
    code = (
        "import time; t = time.perf_counter(); import caltest.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
            check=True, timeout=CALL_TIMEOUT_S, cwd=ROOT,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, input_hashes: dict[str, str]) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "input_sha256": input_hashes,
        "thread_env": THREAD_PINS,
        "clients": 1,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def committed_reference(workload: str, rows: int, seed: int):
    path = REFERENCE_DIR / f"{workload}-rows{rows}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def run_yardstick(spawner: Spawner, work: Path) -> Call:
    yardstick = spawner.call([sys.executable, str(YARDSTICK)], work)
    if yardstick.exit_code != 0:
        stderr = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{YARDSTICK.name} exited with {yardstick.exit_code}: {stderr}")
    return yardstick


def timed_loop(workload, inputs, references, oracle, spawner, work, seconds):
    """Closed loop, one client: the yardstick, then a call whose output is
    checked and the yardstick again, while another such pair fits in
    `seconds`. Call i runs between yardsticks i and i + 1."""
    from workloads import mismatches

    calls: list[Call] = []
    start = time.perf_counter()
    yardsticks = [run_yardstick(spawner, work)]
    pair_s = 0.0
    while len(calls) < MIN_CALLS or time.perf_counter() - start + pair_s <= seconds:
        began = time.perf_counter()
        out = work / f"out{len(calls)}"
        argv = [sys.executable, "-m", "caltest.cli", *workload.argv(inputs, out)]
        call = spawner.call(argv, work)
        if call.exit_code != 0:
            call.problems.append((work / "stderr.txt").read_text(errors="replace")[-2000:])
        else:
            try:
                actual = workload.read_output(inputs, out)
            except (OSError, ValueError, KeyError) as exc:
                call.problems.append(f"unreadable output: {exc!r}")
            else:
                for source, reference in references.items():
                    call.problems += [f"{source}: {m}" for m in mismatches(reference, actual)]
        if oracle["disagreements"]:
            call.problems.append("binomial kernel disagrees with scipy.stats.binomtest")
        calls.append(call)
        shutil.rmtree(out, ignore_errors=True)
        yardsticks.append(run_yardstick(spawner, work))
        pair_s = time.perf_counter() - began
    return yardsticks, calls


def measure(args, workload, rows: int, spawner: Spawner, work: Path) -> dict:
    from layers import Tracer, oracle_check
    from workloads import ALPHA, sha256_bytes

    # 1. set-up, repeated; the calls read the files the last repetition wrote
    setups = []
    first = time.perf_counter()
    while len(setups) < MIN_SETUPS or time.perf_counter() - first < MIN_SETUP_SECONDS:
        start = time.perf_counter()
        inputs = workload.make_inputs(work, rows, args.seed)
        setups.append(time.perf_counter() - start)
    input_hashes = {p.name: sha256_bytes(p.read_bytes()) for p in inputs.files}

    # 2. traced in-process reference pass, then the oracle
    tracer = Tracer()
    with tracer.installed():
        if args.trace:
            # once more, untimed, for the layers the set-up runs (scenario_dataset, synthdata)
            workload.make_inputs(work, rows, args.seed)
        start = time.perf_counter()
        expected = workload.run_in_process(inputs)
        pass_s = time.perf_counter() - start
    oracle = oracle_check(tracer, ALPHA, args.seed)
    per_layer = tracer.layer_metrics(workload.unit_span, ALPHA)
    untraced = tracer.untraced
    del tracer  # drops the kept kernel arguments before the timed loop
    references = {"in-process": expected}
    committed = committed_reference(workload.name, rows, args.seed)
    if committed is not None:
        references["committed"] = committed["expected"]
    if args.trace:
        per_layer["cli.import_s"] = import_seconds()

    # 3. timed calls
    yardsticks, calls = timed_loop(
        workload, inputs, references, oracle, spawner, work, args.seconds
    )
    failed = sum(not c.ok for c in calls)

    def ratios(attr: str) -> list[float]:
        return [
            getattr(c, attr) / ((getattr(before, attr) + getattr(after, attr)) / 2)
            for c, before, after in zip(calls, yardsticks, yardsticks[1:])
        ]

    end_to_end = {
        "wall_rel": statistics.median(ratios("wall_s")),
        "cpu_rel": statistics.median(ratios("cpu_s")),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
    }
    seconds = {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "cpu_s": statistics.median(c.cpu_s for c in calls),
        "yardstick_wall_s": statistics.median(y.wall_s for y in yardsticks),
        "yardstick_cpu_s": statistics.median(y.cpu_s for y in yardsticks),
        "setup_s": statistics.median(setups) + pass_s,
    }
    end_to_end["setup_s"] = (
        seconds["setup_s"] * YARDSTICK_REFERENCE_S / seconds["yardstick_wall_s"]
    )
    if args.trace:
        per_layer["trace.gap_s"] = per_layer["cli.import_s"] + pass_s - seconds["wall_s"]
    return {
        "workload": workload.name,
        "rows": rows,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, input_hashes),
        "references": sorted(references),
        "setup_count": len(setups),
        "setup_inputs_s": statistics.median(setups),
        "setup_quartiles_s": quartiles(setups),
        "in_process_pass_s": pass_s,
        "untraced_layers": untraced,
        "oracle": oracle,
        "calls": [c.__dict__ for c in calls],
        "yardsticks": [y.__dict__ for y in yardsticks],
        "wall_rel_per_call": ratios("wall_s"),
        "attempted": len(calls),
        "failed": failed,
        "error_rate": failed / len(calls),
        "end_to_end": end_to_end,
        "measured_seconds": seconds,
        "per_layer": per_layer,
    }


def print_summary(results: dict, results_path: Path) -> None:
    calls = results["calls"]
    for call in calls:
        for problem in call["problems"][:5]:
            print(f"call failed: {problem}", file=sys.stderr)
    e2e, secs, n = results["end_to_end"], results["measured_seconds"], len(calls)
    print(f"{results['workload']}: seed {results['provenance']['seed']}, {results['rows']} rows, "
          f"{n} calls, {results['failed']} failed, oracle {results['oracle']['pairs']} pairs, "
          f"references {results['references']}")
    q1, q2, q3 = quartiles(results["wall_rel_per_call"])
    print(f"  wall_rel     {q2:.4f} ratio  median of {n} calls over their yardsticks "
          f"(p25 {q1:.4f}, p75 {q3:.4f})")
    print(f"  cpu_rel      {e2e['cpu_rel']:.4f} ratio  median of {n} calls")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB    median of {n} calls")
    print(f"  error_rate   {results['error_rate']:.4f} ratio ({results['failed']}/{n})")
    print(f"  setup_s      {e2e['setup_s']:.4f} s      at a {YARDSTICK_REFERENCE_S} s yardstick; "
          f"measured {secs['setup_s']:.4f} s = median of {results['setup_count']} input "
          f"set-ups {results['setup_inputs_s']:.4f} s + in-process pass "
          f"{results['in_process_pass_s']:.4f} s")
    print(f"  (seconds, median of {n}: call wall {secs['wall_s']:.4f}, cpu {secs['cpu_s']:.4f}; "
          f"yardstick wall {secs['yardstick_wall_s']:.4f}, cpu {secs['yardstick_cpu_s']:.4f})")
    if results["trace"]:
        for name, value in results["per_layer"].items():
            print(f"  {name:34s} {value:.6g}")
    print(f"  results: {results_path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "caltest" / "cli.py").is_file():
        print(f"error: no caltest sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the spawner and its call are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(THREAD_PINS)
    # The spawner starts while this process is still small; see spawner.py.
    with Spawner() as spawner:
        sys.path.insert(0, str(SRC))
        import caltest

        if Path(caltest.__file__).resolve().parent != (SRC / "caltest").resolve():
            print(f"error: imported caltest from {caltest.__file__}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]
        label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        work = WORK_DIR / f"{label}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            results = measure(args, workload, args.rows or workload.rows, spawner, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    results_path = WORK_DIR / "results" / f"{label}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print_summary(results, results_path)
    # Names and units come from BENCHMARK.json; a declared metric not measured is an error.
    kind = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    metrics = {m["name"]: {"value": results[kind][m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": results["failed"] == 0, "attempted": results["attempted"],
                      "failed": results["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
