"""Benchmark for robustht: one workload per process, one worker thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It times `setup_s` as the median
of several fresh processes that import the package and build the CLI
parser, recipe and classifiers; then it runs one warm-up unit and as many
timed units as fit in S seconds, each with its own seed, and checks every
unit's output. A unit fails on a non-zero exit code or a failed check.
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end to end with --trace 0, per layer with --trace 1).
A record of the run (every unit time, failures, environment) is written
to .bench_out/, and with --trace 1 also every span.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60


def import_program():
    """Import robustht from this checkout's src/, or exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import robustht
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import robustht from {SRC}: {exc}\n")
        sys.exit(2)
    if Path(robustht.__file__).resolve().parent != SRC / "robustht":
        sys.stderr.write(f"bench: robustht came from {robustht.__file__}, not {SRC}\n")
        sys.exit(2)


def time_setup(workload_name: str) -> float:
    """Seconds from launching a fresh interpreter until it could run a unit."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload_name],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": git_revision(),
    }


def layer_metrics(summaries: list[dict], unit_times: list[float]) -> dict:
    """Per-layer metrics of the timed units: times are medians over units,
    counts are those of the first timed unit (they depend only on the seed)."""
    from tracing import CLASSIFIER_KINDS

    first = summaries[0]["counts"]

    def count(key):
        return first.get(key, 0)

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def total(name):
        return lambda s: s["total"].get(name, 0.0)

    def own(name):
        return lambda s: s["self"].get(name, 0.0)

    def per(numerator, count_key):
        # nanoseconds per counted item; 0 where the unit did none
        def ns(s):
            n = s["counts"].get(count_key, 0)
            return 1e9 * numerator(s) / n if n else 0.0

        return ns

    m = {
        "rng.noise_block.calls": (count("rng.noise_block.calls"), "count"),
        "rng.noise_block.distinct": (count("rng.noise_block.distinct"), "count"),
        "rng.normals": (count("rng.normals"), "count"),
        "rng.noise_block.s": (med(total("rng.noise_block")), "s"),
        "rng.ns_per_normal": (med(per(total("rng.noise_block"), "rng.normals")), "ns"),
    }
    for kind in CLASSIFIER_KINDS:
        name = f"classifiers.{kind}.decide"
        m[f"{name}.calls"] = (count(f"{name}.calls"), "count")
        m[f"{name}.rows"] = (count(f"{name}.rows"), "count")
        m[f"{name}.s"] = (med(total(name)), "s")
        m[f"classifiers.{kind}.ns_per_row_class_coord"] = (
            med(per(total(name), f"classifiers.{kind}.row_class_coords")), "ns")
    m.update({
        "attacks.heuristic_agnostic_attack.calls":
            (count("attacks.heuristic_agnostic_attack.calls"), "count"),
        "attacks.heuristic_agnostic_attack.s":
            (med(total("attacks.heuristic_agnostic_attack")), "s"),
        "attacks.oracle.self_s": (med(own("attacks.brute_force_attack_oracle")), "s"),
        "engine.self_s": (med(own("engine.run_experiment")), "s"),
        "engine.ns_per_trial_cell":
            (med(per(own("engine.run_experiment"), "engine.trial_cells")), "ns"),
        "analysis.sigma_for_target_error.calls":
            (count("analysis.sigma_for_target_error.calls"), "count"),
        "analysis.sigma_for_target_error.s":
            (med(total("analysis.sigma_for_target_error")), "s"),
        "analysis.clt_error.calls": (count("analysis.clt_error.calls"), "count"),
        "analysis.clt_error.s": (med(total("analysis.clt_error")), "s"),
        "analysis.cost_difference_moments.calls":
            (count("analysis.cost_difference_moments.calls"), "count"),
        "numerics.truncated_gaussian_moment.calls":
            (count("numerics.truncated_gaussian_moment.calls"), "count"),
        "numerics.q_function.calls": (count("numerics.q_function.calls"), "count"),
        "configs.figure_recipe.s": (med(total("configs.figure_recipe")), "s"),
        "cli.self_s": (med(own("cli.main")), "s"),
        "traced.unit_s": (statistics.median(unit_times), "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        record = run(workload, args, scratch, workloads.unit_seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["environment"] = environment(args.seed)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(workload, args, scratch: Path, unit_seed) -> dict:
    setup_times = [time_setup(workload.name) for _ in range(SETUP_REPEATS)]
    workload.set_up()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    units = []  # one dict per unit; unit 0 is the untimed warm-up
    deadline = None
    while len(units) < 2 or time.perf_counter() < deadline:
        index = len(units)
        seed = unit_seed(args.seed, index)
        # a fresh directory per unit: rewriting a file in place makes ext4 flush
        # it on close, which ties the unit's time to the disk
        unit_dir = scratch / f"unit-{index}"
        unit_dir.mkdir()
        mark = tracer.mark() if tracer else None
        start = time.perf_counter()
        code = workload.run(seed, unit_dir)
        elapsed = time.perf_counter() - start
        unit = {"index": index, "seed": seed, "exit_code": code, "s": elapsed, "failed_checks": {}}
        if tracer:
            unit["layers"] = tracer.summary_since(mark)
            tracer.paused = True
        if code == 0:
            try:
                verdicts = workload.check(workload.read(unit_dir), seed)
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
                verdicts = {"check-raised": f"{type(exc).__name__}: {exc}"}
            unit["failed_checks"] = {k: v for k, v in verdicts.items() if v is not None}
        if tracer:
            tracer.paused = False
        shutil.rmtree(unit_dir)
        units.append(unit)
        if deadline is None:
            deadline = time.perf_counter() + args.seconds

    if tracer:
        tracer.uninstall()
        tracer.write(OUT / f"{workload.name}-s{args.seed}.trace.json")

    timed = units[1:]
    ok = [u for u in timed if u["exit_code"] == 0 and not u["failed_checks"]] or timed
    unit_times = [u["s"] for u in ok]
    failed = sum(1 for u in units if u["exit_code"] != 0 or u["failed_checks"])
    correct = not any(u["failed_checks"] for u in units if u["exit_code"] == 0)
    if tracer:
        metrics = layer_metrics([u["layers"] for u in ok], unit_times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "unit_s": {"value": statistics.median(unit_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {
        "workload": workload.name,
        "correct": correct,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
        "setup_times_s": setup_times,
        "units": units,
    }


if __name__ == "__main__":
    sys.exit(main())
