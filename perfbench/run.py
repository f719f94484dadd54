"""Benchmark of the framednet CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload frame --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds `src/framednet`.  The load
is a closed loop with one client: one fresh `python -m framednet.cli`
process at a time, each awaited before the next starts.  The run repeats
whole rounds of its workload (see workloads.py) for about `--seconds`: it
starts no round that would, at the mean round time so far, end after
`--seconds`, but always runs one.  Then it checks every output (check.py).

With `--trace 0` the last stdout line reports the end-to-end metrics.
With `--trace 1` requests run through traced_cli.py instead and the last
line reports the per-layer metrics, each a mean per request.  Earlier
lines record the machine and details such as the tail percentile.  The
exit code is 0 when the run completed, even if outputs failed their
checks (then "correct" is false); it is 2 when the program or the
benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).with_name("traced_cli.py")
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MAX_RUN_S = 100.0        # no new round after this, so a run ends well within 180 s
REQUEST_TIMEOUT_S = 120.0
TAIL_BEYOND = 10         # samples the tail percentile must leave above it

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "answered_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Spans whose self time is reported, with the counters summed from them.
TRACED_SELF_S = [
    "cli.main", "codes.weight_profile", "codes.delta_code", "codes.validate_binary_code",
    "qseries.mul", "qseries.product_form", "netchar.theta_over_eta",
    "netchar.lattice_net_char", "orbifold.orbifold_pieces", "orbifold.orbifold_vacuum_char",
    "fusion.ising_decomposition", "fusion.framed_structure", "fusion.simple_current_extension",
]
TRACED_CALLS = ["codes.delta_code", "codes.validate_binary_code", "qseries.mul",
                "orbifold.orbifold_pieces"]
TRACED_COUNTERS = [("codes.weight_profile", "words"), ("codes.weight_profile", "entries"),
                   ("qseries.mul", "term_pairs"), ("fusion.ising_decomposition", "labels")]

# Per-layer metrics of a traced run, each a mean per request unless a ratio.
PER_LAYER = {
    "proc.startup_s": "s",
    "cli.import_s": "s",
    "cli.emit_bytes": "B/req",
    "cli.cache.hits": "count/req",
    "cli.cache.misses": "count/req",
    "cli.cache.hit_ratio": "ratio",
    **{f"{name}.self_s": "s" for name in TRACED_SELF_S},
    **{f"{name}.calls": "count/req" for name in TRACED_CALLS},
    **{f"{name}.{key}": "count/req" for name, key in TRACED_COUNTERS},
    "fusion.errors": "ratio",
    "trace.throughput_rps": "req/s",
}


class SetupError(Exception):
    pass


# numpy starts a BLAS thread pool at import, one thread per core, that the
# program never uses; capped, each request stays on one core and does not
# compete with whatever runs on the other.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(extra: Dict[str, str] | None = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("FRAMEDNET_", "PERFBENCH_"))}
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def spawn(argv: List[str], env: Dict[str, str], workdir: Path) -> dict:
    """Run one process to exit; wall time from spawn to exit and its max RSS."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(), "wall": wall, "maxrss_kb": usage.ru_maxrss}


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "framednet.cli", *args]


def setup(plan: workloads.Plan, where: Path, refs) -> Dict[str, Path]:
    """Write the inputs, certify the code copies, and fill the cache."""
    inputs = where / "inputs"
    inputs.mkdir(parents=True)
    for name, text in plan.files.items():
        (inputs / name).write_text(text)
    for base in workloads.BASE_ROWS:
        res = spawn(cli_argv(["validate-code", "--code", str(inputs / f"{base}.txt")]),
                    child_env(), where)
        if res["rc"] != 0:
            raise SetupError(f"validate-code {base} copy: exit {res['rc']}: {res['stderr']!r}")
        doc = json.loads(res["stdout"])
        if not (doc["doubly_even"] and doc["self_dual"] and doc["contains_all_ones"]) or (
            doc["weight_enumerator"] != workloads.BASE_WEIGHTS[base]
        ):
            raise SetupError(f"the {base} copy did not certify: {doc}")
    cache = where / "cache"
    for req in plan.working_set:
        res = spawn(cli_argv(req.argv(inputs, cache)), child_env(), where)
        outcome, why = check.check(req, res["rc"], res["stdout"], res["stderr"], refs)
        if outcome != check.ANSWERED:
            raise SetupError(f"cache fill {req}: {why}")
    return {"inputs": inputs, "cache": cache}


def run_loop(plan, paths, seconds: int, trace: bool, where: Path) -> tuple:
    records = []
    rounds = 0
    t_start = time.perf_counter()
    for batch in plan.rounds():
        for req in batch:
            argv = req.argv(paths["inputs"], paths["cache"])
            extra = {}
            rec = {"req": req}
            if trace:
                rec["trace"] = where / f"trace{len(records):05d}.json"
                extra = {"PERFBENCH_TRACE_OUT": str(rec["trace"]),
                         "PERFBENCH_REQUEST_ID": str(len(records))}
                argv = [sys.executable, str(TRACED_CLI), *argv]
                before = check.cache_snapshot(paths["cache"]) if req.cache else None
            else:
                argv = cli_argv(argv)
            rec.update(spawn(argv, child_env(extra), where))
            if trace and req.cache:
                rec["hit"] = check.was_hit(before, check.cache_snapshot(paths["cache"]))
            records.append(rec)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > seconds or elapsed >= MAX_RUN_S:
            break
    return records, rounds, time.perf_counter() - t_start


def tail(walls: List[float]) -> tuple:
    """Highest percentile with TAIL_BEYOND samples above it (nearest rank).

    A run of at most TAIL_BEYOND samples has no such percentile; its tail
    is the slowest sample, percentile 100.
    """
    xs = sorted(walls)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(records, wall_total, setup_times) -> tuple:
    walls = [r["wall"] for r in records]
    answered = sum(r["outcome"] == check.ANSWERED for r in records)
    tail_value, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": answered / wall_total,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_value,
        "answered_ratio": answered / len(records),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }
    detail = {"latency_tail_percentile": round(tail_pct, 2), "latency_samples": len(walls),
              "answered": answered,
              "refused": sum(r["outcome"] == check.REFUSED for r in records),
              "setup_runs_s": setup_times}
    return values, detail


def self_times(spans) -> Dict[int, float]:
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def per_layer(records, wall_total) -> tuple:
    n = len(records)
    total: Dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0) + value

    framed = fusion_errors = 0
    for rec in records:
        if not rec["trace"].is_file():  # the request died; check() counts it failed
            continue
        doc = json.loads(rec["trace"].read_text())
        add("proc.startup_s", rec["wall"] - doc["in_process_s"])
        add("cli.import_s", doc["import_s"])
        add("cli.emit_bytes", len(rec["stdout"]))
        own = self_times(doc["spans"])
        failed_fusion = False
        for span in doc["spans"]:
            sid, name, _, _, _, _, counters, error = span
            add(f"{name}.self_s", own[sid])
            add(f"{name}.calls", 1)
            for key, value in (counters or {}).items():
                add(f"{name}.{key}", value)
            failed_fusion |= name.startswith("fusion.") and error == "FusionError"
        if rec["req"].command == "framed":
            framed += 1
            fusion_errors += failed_fusion
        if rec["req"].cache:
            add("cli.cache.hits" if rec["hit"] else "cli.cache.misses", 1)
    mean = {k: v / n for k, v in total.items()}
    lookups = total.get("cli.cache.hits", 0) + total.get("cli.cache.misses", 0)
    mean["cli.cache.hit_ratio"] = total.get("cli.cache.hits", 0) / lookups if lookups else 0.0
    mean["fusion.errors"] = fusion_errors / framed if framed else 0.0
    answered = sum(r["outcome"] == check.ANSWERED for r in records)
    mean["trace.throughput_rps"] = answered / wall_total
    return {k: mean.get(k, 0.0) for k in PER_LAYER}, {"framed_requests": framed}


def machine_record(workload: str, seed: int) -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            sha = res.stdout.strip() or sha
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": sha}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framednet" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'framednet'} is missing", file=sys.stderr)
        return 2
    if not check.REFS_PATH.is_file():
        print(f"error: reference file {check.REFS_PATH} is missing", file=sys.stderr)
        return 2
    refs = check.load_refs()
    plan = workloads.make_plan(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            where = work / f"setup{i}"
            t0 = time.perf_counter()
            paths = setup(plan, where, refs)
            setup_times.append(time.perf_counter() - t0)
        loop_dir = work / "loop"
        loop_dir.mkdir()
        records, rounds, wall_total = run_loop(plan, paths, args.seconds, bool(args.trace),
                                               loop_dir)
        failures = []
        for rec in records:
            rec["outcome"], why = check.check(rec["req"], rec["rc"], rec["stdout"],
                                              rec["stderr"], refs)
            if why:
                failures.append(f"{rec['req']}: {why}")
        if args.trace:
            values, detail = per_layer(records, wall_total)
            units = PER_LAYER
        else:
            values, detail = end_to_end(records, wall_total, setup_times)
            units = END_TO_END
    except SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    detail.update({"rounds": rounds, "timed_wall_s": wall_total})
    print(json.dumps({"machine": machine_record(args.workload, args.seed)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
