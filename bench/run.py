"""cantorsum benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory, never from an installed copy.  The command

* times set-up (a fresh interpreter importing ``cantorsum`` and loading
  the base table) several times before and after the workload, each time
  scaled to the host's reference speed, and keeps the median,
* runs the workload in its own fresh single-threaded process
  (``worker.py``), a closed loop in which one caller waits on each
  answer, and checks every answer outside the timed region,
* prints a detail line (environment, digests, counts) and then, as its
  last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
  end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``),
* and writes the same detail to ``bench/results/``.

See ``bench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_MS, python_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6  # before the workload, and again after it


def deadline_s(seconds: float, trace: bool) -> float:
    """Wall allowed from start until the worker ends: a traced run measures
    twice, and each measurement may overshoot `seconds` by a whole pass;
    capped so that the command always ends within three minutes."""
    return min(170, 40 + 3 * seconds * (2 if trace else 1))


_PROBE = (
    "import cantorsum; cantorsum.load_base_table(); "
    "print('ready', flush=True)"
)


def child_env() -> dict[str, str]:
    """The library from this checkout, one thread, default budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CANTORSUM_BUDGET", None)
    return env


def host_scale() -> float:
    """The interpreter reference loop's nominal time over its median of three
    (see ``speed.py``): set-up is mostly interpreter work."""
    took = []
    for _ in range(3):
        start = time.perf_counter()
        python_loop()
        took.append(time.perf_counter() - start)
    return NOMINAL_MS[python_loop] / 1e3 / statistics.median(took)


def time_setup(env, warm: bool) -> list[tuple[float, float]]:
    """Seconds from spawning an interpreter until it reports ready, each
    with the host's scale just before."""
    times = []
    for i in range(SETUP_REPEATS + (not warm)):
        scale = host_scale()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        if warm or i:  # a cold first probe may also compile bytecode
            times.append((ready, scale))
    return times


def run_worker(args, env, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    with proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python_runner": platform.python_version(),
        "commit": commit(),
    }
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                              if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    return info


def commit() -> str:
    """HEAD of the checkout's git directory, if it has one."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if sha is None:
            packed = _read(ROOT / ".git" / "packed-refs") or ""
            sha = next((line.split()[0] for line in packed.splitlines()
                        if line.endswith(" " + ref)), "unknown")
        return sha
    return head


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + deadline_s(args.seconds, bool(args.trace))

    if not (SRC / "cantorsum" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = [] if args.trace else time_setup(env, warm=False)
        result = run_worker(args, env, deadline)
        if not args.trace:
            # probes on both sides of the workload see two states of a shared host
            setup += time_setup(env, warm=True)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    e2e = dict(result.pop("end_to_end"))
    if setup:
        e2e["setup_s"] = statistics.median(ready * scale for ready, scale in setup)
    layers = result.pop("layers", None)
    if e2e["latency_tail_ms"] is None:
        print("fewer than 11 distinct questions: no tail latency", file=sys.stderr)
        return 1
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    detail = {
        **result,
        "setup_s_samples": setup,
        "end_to_end": e2e,
        "layers": layers,
        "environment": environment(),
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
