"""The measurement spine's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in a fresh subprocess with ``PYTHONHASHSEED`` pinned,
prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exit status is non-zero on any failed op or check.

Suite forms::

    python3 benchmarks/spine/run.py              # all four workloads, both runs
    python3 benchmarks/spine/run.py --selfcheck  # two full sets, A/A against the bounds
    python3 benchmarks/spine/run.py --smoke      # tiny counts, a few seconds, timing ignored

The suite writes ``benchmarks/spine/out/BENCH.json`` (``AA.json`` for
``--selfcheck``); every run also leaves its full record — raw and
calibrated values, per-repetition spread — and the traced run its spans
under ``benchmarks/spine/out/``.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = (
    "update_join_sim",
    "update_chatty_tcp",
    "read_write_cycle_sim",
    "gateway_open_loop",
)
DEFAULT_SECONDS = 25


def _bootstrap() -> float:
    """Put ``src/`` and the ``spine`` package on the path and import
    them; returns the import time in seconds (part of ``setup_s``)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"spine: {ROOT / 'src' / 'repro'} not found — nothing to measure")
    # The script's own directory must not stay on the path: trace.py
    # would shadow the standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    importlib.import_module("repro")
    for name in ("harness", *WORKLOADS):
        importlib.import_module(f"spine.{name}")
    return time.perf_counter() - _PROCESS_STARTED


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float
) -> dict:
    """Measure one workload in this process; returns its run record."""
    harness = importlib.import_module("spine.harness")
    workload = importlib.import_module(f"spine.{name}")
    record = harness.measure(
        workload, seed=seed, seconds=seconds, trace=trace, smoke=smoke, import_s=import_s
    )
    tracer = record.pop("tracer")
    record["environment"] = environment()
    if not smoke:
        OUT.mkdir(exist_ok=True)
        label = f"{name}-trace{int(trace)}"
        (OUT / f"run-{label}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            (OUT / f"trace-{name}.json").write_text(json.dumps(tracer.dump()))
    return record


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then the contract's line."""
    result = record["result"]
    for problem in record["problems"]:
        print(f"PROBLEM {problem}")
    print(
        f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"repetitions={len(record['repetitions'])} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def pin_to_one_cpu() -> None:
    """Noise discipline: the GIL serialises this process's threads
    anyway, and left unpinned the kernel spreads them over the vCPUs
    after a second or two, at which point every thread hand-off costs a
    cross-CPU wake-up and per-op latency of the threaded workloads
    jumps by half (see README, findings)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: Keeps the pinned CPU from halting between requests.  An idle CPU
#: halts, and in a VM waking it costs a variable amount and resumes at
#: a variable clock: the open loop (25 % busy) saw its reference kernel
#: flip between 2.1 and 3.0 ms from one second to the next.  This child
#: spins at SCHED_IDLE priority on the same CPU — it runs only when
#: nothing else wants the CPU and is preempted at once — and exits when
#: its parent does.
_SPINNER = """
import os, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    until = time.monotonic() + 0.2
    while time.monotonic() < until:
        pass
"""


def child_main(args) -> int:
    pin_to_one_cpu()
    spinner = None
    if hasattr(os, "SCHED_IDLE") and not args.smoke:
        spinner = subprocess.Popen([sys.executable, "-c", _SPINNER])
    try:
        import_s = _bootstrap()
        record = run_workload(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            import_s=import_s,
        )
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()
    report(record)
    return 0 if record["result"]["correct"] else 1


def spawn(name: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """One workload in a fresh interpreter with the hash seed pinned;
    returns ``(exit status, last-line result or None)``, output relayed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    environ = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=environ, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


def suite(seed: int, seconds: float, smoke: bool) -> tuple[bool, dict]:
    """All four workloads, untraced then traced; returns (ok, artefact)."""
    ok = True
    artefact = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    if smoke:  # in this process: eight interpreter starts would be the run
        _bootstrap()
    for name in WORKLOADS:
        entry = artefact["workloads"][name] = {}
        for trace in (0, 1):
            if smoke:
                record = run_workload(
                    name, seed=seed, seconds=0, trace=bool(trace), smoke=True, import_s=0.0
                )
                report(record)
                status, result = int(not record["result"]["correct"]), record["result"]
            else:
                status, result = spawn(name, seed, seconds, trace)
            ok = ok and status == 0 and result is not None and result["correct"]
            entry["end_to_end" if trace == 0 else "per_layer"] = result
            if not smoke and status == 0:  # the child left its full record
                record = json.loads((OUT / f"run-{name}-trace{trace}.json").read_text())
                entry["run" if trace == 0 else "traced_run"] = {
                    key: record[key]
                    for key in ("kernel_ref_ms", "repetitions", "raw", "self_times", "problems")
                    if key in record
                }
    return ok, artefact


def selfcheck(seed: int, seconds: float) -> int:
    """Two full sets on the current tree; every end-to-end pair must
    agree within its bound, and every count metric bit for bit."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    sets = []
    ok = True
    for _ in range(2):
        set_ok, artefact = suite(seed, seconds, smoke=False)
        ok = ok and set_ok
        sets.append(artefact)
    rows, counts = [], {}
    print("\n# A/A: relative difference of set 2 against set 1, per bound")
    for name in WORKLOADS:
        first, second = (s["workloads"][name] for s in sets)
        for metric, bound in bounds.items():
            a = first["end_to_end"]["metrics"][metric]["value"]
            b = second["end_to_end"]["metrics"][metric]["value"]
            diff = abs(b - a) / a
            breach = diff > bound
            ok = ok and not breach
            rows.append({"workload": name, "metric": metric, "first": a, "second": b,
                         "rel_diff": diff, "bound": bound, "breach": breach})
            print(f"{name:22s} {metric:20s} {diff:8.4f} / {bound:.2f}"
                  f"{'  BREACH' if breach else ''}")
        counts[name] = [
            s["workloads"][name]["run"]["repetitions"][0]["counts"] for s in sets
        ]
        if counts[name][0] != counts[name][1]:
            ok = False
            print(f"{name:22s} count metrics differ between the sets  BREACH")
    OUT.mkdir(exist_ok=True)
    summary = {
        "passed": ok,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "pairs": rows,
        "counts": counts,
    }
    (OUT / "AA.json").write_text(json.dumps(summary, indent=1))
    print(f"# selfcheck {'passed' if ok else 'FAILED'}; wrote {OUT / 'AA.json'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.workload:
        status, _result = spawn(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        return status
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    ok, artefact = suite(args.seed, args.seconds, args.smoke)
    if not args.smoke:
        OUT.mkdir(exist_ok=True)
        (OUT / "BENCH.json").write_text(json.dumps(artefact, indent=1))
        print(f"# wrote {OUT / 'BENCH.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
