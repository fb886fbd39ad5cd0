"""Benchmark of symflow: one workload per process, closed loop, checked outputs.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload deep-brackets --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every other item
runs with spans around the public functions of symflow and the metrics are
the per-layer ones, plus the tracing overhead.  Results and traces go to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracing
from workloads import WARMUP_ITEM, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: End-to-end metrics with their units.  Item times are reported as multiples
#: of the reference loop timed next to each item ("ref"), because the CPU speed
#: of a shared host wanders by tens of percent over minutes; see the README.
END_TO_END = {"setup_s": "s", "items_per_kref": "1/kref", "item_p50_ref": "ref", "peak_rss_mb": "MB"}

SYMFLOW_MODULES = ("expr", "manifold", "bracket", "scheme", "flow", "reeb", "cli")

#: Set-up runs this many times in a process; its median is reported.
SETUP_REPEATS = 3


class SourceMissing(RuntimeError):
    """The checkout holds no symflow sources to benchmark."""


def import_symflow() -> SimpleNamespace:
    """Import symflow afresh from the checkout's ``src`` directory."""
    for key in [k for k in sys.modules if k == "symflow" or k.startswith("symflow.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"symflow.{name}") for name in SYMFLOW_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceMissing(f"symflow was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, timed next to every item."""
    t0 = perf_counter()
    total = 0
    for k in range(100_000):
        total += k * k
    return perf_counter() - t0


def host_speed() -> dict[str, float]:
    """Best of five timings of the reference loop and of a fixed numpy kernel, in ms."""
    rng = np.random.default_rng(0)
    a = rng.random((192, 192))
    v = rng.random(200_000)
    nump = []
    for _ in range(5):
        t0 = perf_counter()
        np.sort(v)
        a @ a
        nump.append(perf_counter() - t0)
    py = min(reference_loop() for _ in range(5))
    return {"py_loop_ms": py * 1e3, "numpy_ms": min(nump) * 1e3}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    if not (SRC / "symflow" / "__init__.py").is_file():
        raise SourceMissing(f"no symflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    host_start = host_speed()
    # An untimed first import loads the third-party modules symflow needs, so
    # that set-up time measures symflow and not interpreter or page-cache work.
    import_symflow()
    cls = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None

    setups = []
    for rep in range(SETUP_REPEATS):
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        t0 = perf_counter()
        sf = import_symflow()
        if traced:
            tracer.install(sf)
        wl = cls(sf, size, seed, OUT)
        wl.item(wl.prepare(WARMUP_ITEM))
        setups.append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
    node_base = getattr(sf.expr, "Node", None)

    # Completed items as (seconds, reference-loop seconds next to the item, traced).
    done: list[tuple[float, float, bool]] = []
    measured, measured_ref, attempted, failed, correct = 0.0, 0.0, 0, 0, True
    failures: list[str] = []
    i = 0
    ref_before = reference_loop()
    while attempted == 0 or measured < seconds:
        inputs = wl.prepare(i)
        use_trace = tracer is not None and i % 2 == 0
        if use_trace:
            tracer.install(sf)
        error = None
        t0 = perf_counter()
        try:
            result = wl.item(inputs)
        except Exception as exc:  # one failed item must not end the run
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        ref_after = reference_loop()
        ref, ref_before = 0.5 * (ref_before + ref_after), ref_after
        if use_trace:
            tracer.uninstall()
            tracer.end_item(t0, t1, node_base)
        measured += t1 - t0
        measured_ref += (t1 - t0) / ref
        attempted += 1
        if error is None:
            try:
                errors = wl.check(i, inputs, result)
            except Exception as exc:  # output the check cannot read is wrong output
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                correct = False
                error = "; ".join(errors)
        if error is None:
            done.append((t1 - t0, ref, use_trace))
        else:
            failed += 1
            failures.append(f"item {i}: {error}")
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        deferred = wl.deferred_checks()
    except Exception as exc:  # as above: a check that cannot run fails
        deferred = [(-1, [f"deferred check raised {type(exc).__name__}: {exc}"])]
    for idx, errors in deferred:
        if errors:
            correct = False
            failed += 1
            failures.append(f"item {idx} (deferred check): {'; '.join(errors)}")
    host_end = host_speed()

    def p50(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    untraced = [(dt, ref) for dt, ref, traced in done if not traced]
    if trace:
        metrics = tracer.metrics()
        traced_rel = p50(dt / ref for dt, ref, traced in done if traced)
        untraced_rel = p50(dt / ref for dt, ref in untraced)
        metrics["trace.overhead_pct"] = (traced_rel / untraced_rel - 1.0) * 100.0 if untraced_rel else 0.0
        metrics["host.item_p50_ms"] = p50(dt for dt, _ in untraced) * 1e3
        metrics["host.ref_loop_ms"] = p50(ref for _, ref, _ in done) * 1e3
        for key in ("py_loop", "numpy"):
            metrics[f"host.{key}_start_ms"] = host_start[f"{key}_ms"]
            metrics[f"host.{key}_end_ms"] = host_end[f"{key}_ms"]
        units = tracing.PER_LAYER
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_kref": 1e3 * len(done) / measured_ref,
            "item_p50_ref": p50(dt / ref for dt, ref, _ in done),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "setups_s": setups, "items": [{"s": dt, "ref_s": ref, "traced": tr} for dt, ref, tr in done],
        "failures": failures,
        "host_start": host_start, "host_end": host_end, "result": result,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    for line in failures[:10]:
        print(f"failed {line}", file=sys.stderr)
    print(f"{name}: {attempted} items, {failed} failed, item p50 {p50(dt for dt, _ in untraced) * 1e3:.1f} ms, "
          f"reference loop p50 {p50(ref for _, ref, _ in done) * 1e3:.2f} ms, setup runs "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print(f"host speed: pure-Python loop {host_start['py_loop_ms']:.2f} -> {host_end['py_loop_ms']:.2f} ms, "
          f"numpy {host_start['numpy_ms']:.2f} -> {host_end['numpy_ms']:.2f} ms")
    return result


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
        if result["failed"] or not result["correct"]:
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
