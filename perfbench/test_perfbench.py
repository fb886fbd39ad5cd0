"""Tests of the benchmark itself: smoke runs, metric names, and its output checks.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS, LevelSetTrees

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: A per-layer metric that must be nonzero in a traced run of each workload,
#: which shows that the spans reached the layer the workload is about.
LAYER_SEEN = {
    "defect-sweep": ("bracket.poisson_calls", "reeb.build_reeb_p50_ms", "cli.pairs", "cli.run_self_s"),
    "deep-brackets": ("expr.diff_calls", "expr.dag_nodes_max", "bracket.q_norm_n3_ms"),
    "level-set-trees": ("reeb.build_reeb_p50_ms", "reeb.tree_nodes_mean", "manifold.build_sphere_s"),
    "flow-calibration": ("flow.velocity_calls", "flow.reference_flow_s", "flow.compose_scheme_s"),
}


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if trace:
        for name in LAYER_SEEN[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _bench("--workload", "deep-brackets", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


# ---------------------------------------------------------------------------
# Each output check rejects a corrupted value
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sf():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    return run.import_symflow()


def _workload(sf, name):
    return WORKLOADS[name](sf, "tiny", 7, run.OUT)


def _outcome(wl, i):
    inputs = wl.prepare(i)
    return inputs, wl.item(inputs)


@pytest.fixture(scope="module")
def sweep_rows(sf):
    wl = _workload(sf, "defect-sweep")
    spec, _ = _outcome(wl, 0)
    rows = checks.parse_sweep_csv(wl.csv_path.read_text())
    kwargs = dict(n_values=range(2, spec["n_max"] + 1), n_pairs=1 + spec["family_size"] * len(spec["amplitudes"]),
                  e_grid=spec["e_grid"], base_q2=wl.base_q2)
    assert checks.check_sweep(rows, **kwargs) == []
    return rows, kwargs


def _find(rows, op, pair=None, n=None):
    return next(r for r in rows if r["op"] == op and pair in (None, r["pair"]) and n in (None, r["n"]))


@pytest.mark.parametrize("op, pair, n, key, factor", [
    ("pair", "base", 2, "q_n", 1 + 1e-9),       # closed-form base bracket norm
    ("pair", "base", 2, "pi", 0.97),            # base defect near 2
    ("scaling", "scale2", 2, "pi", 1 + 1e-5),   # defect scales linearly
    ("scaling", "scale2", 3, "q_n", 1 + 1e-5),  # q_n scales like e^n
    ("pair", None, 3, "ratio", 1 + 1e-9),       # ratio = pi / q_n^(1/n)
    ("c_n", None, 2, "ratio", 1 + 1e-9),        # c_n is the family maximum
])
def test_sweep_check_rejects_a_corrupted_value(sweep_rows, op, pair, n, key, factor):
    rows, kwargs = sweep_rows
    bad = [dict(r) for r in rows]
    _find(bad, op, pair, n)[key] *= factor
    assert checks.check_sweep(bad, **kwargs)


def test_sweep_check_rejects_a_missing_row(sweep_rows):
    rows, kwargs = sweep_rows
    assert checks.check_sweep(rows[1:], **kwargs)


def test_deep_bracket_checks_reject_corrupted_values(sf):
    wl = _workload(sf, "deep-brackets")
    for i in (0, 1):
        pair, q = _outcome(wl, i)
        assert wl.check(i, pair, q) == []
    assert wl.check(1, pair, q * (1 + 1e-5))
    assert wl.deferred_checks() == [(0, [])]
    k, pair0, q0 = wl.first
    wl.first = (k, pair0, q0 * (1 + 1e-8))
    assert wl.deferred_checks()[0][1]


def test_monomial_check_rejects_a_corrupted_value():
    want = {("F",): np.array([1.0, -2.0, 3.0]), ("G",): np.array([0.5, 0.25, -1.0])}
    got = {w: v.copy() for w, v in want.items()}
    assert checks.check_monomials(got, want) == []
    got[("G",)][1] += 1e-8
    assert checks.check_monomials(got, want)


@pytest.mark.parametrize("j", range(len(LevelSetTrees.KINDS)))
def test_level_set_check_rejects_a_corrupted_value(sf, j):
    wl = _workload(sf, "level-set-trees")
    for i in range(j + 1):
        field, zeta = _outcome(wl, i)
        assert wl.check(i, field, zeta) == []
    shift = np.ptp(field.values) + 1.0 if LevelSetTrees.KINDS[j] == "cubic" else 2.0 * wl.tol
    assert wl.check(j, field, zeta + shift)


def test_flow_check_rejects_corrupted_endpoints(sf):
    wl = _workload(sf, "flow-calibration")
    probes, (ends, direct, estimate) = _outcome(wl, 0)
    assert wl.check(0, probes, (ends, direct, estimate)) == []
    assert wl.check(0, probes, (ends + 1e-6, direct, estimate))
    assert wl.check(0, probes, (ends, direct, 10 * wl.p["tol"]))


def test_covered_time_is_the_union_of_child_spans():
    from tracing import _covered

    assert _covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
