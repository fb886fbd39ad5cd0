"""Check that the working tree computes what a git revision computes.

    python tools/identity.py [--against REV] [--json PATH]

REV (default ``HEAD``) is checked out with ``git worktree`` into a
temporary directory.  One fixed corpus then runs in each tree, one process
per tree, each from its own temporary directory with the same relative paths,
so the sidecars' ``config.out`` and ``config_hash`` agree.  The corpus:

- CLI commands through ``symflow.cli.run``: the CSV bytes, stdout, stderr,
  exit code and the JSON sidecar without ``wall_time_s``, ``minor_faults``
  and ``env``;
- level-set trees of level 3-6 sphere fields (smooth, folds, rounded and
  tie-heavy ones, noise, plateaus of signed zeros, a constant): ``to_json``,
  ``repr(median)``, ``total_mass``, ``node_of_vertex`` and
  ``edge_of_vertex``;
- the ``yoshida`` coefficients as ``float.hex``.

Each artifact is reported as "identical", or with the count of differing
bytes (stdout, stderr) or cells (CSV, sidecar, arrays) and the largest
relative difference between the numbers in it.  The report is also written
as JSON.  The exit code is 0 when every artifact is identical, else 1.
Needs no network; takes about ten seconds on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TORUS = {"manifold": "torus", "torus_n": 64, "f": "0.3*sin(2*pi*q)", "g": "0.2*cos(2*pi*p)"}
SPHERE = {"manifold": "sphere", "level": 3, "f": "0.35*x", "g": "0.25*z"}
SWEEP = {"level": 3, "family_size": 3, "n_max": 3, "seed": 11}
FIELD = {"expr": "z*z - x"}

#: name -> (argv without --out, spec or None); every command writes out/<name>.csv and .json.
COMMANDS = {
    **{f"scheme-{k}": (["scheme", "--order", str(k)], None) for k in (1, 2, 3, 4, 6, 8)},
    **{f"flow-order-torus-{k}": (["flow-order", "--order", str(k)], TORUS) for k in (1, 2, 4, 6, 8)},
    **{f"remainder-torus-{k}": (["remainder", "--order", str(k)], TORUS) for k in (1, 2, 4, 6)},
    **{f"flow-order-sphere-{k}": (["flow-order", "--order", str(k)], SPHERE) for k in (1, 2, 4)},
    "remainder-sphere-2": (["remainder", "--order", "2"], SPHERE),
    "expansion-torus-4": (["expansion", "--order", "4"], TORUS),
    "expansion-sphere-3": (["expansion", "--order", "3"], SPHERE),
    "bracket": (["bracket"], SPHERE),
    "qn": (["qn", "--n", "5"], SPHERE),
    "qstate": (["qstate", "--level", "4"], FIELD),
    "inequality": (["inequality"], SWEEP),
    "dn": (["dn"], SWEEP),
    "khl": (["khl"], SWEEP),
    "l1": (["l1"], SWEEP),
    "extremal-demo": (["extremal-demo", "--level", "4"], None),
}
SIDECAR_SKIP = ("wall_time_s", "minor_faults", "env")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


# ---------------------------------------------------------------------------
# The corpus, run inside one tree's process
# ---------------------------------------------------------------------------


def _leaves(obj, path="") -> dict[str, str]:
    """JSON leaves by path; floats as repr, so the sign of a zero counts."""
    if isinstance(obj, dict):
        return {k: v for key in sorted(obj) for k, v in _leaves(obj[key], f"{path}/{key}").items()}
    if isinstance(obj, list):
        return {k: v for i, item in enumerate(obj) for k, v in _leaves(item, f"{path}/{i}").items()}
    return {path: repr(obj)}


def _cli_artifacts(name: str, argv: list[str], spec: dict | None) -> dict:
    from symflow import cli

    if spec is not None:
        with open(f"{name}.spec.json", "w") as fh:
            json.dump(spec, fh)
        argv = argv + ["--spec", f"{name}.spec.json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + ["--out", f"out/{name}"])
    found = {f"{name}.exit": ("cells", {"code": str(code)}),
             f"{name}.stdout": ("text", out.getvalue()),
             f"{name}.stderr": ("text", err.getvalue())}
    if os.path.exists(f"out/{name}.csv"):
        found[f"{name}.csv"] = ("csv", Path(f"out/{name}.csv").read_text())
        meta = json.loads(Path(f"out/{name}.json").read_text())
        found[f"{name}.json"] = ("cells", _leaves({k: v for k, v in meta.items() if k not in SIDECAR_SKIP}))
    return found


def _tree_fields():
    import numpy as np
    from symflow.manifold import ScalarField, build_sphere, sample

    for level in (3, 4, 5, 6):
        mesh = build_sphere(level)
        rng = np.random.default_rng(100 + level)
        terms = ("x", "y", "z", "x*y", "y*z", "x*z", "x*x", "z*z")
        smooth = sample(mesh, " + ".join(f"{c:.3f}*{t}" for c, t in zip(rng.normal(size=len(terms)), terms)))
        yield f"L{level}-smooth", smooth
        yield f"L{level}-fold", sample(mesh, "2*z^2 - x")
        yield f"L{level}-round1", ScalarField(mesh, np.round(smooth.values, 1))
        yield f"L{level}-round2", ScalarField(mesh, np.round(smooth.values, 2))
        yield f"L{level}-noise", ScalarField(mesh, rng.normal(size=mesh.n_points))
        signs = rng.random(mesh.n_points) < 0.5  # plateaus of +0.0 and -0.0 among rounded heights
        yield f"L{level}-zeros", ScalarField(mesh, np.where(signs, -0.0, np.round(2.0 * mesh.points[:, 2])))
    yield "L3-constant", ScalarField(mesh := build_sphere(3), np.full(mesh.n_points, 0.25))


def _tree_artifacts() -> dict:
    from symflow.reeb import build_reeb, median

    found = {}
    for name, f in _tree_fields():
        g = build_reeb(f)
        found[f"tree-{name}.to_json"] = ("cells", _leaves(json.loads(g.to_json())))
        found[f"tree-{name}.median"] = ("text", repr(median(g)))
        found[f"tree-{name}.total_mass"] = ("cells", {"total_mass": repr(g.total_mass())})
        for key in ("node_of_vertex", "edge_of_vertex"):
            found[f"tree-{name}.{key}"] = ("cells", dict(enumerate(map(str, getattr(g, key).tolist()))))
    return found


def _yoshida_artifacts() -> dict:
    from symflow.scheme import yoshida

    return {f"yoshida-{k}": ("cells", {f"{side}/{i}": c.hex() for side in ("alphas", "betas")
                                       for i, c in enumerate(getattr(yoshida(k), side))})
            for k in (2, 4, 6, 8)}


def run_corpus(result: str, src: str) -> None:
    import symflow

    if not Path(symflow.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported symflow from {symflow.__file__}, not from {src}")
    os.makedirs("out", exist_ok=True)
    found = {}
    for name, (argv, spec) in COMMANDS.items():
        found.update(_cli_artifacts(name, argv, spec))
    found.update(_tree_artifacts())
    found.update(_yoshida_artifacts())
    with open(result, "w") as fh:
        json.dump(found, fh)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _rel(a: str, b: str) -> float:
    """Relative difference of two numbers written as text (0 if either is not one)."""
    try:
        x, y = float.fromhex(a) if "0x" in a else float(a), float.fromhex(b) if "0x" in b else float(b)
    except ValueError:
        return 0.0
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _csv_cells(text: str) -> dict:
    return {(i, j): cell for i, row in enumerate(csv.reader(io.StringIO(text))) for j, cell in enumerate(row)}


def compare(kind: str, new, old) -> dict:
    """'identical', or the count of differing bytes or cells and the largest relative difference."""
    if new == old:
        return {"status": "identical"}
    if kind == "text":
        a, b = new.encode(), old.encode()
        same = sum(m.size for m in difflib.SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks())
        count, unit = max(len(a), len(b)) - same, "bytes"  # aligned, so one extra digit is one byte
        pairs = zip(NUMBER.findall(new), NUMBER.findall(old))
    else:
        if kind == "csv":
            new, old = _csv_cells(new), _csv_cells(old)
        keys = set(new) | set(old)
        count, unit = sum(new.get(k) != old.get(k) for k in keys), "cells"
        pairs = [(new[k], old[k]) for k in keys if k in new and k in old]
    return {"status": "differs", "count": count, "unit": unit,
            "max_rel_diff": max((_rel(a, b) for a, b in pairs), default=0.0)}


def _line(name: str, verdict: dict) -> str:
    if verdict["status"] != "differs":
        return f"{name}: {verdict['status']}"
    return f"{name}: {verdict['count']} {verdict['unit']} differ, max rel diff {verdict['max_rel_diff']:.3g}"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV", help="git revision to compare with")
    parser.add_argument("--json", default="identity.json", metavar="PATH", help="where to write the report")
    parser.add_argument("--corpus", nargs=2, metavar=("RESULT", "SRC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corpus:
        run_corpus(*args.corpus)
        return 0
    sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="symflow-identity-"))
    tree = tmp / "tree"
    try:
        _git("worktree", "add", "--detach", str(tree), sha)
        procs = {}
        for side, root in (("new", ROOT), ("old", tree)):
            (tmp / side).mkdir()
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            cmd = [sys.executable, str(Path(__file__).resolve()), "--corpus",
                   str(tmp / f"{side}.json"), str(root / "src")]
            procs[side] = subprocess.Popen(cmd, cwd=tmp / side, env=env)
        if any([p.wait() for p in procs.values()]):  # wait for both before the directory goes
            raise SystemExit("a corpus run failed")
        new, old = (json.loads((tmp / f"{side}.json").read_text()) for side in ("new", "old"))
    finally:
        if tree.exists():
            _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
    report = {}
    for name in sorted(set(new) | set(old)):
        if name not in new or name not in old:
            report[name] = {"status": f"only in {'the working tree' if name in new else args.against}"}
        else:
            report[name] = compare(new[name][0], new[name][1], old[name][1])
        print(_line(name, report[name]))
    same = sum(v["status"] == "identical" for v in report.values())
    summary = f"{same} of {len(report)} artifacts identical against {args.against} ({sha[:12]})"
    print(summary)
    with open(args.json, "w") as fh:
        json.dump({"against": args.against, "commit": sha, "summary": summary, "artifacts": report}, fh, indent=1)
    return 0 if same == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
