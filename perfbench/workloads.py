"""The four benchmark workloads.

A workload builds its inputs from the run seed and runs items of one kind
through the public API of symflow.  ``prepare(i)`` makes the inputs of
item ``i`` (untimed), ``item(inputs)`` is the timed call, and
``check(i, inputs, result)`` returns the errors of its output (untimed).
Each item gets inputs of its own, drawn from ``(seed, i)``, so that no
item repeats an earlier one and a cache keyed on inputs cannot skip work.
``deferred_checks()`` runs the expensive checks after the measured phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks

#: Index of the warm-up item run during set-up.  It is negative so that its
#: inputs differ from those of every measured item.
WARMUP_ITEM = -2


def item_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k % 2**32])


def random_cubic(rng: np.random.Generator) -> str:
    """A cubic polynomial in x, y, z with coefficients drawn from U(-1, 1)."""
    coefs = rng.uniform(-1.0, 1.0, len(checks.SPHERE_CUBIC_MONOMIALS))
    return " + ".join(f"({c:.17g})*{m}" for c, m in zip(coefs, checks.SPHERE_CUBIC_MONOMIALS))


class ItemFailed(RuntimeError):
    """The program reported a failure for one item."""


class Workload:
    def deferred_checks(self) -> list[tuple[int, list[str]]]:
        """Checks too slow to run per item, as (item index, errors) pairs."""
        return []


class DefectSweep(Workload):
    """One `symflow inequality` run per item, through `symflow.cli.run`."""

    name = "defect-sweep"
    SIZES = {
        "full": dict(level=4, n_max=4, family_size=2, amplitudes=(0.1, 0.2), e_grid=(2.0,)),
        "tiny": dict(level=3, n_max=3, family_size=1, amplitudes=(0.1,), e_grid=(2.0,)),
    }

    def __init__(self, sf, size: str, seed: int, out_dir: Path):
        self.sf = sf
        self.p = self.SIZES[size]
        self.seed = seed
        self.spec_path = out_dir / "defect-sweep-spec.json"
        self.csv_path = out_dir / "defect-sweep-table.csv"
        pts = sf.manifold.build_sphere(self.p["level"]).points
        self.base_q2 = float(np.max(np.abs(64.0 * np.pi * pts[:, 0] * pts[:, 1] * pts[:, 2])))

    def prepare(self, i: int) -> dict:
        p = self.p
        spec = {
            "manifold": "sphere", "level": p["level"], "n_max": p["n_max"], "norm": "uniform",
            "family_size": p["family_size"], "amplitudes": list(p["amplitudes"]),
            "e_grid": list(p["e_grid"]),
            "seed": int(item_rng(self.seed, i).integers(1, 2**31)),
        }
        self.spec_path.write_text(json.dumps(spec))
        return spec

    def item(self, spec: dict) -> None:
        argv = ["inequality", "--spec", str(self.spec_path), "--out", str(self.csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.sf.cli.run(argv)
        if code != 0:
            raise ItemFailed(f"symflow inequality exited with {code}")

    def check(self, i: int, spec: dict, result) -> list[str]:
        rows = checks.parse_sweep_csv(self.csv_path.read_text())
        n_pairs = 1 + spec["family_size"] * len(spec["amplitudes"])
        return checks.check_sweep(rows, n_values=range(2, spec["n_max"] + 1), n_pairs=n_pairs,
                                  e_grid=spec["e_grid"], base_q2=self.base_q2)

class DeepBrackets(Workload):
    """`q_norm` at one depth of a seeded perturbed pair; odd items scale the pair."""

    name = "deep-brackets"
    SIZES = {
        "full": dict(level=4, generation=5, amplitude=0.1, scale=2.0, sample_points=64),
        "tiny": dict(level=3, generation=3, amplitude=0.1, scale=2.0, sample_points=16),
    }

    def __init__(self, sf, size: str, seed: int, out_dir: Path):
        self.sf = sf
        self.p = self.SIZES[size]
        self.seed = seed
        self.mesh = sf.manifold.build_sphere(self.p["level"])
        self.base_q: dict[int, float] = {}
        self.first = None

    def sources(self, k: int) -> tuple[str, str]:
        rng = item_rng(self.seed, k)
        a = self.p["amplitude"]
        return (f"(1 - 2*x^2) + ({a})*({random_cubic(rng)})",
                f"(1 - 2*y^2) + ({a})*({random_cubic(rng)})")

    def prepare(self, i: int):
        k, scaled = divmod(i, 2)
        f_src, g_src = self.sources(k)
        f = self.sf.manifold.sample(self.mesh, f_src)
        g = self.sf.manifold.sample(self.mesh, g_src)
        if scaled:
            e = self.p["scale"]
            f, g = e * f, e * g
        return f, g

    def item(self, pair) -> float:
        f, g = pair
        return self.sf.bracket.q_norm(self.p["generation"], f, g)

    def check(self, i: int, pair, q: float) -> list[str]:
        k, scaled = divmod(i, 2)
        if not scaled:
            self.base_q[k] = q
            if self.first is None:
                self.first = (k, pair, q)
            return [] if q > 0.0 and math.isfinite(q) else [f"q_norm is {q!r}"]
        if k not in self.base_q:
            return []
        e, n = self.p["scale"], self.p["generation"]
        return checks.close(f"q_{n}(eF, eG) against e^{n} q_{n}", q, e**n * self.base_q[k], rtol=1e-6)

    def deferred_checks(self) -> list[tuple[int, list[str]]]:
        """The first measured pair against sympy.

        The first and the last monomial are compared at sample points, and
        q_n against the sum of the mesh maxima of all sympy monomials.
        """
        if self.first is None:
            return []
        k, (f, g), q = self.first
        bracket = self.sf.bracket
        n = self.p["generation"]
        words = [m.word for m in bracket.enumerate_monomials(n - 1)]
        errors = []
        if len(words) != 2 ** (n - 2):
            errors.append(f"{len(words)} monomials at depth {n}, expected {2 ** (n - 2)}")
        ref = checks.sympy_monomials(*self.sources(k), words)
        idx = item_rng(self.seed, k).choice(self.mesh.n_points, self.p["sample_points"], replace=False)
        pts = self.mesh.points
        probe = (words[0], words[-1])
        got = {w: bracket.eval_monomial(bracket.LieMonomial(w), f, g).values[idx] for w in probe}
        want = {w: checks.eval_terms(*ref[w], pts[idx]) for w in probe}
        errors += checks.check_monomials(got, want, rtol=1e-9)
        q_ref = sum(float(np.max(np.abs(checks.eval_terms(*ref[w], pts)))) for w in words)
        errors += checks.close(f"q_{n} against the sympy monomials", q, q_ref, rtol=1e-9)
        return [(2 * k, errors)]


class LevelSetTrees(Workload):
    """`quasi_state` of one field per item, in rounds of five kinds of field.

    A round holds a random cubic F, its affine image a + sF, a linear height
    h, a monotone function of h, and a fold 1 - 2u^2 whose exact value ties
    give a large tree.  Each kind has a known or derived quasi-state.
    """

    name = "level-set-trees"
    KINDS = ("cubic", "affine", "height", "monotone", "fold")
    FOLDS = ("1 - 2*x^2", "1 - 2*y^2", "1 - 2*z^2")
    SIZES = {"full": dict(level=6), "tiny": dict(level=4)}

    def __init__(self, sf, size: str, seed: int, out_dir: Path):
        self.sf = sf
        self.level = self.SIZES[size]["level"]
        self.seed = seed
        self.mesh = sf.manifold.build_sphere(self.level)
        self.tol = sf.reeb.tau(self.level)
        self.zeta_cubic: dict[int, float] = {}

    def round(self, k: int) -> dict:
        """Sources and expected values of the five fields of round ``k``."""
        rng = item_rng(self.seed, k)
        cubic = random_cubic(rng)
        a, s = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
        u = rng.normal(size=3)
        u *= rng.uniform(0.5, 2.0) / np.linalg.norm(u)
        height = f"({u[0]:.17g})*x + ({u[1]:.17g})*y + ({u[2]:.17g})*z"
        c0, c1, c3 = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0)
        return {
            "cubic": cubic,
            "affine": f"({a:.17g}) + ({s:.17g})*({cubic})",
            "height": height,
            "monotone": f"({c0:.17g}) + ({c1:.17g})*({height}) + ({c3:.17g})*({height})^3",
            "fold": self.FOLDS[k % len(self.FOLDS)],
            "a": a, "s": s, "c0": c0,
        }

    def prepare(self, i: int):
        k, j = divmod(i, len(self.KINDS))
        src = self.round(k)[self.KINDS[j]]
        return self.sf.manifold.sample(self.mesh, src)

    def item(self, field) -> float:
        return self.sf.reeb.quasi_state(field)

    def check(self, i: int, field, zeta: float) -> list[str]:
        k, j = divmod(i, len(self.KINDS))
        kind, tol = self.KINDS[j], self.tol
        if kind == "cubic":
            self.zeta_cubic[k] = zeta
            lo, hi = float(field.values.min()), float(field.values.max())
            return [] if lo <= zeta <= hi else [f"zeta {zeta!r} outside the field range [{lo}, {hi}]"]
        r = self.round(k)
        if kind == "affine":
            if k not in self.zeta_cubic:
                return []
            return checks.close("zeta(a + sF)", zeta, r["a"] + r["s"] * self.zeta_cubic[k], atol=tol)
        if kind == "height":
            return checks.close("zeta of a linear height", zeta, 0.0, atol=tol)
        if kind == "monotone":
            return checks.close("zeta(phi(h))", zeta, r["c0"], atol=tol)
        return checks.close(f"zeta({r['fold']})", zeta, 1.0, atol=tol)


class FlowCalibration(Workload):
    """Reference calibration of a cocycle generator, then its endpoints."""

    name = "flow-calibration"
    SIZES = {
        "full": dict(torus_n=64, t=0.2, tol=1e-10, probes=32),
        "tiny": dict(torus_n=16, t=0.2, tol=1e-8, probes=8),
    }

    def __init__(self, sf, size: str, seed: int, out_dir: Path):
        self.sf = sf
        self.p = self.SIZES[size]
        self.seed = seed
        n = self.p["torus_n"]
        mesh = sf.manifold.build_torus(n, n)
        self.f = sf.manifold.sample(mesh, "0.3*sin(2*pi*q)")
        self.g = sf.manifold.sample(mesh, "0.2*cos(2*pi*p)")
        self.scheme = sf.scheme.strang()
        self.generator = sf.flow.CocycleGenerator(self.scheme, self.f, self.g)

    def prepare(self, i: int) -> np.ndarray:
        return item_rng(self.seed, i).random((self.p["probes"], 2))

    def item(self, probes: np.ndarray):
        flow, t = self.sf.flow, self.p["t"]
        ref = flow.reference_flow(self.generator, t, tol=self.p["tol"], probes=probes)
        ends = ref.apply(probes)
        direct = flow.compose_scheme(self.scheme, self.f, self.g, t).apply(probes)
        return ends, direct, ref.error_estimate

    def check(self, i: int, probes, result) -> list[str]:
        ends, direct, estimate = result
        return checks.check_flow(checks.torus_gap(ends, direct), estimate, self.p["tol"])


WORKLOADS = {w.name: w for w in (DefectSweep, DeepBrackets, LevelSetTrees, FlowCalibration)}
