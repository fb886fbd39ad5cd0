"""Experiment drivers and the command-line front end.

Everything here turns the library's primitives into flat, reproducible
data: sweeps of the defect-versus-bracket-norm ratio over seeded field
families, tube-distance estimates from bisection, interpolation-type
bracket ratios, integrator order fits, and a few one-shot demos.  Output
is CSV (RFC 4180, 17 significant digits) plus a JSON metadata sidecar;
identical configuration and seed give byte-identical CSV, because the
sweeps run in one thread, rows are assembled in grid order and all
randomness is drawn up front.

Exit codes: 0 on success, otherwise the ``exit_code`` that the raised
:class:`~symflow.errors.SymflowError` declares (2 when a checked invariant
fails, 1 for any configuration or input error); 1 with a traceback for any
other exception.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np
import scipy  # its version only: the package itself loads no submodule

from . import HEAP_POLICY, __version__
from .bracket import MAX_GENERATION, BracketTable, enumerate_monomials, poisson
from .errors import ConfigError, DegenerateInputError, InvariantViolationError, SymflowError
from .manifold import NORMS, ScalarField, build_sphere, build_torus, sample
from .reeb import build_reeb, median, pi_defect, tau
from .scheme import DEFAULT_T_GRID, lie_trotter, strang, validate_order, yoshida
from .flow import (
    EXPANSION_CAP_RANGE,
    composition_expansion,
    expansion_lhs,
    expansion_partial_sum,
    recognize_flow,
    remainder_ratio_sweep,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "inequality_sweep",
    "dn_upper",
    "dn_sweep",
    "khl_sweep",
    "l1_sweep",
    "run",
    "main",
]

_L1_CAVEAT = "open problem data, not a verified bound"

#: Orders of the splitting schemes: Lie-Trotter, Strang and Yoshida's triple jumps.
_SCHEME_ORDERS = (1, 2, 4, 6, 8)

#: Where this process runs, for the sidecar's ``env``; ``heap`` is glibc's heap policy (None off glibc).
_ENV = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__, "scipy": scipy.__version__,
        "platform": sys.platform, "cpu_count": os.cpu_count(), "heap": HEAP_POLICY}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: For each annotation in :class:`ExperimentConfig`: the kind its values must be, and the test.
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "Optional[str]": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple": ("a list of numbers", lambda v: isinstance(v, (list, tuple))
              and all(_is_int(x) or isinstance(x, float) for x in v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, flat and JSON-serializable.

    ``workers`` is accepted, echoed in the sidecar and hashed, but ignored:
    sweeps run in one thread, since threads gave no speedup on this
    GIL-bound work.
    """

    manifold: str = "sphere"
    level: int = 4
    torus_n: int = 64
    f: str = "1 - 2*x^2"
    g: str = "1 - 2*y^2"
    a: Optional[str] = None
    n_max: int = 4
    order: int = 2
    t_grid: tuple = DEFAULT_T_GRID
    e_grid: tuple = (0.5, 1.0, 2.0, 4.0)
    eps_grid: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    family_size: int = 20
    amplitudes: tuple = (0.05, 0.1, 0.2)
    norm: str = "uniform"
    out: Optional[str] = None
    seed: int = 2024
    workers: int = 0

    def validate(self) -> None:
        for fld in fields(self):
            kind, ok = _FIELD_KINDS[fld.type]
            value = getattr(self, fld.name)
            if not ok(value):
                raise ConfigError(f"{fld.name} must be {kind}, got {value!r}")
        if self.manifold not in ("sphere", "torus"):
            raise ConfigError(f"manifold must be 'sphere' or 'torus', got {self.manifold!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be {' or '.join(map(repr, NORMS))}, got {self.norm!r}")
        if self.manifold == "sphere" and self.level < 3:
            raise ConfigError(f"sphere level must be at least 3, got {self.level}")
        if self.manifold == "torus" and self.torus_n < 8:
            raise ConfigError(f"torus_n must be at least 8, got {self.torus_n}")
        if not 2 <= self.n_max <= MAX_GENERATION:
            raise ConfigError(f"n_max must be in [2, {MAX_GENERATION}], got {self.n_max}")
        for name in ("t_grid", "e_grid", "eps_grid", "amplitudes"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for name in ("t_grid", "eps_grid"):
            for value in getattr(self, name):
                if not value > 0:
                    raise ConfigError(f"{name} entries must be positive numbers, got {value!r}")
        if self.family_size < 0:
            raise ConfigError("family_size must be nonnegative")
        if self.workers < 0:
            raise ConfigError("workers must be nonnegative")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(range(2, self.n_max + 1))

    def mesh(self):
        if self.manifold == "sphere":
            return build_sphere(self.level)
        return build_torus(self.torus_n, self.torus_n)

    def tolerance(self) -> Optional[float]:
        return tau(self.level) if self.manifold == "sphere" else None

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_CONFIG_ALIASES = {"expr": "f", "n": "n_max"}


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config file, with line/column info on parse failures."""
    def unique_keys(pairs):  # json.load alone keeps the last value of a repeated key
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ConfigError(f"{path}: {next(k for k in keys if keys.count(k) > 1)!r} set twice")
        return dict(pairs)

    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    kwargs, set_by = {}, {}
    for key, value in raw.items():
        name = _CONFIG_ALIASES.get(key, key)
        if name not in known:
            raise ConfigError(f"{path}: unknown config key {name!r}")
        if name in set_by:
            raise ConfigError(f"{path}: {set_by[name]!r} and {key!r} both set {name!r}")
        set_by[name] = key
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        if any(ch in x for ch in ',"\r\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


@dataclass
class ResultTable:
    """Named columns, provenance-tagged rows, and run metadata."""

    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict

    def __post_init__(self):
        if "op" not in self.columns:
            raise InvariantViolationError("result tables need an 'op' provenance column")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvariantViolationError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in self.rows)
        return "\r\n".join(lines) + "\r\n"

    def write(self, out_path: str) -> tuple[str, str]:
        """Write CSV plus a .json sidecar next to it; returns both paths or raises ConfigError."""
        base, ext = os.path.splitext(out_path)
        csv_path = out_path if ext else out_path + ".csv"
        json_path = (base if ext else out_path) + ".json"
        try:
            with open(csv_path, "w", newline="") as fh:
                fh.write(self.to_csv())
            with open(json_path, "w") as fh:
                json.dump(self.meta, fh, indent=2, sort_keys=True, default=list)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"{exc.filename or out_path}: {exc.strerror or exc}") from exc
        return csv_path, json_path


def _meta(cfg: ExperimentConfig, **extra) -> dict:
    meta = {
        "version": __version__,
        "config": asdict(cfg),
        "config_hash": cfg.digest(),
        "tau": cfg.tolerance(),
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# Seeded field families
# ---------------------------------------------------------------------------

_SPHERE_MONOMIALS = (
    "x", "y", "z",
    "x*x", "y*y", "z*z", "x*y", "y*z", "x*z",
    "x*x*x", "y*y*y", "z*z*z", "x*x*y", "x*x*z",
    "y*y*x", "y*y*z", "z*z*x", "z*z*y", "x*y*z",
)

_TORUS_MODES = tuple(
    (k, l) for k in range(4) for l in range(4) if 1 <= k + l <= 3
)


def _random_smooth_expr(rng: np.random.Generator, kind: str) -> str:
    """Random trigonometric polynomial of degree at most three."""
    if kind == "sphere":
        coefs = rng.uniform(-1.0, 1.0, len(_SPHERE_MONOMIALS))
        return " + ".join(
            f"({c:.17g})*{m}" for c, m in zip(coefs, _SPHERE_MONOMIALS)
        )
    terms = []
    for k, l in _TORUS_MODES:
        c, s = rng.uniform(-1.0, 1.0, 2)
        phase = f"2*pi*({k}*q + {l}*p)"
        terms.append(f"({c:.17g})*cos({phase}) + ({s:.17g})*sin({phase})")
    return " + ".join(terms)


def _pair_family(cfg: ExperimentConfig, mesh) -> list[tuple[str, ScalarField, ScalarField]]:
    """The base pair plus seeded smooth perturbations at each amplitude."""
    rng = np.random.default_rng(cfg.seed)
    pairs = [("base", sample(mesh, cfg.f, name="F"), sample(mesh, cfg.g, name="G"))]
    for i in range(cfg.family_size):
        rf = _random_smooth_expr(rng, mesh.kind)
        rg = _random_smooth_expr(rng, mesh.kind)
        for s in cfg.amplitudes:
            fi = sample(mesh, f"({cfg.f}) + ({s:.17g})*({rf})")
            gi = sample(mesh, f"({cfg.g}) + ({s:.17g})*({rg})")
            pairs.append((f"pert{i:02d}s{s:g}", fi, gi))
    return pairs


_DEGENERATE_QN = 1e-9


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _require_sphere(cfg: ExperimentConfig, what: str) -> None:
    if cfg.manifold != "sphere":
        raise ConfigError(f"{what} needs the quasi-state, so a sphere manifold")


def _sphere_family(cfg: ExperimentConfig, what: str):
    """Validate a defect sweep's config; return its pair family on the sphere."""
    cfg.validate()
    _require_sphere(cfg, what)
    return _pair_family(cfg, cfg.mesh())


def _defect_rows(cfg: ExperimentConfig, op: str, pairs, norm: str) -> list[tuple]:
    """One (op, pair, n, pi, q_n, ratio, flag, tau) row per pair per depth.

    Pairs whose bracket norms vanish are flagged DegenerateRatio instead of
    dividing by zero.
    """
    tol = tau(cfg.level)
    rows: list[tuple] = []
    for label, fi, gi in pairs:
        pi = pi_defect(fi, gi).defect
        table = BracketTable(fi, gi, cfg.n_max - 1)
        for n in cfg.n_values:
            qn = table.q_norm(n, norm)
            if qn <= _DEGENERATE_QN:
                rows.append((op, label, n, pi, qn, math.nan, "DegenerateRatio", tol))
            else:
                rows.append((op, label, n, pi, qn, pi / qn ** (1.0 / n), "", tol))
    return rows


def _family_max(rows: list[tuple], ratio_col: int) -> dict[int, tuple]:
    """Per depth, the first unflagged (op, pair, n, ..., flag, tau) row of largest ratio."""
    best: dict[int, tuple] = {}
    for row in rows:
        n = row[2]
        if not row[-2] and (n not in best or row[ratio_col] > best[n][ratio_col]):
            best[n] = row
    return best


def inequality_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Defect against bracket-norm ratio over the seeded family.

    One row per pair per bracket depth, a scaling block for the base pair,
    and a summary row per depth carrying the empirical constant (the max
    ratio over nondegenerate rows).
    """
    pairs = _sphere_family(cfg, "the defect sweep")
    base_f, base_g = pairs[0][1], pairs[0][2]
    scaled = [(f"scale{e:g}", e * base_f, e * base_g) for e in cfg.e_grid]
    rows = _defect_rows(cfg, "pair", pairs, cfg.norm)
    best = _family_max(rows, 5)
    rows += _defect_rows(cfg, "scaling", scaled, cfg.norm)
    for n in cfg.n_values:
        pi, qn, ratio = best[n][3:6] if n in best else (math.nan,) * 3
        rows.append(("c_n", "family-max", n, pi, qn, ratio, "", tau(cfg.level)))

    meta = _meta(cfg, op="inequality", pairs=len(pairs), scaling_points=len(scaled))
    return ResultTable(
        ("op", "pair", "n", "pi", "q_n", "ratio", "flag", "tau"), rows, meta
    )


def _normalized(f: ScalarField, norm: str) -> ScalarField:
    size = NORMS[norm](f)
    if size == 0.0:
        raise DegenerateInputError("cannot normalize the zero field")
    return f * (1.0 / size)


def _monomial_profile(table: BracketTable, n: int, norm: str):
    """Per-monomial norms at depth n, tagged with their degree in the second field."""
    return [
        (m.degree_in_g, NORMS[norm](table.field(m.word)))
        for m in enumerate_monomials(n - 1)
    ]


def _bisect_scaling(profile, eps: float) -> float:
    """Largest c in [0,1] with sum(norm * c**deg) < eps, to 2^-80."""

    def q_of(c: float) -> float:
        return sum(v * c**k for k, v in profile)

    if q_of(1.0) < eps:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q_of(mid) < eps:
            lo = mid
        else:
            hi = mid
    return lo


def dn_upper(f: ScalarField, g: ScalarField, n: int, eps: float,
             norm: str = "uniform") -> float:
    """Distance overestimate to the commuting tube by shrinking one field.

    Normalizes both fields, then bisects for the largest c such that the
    depth-n bracket functional of (F, cG) stays below eps; the pair
    (F, cG) witnesses distance 1 - c.  Shrinking to c = 0 kills every
    monomial, so the bisection always brackets.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    fn = _normalized(f, norm)
    gn = _normalized(g, norm)
    profile = _monomial_profile(BracketTable(fn, gn, n - 1), n, norm)
    return 1.0 - _bisect_scaling(profile, eps)


def dn_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Upper and lower tube-distance estimates over the eps grid.

    Empirical constants are the family maxima of the inequality sweep on
    the same config.  The upper estimate is :func:`dn_upper` of the base
    pair; the lower one, half the defect of the normalized pair minus half
    the constant times eps^(1/n), is indicative, not certified, since the
    constant is itself a lower estimate of any admissible one.  Both
    columns must be nonincreasing in eps; a lower estimate exceeding the
    upper one by more than the mesh tolerance marks the constant as
    underestimated rather than failing the run.
    """
    pairs = _sphere_family(cfg, "tube distances")
    tol = tau(cfg.level)
    best = _family_max(_defect_rows(cfg, "pair", pairs, cfg.norm), 5)
    c_emp = {n: best[n][5] if n in best else math.nan for n in cfg.n_values}
    fn = _normalized(pairs[0][1], cfg.norm)
    gn = _normalized(pairs[0][2], cfg.norm)
    pi_n = pi_defect(fn, gn).defect
    table = BracketTable(fn, gn, cfg.n_max - 1)

    eps_sorted = tuple(sorted(cfg.eps_grid))
    rows: list[tuple] = []
    for n in cfg.n_values:
        profile = _monomial_profile(table, n, cfg.norm)
        uppers, lowers = [], []
        for eps in eps_sorted:
            upper = 1.0 - _bisect_scaling(profile, eps)
            lower = pi_n / 2.0 - 0.5 * c_emp[n] * eps ** (1.0 / n)
            flag = "" if lower <= upper + tol else "CNUnderestimate"
            rows.append(("dn", n, eps, upper, lower, c_emp[n], flag, tol))
            uppers.append(upper)
            lowers.append(lower)
        for name, col in (("dn_upper", uppers), ("dn_lower", lowers)):
            if any(b > a + 1e-12 for a, b in zip(col, col[1:])):
                raise InvariantViolationError(
                    f"{name} is not nonincreasing in eps for depth {n}"
                )

    meta = _meta(cfg, op="dn", c_n_emp=c_emp, pi_normalized=pi_n)
    return ResultTable(
        ("op", "n", "eps", "upper", "lower", "c_n_emp", "flag", "tau"), rows, meta
    )


def khl_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Interpolation-type bracket ratio over the family, per depth."""
    cfg.validate()
    tol = cfg.tolerance()
    pairs = _pair_family(cfg, cfg.mesh())
    rows: list[tuple] = []
    for label, fi, gi in pairs:
        table = BracketTable(fi, gi, cfg.n_max - 1)
        for n in cfg.n_values:
            try:
                rows.append(("pair", label, n, table.khl_ratio(n, cfg.norm), "", tol))
            except DegenerateInputError:
                rows.append(("pair", label, n, math.nan, "DegenerateInput", tol))
    best = _family_max(rows, 3)
    for n in cfg.n_values:
        rows.append(("a_n", "family-max", n, best[n][3] if n in best else math.nan, "", tol))
    meta = _meta(cfg, op="khl", pairs=len(pairs))
    return ResultTable(("op", "pair", "n", "ratio", "flag", "tau"), rows, meta)


def l1_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Defect against mass-weighted bracket norms; exploratory data only."""
    pairs = _sphere_family(cfg, "the l1 sweep")
    rows = _defect_rows(cfg, "pair", pairs, "l1")
    meta = _meta(cfg, op="l1", caveat=_L1_CAVEAT, pairs=len(pairs))
    return ResultTable(
        ("op", "pair", "n", "pi", "q_l1", "ratio", "flag", "tau"), rows, meta
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _scheme_for_order(order: int):
    if order not in _SCHEME_ORDERS:
        *head, last = _SCHEME_ORDERS
        raise ConfigError(f"no splitting scheme of order {order}; use {', '.join(map(str, head))}, or {last}")
    if order == 1:
        return lie_trotter()
    return strang() if order == 2 else yoshida(order)


def _base_pair(cfg: ExperimentConfig) -> tuple[ScalarField, ScalarField]:
    """F and G sampled on the config's mesh."""
    mesh = cfg.mesh()
    return sample(mesh, cfg.f), sample(mesh, cfg.g)


def _cmd_qstate(cfg: ExperimentConfig):
    _require_sphere(cfg, "qstate")
    mesh = cfg.mesh()
    f = sample(mesh, cfg.f)
    graph = build_reeb(f)
    m = median(graph)
    where = f"node {m.node}" if m.node is not None else f"edge {m.edge}"
    lines = [
        f"zeta = {m.value:.12g}",
        f"median at {where}, value {m.value:.12g}, multi={'yes' if m.multi else 'no'}",
        f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"mass {graph.total_mass():.12f}",
    ]
    rows = [(
        "qstate", m.value, where, m.multi, graph.n_nodes, graph.n_edges,
        graph.total_mass(), tau(cfg.level),
    )]
    table = ResultTable(
        ("op", "zeta", "median", "multi", "n_nodes", "n_edges", "mass", "tau"),
        rows, _meta(cfg, op="qstate", dot=graph.to_dot(), graph=json.loads(graph.to_json())),
    )
    return table, lines


def _cmd_bracket(cfg: ExperimentConfig):
    f, g = _base_pair(cfg)
    value = NORMS[cfg.norm](poisson(f, g))
    table = ResultTable(
        ("op", "norm", "value"),
        [("bracket", cfg.norm, value)],
        _meta(cfg, op="bracket"),
    )
    return table, [f"bracket norm ({cfg.norm}) = {value:.12g}"]


def _cmd_qn(cfg: ExperimentConfig):
    f, g = _base_pair(cfg)
    table = BracketTable(f, g, cfg.n_max - 1)
    rows = []
    lines = []
    for n in cfg.n_values:
        value = table.q_norm(n, cfg.norm)
        rows.append(("qn", n, value, cfg.norm))
        lines.append(f"depth {n}: {value:.12g}")
    return ResultTable(("op", "n", "q_n", "norm"), rows, _meta(cfg, op="qn")), lines


def _cmd_scheme(cfg: ExperimentConfig):
    sch = _scheme_for_order(cfg.order)
    pairs = list(zip(sch.alphas, sch.betas))
    rows = [("stage", i, a, b) for i, (a, b) in enumerate(pairs)]
    sum_a, sum_b = sum(sch.alphas), sum(sch.betas)
    rows.append(("sums", -1, sum_a, sum_b))
    lines = [f"{sch.label}: {sch.n_stages} nonzero stages, nominal order {sch.nominal_order}"]
    lines += [f"  alpha={a:+.17g}  beta={b:+.17g}" for a, b in pairs]
    lines.append(f"  sums: {sum_a:.12g}, {sum_b:.12g}")
    meta = _meta(cfg, op="scheme", scheme=sch.to_dict())
    return ResultTable(("op", "stage", "alpha", "beta"), rows, meta), lines


def _cmd_flow_order(cfg: ExperimentConfig):
    scheme = _scheme_for_order(cfg.order)
    f, g = _base_pair(cfg)
    fit = validate_order(scheme, f, g, t_list=tuple(cfg.t_grid))
    rows = [
        ("point", r["t"], r["error"], r["reference_estimate"], r["used"],
         math.nan, math.nan, fit.status)
        for r in fit.rows
    ]
    rows.append(("fit", math.nan, math.nan, math.nan, True,
                 fit.slope if fit.slope is not None else math.nan,
                 fit.r_squared if fit.r_squared is not None else math.nan,
                 fit.status))
    lines = [
        f"{fit.label}: slope {fit.slope}, expected {fit.expected_slope}, "
        f"r2 {fit.r_squared}, status {fit.status}"
    ]
    table = ResultTable(
        ("op", "t", "error", "reference_estimate", "used", "slope", "r_squared", "status"),
        rows, _meta(cfg, op="flow-order", fit=asdict(fit)),
    )
    return table, lines


def _cmd_remainder(cfg: ExperimentConfig):
    if cfg.order + 1 > MAX_GENERATION:
        *head, last = (order for order in _SCHEME_ORDERS if order + 1 <= MAX_GENERATION)
        raise ConfigError(
            f"remainder does not support order {cfg.order}: its bound needs bracket generation "
            f"{cfg.order + 1}, above {MAX_GENERATION}; use order {', '.join(map(str, head))} or {last}"
        )
    scheme = _scheme_for_order(cfg.order)
    f, g = _base_pair(cfg)
    sweep = remainder_ratio_sweep(scheme, f, g, t_list=tuple(cfg.t_grid), norm=cfg.norm)
    rows = [
        ("point", r["t"], r["remainder"], r["ratio"], sweep.generation,
         sweep.q_n, math.nan, math.nan)
        for r in sweep.rows
    ]
    rows.append(("summary", math.nan, math.nan, math.nan, sweep.generation,
                 sweep.q_n,
                 sweep.exponent if sweep.exponent is not None else math.nan,
                 sweep.kappa_max))
    lines = [
        f"generation {sweep.generation}: exponent {sweep.exponent}, "
        f"kappa_max {sweep.kappa_max:.6g}"
    ]
    table = ResultTable(
        ("op", "t", "remainder", "ratio", "generation", "q_n", "exponent", "kappa_max"),
        rows, _meta(cfg, op="remainder", sweep=asdict(sweep)),
    )
    return table, lines


def _cmd_expansion(cfg: ExperimentConfig):
    cap = cfg.order
    lo, hi = EXPANSION_CAP_RANGE
    if not lo <= cap <= hi:
        raise ConfigError(f"expansion order must be in [{lo}, {hi}], got {cap}")
    f, g = _base_pair(cfg)
    for h in (f, g):
        recognize_flow(h)
    a = sample(f.mesh, cfg.a) if cfg.a else f
    terms = composition_expansion(a, [f, g], cap)
    rows = [
        ("term", ",".join(str(p) for p in t.powers), t.coefficient, t.t_power,
         math.nan, math.nan)
        for t in terms
    ]
    for t in cfg.t_grid:
        lhs = expansion_lhs(a, [f, g], t)
        partial = expansion_partial_sum(terms, t)
        residual = float(np.max(np.abs(lhs - partial)))
        rows.append(("residual", "", math.nan, cap, t, residual))
    lines = [f"{len(terms)} terms up to joint order {cap}"]
    table = ResultTable(
        ("op", "powers", "coefficient", "t_power", "t", "residual"),
        rows, _meta(cfg, op="expansion", order_cap=cap),
    )
    return table, lines


def _cmd_extremal_demo(cfg: ExperimentConfig):
    cfg = replace(cfg, f="1 - 2*x^2", g="1 - 2*y^2", manifold="sphere")
    cfg.validate()
    d = pi_defect(*_base_pair(cfg))
    lines = [
        f"zeta(F)   = {d.zeta_f:+.6f}   (expected +1 within 0.05)",
        f"zeta(G)   = {d.zeta_g:+.6f}   (expected +1 within 0.05)",
        f"zeta(F+G) = {d.zeta_sum:+.6f}   (expected  0 within 0.05)",
        f"defect    = {d.defect:+.6f}   (expected +2 within 0.05)",
    ]
    ok = (
        abs(d.zeta_f - 1.0) <= 0.05
        and abs(d.zeta_g - 1.0) <= 0.05
        and abs(d.zeta_sum) <= 0.05
        and abs(d.defect - 2.0) <= 0.05
    )
    if not ok:
        print("\n".join(lines))
        raise InvariantViolationError("extremal demo values left their tolerance windows")
    rows = [("extremal-demo", d.zeta_f, d.zeta_g, d.zeta_sum, d.defect, tau(cfg.level))]
    table = ResultTable(
        ("op", "zeta_f", "zeta_g", "zeta_sum", "pi", "tau"),
        rows, _meta(cfg, op="extremal-demo"),
    )
    return table, lines


_COMMANDS = {
    "qstate": _cmd_qstate,
    "bracket": _cmd_bracket,
    "qn": _cmd_qn,
    "scheme": _cmd_scheme,
    "flow-order": _cmd_flow_order,
    "remainder": _cmd_remainder,
    "expansion": _cmd_expansion,
    "inequality": lambda cfg: (inequality_sweep(cfg), ["inequality sweep done"]),
    "dn": lambda cfg: (dn_sweep(cfg), ["tube distance sweep done"]),
    "khl": lambda cfg: (khl_sweep(cfg), ["bracket interpolation sweep done"]),
    "l1": lambda cfg: (l1_sweep(cfg), [f"note: {_L1_CAVEAT}"]),
    "extremal-demo": _cmd_extremal_demo,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="symflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", metavar="PATH", help="JSON config file")
        p.add_argument("--level", type=int, help="sphere subdivision level")
        p.add_argument("--order", type=int, help="scheme order / expansion cap")
        p.add_argument("--n", type=int, help="maximum bracket depth")
        p.add_argument("--norm", choices=NORMS)
        p.add_argument("--out", metavar="PATH", help="CSV output path")
        p.add_argument("--seed", type=int)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.spec) if args.spec else ExperimentConfig()
    overrides = {}
    for key in ("level", "order", "n", "norm", "out", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[_CONFIG_ALIASES.get(key, key)] = value
    cfg = replace(cfg, **overrides)
    cfg.validate()
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"{cfg.out}: {os.strerror(errno.ENOENT)}")
    return cfg


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        started, faults = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        table, lines = _COMMANDS[args.command](cfg)
        table.meta["wall_time_s"] = time.perf_counter() - started
        table.meta["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        table.meta["env"] = _ENV
        for line in lines:
            print(line)
        if cfg.out:
            csv_path, json_path = table.write(cfg.out)
            print(f"wrote {csv_path} and {json_path}")
        return 0
    except SymflowError as exc:
        print(exc.report(), file=sys.stderr)
        return exc.exit_code
    except Exception:  # not bad input but a bug: show where it happened
        traceback.print_exc()
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
