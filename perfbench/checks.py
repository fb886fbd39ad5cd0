"""Output checks of the benchmark workloads.

Every check takes plain numbers and returns a list of error messages; an
empty list means the output passed.  The expected values come from closed
forms, from properties the method must have (scaling laws, the axioms of
the quasi-state, the generator generating the composition) or from an
independent sympy computation, never from a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

SPHERE_CUBIC_MONOMIALS = (
    "x", "y", "z",
    "x*x", "y*y", "z*z", "x*y", "y*z", "x*z",
    "x*x*x", "y*y*y", "z*z*z", "x*x*y", "x*x*z",
    "y*y*x", "y*y*z", "z*z*x", "z*z*y", "x*y*z",
)


def close(label: str, got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> list[str]:
    """One error if ``got`` is farther from ``want`` than ``atol + rtol*|want|``."""
    if math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{label}: got {got!r}, expected {want!r} (atol {atol:g}, rtol {rtol:g})"]


# ---------------------------------------------------------------------------
# defect-sweep: the CSV table of `symflow inequality`
# ---------------------------------------------------------------------------


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of the inequality table with numeric columns converted."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        row["n"] = int(row["n"])
        for key in ("pi", "q_n", "ratio", "tau"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


def check_sweep(rows: list[dict], *, n_values, n_pairs: int, e_grid, base_q2: float) -> list[str]:
    """Checks of one inequality table.

    ``n_pairs`` counts the base pair and the family; ``base_q2`` is the
    mesh maximum of |64 pi x y z|, the closed form of the depth-2 bracket
    norm of the base pair (1 - 2x^2, 1 - 2y^2).
    """
    errors: list[str] = []
    by_op: dict[str, list[dict]] = {}
    for row in rows:
        by_op.setdefault(row["op"], []).append(row)
    counts = {"pair": n_pairs * len(n_values), "scaling": len(e_grid) * len(n_values), "c_n": len(n_values)}
    for op, want in counts.items():
        got = len(by_op.get(op, []))
        if got != want:
            errors.append(f"{op} rows: got {got}, expected {want}")
    if errors:
        return errors

    base = {r["n"]: r for r in by_op["pair"] if r["pair"] == "base"}
    if sorted(base) != list(n_values):
        return [f"base pair rows cover depths {sorted(base)}, expected {list(n_values)}"]
    errors += close("base q_2 against max|64 pi xyz|", base[2]["q_n"], base_q2, rtol=1e-12)
    errors += close("base pair defect", base[2]["pi"], 2.0, atol=0.05)

    for e in e_grid:
        label = f"scale{e:g}"
        for r in (r for r in by_op["scaling"] if r["pair"] == label):
            n = r["n"]
            errors += close(f"{label} defect at n={n}", r["pi"], e * base[n]["pi"], rtol=1e-6)
            errors += close(f"{label} q_{n}", r["q_n"], e**n * base[n]["q_n"], rtol=1e-6)

    for r in by_op["pair"] + by_op["scaling"]:
        if r["flag"]:
            continue
        want = r["pi"] / r["q_n"] ** (1.0 / r["n"])
        errors += close(f"ratio of {r['pair']} at n={r['n']}", r["ratio"], want, rtol=1e-12)

    for c in by_op["c_n"]:
        ratios = [r["ratio"] for r in by_op["pair"] if r["n"] == c["n"] and not r["flag"]]
        want = max(ratios) if ratios else math.nan
        errors += close(f"c_{c['n']} as the family maximum", c["ratio"], want, rtol=1e-12)
    return errors


# ---------------------------------------------------------------------------
# deep-brackets: iterated brackets against sympy
# ---------------------------------------------------------------------------


def sympy_monomials(f_src: str, g_src: str, words) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """Left-nested sphere brackets of two polynomial fields, computed by sympy.

    Returns, per word, the exponents (terms, 3) and float coefficients of
    the monomial ``{...{{F, G}, w_1}, ..., w_k}`` in ambient coordinates,
    with the bracket ``4 pi x . (grad A x grad H)``.  The algebra runs on
    exact rationals; the factor ``(4 pi)^(k+1)`` is applied once at the end.
    """
    import sympy as sp

    x, y, z = sp.symbols("x y z")
    gens = (x, y, z)

    def poly(src: str):
        return sp.Poly(sp.sympify(src.replace("^", "**"), rational=True), *gens)

    X, Y, Z = (sp.Poly(v, *gens) for v in gens)

    def bracket(a, h):
        ax, ay, az = (a.diff(v) for v in gens)
        hx, hy, hz = (h.diff(v) for v in gens)
        return X * (ay * hz - az * hy) + Y * (az * hx - ax * hz) + Z * (ax * hy - ay * hx)

    f, g = poly(f_src), poly(g_src)
    cache = {(): bracket(f, g)}

    def nested(word: tuple):
        if word not in cache:
            cache[word] = bracket(nested(word[:-1]), f if word[-1] == "F" else g)
        return cache[word]

    out = {}
    for word in words:
        p = nested(tuple(word))
        scale = (4.0 * math.pi) ** (len(word) + 1)
        terms = p.terms()
        exps = np.array([t[0] for t in terms], dtype=np.int64).reshape(-1, 3)
        coefs = np.array([float(t[1]) * scale for t in terms])
        out[tuple(word)] = (exps, coefs)
    return out


def eval_terms(exps: np.ndarray, coefs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial given as exponent rows and coefficients."""
    top = int(exps.max(initial=0)) + 1
    powers = [points[:, [c]] ** np.arange(top) for c in range(3)]
    terms = powers[0][:, exps[:, 0]] * powers[1][:, exps[:, 1]] * powers[2][:, exps[:, 2]]
    return terms @ coefs


def check_monomials(got: dict, want: dict, rtol: float = 1e-9) -> list[str]:
    """Monomial values at sample points against reference values.

    Both arguments map a word to an array of values at the same points;
    the tolerance is relative to the largest reference magnitude.
    """
    errors = []
    if set(got) != set(want):
        return [f"monomial words differ: {sorted(got)} vs {sorted(want)}"]
    for word in sorted(want):
        scale = float(np.max(np.abs(want[word])))
        diff = float(np.max(np.abs(np.asarray(got[word]) - want[word])))
        if not diff <= rtol * scale:
            errors.append(f"monomial {''.join(word) or '{F,G}'}: max deviation {diff:.3e} "
                          f"exceeds {rtol:g} x {scale:.3e}")
    return errors


# ---------------------------------------------------------------------------
# flow-calibration
# ---------------------------------------------------------------------------


def torus_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest periodic distance between matching points of the unit torus."""
    d = (np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5
    return float(np.max(np.linalg.norm(d, axis=1)))


def check_flow(gap: float, error_estimate: float, tol: float) -> list[str]:
    """The generator endpoints match the composition within the reference error."""
    errors = []
    if not error_estimate <= tol:
        errors.append(f"reference error estimate {error_estimate:.3e} above tolerance {tol:.1e}")
    budget = max(1e-9, 20.0 * error_estimate)
    if not gap <= budget:
        errors.append(f"generator endpoints {gap:.3e} from the composition, budget {budget:.3e}")
    return errors
