"""Splitting schemes for flows of a sum of two Hamiltonians.

A scheme is the coefficient list of the composition

    Psi_t = phi_{alpha_1 F}^t o phi_{beta_1 G}^t o ... o phi_{alpha_m F}^t o phi_{beta_m G}^t

read as maps composed right to left (the ``beta_m`` factor acts first).
Coefficients of each family sum to 1, which makes ``Psi_t`` approximate
the flow of ``F + G`` up to order ``t**(order+1)`` over one step.

Higher even orders come from the triple-jump recursion applied to the
symmetric order-2 scheme: ``S_{2k+2}(t) = S_{2k}(w1 t) S_{2k}(w0 t)
S_{2k}(w1 t)`` with ``w1 = 1/(2 - 2**(1/(2k+1)))`` and ``w0 = 1 - 2 w1``;
adjacent stages driven by the same generator merge into one stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OddOrderError, OutOfRangeError, ReferenceToleranceExceededError
from .manifold import ScalarField

__all__ = [
    "OutOfRangeError",
    "OddOrderError",
    "ReferenceToleranceExceededError",
    "SplittingScheme",
    "OrderFit",
    "lie_trotter",
    "strang",
    "yoshida",
    "validate_order",
    "DEFAULT_T_GRID",
]

MAX_ORDER = 8

DEFAULT_T_GRID = tuple(0.05 * 2.0**-k for k in range(7))


@dataclass(frozen=True)
class SplittingScheme:
    """Coefficient pairs of a two-generator splitting composition."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    nominal_order: int
    label: str

    def __post_init__(self):
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas and betas must pair up")
        for name, coeffs in (("alphas", self.alphas), ("betas", self.betas)):
            if abs(sum(coeffs) - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1, got {sum(coeffs)!r}")

    @property
    def n_stages(self) -> int:
        return sum(1 for c in self.alphas + self.betas if c != 0.0)

    def stage_coefficients(self) -> list[float]:
        """Interleaved stage list [a1, b1, a2, b2, ...] without the trailing zero."""
        out = [c for pair in zip(self.alphas, self.betas) for c in pair]
        while out and out[-1] == 0.0:
            out.pop()
        return out

    def is_palindromic(self, tol: float = 1e-12) -> bool:
        stages = self.stage_coefficients()
        if len(stages) % 2 == 0:
            # reversal would swap the two generators' roles
            return False
        return all(abs(x - y) <= tol for x, y in zip(stages, reversed(stages)))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "nominal_order": self.nominal_order,
            "alphas": list(self.alphas),
            "betas": list(self.betas),
        }


def lie_trotter() -> SplittingScheme:
    """First-order splitting: one step of F, one step of G."""
    return SplittingScheme((1.0,), (1.0,), 1, "lie-trotter")


def strang() -> SplittingScheme:
    """Symmetric second-order splitting: half F, full G, half F."""
    return SplittingScheme((0.5, 0.5), (1.0, 0.0), 2, "strang")


def _triple_jump(coefs: list[float], order: int) -> list[float]:
    """S(w1 t) S(w0 t) S(w1 t) of a stage list F, G, ..., F; the F stages where copies meet merge."""
    k = order // 2
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * k + 1)))
    w0 = 1.0 - 2.0 * w1
    out = [c * w1 for c in coefs]
    for w in (w0, w1):
        out[-1] += coefs[0] * w
        out += [c * w for c in coefs[1:]]
    return out


def yoshida(order: int) -> SplittingScheme:
    """Even-order scheme from the triple-jump recursion (order 2 is strang)."""
    if not isinstance(order, int) or not 2 <= order <= MAX_ORDER:
        raise OutOfRangeError(f"order must be an even integer in [2, {MAX_ORDER}], got {order}")
    if order % 2:
        raise OddOrderError(f"order must be even, got {order}")
    coefs = [0.5, 1.0, 0.5]
    for current in range(2, order, 2):
        coefs = _triple_jump(coefs, current)
    label = "strang" if order == 2 else f"yoshida-{order}"
    return SplittingScheme(tuple(coefs[0::2]), tuple(coefs[1::2]) + (0.0,), order, label)


# ---------------------------------------------------------------------------
# Empirical order validation
# ---------------------------------------------------------------------------


def _power_fit(ts, values) -> tuple[float, float, float]:
    """Least-squares line through (log t, log value): slope, intercept and r^2."""
    log_t, log_v = np.log(ts), np.log(values)
    slope, intercept = np.polyfit(log_t, log_v, 1)
    ss_res = float(np.sum((log_v - (slope * log_t + intercept)) ** 2))
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@dataclass
class OrderFit:
    """Log-log slope fit of one-step endpoint errors against a reference flow."""

    label: str
    nominal_order: int
    expected_slope: float
    slope: float | None
    intercept: float | None
    r_squared: float | None
    rows: list[dict] = field(default_factory=list)
    discarded_points: int = 0
    status: str = "ok"


def validate_order(
    scheme: SplittingScheme,
    f: ScalarField,
    g: ScalarField,
    t_list: tuple[float, ...] = DEFAULT_T_GRID,
    probes: np.ndarray | None = None,
    tol: float = 1e-13,
    reference: dict | None = None,
) -> OrderFit:
    """Measure the one-step convergence order of a scheme on a field pair.

    For each ``t`` the scheme composition (built from exact generator
    flows) is applied once over the full interval and compared with a
    high-accuracy reference integration of ``F + G`` at a fixed probe
    set; the max endpoint distance is fitted as ``err ~ C * t**slope``.
    A healthy scheme of order ``N`` fits ``slope = N + 1``.

    Points where the measured error is below 100 times the reference
    error estimate, or below 1e-12, are discarded.  Fewer than three
    surviving points raises :class:`ReferenceToleranceExceededError`
    unless the error vanishes identically (reported as ``status="exact"``).
    A field without a recognised exact flow raises ``NotRecognizedError``
    before the reference is integrated.
    """
    from . import flow as _flow

    mesh = f.mesh
    for h in (f, g):
        _flow.recognize_flow(h)
    if probes is None:
        probes = _flow.default_probes(mesh.kind)
    if reference is None:
        reference = _flow.reference_endpoints(f + g, t_list, probes, tol=tol)

    fit = OrderFit(
        label=scheme.label,
        nominal_order=scheme.nominal_order,
        expected_slope=scheme.nominal_order + 1.0,
        slope=None,
        intercept=None,
        r_squared=None,
    )
    used_t, used_err = [], []
    for t in t_list:
        ref_pts, ref_est = reference[t]
        end = _flow.compose_scheme(scheme, f, g, t).apply(probes)
        err = float(np.max(_flow.point_distances(mesh.kind, end, ref_pts)))
        keep = err >= max(100.0 * ref_est, 1e-12)
        fit.rows.append({"t": t, "error": err, "reference_estimate": ref_est, "used": keep})
        if keep:
            used_t.append(t)
            used_err.append(err)
        else:
            fit.discarded_points += 1
    if not used_t:
        if all(row["error"] <= 1e-13 for row in fit.rows):
            fit.status = "exact"
            return fit
        raise ReferenceToleranceExceededError(
            "no sweep point exceeds the reference accuracy floor; tighten tol or enlarge t"
        )
    if len(used_t) < 3:
        raise ReferenceToleranceExceededError(
            f"only {len(used_t)} usable sweep points; at least 3 needed for a slope fit"
        )
    fit.slope, fit.intercept, fit.r_squared = _power_fit(used_t, used_err)
    return fit
