"""Splitting scheme coefficients and the empirical order fit."""

import gc

import numpy as np
import pytest

from symflow import bracket, flow
from symflow.flow import NotRecognizedError, exact_flow
from symflow.manifold import ScalarField, build_sphere, build_torus, sample
from symflow.scheme import (
    DEFAULT_T_GRID,
    OddOrderError,
    OutOfRangeError,
    ReferenceToleranceExceededError,
    SplittingScheme,
    lie_trotter,
    strang,
    validate_order,
    yoshida,
)

# Triple-jump weights for the order-2 -> order-4 step, kept as frozen
# literals so a regression in the recursion is caught immediately.
W1_4 = 1.3512071919596578
W0_4 = -1.7024143839193155

# yoshida(order)'s alphas and betas as float.hex, taken from the stage-labelled
# recursion that the plain coefficient list replaced: the two must agree bit for bit.
YOSHIDA_HEX = {
    4: (
        "0x1.59e8b6eb96339p-1 -0x1.67a2dbae58ce4p-3 -0x1.67a2dbae58ce4p-3 0x1.59e8b6eb96339p-1",
        "0x1.59e8b6eb96339p+0 -0x1.b3d16dd72c672p+0 0x1.59e8b6eb96339p+0 0x0.0p+0",
    ),
    6: (
        "0x1.96545f73f6871p-1 -0x1.a674568dbcc89p-3 -0x1.a674568dbcc89p-3 -0x1.e35d4443029c8p-4 "
        "0x1.e545d16d20c2fp-3 0x1.e545d16d20c2fp-3 -0x1.e35d4443029c8p-4 -0x1.a674568dbcc89p-3 "
        "-0x1.a674568dbcc89p-3 0x1.96545f73f6871p-1",
        "0x1.96545f73f6871p+0 -0x1.fff1751765b94p+0 0x1.96545f73f6871p+0 -0x1.d2c007fc56daap+0 "
        "0x1.2608be2bcf85bp+1 -0x1.d2c007fc56daap+0 0x1.96545f73f6871p+0 -0x1.fff1751765b94p+0 "
        "0x1.96545f73f6871p+0 0x0.0p+0",
    ),
    8: (
        "0x1.c589c3f9eaa64p-1 -0x1.d789547494b5ap-3 -0x1.d789547494b5ap-3 -0x1.0dc2f20331715p-3 "
        "0x1.0ed39a0bdb0abp-2 0x1.0ed39a0bdb0abp-2 -0x1.0dc2f20331715p-3 -0x1.d789547494b5ap-3 "
        "-0x1.d789547494b5ap-3 -0x1.79ab242fa0f90p-4 0x1.044f292db6515p-2 0x1.044f292db6515p-2 "
        "0x1.29d741e4e1945p-3 -0x1.2b044b6125b3ep-2 -0x1.2b044b6125b3ep-2 0x1.29d741e4e1945p-3 "
        "0x1.044f292db6515p-2 0x1.044f292db6515p-2 -0x1.79ab242fa0f90p-4 -0x1.d789547494b5ap-3 "
        "-0x1.d789547494b5ap-3 -0x1.0dc2f20331715p-3 0x1.0ed39a0bdb0abp-2 0x1.0ed39a0bdb0abp-2 "
        "-0x1.0dc2f20331715p-3 -0x1.d789547494b5ap-3 -0x1.d789547494b5ap-3 0x1.c589c3f9eaa64p-1",
        "0x1.c589c3f9eaa64p+0 -0x1.1db60c8b87e9dp+1 0x1.c589c3f9eaa64p+0 -0x1.047d403d5b814p+1 "
        "0x1.483226c05243fp+1 -0x1.047d403d5b814p+1 0x1.c589c3f9eaa64p+0 -0x1.1db60c8b87e9dp+1 "
        "0x1.c589c3f9eaa64p+0 -0x1.f4bf287fdec56p+0 0x1.3b735e8b5cf71p+1 -0x1.f4bf287fdec56p+0 "
        "0x1.1f9a7c7c8b954p+1 -0x1.6a5b8f54d5024p+1 0x1.1f9a7c7c8b954p+1 -0x1.f4bf287fdec56p+0 "
        "0x1.3b735e8b5cf71p+1 -0x1.f4bf287fdec56p+0 0x1.c589c3f9eaa64p+0 -0x1.1db60c8b87e9dp+1 "
        "0x1.c589c3f9eaa64p+0 -0x1.047d403d5b814p+1 0x1.483226c05243fp+1 -0x1.047d403d5b814p+1 "
        "0x1.c589c3f9eaa64p+0 -0x1.1db60c8b87e9dp+1 0x1.c589c3f9eaa64p+0 0x0.0p+0",
    ),
}


def test_lie_trotter_coefficients():
    s = lie_trotter()
    assert s.alphas == (1.0,)
    assert s.betas == (1.0,)
    assert s.nominal_order == 1
    assert s.label == "lie-trotter"
    assert not s.is_palindromic()


def test_strang_coefficients():
    s = strang()
    assert s.alphas == (0.5, 0.5)
    assert s.betas == (1.0, 0.0)
    assert s.nominal_order == 2
    assert s.stage_coefficients() == [0.5, 1.0, 0.5]
    assert s.n_stages == 3
    assert s.is_palindromic()


def test_yoshida_order2_is_strang():
    s = yoshida(2)
    assert s.alphas == strang().alphas
    assert s.betas == strang().betas
    assert s.label == "strang"


def test_yoshida4_frozen_coefficients():
    s = yoshida(4)
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    assert w1 == pytest.approx(W1_4, abs=1e-15)
    assert w0 == pytest.approx(W0_4, abs=1e-15)
    expected_alphas = (0.5 * w1, 0.5 * (w1 + w0), 0.5 * (w0 + w1), 0.5 * w1)
    expected_betas = (w1, w0, w1, 0.0)
    assert np.allclose(s.alphas, expected_alphas, atol=1e-15)
    assert np.allclose(s.betas, expected_betas, atol=1e-15)
    assert s.nominal_order == 4
    assert s.label == "yoshida-4"


@pytest.mark.parametrize("order", [4, 6, 8])
def test_yoshida_coefficients_are_pinned_bit_for_bit(order):
    s = yoshida(order)
    alphas, betas = YOSHIDA_HEX[order]
    assert [c.hex() for c in s.alphas] == alphas.split()
    assert [c.hex() for c in s.betas] == betas.split()


@pytest.mark.parametrize("order,count", [(2, 3), (4, 7), (6, 19), (8, 55)])
def test_stage_counts(order, count):
    assert yoshida(order).n_stages == count


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_yoshida_palindromic_and_consistent(order):
    s = yoshida(order)
    assert s.is_palindromic()
    assert sum(s.alphas) == pytest.approx(1.0, abs=1e-12)
    assert sum(s.betas) == pytest.approx(1.0, abs=1e-12)


def test_yoshida_guards():
    with pytest.raises(OddOrderError):
        yoshida(3)
    with pytest.raises(OutOfRangeError):
        yoshida(0)
    with pytest.raises(OutOfRangeError):
        yoshida(10)
    with pytest.raises(OutOfRangeError):
        yoshida(4.0)
    # one error class: the bracket layer's name catches scheme range errors too
    with pytest.raises(bracket.OutOfRangeError):
        yoshida(10)


def test_coefficient_sum_guard():
    with pytest.raises(ValueError):
        SplittingScheme((0.5,), (1.0,), 1, "broken")
    with pytest.raises(ValueError):
        SplittingScheme((1.0,), (0.5, 0.5), 1, "ragged")


def test_to_dict_round_trip():
    d = yoshida(4).to_dict()
    assert d["label"] == "yoshida-4"
    assert d["nominal_order"] == 4
    assert len(d["alphas"]) == len(d["betas"]) == 4


@pytest.fixture(scope="module")
def torus_pair():
    mesh = build_torus(64, 64)
    f = sample(mesh, "0.3*sin(2*pi*q)", name="f")
    g = sample(mesh, "0.2*cos(2*pi*p)", name="g")
    return f, g


def test_validate_order_lie_trotter(torus_pair):
    f, g = torus_pair
    fit = validate_order(lie_trotter(), f, g, tol=1e-12)
    assert fit.status == "ok"
    assert fit.slope == pytest.approx(2.0, abs=0.25)
    assert fit.r_squared > 0.99
    assert len(fit.rows) == len(DEFAULT_T_GRID)


def test_validate_order_exact_status(torus_pair):
    f, _ = torus_pair
    zero = sample(f.mesh, "0")
    probes = np.random.default_rng(5).random((32, 2))
    reference = {t: (exact_flow(f, t).apply(probes), 1e-16) for t in DEFAULT_T_GRID}
    fit = validate_order(strang(), f, zero, probes=probes, reference=reference)
    assert fit.status == "exact"
    assert fit.slope is None


def test_validate_order_too_few_points(torus_pair):
    f, g = torus_pair
    probes = np.random.default_rng(6).random((16, 2))
    ref = {t: (exact_flow(f, t).apply(probes), 1.0) for t in DEFAULT_T_GRID}
    with pytest.raises(ReferenceToleranceExceededError):
        validate_order(lie_trotter(), f, g, probes=probes, reference=ref)


def test_validate_order_rejects_a_field_without_exact_flow_before_calibrating(monkeypatch):
    def no_rk(*args):
        raise AssertionError("the reference flow was integrated")

    monkeypatch.setattr(flow, "_rk", no_rk)
    mesh = build_sphere(3)
    with pytest.raises(NotRecognizedError):
        validate_order(strang(), sample(mesh, "1 - 2*x^2"), sample(mesh, "1 - 2*y^2"))


def test_validate_order_recognises_each_field_once_per_process(monkeypatch):
    recognised = []
    recognise = flow._recognize_expression
    monkeypatch.setattr(flow, "_recognize_expression", lambda expr, kind: recognised.append(expr) or recognise(expr, kind))
    mesh = build_torus(16, 16)
    f, g = sample(mesh, "0.3*sin(2*pi*q)"), sample(mesh, "0.2*cos(2*pi*p)")
    t_list = (0.1, 0.05, 0.025)
    first = validate_order(strang(), f, g, t_list=t_list, tol=1e-10)
    assert [id(e) for e in recognised] == [id(f.expr), id(g.expr)]
    again = validate_order(strang(), f, g, t_list=t_list, tol=1e-10)
    assert len(recognised) == 2 and again.rows == first.rows
    key = (id(f.expr), "torus")
    assert key in flow._RECOGNISED
    del f, first, again
    recognised.clear()
    gc.collect()
    assert key not in flow._RECOGNISED
