"""The heap policy set on import: warm calls reuse freed memory instead of faulting pages in again."""

import os

import pytest

import symflow
from symflow.bracket import q_norm
from symflow.manifold import build_sphere, sample
from symflow.reeb import quasi_state

resource = pytest.importorskip("resource")

CUBIC = "0.3*x^3 - 0.7*x*y*z + 0.2*y^2*z + 0.5*z^3 - 0.4*x*y + 0.1*y"


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def test_heap_policy_is_recorded():
    expected = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30} if _on_glibc() else None
    assert symflow.HEAP_POLICY == expected


def _quasi_state_call():
    field = sample(build_sphere(5), CUBIC)
    return lambda: quasi_state(field)


def _q_norm_call():
    mesh = build_sphere(4)
    f = sample(mesh, f"1 - 2*x^2 + 0.1*({CUBIC})")
    g = sample(mesh, "1 - 2*y^2 + 0.1*(0.6*x^3 - 0.2*x^2*y + 0.9*y*z^2 - 0.5*z + 0.3*x*z)")
    return lambda: q_norm(5, f, g)


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is set on glibc only")
@pytest.mark.parametrize("make_call", [_quasi_state_call, _q_norm_call], ids=["quasi_state", "q_norm"])
def test_warm_calls_fault_no_pages_in(make_call):
    call = make_call()
    call(), call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        call()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
