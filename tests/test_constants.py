"""Constant-ledger assembly and the degeneracy at the critical exponent."""

import math

import pytest

from parabolab.constants import build_ledger, ledger_to_text
from parabolab.errors import DomainError
from parabolab.moser import chi, exponents


def test_reference_ledger_n2_q4():
    led = build_ledger(2, 4.0, beta0=1.0, alpha=1.0)
    assert led.chi == 1.5
    assert abs(led.alpha0 - 1.5) < 1e-14
    assert abs(led.r - 8.0 / 3.0) < 1e-14
    assert abs(led.final_exponent - 5.0) < 1e-14
    assert abs(led.S0 - 3.0) < 1e-14
    assert abs(led.S1 - 6.0) < 1e-14
    # exponent 2(N+1)/((1+beta0)(N+2)) = 0.75 here; the limit exponents
    # on the (1+beta0) prefactor are exponent * S0 and exponent * S1
    assert abs(led.prefactor_exponent - 0.75) < 1e-14
    assert math.isclose(led.prefactor_S0, 0.75 * 3.0, rel_tol=1e-14)
    assert math.isclose(led.prefactor_S1, 0.75 * 6.0, rel_tol=1e-14)


def test_geometric_sums_match_truncations():
    for N, q in ((1, 3.0), (2, 4.0), (3, 7.0)):
        led = build_ledger(N, q)
        c = led.chi
        s0 = sum(c ** -i for i in range(200))
        s1 = sum(i * c ** -i for i in range(1, 201))
        assert abs(led.S0 - s0) < 1e-10
        assert abs(led.S1 - s1) < 1e-10


def test_side_inputs_do_not_touch_derived_values():
    a = build_ledger(2, 4.0, beta0=1.0, alpha=1.0)
    b = build_ledger(2, 4.0, beta0=1.0, alpha=1.0, lam=0.25, measure=7.0, T=3.0,
                     c_s=0.4)
    for name in ("chi", "alpha0", "r", "final_exponent", "S0", "S1"):
        assert getattr(a, name) == getattr(b, name)


def test_ledger_rejects_degenerate_exponents():
    with pytest.raises(DomainError):
        build_ledger(2, 2.0)
    with pytest.raises(DomainError):
        build_ledger(2, 4.0, alpha=10.0)


def test_text_rendering_marks_symbolic_inputs():
    text = ledger_to_text(build_ledger(2, 4.0))
    assert "symbolic" in text
    assert "chi" in text and "1.5" in text
    full = ledger_to_text(build_ledger(2, 4.0, measure=1.0, T=0.5, c_s=0.3))
    assert "symbolic" not in full


def test_degeneracy_scan_marches_toward_the_critical_exponent():
    qs = [2.1, 2.5, 3.0, 4.0, 8.0]
    chis = [chi(2, q) for q in qs]
    finals = [exponents(1.0, q, 2, 1.0)[2] for q in qs]
    assert all(b > a for a, b in zip(chis, chis[1:]))      # chi grows with q
    assert all(b < a for a, b in zip(finals, finals[1:]))  # blowup eases off
    assert chis[0] > 1.0
