import json
from pathlib import Path

import numpy as np
import pytest

from reference import mp_hankel1, mp_j, mp_sph_j, mp_sph_y, mp_y
from wavetomo import special
from wavetomo.special import (bessel_jn_all, bessel_yn_all, hankel1_0, hankel1_1,
                              hankel1_all, legendre_all, spherical_jn_all,
                              spherical_yn_all)

# Exact values recorded before order 0 and order 1 were split into separate
# routines, and the J_n and j_l tables before their two downward loops became
# one.  The mpmath checks hold only to 1e-10, so these pin the last bits.
FROZEN = json.loads((Path(__file__).parent / "special_frozen.json").read_text())


def test_order01_kernels_frozen_values():
    # high-precision references (mpmath, 30 digits): H_n = J_n + j Y_n
    h0, h1 = hankel1_0(1.0), hankel1_1(1.0)
    assert h0.real == pytest.approx(0.76519768655796655, abs=1e-13)
    assert h0.imag == pytest.approx(0.08825696421567696, abs=1e-13)
    assert h1.real == pytest.approx(0.44005058574493355, abs=1e-13)
    assert h1.imag == pytest.approx(-0.78121282130028871, abs=1e-13)


def test_order01_kernels_sweep_against_mpmath():
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(0.01, 12.0, 60),
                         rng.uniform(12.0, 100.0, 60),
                         [0.02, 7.99, 8.0, 11.999, 12.0, 12.001, 100.0]])
    for x in xs:
        envelope = np.sqrt(2.0 / (np.pi * x))
        h0, h1 = hankel1_0(x), hankel1_1(x)
        assert abs(h0.real - mp_j(0, x)) <= 1e-10 * envelope
        assert abs(h0.imag - mp_y(0, x)) <= 1e-10 * envelope
        assert abs(h1.real - mp_j(1, x)) <= 1e-10 * envelope
        assert abs(h1.imag - mp_y(1, x)) <= 1e-10 * envelope


def test_kernels_reject_nonpositive():
    with pytest.raises(ValueError):
        hankel1_0(0.0)
    with pytest.raises(ValueError):
        hankel1_1(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        bessel_yn_all(3, 0.0)


def test_hankel_composition():
    # H_n = J_n + j Y_n: Y_n is the seed of the Y_n table, J_n agrees with Miller's
    x = np.array([2.7, 12.0, 30.5])
    yn = bessel_yn_all(1, x)
    jn = bessel_jn_all(1, x)
    for n, h in enumerate((hankel1_0(x), hankel1_1(x))):
        assert np.array_equal(h.imag, yn[n])
        assert np.allclose(h.real, jn[n], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["hankel1_0", "hankel1_1"])
def test_hankel_frozen_bits(name):
    fn = getattr(special, name)
    want = [complex(*v) for v in FROZEN[name]]
    assert [complex(fn(x)) for x in FROZEN["hankel_x"]] == want
    assert fn(np.array(FROZEN["hankel_x"])).tolist() == want


@pytest.mark.parametrize("name", ["bessel_yn_all", "spherical_yn_all", "legendre_all"])
def test_table_frozen_bits(name):
    table = FROZEN[name]
    got = getattr(special, name)(table["order"], np.array(table["x"]))
    assert got.tolist() == table["values"]


@pytest.mark.parametrize("name", ["bessel_jn_all", "spherical_jn_all"])
def test_downward_table_frozen_bits(name):
    # the first case starts the recurrence from the order (every x below it),
    # the second from max(x) = 700 above it; J_n's start is even in the first
    # and raised from odd to even in the second, and both hold points whose
    # running values are rescaled on the way down
    for case in FROZEN[name]:
        got = getattr(special, name)(case["order"], np.array(case["x"]))
        assert got.tolist() == case["values"]


@pytest.mark.parametrize("x", [0.3, 2.0, 6.28, 22.4, 83.9, 104.9])
def test_high_order_cylindrical(x):
    nmax = 60
    jn = bessel_jn_all(nmax, np.array([x]))[:, 0]
    yn = bessel_yn_all(nmax, np.array([x]))[:, 0]
    for n in range(nmax + 1):
        jt = mp_j(n, x)
        yt = mp_y(n, x)
        assert abs(jn[n] - jt) <= 1e-10 * max(abs(jt), 1e-250)
        assert abs(yn[n] - yt) <= 1e-10 * max(abs(yt), 1e-250)


# (nmax, x) as the Graf sensor matrix reads them: J_n at k rho and H_n at
# k r, orders up to about 100 and n > x included; at small x the order stops
# where Y_n still fits a double
GRAF_ORDERS = [(30, 1e-3), (60, 0.05), (100, 0.7), (100, 3.0), (100, 9.5), (100, 12.0),
               (100, 17.5), (100, 35.3), (100, 60.0), (100, 84.0), (100, 100.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nmax,x", GRAF_ORDERS)
def test_graf_orders_against_mpmath(nmax, x):
    jn = bessel_jn_all(nmax, np.array([x]))[:, 0]
    yn = bessel_yn_all(nmax, np.array([x]))[:, 0]
    hn = hankel1_all(nmax, np.array([x]))[:, 0]
    assert np.array_equal(hn.imag, yn)
    for n in range(nmax + 1):
        jt, yt = mp_j(n, x), mp_y(n, x)
        ht = complex(jt, yt)
        # J_n relative to itself once it decays (n > x), to |H_n| before
        assert abs(jn[n] - jt) <= 1e-13 * (abs(jt) if n > x else abs(ht))
        # the order-0 and order-1 seeds hold about 1e-11 at their
        # series/asymptotic crossover x = 12, and the recurrence keeps it
        assert abs(yn[n] - yt) <= 1e-11 * abs(ht)
        assert abs(hn[n] - ht) <= 1e-11 * abs(ht)


@pytest.mark.filterwarnings("error")
def test_hankel_table_far_beyond_its_orders():
    # O(nmax) work at any x; relative error about x * eps, the conditioning
    x = np.array([1e4, 1e6])
    hn = hankel1_all(85, x)
    for n in (0, 1, 40, 85):
        for i, xi in enumerate(x):
            assert abs(hn[n, i] - mp_hankel1(n, xi)) <= xi * np.finfo(float).eps * abs(hn[n, i])


@pytest.mark.parametrize("x", [0.3, 2.0, 6.28, 19.0, 84.0])
def test_high_order_spherical(x):
    lmax = 55
    jl = spherical_jn_all(lmax, np.array([x]))[:, 0]
    yl = spherical_yn_all(lmax, np.array([x]))[:, 0]
    for l in range(lmax + 1):
        jt = mp_sph_j(l, x)
        yt = mp_sph_y(l, x)
        assert abs(jl[l] - jt) <= 1e-10 * max(abs(jt), 1e-250)
        assert abs(yl[l] - yt) <= 1e-10 * max(abs(yt), 1e-250)


def test_spherical_closed_form_seeds():
    x = np.array([0.7, 3.3, 11.0])
    jl = spherical_jn_all(2, x)
    yl = spherical_yn_all(2, x)
    assert np.allclose(jl[0], np.sin(x) / x, rtol=1e-12)
    assert np.allclose(jl[1], np.sin(x) / x ** 2 - np.cos(x) / x, rtol=1e-10)
    assert np.allclose(yl[0], -np.cos(x) / x, rtol=1e-12)


def test_legendre_small_orders():
    x = np.linspace(-1.0, 1.0, 11)
    p = legendre_all(3, x)
    assert np.allclose(p[0], 1.0)
    assert np.allclose(p[1], x)
    assert legendre_all(2, 0.5)[2] == pytest.approx(-0.125, abs=1e-15)
    assert np.allclose(p[2], 0.5 * (3 * x ** 2 - 1), atol=1e-14)
    assert np.allclose(p[3], 0.5 * (5 * x ** 3 - 3 * x), atol=1e-14)
