import random

import pytest
from hypothesis import given, strategies as st

from qcflp.domains import (MalformedValueError, ProductDomain, U,
                           domain_from_name)

UXU = domain_from_name("uxu")
TOL = 1e-9

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pairs = st.tuples(units, units)


def test_leq_examples():
    assert U.leq(0.3, 0.7)
    assert not U.leq(1.0, 0.65)
    # componentwise comparison, cross-checked against brute pair comparison
    a, b = (0.3, 0.9), (0.5, 0.9)
    assert UXU.leq(a, b) == (a[0] <= b[0] and a[1] <= b[1])
    assert UXU.leq(a, b)


def test_glb_lub_examples():
    assert U.glb(0.3, 0.7) == 0.3
    assert U.lub(0.3, 0.7) == 0.7
    # the empty infimum is the top element
    assert U.glb_all([]) == 1.0


def test_attenuate_examples():
    assert abs(U.attenuate(0.9, 0.8) - 0.72) < TOL
    assert U.attenuate(0.7, 1.0) == 0.7
    assert U.attenuate(0.5, 0.0) == 0.0


def test_malformed_values():
    with pytest.raises(MalformedValueError):
        U.check(1.5)
    with pytest.raises(MalformedValueError):
        U.leq((0.1, 0.2), 0.5)
    with pytest.raises(MalformedValueError):
        UXU.attenuate(0.5, (0.5, 0.5))


def test_domain_lookup():
    assert domain_from_name("u") is U
    assert domain_from_name("UXU").name == "uxu"
    with pytest.raises(ValueError):
        domain_from_name("w")


def test_coerce_broadcast():
    assert UXU.coerce(0.9) == (0.9, 0.9)
    assert UXU.coerce((0.9, 0.8)) == (0.9, 0.8)


def test_split_join_roundtrip():
    v = (0.6, 0.9)
    assert UXU.split(v) == [0.6, 0.9]
    assert UXU.join(UXU.split(v)) == v
    assert UXU.leaf_suffixes() == [".1", ".2"]


@pytest.mark.parametrize("left,right", [(U, UXU), (UXU, U), (UXU, UXU)])
def test_a_product_is_made_of_leaf_domains(left, right):
    with pytest.raises(ValueError, match="leaf domains"):
        ProductDomain(left, right)


@given(units, units, units)
def test_attenuation_axioms_u(d, e1, e2):
    att, glb = U.attenuate, U.glb
    assert abs(att(d, e1) - att(e1, d)) < TOL
    assert abs(att(att(d, e1), e2) - att(d, att(e1, e2))) < TOL
    assert abs(att(d, glb(e1, e2)) - glb(att(d, e1), att(d, e2))) < TOL
    assert att(d, 1.0) == d
    assert U.leq(att(d, e1), e1, TOL)       # consequence of the axioms
    assert att(d, 0.0) == 0.0


@given(pairs, pairs, pairs)
def test_attenuation_axioms_product(d, e1, e2):
    att, glb = UXU.attenuate, UXU.glb
    assert UXU.eq(att(d, e1), att(e1, d), TOL)
    assert UXU.eq(att(att(d, e1), e2), att(d, att(e1, e2)), TOL)
    assert UXU.eq(att(d, glb(e1, e2)), glb(att(d, e1), att(d, e2)), TOL)
    assert UXU.eq(att(d, UXU.top()), d, TOL)
    assert UXU.leq(att(d, e1), e1, TOL)
    assert att(d, UXU.bottom()) == (0.0, 0.0)


@given(units, units, units, units)
def test_monotonicity_u(d1, d2, e1, e2):
    if U.leq(d1, d2) and U.leq(e1, e2):
        assert U.leq(U.attenuate(d1, e1), U.attenuate(d2, e2), TOL)


def test_strict_attenuation_interior():
    # proper attenuation below the attenuated value, away from the extremes
    rng = random.Random(7)
    for _ in range(1000):
        d = rng.uniform(1e-6, 1.0 - 1e-6)
        e = rng.uniform(1e-6, 1.0 - 1e-6)
        assert U.attenuate(d, e) < e
        dp = (rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6))
        ep = (rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6))
        v = UXU.attenuate(dp, ep)
        assert UXU.leq(v, ep) and v != ep


@given(units, units, units)
def test_lattice_laws(a, b, c):
    for dom, lift in ((U, lambda x: x), (UXU, lambda x: (x, 1.0 - x))):
        x, y, z = lift(a), lift(b), lift(c)
        assert dom.glb(x, x) == x and dom.lub(x, x) == x
        assert dom.glb(x, y) == dom.glb(y, x)
        assert dom.glb(dom.glb(x, y), z) == dom.glb(x, dom.glb(y, z))
        assert dom.leq(dom.glb(x, y), x)
        assert dom.leq(x, dom.lub(x, y))

