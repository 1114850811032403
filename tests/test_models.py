"""Grid validation and bulk-model identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from todalab.algebra import build_root_system
from todalab.errors import ValidationError
from todalab.simulate import (
    AffineToda,
    Grid1D,
    KleinGordon,
    SineGordon,
    SinhGordon,
    make_model,
)


def test_grid_derived_quantities():
    g = Grid1D(-10.0, 10.0, 100, courant=0.5)
    assert g.h == pytest.approx(0.2)
    assert g.dt == pytest.approx(0.1)
    assert len(g.nodes()) == 101
    assert len(g.nodes(periodic=True)) == 100
    assert g.nodes()[0] == -10.0 and g.nodes()[-1] == 10.0


def test_grid_validation():
    with pytest.raises(ValidationError, match="16"):
        Grid1D(0.0, 1.0, 8)
    with pytest.raises(ValidationError, match="Courant"):
        Grid1D(0.0, 1.0, 32, courant=1.1)
    with pytest.raises(ValidationError, match="x_max"):
        Grid1D(1.0, 0.0, 32)


def test_sine_gordon_linearizes_to_klein_gordon():
    m = 1.3
    sg = SineGordon(m=m, beta=0.7)
    kg = KleinGordon(m=m)
    phi = np.full((1, 8), 1e-6)
    assert np.allclose(sg.gradient(phi), kg.gradient(phi), rtol=1e-10)
    # curvature of the potential at the origin is m^2 in both
    eps = 1e-6
    p = np.array([[eps]])
    assert sg.potential(p)[0] / (0.5 * eps**2) == pytest.approx(m**2, rel=1e-3)


def test_sinh_gordon_equals_rank_one_toda():
    """AffineToda(A1, m, b) == SinhGordon(2m, b sqrt(2)) at the level of the
    potential gradient, hence of the evolution."""
    rs = build_root_system("A", 1)
    m_t, beta_t = 0.8, 0.6
    toda = AffineToda(rs=rs, m=m_t, beta=beta_t)
    sinh = SinhGordon(m=2.0 * m_t, beta=beta_t * np.sqrt(2.0))
    rng = np.random.default_rng(0)
    phi = rng.uniform(-1.0, 1.0, size=(1, 16))
    assert np.allclose(toda.gradient(phi), sinh.gradient(phi), rtol=1e-12)
    assert np.allclose(toda.potential(phi), sinh.potential(phi), rtol=1e-12)


def test_toda_vacuum_is_stationary_point():
    rs = build_root_system("A", 2)
    toda = AffineToda(rs=rs, m=1.0, beta=0.5)
    zero = np.zeros((2, 4))
    assert np.allclose(toda.gradient(zero), 0.0, atol=1e-14)
    assert np.allclose(toda.potential(zero), 0.0, atol=1e-14)
    assert toda.n_components == 2


def test_make_model_dispatch():
    assert isinstance(make_model("klein_gordon", m=2.0), KleinGordon)
    assert isinstance(make_model("sine_gordon"), SineGordon)
    assert isinstance(make_model("sinh-gordon"), SinhGordon)
    toda = make_model("affine_toda", family="A", rank=2)
    assert isinstance(toda, AffineToda) and toda.rs.rank == 2
    with pytest.raises(ValidationError, match="unknown model"):
        make_model("phi4")


@pytest.mark.parametrize("kind", ["sine_gordon", "sinh_gordon", "affine_toda"])
@pytest.mark.parametrize("beta", [0.0, -0.0, float("nan"), float("inf")])
def test_coupling_zero_or_not_finite_is_refused(kind, beta):
    """The potentials divide by beta: beta = 0 ended in a ZeroDivisionError."""
    with pytest.raises(ValidationError, match="coupling beta = .* must be finite and nonzero"):
        make_model(kind, beta=beta)


@pytest.mark.parametrize("kind", ["klein_gordon", "sine_gordon", "sinh_gordon", "affine_toda"])
@pytest.mark.parametrize("m", [float("nan"), float("-inf")])
def test_mass_not_finite_is_refused(kind, m):
    """A nan mass used to step and fail at the first observation."""
    with pytest.raises(ValidationError, match="mass m = .* is not finite"):
        make_model(kind, m=m)


@pytest.mark.parametrize(
    "kind, m, beta, coefficient",
    [
        ("klein_gordon", 1e200, 1.0, "m^2"),
        ("sine_gordon", 1e200, 1.0, "m^2"),
        ("sinh_gordon", 1.0, 1e-200, "m^2/beta^2"),
        ("sine_gordon", 1e154, 0.5, "m^2/beta"),
        ("affine_toda", 1.0, 1e-160, "m^2/beta^2"),
        # m^2/beta^2 is finite, twice it is not
        ("sine_gordon", 1e154, 1.0, "2 m^2/beta^2"),
        ("sinh_gordon", 1.0, 7.5e-155, "2 m^2/beta^2"),
        ("affine_toda", 1e154, 1.0, "2 m^2/beta^2"),
    ],
)
def test_potential_coefficient_not_finite_is_refused(kind, m, beta, coefficient):
    """m = 1e200 ended in an OverflowError from m**2, and beta = 1e-200 in a
    ZeroDivisionError from m**2 / beta**2, as beta**2 underflows to 0."""
    with pytest.raises(ValidationError, match=re.escape(f"potential coefficient {coefficient} is not finite")):
        make_model(kind, m=m, beta=beta)


# the gradients as written before they took an out buffer
_REFERENCE_GRADIENT = {
    KleinGordon: lambda model, phi: model.m**2 * phi,
    SineGordon: lambda model, phi: (model.m**2 / model.beta) * np.sin(model.beta * phi),
    SinhGordon: lambda model, phi: (model.m**2 / model.beta) * np.sinh(model.beta * phi),
    AffineToda: lambda model, phi: (model.m**2 / model.beta)
    * np.einsum(
        "i,ia,i...->a...",
        model._marks,
        model._alpha,
        np.exp(model.beta * np.einsum("ia,a...->i...", model._alpha, phi)),
    ),
}
_coupling = st.floats(min_value=0.2, max_value=3.0)


@st.composite
def _model_and_field(draw):
    kind = draw(st.sampled_from(["klein_gordon", "sine_gordon", "sinh_gordon", "affine_toda"]))
    rank = draw(st.integers(1, 3)) if kind == "affine_toda" else 1
    model = make_model(kind, m=draw(_coupling), beta=draw(_coupling), rank=rank)
    n_nodes = draw(st.integers(1, 40))
    phi = draw(arrays(np.float64, (rank, n_nodes), elements=st.floats(-4.0, 4.0)))
    return model, phi


@given(_model_and_field())
@settings(max_examples=200, deadline=None)
def test_gradient_into_a_buffer_has_the_bits_of_a_fresh_gradient(case):
    """gradient(phi, out=buf) returns buf, holding the bits of gradient(phi)
    and of the expression each model had before it took ``out``."""
    model, phi = case
    want = model.gradient(phi)
    buf = np.full_like(phi, np.nan)
    got = model.gradient(phi, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert want.tobytes() == _REFERENCE_GRADIENT[type(model)](model, phi).tobytes()


# a row of every kind of double the arithmetic makes
_SPECIAL_ROW = np.array(
    [[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308, 1e300, -1e300, 0.75]]
)


def _odd_reference(model, phi):
    """(m^2/beta) f(beta phi) with both multiplies done, f = sin or sinh."""
    odd = np.sin if isinstance(model, SineGordon) else np.sinh
    return np.multiply(model.m**2 / model.beta, odd(np.multiply(model.beta, phi)))


@pytest.mark.parametrize("cls", [SineGordon, SinhGordon])
@pytest.mark.parametrize("m, beta", [(1.0, 1.0), (1.5, 1.0), (2.0, 4.0), (0.5, 0.25), (1.5, 0.5)])
def test_a_unit_factor_is_left_out_bit_for_bit(cls, m, beta):
    """A gradient leaves out its multiply by beta when beta == 1.0 and by
    m^2/beta when that is 1.0; on signed zeros, infinities, a quiet NaN,
    subnormals and 1e300 its bits stay those of both multiplies."""
    model = cls(m=m, beta=beta)
    with np.errstate(all="ignore"):
        want = _odd_reference(model, _SPECIAL_ROW)
        fresh = model.gradient(_SPECIAL_ROW)
        buf = np.full_like(_SPECIAL_ROW, 7.0)
        got = model.gradient(_SPECIAL_ROW, buf)
    assert got is buf
    assert fresh.tobytes() == got.tobytes() == want.tobytes()


@st.composite
def _unit_factor_cases(draw):
    """A model whose beta, or m^2/beta, is often exactly 1.0, and a row."""
    cls = draw(st.sampled_from([SineGordon, SinhGordon]))
    m = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    beta = draw(st.one_of(st.just(1.0), st.just(m**2), st.floats(1e-3, 1e3)))
    row = draw(arrays(np.float64, (1, draw(st.integers(1, 24))), elements=st.floats(width=64)))
    return cls(m=m, beta=beta), row


@given(_unit_factor_cases())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_gradients_with_unit_factors_keep_the_bits_of_both_multiplies(case):
    model, phi = case
    with np.errstate(all="ignore"):
        want = _odd_reference(model, phi)
        fresh = model.gradient(phi)
        got = model.gradient(phi, np.empty_like(phi))
    assert fresh.tobytes() == got.tobytes() == want.tobytes()


# the potentials as written before they took an out buffer
_REFERENCE_POTENTIAL = {
    KleinGordon: lambda model, phi: (0.5 * model.m**2) * (phi**2)[0],
    SineGordon: lambda model, phi: (model.m**2 / model.beta**2) * (1.0 - np.cos(model.beta * phi))[0],
    SinhGordon: lambda model, phi: (model.m**2 / model.beta**2) * (np.cosh(model.beta * phi) - 1.0)[0],
    AffineToda: lambda model, phi: (model.m**2 / model.beta**2)
    * np.einsum(
        "i,i...->...",
        model._marks,
        np.exp(model.beta * np.einsum("ia,a...->i...", model._alpha, phi)) - 1.0,
    ),
}


@given(_model_and_field())
@settings(max_examples=200, deadline=None)
def test_potential_into_a_buffer_has_the_bits_of_a_fresh_potential(case):
    """potential(phi, out=buf) returns buf, holding the bits of potential(phi)
    and of the expression each model had before it took ``out``; twice the
    coefficient on potential_terms(phi, out=buf) (AffineToda's root
    exponentials in ``work``) holds exactly 2V wherever V is not subnormal."""
    model, phi = case
    want = model.potential(phi)
    assert want.tobytes() == _REFERENCE_POTENTIAL[type(model)](model, phi).tobytes()
    buf = np.full(phi.shape[1:], np.nan)
    got = model.potential(phi, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    extra = {}
    if isinstance(model, AffineToda):
        extra["work"] = np.full((len(model._alpha),) + phi.shape[1:], np.nan)
    terms = model.potential_terms(phi, out=np.full_like(buf, np.nan), **extra)
    doubled = np.multiply(terms, np.array(2.0 * model.potential_coefficient))
    normal = (want == 0.0) | (np.abs(want) >= np.finfo(float).tiny)
    assert (2.0 * want)[normal].tobytes() == doubled[normal].tobytes()


@pytest.mark.parametrize("model", [KleinGordon(), SineGordon(), SinhGordon()])
def test_a_one_component_model_refuses_a_field_of_two_rows(model):
    with pytest.raises(ValidationError, match="a one-component model takes a field of one row, not 2"):
        model.potential(np.zeros((2, 5)))
