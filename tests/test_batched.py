"""The batched potential contract against a per-point reference.

The reference below is the scalar implementation the batched one replaced:
one point at a time, a scalar damped Newton inversion, and the closed-form
values, gradients and Hessians written with Python floats. Batched results
must agree with it to 1e-10 relative to the size of the reference value,
and row k of a batch must equal the one-row batch X[k:k+1] bit for bit.
"""
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymlab import (
    EquationSpec,
    LaurentCoeffs,
    SymMat,
    harmonic_potential,
    legendre,
    legendre_lewy,
    oracle_sle,
    rotate_potential,
    unrotate_potential,
)
from asymlab.core import sym_upper
from asymlab.equations import sigma2_margin
from asymlab.errors import (BadParams, InverseMapDiverged, SingularRotation,
                            StripViolation, WrongDimension)
from asymlab.oracle2d import builtin
from asymlab.transforms import _rotate_hessians, _unrotate_hessians

from test_transforms import perturbed_quadratic

REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# per-point reference
# ---------------------------------------------------------------------------

class Ref(NamedTuple):
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def ref_newton(target, guess, fun, jac):
    p = np.array(guess, dtype=float)
    g = fun(p) - target
    for _ in range(100):
        nrm = np.linalg.norm(g)
        if nrm <= 1e-12 * (1.0 + np.linalg.norm(target)):
            return p
        step = np.linalg.solve(jac(p), g)
        t = 1.0
        while t > 2.0 ** -30:
            p_new = p - t * step
            g_new = fun(p_new) - target
            if np.linalg.norm(g_new) < nrm:
                p, g = p_new, g_new
                break
            t *= 0.5
        else:
            raise InverseMapDiverged("reference line search stalled")
    raise InverseMapDiverged("reference inversion did not converge")


def ref_sym(M):
    return np.triu(M) + np.triu(M, 1).T


def ref_eigen_map(M, f):
    w, V = np.linalg.eigh(M)
    return ref_sym(V @ np.diag(f(w)) @ V.T)


def ref_rotate(P: Ref, vt) -> Ref:
    c, s = math.cos(vt), math.sin(vt)

    def invert(xt):
        return ref_newton(xt, xt,
                          lambda p: c * p + s * P.grad(p),
                          lambda p: c * np.eye(len(p)) + s * P.hess(p))

    def value(xt):
        x = invert(xt)
        g = P.grad(x)
        return 0.5 * c * s * (g @ g - x @ x) - s * s * (g @ x) + P.value(x)

    return Ref(value,
               lambda xt: -s * invert(xt) + c * P.grad(invert(xt)),
               lambda xt: ref_eigen_map(P.hess(invert(xt)),
                                        lambda w: np.tan(np.arctan(w) - vt)))


def ref_unrotate(Pt: Ref, vt, hint=None) -> Ref:
    c, s = math.cos(vt), math.sin(vt)
    pred = None if hint is None else np.linalg.inv(c * np.eye(2) - s * hint)

    def invert(x):
        return ref_newton(x, x if pred is None else pred @ x,
                          lambda p: c * p - s * Pt.grad(p),
                          lambda p: c * np.eye(len(p)) - s * Pt.hess(p))

    def value(x):
        xt = invert(x)
        g = Pt.grad(xt)
        return -0.5 * c * s * (g @ g - xt @ xt) - s * s * (g @ xt) + Pt.value(xt)

    return Ref(value,
               lambda x: s * invert(x) + c * Pt.grad(invert(x)),
               lambda x: ref_eigen_map(Pt.hess(invert(x)),
                                       lambda w: (s + c * w) / (c - s * w)))


def ref_legendre(P: Ref, guess_scale=1.0) -> Ref:
    def invert(y):
        return ref_newton(y, guess_scale * y, P.grad, P.hess)

    return Ref(lambda y: invert(y) @ y - P.value(invert(y)),
               invert,
               lambda y: ref_sym(np.linalg.inv(P.hess(invert(y)))))


def ref_legendre_lewy(P: Ref, K) -> Ref:
    def invert(y):
        return ref_newton(y, y / (1.0 + K), lambda p: P.grad(p) + K * p,
                          lambda p: P.hess(p) + K * np.eye(len(p)))

    def value(y):
        x = invert(y)
        return P.value(x) + 0.5 * K * (x @ x) - x @ y

    return Ref(value, lambda y: -invert(y),
               lambda y: ref_sym(-np.linalg.inv(P.hess(invert(y)) + K * np.eye(len(y)))))


def ref_harmonic(co: LaurentCoeffs) -> Ref:
    def h(z):
        return co.a1 * z + co.a0 + co.am1 / z + sum(
            t / z ** k for k, t in enumerate(co.tail, start=2))

    def h_prime(z):
        return co.a1 - co.am1 / z ** 2 - sum(
            k * t / z ** (k + 1) for k, t in enumerate(co.tail, start=2))

    def primitive(z):
        return (0.5 * co.a1 * z ** 2 + co.a0 * z + co.am1 * np.log(z) + sum(
            t / ((1 - k) * z ** (k - 1)) for k, t in enumerate(co.tail, start=2)))

    def grad(x):
        hz = h(complex(x[0], x[1]))
        return np.array([hz.real, -hz.imag])

    def hess(x):
        hp = h_prime(complex(x[0], x[1]))
        return np.array([[hp.real, -hp.imag], [-hp.imag, -hp.real]])

    return Ref(lambda x: primitive(complex(x[0], x[1])).real, grad, hess)


def ref_strip_matrix(a1):
    return np.array([[a1.real, -a1.imag], [-a1.imag, -a1.real]])


def ref_oracle_sle(co, vt) -> Ref:
    return ref_unrotate(ref_harmonic(co), vt, hint=ref_strip_matrix(co.a1))


def ref_ihh(co) -> Ref:
    harm = ref_harmonic(co)
    dual = Ref(lambda y: 0.25 * (y @ y) + harm.value(y),
               lambda y: 0.5 * y + harm.grad(y),
               lambda y: 0.5 * np.eye(2) + harm.hess(y))
    return ref_legendre(dual, guess_scale=2.0)


def ref_sin_exp() -> Ref:
    def hess(x):
        e = math.exp(x[1])
        si, co = math.sin(x[0]), math.cos(x[0])
        return np.array([[-si * e, co * e], [co * e, si * e]])

    return Ref(lambda x: math.sin(x[0]) * math.exp(x[1]),
               lambda x: np.array([math.cos(x[0]), math.sin(x[0])]) * math.exp(x[1]),
               hess)


def ref_warren3d() -> Ref:
    def value(x):
        ep, em = math.exp(x[2]), math.exp(-x[2])
        return (x[0] ** 2 + x[1] ** 2) * ep - ep + em / 4

    def grad(x):
        ep, em = math.exp(x[2]), math.exp(-x[2])
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([2 * x[0] * ep, 2 * x[1] * ep, r2 * ep - ep - em / 4])

    def hess(x):
        ep, em = math.exp(x[2]), math.exp(-x[2])
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([[2 * ep, 0.0, 2 * x[0] * ep],
                         [0.0, 2 * ep, 2 * x[1] * ep],
                         [2 * x[0] * ep, 2 * x[1] * ep, r2 * ep - ep + em / 4]])

    return Ref(value, grad, hess)


def ref_log_radial(dim) -> Ref:
    return Ref(lambda x: math.log(np.linalg.norm(x)),
               lambda x: x / (x @ x),
               lambda x: np.eye(dim) / (x @ x) - 2.0 * np.outer(x, x) / (x @ x) ** 2)


def ref_ma_radial(c) -> Ref:
    def parts(x):
        r = np.linalg.norm(x)
        return r, math.sqrt(r * r + c)

    def value(x):
        r, s = parts(x)
        return 0.5 * (r * s + c * math.log(r + s))

    def hess(x):
        r, s = parts(x)
        proj = np.outer(x / r, x / r)
        return (r / s) * proj + (s / r) * (np.eye(2) - proj)

    return Ref(value, lambda x: (parts(x)[1] / parts(x)[0]) * x, hess)


def ref_quadratic(A, b, c) -> Ref:
    A, b = np.asarray(A, float), np.asarray(b, float)
    return Ref(lambda x: 0.5 * x @ A @ x + b @ x + c, lambda x: A @ x + b, lambda x: A)


def ref_perturbed_quadratic(eps=0.02) -> Ref:
    A = np.diag([1.5, 0.4, -0.25])

    def hess(x):
        H = A.copy()
        H[0, 0] -= eps * math.cos(x[0]) * math.sin(x[1])
        H[1, 1] -= eps * math.cos(x[0]) * math.sin(x[1])
        H[0, 1] = H[1, 0] = -eps * math.sin(x[0]) * math.cos(x[1])
        return H

    return Ref(lambda x: 0.5 * x @ A @ x + eps * math.cos(x[0]) * math.sin(x[1]),
               lambda x: A @ x + eps * np.array([-math.sin(x[0]) * math.sin(x[1]),
                                                 math.cos(x[0]) * math.cos(x[1]), 0.0]),
               hess)


# ---------------------------------------------------------------------------
# cases: (batched potential, reference, point sampler)
# ---------------------------------------------------------------------------

SLE_CO = LaurentCoeffs(a1=0.2 + 0.1j, a0=0.3, am1=0.5, tail=(0.25, -0.1j))
IHH_CO = LaurentCoeffs(am1=0.4, tail=(0.2,))
QUAD_A = [[1.2, 0.4], [0.4, 0.7]]
QUAD_B = [0.3, -0.2]
HARM_CO = LaurentCoeffs(a1=0.2, am1=0.2, tail=(0.1,))
K3 = sigma2_margin(3)


def shell(lo, hi, dim=2):
    def sample(rng, n):
        v = rng.normal(size=(n, dim))
        r = lo * (hi / lo) ** rng.random(n)
        return r[:, None] * v / np.linalg.norm(v, axis=1, keepdims=True)
    return sample


def box(lo, hi, dim):
    return lambda rng, n: rng.uniform(lo, hi, size=(n, dim))


CASES = {
    "oracle_sle": (lambda: oracle_sle(SLE_CO, math.pi / 4),
                   lambda: ref_oracle_sle(SLE_CO, math.pi / 4), shell(2.5, 400.0)),
    "oracle_sle_pi8": (lambda: oracle_sle(LaurentCoeffs(a1=-0.8, am1=-0.4, tail=(0.2, -0.1)),
                                          math.pi / 8),
                       lambda: ref_oracle_sle(LaurentCoeffs(a1=-0.8, am1=-0.4,
                                                            tail=(0.2, -0.1)), math.pi / 8),
                       shell(2.5, 400.0)),
    "ihh-oracle": (lambda: builtin("ihh-oracle", {"am1": 0.4, "tail": [0.2]}),
                   lambda: ref_ihh(IHH_CO), shell(2.5, 400.0)),
    "sin-exp": (lambda: builtin("sin-exp"), ref_sin_exp, box(-2.5, 2.5, 2)),
    "warren3d": (lambda: builtin("warren3d"), ref_warren3d, box(-2.0, 2.0, 3)),
    "log-radial-2": (lambda: builtin("log-radial", {"dim": 2}),
                     lambda: ref_log_radial(2), shell(0.5, 50.0)),
    "log-radial-3": (lambda: builtin("log-radial", {"dim": 3}),
                     lambda: ref_log_radial(3), shell(0.5, 50.0, 3)),
    "ma-radial": (lambda: builtin("ma-radial", {"c": 1.0}),
                  lambda: ref_ma_radial(1.0), shell(0.5, 50.0)),
    "quadratic": (lambda: builtin("quadratic", {"A": QUAD_A, "b": QUAD_B, "c": 1.5}),
                  lambda: ref_quadratic(QUAD_A, QUAD_B, 1.5), box(-5.0, 5.0, 2)),
    "rotate_potential": (
        lambda: rotate_potential(builtin("quadratic", {"A": QUAD_A, "b": QUAD_B, "c": 1.5}), 0.5),
        lambda: ref_rotate(ref_quadratic(QUAD_A, QUAD_B, 1.5), 0.5), shell(1.0, 30.0)),
    "unrotate_potential": (
        lambda: unrotate_potential(harmonic_potential(HARM_CO), math.pi / 4),
        lambda: ref_unrotate(ref_harmonic(HARM_CO), math.pi / 4), shell(3.0, 30.0)),
    "rotate_unrotate": (
        lambda: rotate_potential(unrotate_potential(harmonic_potential(HARM_CO), math.pi / 4),
                                 math.pi / 4),
        lambda: ref_rotate(ref_unrotate(ref_harmonic(HARM_CO), math.pi / 4), math.pi / 4),
        shell(3.0, 30.0)),
    "legendre": (lambda: legendre(builtin("ma-radial", {"c": 1.0}), check=False),
                 lambda: ref_legendre(ref_ma_radial(1.0)), shell(2.0, 10.0)),
    "legendre_lewy": (
        lambda: legendre_lewy(perturbed_quadratic(), EquationSpec("SIGMA2", 3, delta=K3 / 2)),
        lambda: ref_legendre_lewy(ref_perturbed_quadratic(), K3), box(-3.0, 3.0, 3)),
}

_BUILT = {}


def built(name):
    if name not in _BUILT:
        make_p, make_ref, sample = CASES[name]
        _BUILT[name] = (make_p(), make_ref(), sample)
    return _BUILT[name]


def assert_close(got, want):
    want = np.asarray(want, dtype=float)
    scale = 1.0 + np.abs(want).max()
    assert np.abs(np.asarray(got) - want).max() <= REL_TOL * scale, (got, want)


@pytest.mark.parametrize("name", sorted(CASES))
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_matches_per_point_reference(name, seed):
    P, ref, sample = built(name)
    X = sample(np.random.default_rng(seed), 6)
    values, grads, hessians = P.values(X), P.grads(X), P.hessians(X)
    assert values.shape == (6,) and grads.shape == (6, P.dim)
    assert hessians.shape == (6, P.dim, P.dim)
    for k, x in enumerate(X):
        assert_close(values[k], ref.value(x))
        assert_close(grads[k], ref.grad(x))
        assert_close(hessians[k], ref.hess(x))
        # the scalar wrappers are the one-row batch
        assert P.value(x) == values[k]
        assert np.array_equal(P.grad(x), grads[k])
        assert np.array_equal(P.hess(x).m, hessians[k])


@pytest.mark.parametrize("name", sorted(CASES))
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_rows_independent_of_batch(name, seed):
    P, _, sample = built(name)
    X = sample(np.random.default_rng(seed), 9)
    for fn in (P.values, P.grads, P.hessians):
        full = fn(X)
        for k in range(len(X)):
            assert np.array_equal(fn(X[k:k + 1]), full[k:k + 1])
        assert np.array_equal(fn(X[3:7]), full[3:7])


def test_hessians_exactly_symmetric(rng):
    for name in ("oracle_sle", "ihh-oracle", "legendre_lewy", "rotate_potential"):
        P, _, sample = built(name)
        H = P.hessians(sample(rng, 50))
        assert np.array_equal(H, H.swapaxes(1, 2))


def test_sym_upper_matches_triu_formula(rng):
    for n in (2, 3):
        M = rng.normal(size=(200, n, n))
        M[::7, 0, 1] = -0.0
        M[::5, 1, 1] = -0.0
        want = np.stack([np.triu(m) + np.triu(m, 1).T for m in M])
        got = sym_upper(M)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(np.array_equal(SymMat(m).m.view(np.int64), w.view(np.int64))
                   for m, w in zip(M[:20], want[:20]))


# ---------------------------------------------------------------------------
# failure semantics: one bad row fails the batch with the scalar path's error
# ---------------------------------------------------------------------------

BATCHED = {"value": "values", "grad": "grads", "hess": "hessians"}


def _fails_like_scalar(P, good, bad, method, error, match):
    X = np.array([good[0], bad, good[1]])
    for x in good:
        getattr(P, method)(x)
    with pytest.raises(error, match=match):
        getattr(P, method)(bad)
    with pytest.raises(error, match=match):
        getattr(P, BATCHED[method])(X)


def test_legendre_inversion_diverges_on_one_row():
    # |D ma-radial| >= sqrt(c) = 1, so y = (0.5, 0) has no preimage
    P = legendre(builtin("ma-radial", {"c": 1.0}), check=False)
    for method in ("value", "grad", "hess"):
        _fails_like_scalar(P, [[3.0, 0.0], [0.0, 4.0]], [0.5, 0.0], method,
                           InverseMapDiverged, "legendre point inversion")


def test_rotate_inversion_diverges_on_one_row():
    P = rotate_potential(builtin("log-radial", {"dim": 2}), math.pi / 4, check=False)
    _fails_like_scalar(P, [[3.0, 0.0], [0.0, -5.0]], [0.3, 0.0], "value",
                       InverseMapDiverged, "rotate_potential point inversion")


def test_unrotate_inversion_diverges_on_one_row():
    # (-0.5, 0) lies in the oracle's hole, where its gradient graph folds
    P = oracle_sle(SLE_CO, math.pi / 4)
    _fails_like_scalar(P, [[3.0, 0.0], [-1.0, -1.0]], [-0.5, 0.0], "value",
                       InverseMapDiverged, "unrotate_potential point inversion")


def test_unrotate_strip_violation_on_one_row():
    # the preimage of (0.25, 0.25) has lambda_max > cot(vartheta) = 1
    P = oracle_sle(SLE_CO, math.pi / 4)
    _fails_like_scalar(P, [[3.0, 0.0], [-1.0, -1.0]], [0.25, 0.25], "hess",
                       StripViolation, "cot")


def test_batched_hessian_maps_check_every_row():
    good = np.diag([0.3, -0.2])
    vt = math.pi / 4
    with pytest.raises(StripViolation):
        _unrotate_hessians(np.stack([good, np.diag([0.2, 1.5]), good]), vt)
    with pytest.raises(SingularRotation):
        _rotate_hessians(np.stack([good, np.diag([-1.0, 0.5]), good]), vt)


@pytest.mark.parametrize("build", [
    lambda: oracle_sle(LaurentCoeffs(a1=0.5, am1=1e4), math.pi / 4),
    lambda: builtin("ihh-oracle", {"am1": 1e4}),
])
def test_no_certified_radius(build):
    with pytest.raises(StripViolation, match="no radius"):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    P = oracle_sle(SLE_CO, math.pi / 4)
    X = np.array([[3.0, 0.0], [bad, 1.0]])
    for fn in (P.values, P.grads, P.hessians):
        with pytest.raises(BadParams):
            fn(X)
    for fn in (P.value, P.grad, P.hess):
        with pytest.raises(BadParams):
            fn(X[1])


def test_wrong_point_shape_rejected():
    P = builtin("warren3d")
    with pytest.raises(WrongDimension):
        P.values(np.ones((4, 2)))
    with pytest.raises(WrongDimension):
        P.hessians(np.ones(3))
    with pytest.raises(WrongDimension):
        P.value([1.0, 2.0])
