"""The 2x2 closed forms against the LAPACK expressions they replace.

In 2D, the Newton step of `transforms._newton_invert` is Cramer's rule,
`transforms._graph_hessians` is N adj(M) / det M, and the SLE and IHH rows'
gradients dF/dM are elementwise inverses; in 3D all four are the LAPACK code
they replaced. Each 2D closed form is within C eps times a condition number
and a size of its reference (C is stated below), every 3D row is the
reference's bytes, and row k of a batch is the bytes of row k alone.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from asymlab.core import EquationSpec, sym_upper
from asymlab.equations import OPERATORS, _inv, sigma2_margin
from asymlab.errors import InverseMapDiverged
from asymlab.transforms import _graph_hessians, _newton_step

EPS = np.finfo(float).eps
# the disagreement bound, in units of eps times the condition number and size
# stated in each test; 20000 random rows of the same kinds measured at most 3.1
C = 8.0

SLE = EquationSpec("SLE", 2, theta=1.0)
IHH = EquationSpec("IHH", 2)


def ref_newton_step(J, g):
    return np.linalg.solve(J, g[..., None])[..., 0]


def ref_graph_hessians(H, a, b, c, d):
    eye = np.eye(H.shape[-1])
    return sym_upper(np.linalg.solve(a * eye + b * H, c * eye + d * H))


def ref_sle_gradient(H):
    return _inv(np.eye(H.shape[-1]) + H @ H)


def ref_ihh_gradient(H):
    return -np.linalg.matrix_power(_inv(H), 2)


def sle_gradient(H):
    return OPERATORS["SLE"].gradient(SLE, H)


def ihh_gradient(H):
    return OPERATORS["IHH"].gradient(IHH, H)


def _maps(theta):
    """The five graph maps (a, b, c, d) in use, rotations by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return {"rotate": (c, s, -s, c), "unrotate": (c, -s, s, c),
            "legendre": (0.0, 1.0, 1.0, 0.0),
            "legendre_lewy": (sigma2_margin(3), 1.0, -1.0, 0.0),
            "ihh": (0.5, 1.0, 1.0, 0.0)}


def _rot(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


angle = st.floats(0.0, 2 * math.pi)
signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def matrix(draw, symmetric, scales=(1e-150, 1.0, 1e150), extreme_cond=6):
    """A 2x2 matrix of size `scale`, condition number up to 1e12 at scale 1
    and 10**extreme_cond at the other scales, or a diagonal one with signed
    zero off-diagonals."""
    scale = draw(st.sampled_from(scales))
    if draw(st.integers(0, 4)) == 0:
        d1, d2 = (scale * draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
                  for _ in range(2))
        z = draw(signed_zero)
        return np.array([[d1, z], [z if symmetric else draw(signed_zero), d2]])
    cond = 10.0 ** draw(st.floats(0.0, 12.0 if scale == 1.0 else extreme_cond))
    sign = draw(st.sampled_from([1.0, -1.0]))
    t = draw(angle)
    u = t if symmetric else draw(angle)
    A = scale * _rot(t) @ np.diag([1.0, sign / cond]) @ _rot(u).T
    return sym_upper(A) if symmetric else A


def _lapack_singular(fn, *args):
    try:
        fn(*args)
    except np.linalg.LinAlgError:
        return True
    return False


# ---------------------------------------------------------------------------
# the Newton step: Cramer's rule
# ---------------------------------------------------------------------------

# entries are signed zeros or at least 1e-3 in size, so that none of a
# vector near 1e-150 is subnormal
entry = st.one_of(signed_zero, st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-3))
vector = st.builds(lambda s, x, y: s * np.array([x, y]),
                   st.sampled_from([1e-150, 1.0, 1e150]), entry, entry)


@given(rows=st.lists(st.tuples(matrix(symmetric=False), vector), min_size=1, max_size=6))
@example(rows=[(np.array([[1e-150, -0.0], [0.0, -2e-150]]), np.array([-0.0, 1e-150]))])
@example(rows=[(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]]), np.array([1.0, -1.0]))])
@settings(max_examples=300, deadline=None)
def test_newton_step_within_cramer_bound(rows):
    """|x - x_lapack| <= C eps cond(J) |x_lapack| (max norms, which cannot
    underflow) on every row LAPACK can factor; one solve for the batch."""
    rows = [(J, g) for J, g in rows if not _lapack_singular(np.linalg.solve, J, g)]
    if not rows:
        return
    J, g = np.stack([r[0] for r in rows]), np.array([r[1] for r in rows])
    got = _newton_step(J, g, "test")
    for k in range(len(rows)):
        want = ref_newton_step(J[k], g[k])
        bound = C * EPS * np.linalg.cond(J[k]) * np.abs(want).max()
        assert np.abs(got[k] - want).max() <= bound, (J[k], g[k], got[k], want)


def _singular(p, q, k, scale):
    """Rows (p, q) and 2**k (p, q): exactly a zero det in floating point,
    since no entry is subnormal."""
    return scale * np.array([[p, q], [2.0 ** k * p, 2.0 ** k * q]])


@given(p=entry, q=entry, k=st.integers(-20, 20),
       scale=st.sampled_from([1e-150, 1.0, 1e150]), transpose=st.booleans(),
       at=st.integers(0, 2))
@example(p=0.0, q=0.0, k=0, scale=1.0, transpose=False, at=0)
@settings(max_examples=100, deadline=None)
def test_zero_det_is_inverse_map_diverged(p, q, k, scale, transpose, at):
    J = np.array([np.eye(2), 3.0 * np.eye(2)])
    bad = _singular(p, q, k, scale)
    J = np.insert(J, at, bad.T if transpose else bad, axis=0)
    with pytest.raises(InverseMapDiverged, match="test: singular Jacobian"):
        _newton_step(J, np.ones((3, 2)), "test")


# ---------------------------------------------------------------------------
# the graph-map Hessians: N adj(M) / det M
# ---------------------------------------------------------------------------

@given(rows=st.lists(matrix(symmetric=True), min_size=1, max_size=6),
       name=st.sampled_from(sorted(_maps(0.0))), theta=st.floats(0.01, math.pi / 2 - 0.01))
@example(rows=[np.array([[2.0, -0.0], [-0.0, 0.5]]), np.array([[1e150, 0.0], [0.0, -1e150]])],
         name="unrotate", theta=math.pi / 4)
@example(rows=[np.array([[0.5, 0.0], [0.0, 0.5]])], name="rotate", theta=math.atan(0.5))
@settings(max_examples=300, deadline=None)
def test_graph_hessians_within_bound(rows, name, theta):
    """|S - S_lapack| <= C eps cond(M) |M^-1| (|c| + |d| |H|) with M = aI + bH
    on every row LAPACK can factor; S is exactly symmetric and its zeros are
    +0.0."""
    a, b, c, d = _maps(theta)[name]
    rows = [H for H in rows if not _lapack_singular(ref_graph_hessians, H, a, b, c, d)]
    if not rows:
        return
    H = np.stack(rows)
    got = _graph_hessians(H, a, b, c, d)
    assert got[:, 0, 1].tobytes() == got[:, 1, 0].tobytes()
    assert not np.signbit(got[got == 0.0]).any()
    for k, Hk in enumerate(rows):
        want = ref_graph_hessians(Hk, a, b, c, d)
        M = a * np.eye(2) + b * Hk
        size = np.linalg.norm(np.linalg.inv(M), 2) * (abs(c) + abs(d) * np.linalg.norm(Hk, 2))
        bound = C * EPS * np.linalg.cond(M) * size
        assert np.abs(got[k] - want).max() <= bound, (name, Hk, got[k], want)


@pytest.mark.parametrize("name", ["legendre", "legendre_lewy", "ihh"])
def test_singular_graph_map_raises_like_lapack(name):
    """M = aI + bH exactly singular: M = diag(0, 2) for each map."""
    a, b, c, d = _maps(math.pi / 4)[name]
    H = np.array([np.eye(2), np.diag([-a / b, 2.0 - a / b])])
    with pytest.raises(np.linalg.LinAlgError):
        ref_graph_hessians(H, a, b, c, d)
    with pytest.raises(np.linalg.LinAlgError):
        _graph_hessians(H, a, b, c, d)


# ---------------------------------------------------------------------------
# the SLE and IHH gradients
# ---------------------------------------------------------------------------

# det(I + H^2) overflows past entries near 1e77, on both sides of the change
@given(rows=st.lists(matrix(symmetric=True, scales=(1e-150, 1.0, 1e30, 1e75)),
                     min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_sle_gradient_within_bound(rows):
    """|G - G_old| <= C eps cond(I + H^2) |G_old|."""
    H = np.stack(rows)
    got = sle_gradient(H)
    for k, Hk in enumerate(rows):
        want = ref_sle_gradient(Hk)
        bound = C * EPS * np.linalg.cond(np.eye(2) + Hk @ Hk) * np.linalg.norm(want, 2)
        assert np.abs(got[k] - want).max() <= bound, (Hk, got[k], want)


# H^-2 stays in range for entries near 1e+-150 while cond(H) <= 10 there
@given(rows=st.lists(matrix(symmetric=True, extreme_cond=1), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_ihh_gradient_within_bound(rows):
    """|G - G_old| <= C eps cond(H)^2 |G_old|: -H^-2 is -(H^2)^-1."""
    H = np.stack(rows)
    got = ihh_gradient(H)
    for k, Hk in enumerate(rows):
        want = ref_ihh_gradient(Hk)
        bound = C * EPS * np.linalg.cond(Hk) ** 2 * np.linalg.norm(want, 2)
        assert np.abs(got[k] - want).max() <= bound, (Hk, got[k], want)


# ---------------------------------------------------------------------------
# 3D rows are the LAPACK code; every row is independent of its batch
# ---------------------------------------------------------------------------

def _batch(dim, seed, n=7):
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(n, dim, dim)) + 3.0 * np.eye(dim)
    H = sym_upper(J + np.swapaxes(J, 1, 2))
    H[0] = np.diag(np.arange(1.0, dim + 1.0))  # zeros off the diagonal
    return J, rng.normal(size=(n, dim)), H


def _kernels(dim):
    """name -> (kernel, LAPACK reference), each a function of (J, g, H)."""
    table = {
        "newton_step": (lambda J, g, H: _newton_step(J, g, "test"),
                        lambda J, g, H: ref_newton_step(J, g)),
        "sle_gradient": (lambda J, g, H: sle_gradient(H), lambda J, g, H: ref_sle_gradient(H)),
        "ihh_gradient": (lambda J, g, H: ihh_gradient(H), lambda J, g, H: ref_ihh_gradient(H)),
    }
    for name, m in _maps(0.7).items():
        if dim == 3 or name != "legendre_lewy":
            table[f"graph_hessians_{name}"] = (
                lambda J, g, H, m=m: _graph_hessians(H, *m),
                lambda J, g, H, m=m: ref_graph_hessians(H, *m))
    return table


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(_kernels(3)))
def test_3d_rows_are_the_lapack_code(name, seed):
    kernel, ref = _kernels(3)[name]
    args = _batch(3, seed)
    assert kernel(*args).tobytes() == ref(*args).tobytes()


def test_3d_singular_jacobian_is_inverse_map_diverged():
    J = np.array([np.eye(3), np.zeros((3, 3))])
    with pytest.raises(InverseMapDiverged, match="test: singular Jacobian"):
        _newton_step(J, np.ones((2, 3)), "test")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_rows_are_independent_of_the_batch(dim, seed):
    for name, (kernel, _) in _kernels(dim).items():
        J, g, H = _batch(dim, seed)
        batch = kernel(J, g, H)
        for k in range(len(J)):
            one = kernel(J[k:k + 1], g[k:k + 1], H[k:k + 1])
            assert one.tobytes() == batch[k:k + 1].tobytes(), (name, k)
