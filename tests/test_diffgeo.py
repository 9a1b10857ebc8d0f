"""Frames, fundamental forms and curvature data."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catacaustics import (build_surface, eval_surface, frame_at,
                          fundamental_forms, parse_surface)
from catacaustics.diffgeo import cross, dot, norm
from catacaustics.jets import Jet2, Jet2Vec3
from conftest import normal_curvature, stack_planes


def _forms_at(text, u, v, params=None):
    jet = eval_surface(parse_surface(text, params), u, v)
    frame = frame_at(jet)
    return frame, fundamental_forms(frame)


def principal_curvatures(forms):
    """(k1, k2) = H -+ sqrt(H^2 - K); a discriminant at round-off is a double root."""
    H, K = forms.H, forms.K
    disc = H * H - K
    scale = np.maximum(1.0, np.maximum(H * H, np.abs(K)))
    sq = np.sqrt(np.where(np.abs(disc) <= 2e-13 * scale, 0.0, np.maximum(disc, 0.0)))
    return H - sq, H + sq


SPHERE = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"


class TestSphere:
    def test_chart_normal_is_inward(self):
        u = np.pi / 6
        frame, _ = _forms_at(SPHERE, u, 0.0)
        r = np.array([np.cos(u), 0.0, np.sin(u)])
        assert np.allclose(frame.n, -r, atol=1e-14)
        assert dot(np.array([0.0, 0.0, 1.0]), frame.n) == pytest.approx(-np.sin(u), abs=1e-14)

    def test_unit_curvatures(self):
        _, forms = _forms_at(SPHERE, 0.6, 1.1)
        assert forms.H == pytest.approx(1.0, rel=1e-12)
        assert forms.K == pytest.approx(1.0, rel=1e-12)
        k1, k2 = principal_curvatures(forms)
        assert k1 == pytest.approx(1.0, rel=1e-12)
        assert k2 == pytest.approx(1.0, rel=1e-12)
        assert k2 - k1 < 1e-9 * max(1.0, abs(k1))  # umbilic

    def test_normal_curvature_is_one_in_any_direction(self):
        _, forms = _forms_at(SPHERE, 0.4, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.normal(size=2)
            assert normal_curvature(forms, X) == pytest.approx(1.0, rel=1e-12)


class TestPlane:
    def test_flat_forms_and_forced_normal(self):
        frame, forms = _forms_at("[u, v, 0]", 0.3, -0.7)
        assert np.allclose(frame.n, [0.0, 0.0, 1.0])
        assert forms.H == 0.0 and forms.K == 0.0
        assert np.allclose([forms.B11, forms.B12, forms.B22], 0.0)
        rng = np.random.default_rng(1)
        assert normal_curvature(forms, rng.normal(size=2)) == 0.0


class TestCylinder:
    """Cylinder over the unit circle: g = I, B = diag(k, 0), K = 0, 2H = k."""

    def test_forms_match_frenet_data(self):
        u = 0.5
        frame, forms = _forms_at("[cos(u), sin(u), v]", u, 0.3)
        nu_frenet = -np.array([np.cos(u), np.sin(u), 0.0])  # inward normal, k = +1
        # the chart's normal is s nu with s = +-1, and B and H take its sign
        s = dot(frame.n, nu_frenet)
        assert abs(s) == pytest.approx(1.0, abs=1e-14)
        s = np.sign(s)
        assert np.allclose(frame.n, s * nu_frenet, atol=1e-14)
        assert np.allclose([forms.g11, forms.g12, forms.g22], [1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose([forms.B11, forms.B12, forms.B22], [s, 0.0, 0.0], atol=1e-14)
        assert forms.K == pytest.approx(0.0, abs=1e-14)
        assert 2 * forms.H == pytest.approx(s, rel=1e-12)

    def test_normal_curvature_along_rulings_and_curve(self):
        u = -0.4
        frame, forms = _forms_at("[cos(u), sin(u), v]", u, 0.0)
        # +1 along the circle where n points inward, -1 where it points outward
        inward = np.sign(dot(frame.n, (-np.cos(u), -np.sin(u), 0.0)))
        assert normal_curvature(forms, (1.0, 0.0)) == pytest.approx(inward, rel=1e-12)
        assert normal_curvature(forms, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-14)


class TestClosedFormGrids:
    """Built-ins against textbook curvature formulas on a 50 x 50 grid."""

    def grid(self, dom):
        u = np.linspace(dom[0], dom[1], 50)
        v = np.linspace(dom[2], dom[3], 50)
        return np.meshgrid(u, v, indexing="ij")

    def test_sphere_radius_R(self):
        R = 2.5
        ast, dom = build_surface("sphere", {"R": R})
        U, V = self.grid(dom)
        frame = frame_at(eval_surface(ast, U, V))
        forms = fundamental_forms(frame)
        assert np.allclose(forms.H, 1.0 / R, rtol=1e-9)
        assert np.allclose(forms.K, 1.0 / R**2, rtol=1e-9)

    def test_torus(self):
        ast, dom = build_surface("revolution")  # profile (2 + cos u, sin u)
        U, V = self.grid(dom)
        frame = frame_at(eval_surface(ast, U, V))
        forms = fundamental_forms(frame)
        # inward-tube normal: meridian curvature 1, parallel cos(u)/(2 + cos(u))
        K_ref = np.cos(U) / (2.0 + np.cos(U))
        H_ref = 0.5 * (1.0 + K_ref)
        assert np.allclose(forms.K, K_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(forms.H, H_ref, rtol=1e-9)
        ks = np.sort(np.stack(principal_curvatures(forms)), axis=0)
        ref = np.sort(np.stack([np.ones_like(K_ref), K_ref]), axis=0)
        assert np.allclose(ks, ref, rtol=1e-9, atol=1e-12)

    def test_paraboloids(self):
        for cy, sign in ((0.5, +1.0), (-0.5, -1.0)):
            ast = parse_surface("[u, v, u^2/2 + c*v^2]", {"c": cy})
            U, V = self.grid((-1.0, 1.0, -1.0, 1.0))
            frame = frame_at(eval_surface(ast, U, V))
            forms = fundamental_forms(frame)
            fx, fy = U, 2.0 * cy * V
            fxx, fyy = 1.0, 2.0 * cy
            W2 = 1.0 + fx**2 + fy**2
            # the chart's upward normal gives the usual graph signs
            K_ref = (fxx * fyy) / W2**2
            H_ref = ((1.0 + fy**2) * fxx + (1.0 + fx**2) * fyy) / (2.0 * W2**1.5)
            assert np.allclose(forms.K, sign * np.abs(K_ref), rtol=1e-9)
            assert np.allclose(forms.H, H_ref, rtol=1e-9)


class TestShapeOperatorProperties:
    def test_euler_normal_curvature_bounds(self):
        rng = np.random.default_rng(11)
        ast, dom = build_surface("ellipsoid")
        for _ in range(25):
            u = rng.uniform(dom[0], dom[1])
            v = rng.uniform(dom[2], dom[3])
            frame = frame_at(eval_surface(ast, u, v))
            forms = fundamental_forms(frame)
            k1, k2 = principal_curvatures(forms)
            for _ in range(40):
                X = rng.normal(size=2)
                kn = normal_curvature(forms, X)
                assert k1 - 1e-10 <= kn <= k2 + 1e-10

    def test_rotation_invariance_of_curvatures(self):
        from conftest import random_rotation
        rng = np.random.default_rng(13)
        ast, _ = build_surface("ellipsoid")
        jet = eval_surface(ast, 0.35, 1.2)
        forms = fundamental_forms(frame_at(jet))
        xs = jet.components()
        for _ in range(10):
            R = random_rotation(rng)
            # rotating the jet mixes the component jets linearly, slot by slot
            rotated = Jet2Vec3(*[
                Jet2(*(sum(R[i, k] * np.asarray(xs[k].slots()[m]) for k in range(3))
                       for m in range(6)))
                for i in range(3)
            ])
            forms_rot = fundamental_forms(frame_at(rotated))
            got = (forms_rot.H, forms_rot.K, *principal_curvatures(forms_rot))
            want = (forms.H, forms.K, *principal_curvatures(forms))
            for name, g, w in zip(("H", "K", "k1", "k2"), got, want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12), name


def test_degenerate_parameterization_is_masked():
    ast = parse_surface("[u, u, v]")  # r_u parallel to (1,1,0), fine
    bad = parse_surface("[u*v, u*v, 0]")  # r_u parallel r_v everywhere
    frame = frame_at(eval_surface(bad, 0.5, 0.5))
    assert not frame.regular
    # the flat stand-in frame keeps the point: r_u = e_x, r_v = e_y, n = e_x x e_y
    assert frame.r == (0.25, 0.25, 0.0)
    assert (frame.r_u, frame.r_v, frame.n) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(x == 0.0 for vec in (frame.r_uu, frame.r_uv, frame.r_vv) for x in vec)
    assert frame_at(eval_surface(ast, 0.5, 0.5)).regular


# -- the component-plane primitives against numpy on (..., 3) arrays ---------

_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
_ENTRY = st.one_of(_SPECIAL, st.floats(width=64))


@st.composite
def _vector_planes(draw, rows, cols):
    """Three planes of shapes (rows, 1), (1, cols) or () that broadcast together."""
    planes = []
    for _ in range(3):
        shape = draw(st.sampled_from([(rows, 1), (1, cols), ()]))
        plane = draw(arrays(np.float64, shape, elements=_ENTRY))
        planes.append(float(plane) if shape == () else plane)
    return tuple(planes)


def _bits(x):
    # NaN payloads carry no information; every other value must match bit for bit
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


@st.composite
def _plane_pairs(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_vector_planes(rows, cols)), draw(_vector_planes(rows, cols))


# three -0.0 products: einsum sums from +0.0 and returns +0.0
@example(((0.0, 0.0, 0.0), (-1.0, -1.0, -1.0)))
@example(((-0.0, 0.0, -0.0), (1.0, -1.0, 1.0)))
@given(_plane_pairs())
@settings(max_examples=300, deadline=None)
def test_plane_primitives_are_bitwise_numpy_on_stacked_arrays(pair):
    x, y = pair
    shape = np.broadcast(*x, *y).shape
    xs, ys = stack_planes(x, shape), stack_planes(y, shape)
    with np.errstate(all="ignore"):
        want_dot = np.einsum("...i,...i->...", xs, ys)
        want_norm = np.sqrt(np.einsum("...i,...i->...", xs, xs))
        want_cross = np.cross(xs, ys)
        got_dot, got_norm, got_cross = dot(x, y), norm(x), cross(x, y)
    assert np.array_equal(_bits(np.broadcast_to(got_dot, shape)), _bits(want_dot))
    assert np.array_equal(_bits(np.broadcast_to(got_norm, shape)), _bits(want_norm))
    for i in range(3):
        assert np.array_equal(_bits(np.broadcast_to(got_cross[i], shape)),
                              _bits(want_cross[..., i]))
