"""Brute-force ray-envelope oracle and sheet validation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catacaustics import (FlatFront, GridSpec, PointSource, build_surface,
                          compute_caustic_sheets, eval_surface,
                          focal_distances_bruteforce, parse_surface,
                          reflected_ray, validate_sheets)
from catacaustics import caustics
from catacaustics.caustics import SourceOnSurfaceError
from catacaustics.diffgeo import REGULARITY_RTOL
from catacaustics.oracle import (GrazingIncidenceError, _focal_quadratic,
                                 _roots_of_focal_quadratic)
from catacaustics.surfacelang import EvalDomainError
from catacaustics.surfaces import BUILTINS
from conftest import (BLOCK_SCENES, GRAPH_DOMAIN, HUGE_BLOCK, block_sizes,
                      random_field, random_graph_surface, stack_planes,
                      traced_peak_per_point)

SPHERE_TEXT = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"
AXIAL = FlatFront((0.0, 0.0, 1.0))


class TestReflectedRay:
    def test_sphere_point(self):
        ast = parse_surface(SPHERE_TEXT)
        ray = reflected_ray(ast, AXIAL, np.pi / 6, 0.0)
        assert np.allclose(ray.origin, [np.sqrt(3) / 2, 0, 0.5], atol=1e-15)
        assert np.allclose(ray.direction, [-np.sqrt(3) / 2, 0, 0.5], atol=1e-15)

    def test_plane_normal_incidence_retroreflects(self):
        ast = parse_surface("[u, v, 0]")
        ray = reflected_ray(ast, FlatFront((0, 0, -1)), 0.2, 0.7)
        assert np.allclose(ray.direction, [0, 0, 1])

    def test_central_source_reflects_back(self):
        ast = parse_surface(SPHERE_TEXT)
        ray = reflected_ray(ast, PointSource((0, 0, 0)), 0.8, 1.0)
        assert np.allclose(ray.direction, -ray.origin, atol=1e-14)

    def test_grazing_raises(self):
        ast = parse_surface("[u, v, 0]")
        with pytest.raises(GrazingIncidenceError):
            reflected_ray(ast, FlatFront((1, 0, 0)), 0.0, 0.0)


class TestFocalDistances:
    def test_sphere_matches_inverse_roots(self):
        ast = parse_surface(SPHERE_TEXT)
        lam = sorted(focal_distances_bruteforce(ast, AXIAL, np.pi / 6, 0.0, h=1e-4))
        assert lam[0] == pytest.approx(0.25, abs=1e-5)
        assert lam[1] == pytest.approx(1.0, abs=1e-5)

    def test_plane_mirror_never_focuses(self):
        ast = parse_surface("[u, v, 0]")
        lam = focal_distances_bruteforce(ast, AXIAL, 0.1, 0.2)
        assert np.isinf(lam[0]) and np.isinf(lam[1])

    def test_central_source_focuses_at_origin(self):
        ast = parse_surface(SPHERE_TEXT)
        lam = focal_distances_bruteforce(ast, PointSource((0, 0, 0)), 0.7, 0.3)
        assert lam[0] == pytest.approx(1.0, abs=1e-5)
        assert lam[1] == pytest.approx(1.0, abs=1e-5)

    def test_step_outside_allowed_range(self):
        ast = parse_surface(SPHERE_TEXT)
        with pytest.raises(ValueError):
            focal_distances_bruteforce(ast, AXIAL, 0.5, 0.5, h=0.1)

    def test_vieta_self_consistency(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 30:
            ast = random_graph_surface(rng)
            field = random_field(rng)
            U = rng.uniform(-0.8, 0.8)
            V = rng.uniform(-0.8, 0.8)
            coeffs, _, _, ok = _focal_quadratic(ast, field, U, V, 1e-4, 1e-6)
            c0, c1, c2 = (float(c) for c in coeffs)
            if not bool(ok) or abs(c2) < 1e-12 or c1 * c1 - 4 * c2 * c0 <= 0:
                continue
            lam_a, lam_b = _roots_of_focal_quadratic(c0, c1, c2)
            assert float(lam_a * lam_b) * c2 == pytest.approx(c0, rel=1e-12)
            checked += 1


class TestValidateSheets:
    def _validate(self, name_or_text, field, grid=None, params=None, **kw):
        if name_or_text.startswith("["):
            ast, dom = parse_surface(name_or_text, params), GRAPH_DOMAIN
        else:
            ast, dom = build_surface(name_or_text, params)
        grid = grid or GridSpec(25, 25, dom)
        sheets = compute_caustic_sheets(ast, field, grid)[:2]
        return validate_sheets(sheets, ast, field, grid, **kw)

    def test_sphere_axial(self):
        report = self._validate("sphere", AXIAL, GridSpec(30, 30, (0.2, 1.4, 0.0, 6.2831853)))
        assert report.passed
        assert report.max_error <= 1e-4
        assert report.n_flag_disagreements == 0

    def test_hyperbolic_paraboloid(self):
        report = self._validate("hyperbolic-paraboloid", AXIAL)
        assert report.passed

    def test_random_translation_surface_against_displayed_general_form(self):
        # independent golden: for z = f(u) + h(v) under an axial front the
        # sheets are r - (1/(2 f'')) w and r - (1/(2 h'')) w with
        # w = (2 f', 2 h', -1 + f'^2 + h'^2)
        rng = np.random.default_rng(23)
        c1, c2 = rng.uniform(0.4, 0.9), rng.uniform(-0.9, -0.4)
        params = {"c1": c1, "c2": c2}
        text = "[u, v, c1*u^2 + c2*v^2]"
        ast = parse_surface(text, params)
        grid = GridSpec(21, 21, GRAPH_DOMAIN)
        s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
        U, V = grid.mesh()
        fx, hy = 2 * c1 * U, 2 * c2 * V
        fxx, hyy = 2 * c1, 2 * c2
        w = np.stack([2 * fx, 2 * hy, -1 + fx**2 + hy**2], axis=-1)
        r = np.stack([U, V, c1 * U**2 + c2 * V**2], axis=-1)
        xi_f = r - w / (2 * fxx)
        xi_h = r - w / (2 * hyy)
        # match computed sheets to the displayed pair point-by-point
        d_keep = np.linalg.norm(s1.xi - xi_f, axis=-1) + np.linalg.norm(s2.xi - xi_h, axis=-1)
        d_swap = np.linalg.norm(s1.xi - xi_h, axis=-1) + np.linalg.norm(s2.xi - xi_f, axis=-1)
        assert np.all(np.minimum(d_keep, d_swap) <= 2e-9)
        report = validate_sheets((s1, s2), ast, AXIAL, grid)
        assert report.passed

    def test_ellipsoid_interior_point_source(self):
        report = self._validate("ellipsoid", PointSource((0.05, -0.03, 0.08)))
        assert report.passed

    def test_cylinder_flat_front_flags_agree(self):
        report = self._validate("cylinder", FlatFront((1.0, 0.0, 0.0)),
                                GridSpec(15, 6, (-1.2, 1.2, 0.0, 1.0)))
        assert report.passed
        assert report.n_flag_disagreements == 0

    def test_unreachable_tolerance_fails(self):
        report = self._validate("sphere", AXIAL,
                                GridSpec(10, 10, (0.2, 1.4, 0.0, 6.2831853)), tol=0.0)
        assert not report.passed

    def test_grid_mismatch_is_error(self):
        ast, dom = build_surface("sphere")
        grid = GridSpec(10, 10, dom)
        sheets = compute_caustic_sheets(ast, AXIAL, grid)[:2]
        other = GridSpec(11, 10, dom)
        with pytest.raises(ValueError):
            validate_sheets(sheets, ast, AXIAL, other)

    def test_convergence_is_second_order(self):
        rng = np.random.default_rng(29)
        ast = random_graph_surface(rng)
        field = FlatFront((0.1, -0.05, 1.0))
        grid = GridSpec(15, 15, GRAPH_DOMAIN)
        sheets = compute_caustic_sheets(ast, field, grid)[:2]
        errs = [validate_sheets(sheets, ast, field, grid, h=h).max_error
                for h in (8e-4, 4e-4, 2e-4)]
        floor = 1e-9
        for big, small in zip(errs, errs[1:]):
            assert small <= big / 3.0 + floor, errs

    def test_report_text_is_stable(self):
        report = self._validate("sphere", AXIAL, GridSpec(8, 8, (0.2, 1.4, 0.0, 6.2831853)))
        text = report.to_text()
        assert "PASS" in text
        assert text == self._validate("sphere", AXIAL,
                                      GridSpec(8, 8, (0.2, 1.4, 0.0, 6.2831853))).to_text()


@pytest.mark.parametrize("name, field, shape", BLOCK_SCENES)
def test_block_size_does_not_change_the_report(name, field, shape):
    ast, dom = build_surface(name)
    grid = GridSpec(*shape, dom)
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        sheets = compute_caustic_sheets(ast, field, grid)[:2]
        want = validate_sheets(sheets, ast, field, grid)
    assert want.n_compared
    for size in block_sizes(grid.nv):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            got = validate_sheets(sheets, ast, field, grid)
        assert got.to_text() == want.to_text()
        assert repr(got) == repr(want)


def test_validate_working_set_is_bounded():
    ast, dom = build_surface("revolution")
    grid = GridSpec(300, 300, dom)
    sheets = compute_caustic_sheets(ast, AXIAL, grid)[:2]
    per_point, report = traced_peak_per_point(
        lambda: validate_sheets(sheets, ast, AXIAL, grid), grid.nu * grid.nv)
    assert report.passed
    assert per_point <= 400, f"{per_point:.0f} B per grid point"


# -- the oracle's stencil on (..., 3) arrays, the reference for the planes ---

def stacked_dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def stacked_norm(x):
    return np.sqrt(stacked_dot(x, x))


def ray_bundle_reference(surface, field, U, V, eps_grazing):
    """Rays of the stencil on stacked (..., 3) arrays with np.cross and einsum."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    jet = eval_surface(surface, U, V)
    planes = (jet.value(), jet.d_u(), jet.d_v())
    shape = np.broadcast(U, V, *(p for vec in planes for p in vec)).shape
    r, ru, rv = (stack_planes(vec, shape) for vec in planes)

    c = np.cross(ru, rv)
    cn = stacked_norm(c)
    regular = cn > REGULARITY_RTOL * stacked_norm(ru) * stacked_norm(rv)
    with np.errstate(all="ignore"):
        n_raw = c / np.where(cn > 0.0, cn, 1.0)[..., None]
    if isinstance(field, PointSource):
        d = r - field.origin
        dist = stacked_norm(d)
        if np.any(dist <= caustics.SOURCE_MIN_DISTANCE):
            raise SourceOnSurfaceError("point source coincides with a surface point")
        a = d / dist[..., None]
    else:
        a = np.broadcast_to(field.direction, shape + (3,))
    side = stacked_dot(a, n_raw)
    flipped = side > 0.0
    n = np.where(flipped[..., None], -n_raw, n_raw)
    cos_theta = np.where(flipped, -side, side)
    b = a - 2.0 * stacked_dot(a, n)[..., None] * n
    lit = regular & (np.abs(cos_theta) > eps_grazing)
    return r, b, lit, flipped


def bundle_or_mask_reference(surface, field, U, V, eps_grazing):
    try:
        return ray_bundle_reference(surface, field, U, V, eps_grazing)
    except EvalDomainError:
        pass
    shape = np.broadcast_shapes(np.shape(U), np.shape(V))
    U = np.broadcast_to(np.asarray(U, dtype=float), shape)
    V = np.broadcast_to(np.asarray(V, dtype=float), shape)
    r = np.zeros(shape + (3,))
    b = np.zeros(shape + (3,))
    lit = np.zeros(shape, dtype=bool)
    flipped = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        try:
            ri, bi, li, fi = ray_bundle_reference(surface, field, U[idx], V[idx], eps_grazing)
        except EvalDomainError:
            continue
        r[idx], b[idx], lit[idx], flipped[idx] = ri, bi, li, fi
    return r, b, lit, flipped


def focal_quadratic_reference(surface, field, U, V, h, eps_grazing):
    def bundle(du, dv):
        return bundle_or_mask_reference(surface, field, U + du, V + dv, eps_grazing)

    (r0, b0, lit0, flip0), *stencil = (bundle(0.0, 0.0), bundle(h, 0.0), bundle(-h, 0.0),
                                       bundle(0.0, h), bundle(0.0, -h))
    (rpu, bpu, lpu, fpu), (rmu, bmu, lmu, fmu), (rpv, bpv, lpv, fpv), (rmv, bmv, lmv, fmv) = stencil
    ok = lit0 & lpu & lmu & lpv & lmv
    ok &= (fpu == flip0) & (fmu == flip0) & (fpv == flip0) & (fmv == flip0)

    inv2h = 1.0 / (2.0 * h)
    ru, rv = (rpu - rmu) * inv2h, (rpv - rmv) * inv2h
    bu, bv = (bpu - bmu) * inv2h, (bpv - bmv) * inv2h

    def det3(x, y, z):
        return stacked_dot(np.cross(x, y), z)

    c0 = det3(ru, rv, b0)
    c1 = det3(bu, rv, b0) + det3(ru, bv, b0)
    c2 = det3(bu, bv, b0)
    return (c0, c1, c2), r0, b0, ok


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# stencils at u - h <= 0 leave the chart of sqrt(u) and take the per-point path
SQRT_APEX = ("[u, v, sqrt(u) + 0.3*v^2]", (5e-5, 0.5, -1.0, 1.0))


@given(name=st.sampled_from(sorted(BUILTINS) + ["random-graph", "sqrt-apex"]),
       seed=st.integers(0, 2**32 - 1), point=st.booleans(),
       nu=st.integers(2, 7), nv=st.integers(2, 7),
       h=st.sampled_from([1e-4, 1e-2, 0.1]))
@settings(max_examples=200, deadline=None)
def test_planes_oracle_is_bitwise_the_stacked_reference(name, seed, point, nu, nv, h):
    # large steps make stencils straddle orientation folds, where ok is cleared
    rng = np.random.default_rng(seed)
    if name == "random-graph":
        ast, dom = random_graph_surface(rng), GRAPH_DOMAIN
    elif name == "sqrt-apex":
        ast, dom = parse_surface(SQRT_APEX[0]), SQRT_APEX[1]
    else:
        ast, dom = build_surface(name)
    field = PointSource(rng.normal(scale=2.0, size=3)) if point else FlatFront(rng.normal(size=3))
    grid = GridSpec(nu, nv, dom)
    U, V = grid.mesh()
    for args_want, args_got in (((U, V), grid.block()),
                                ((U[0, -1], V[0, -1]), (float(U[0, -1]), float(V[0, -1])))):
        try:
            want = focal_quadratic_reference(ast, field, *args_want, h, 1e-6)
        except SourceOnSurfaceError:
            with pytest.raises(SourceOnSurfaceError):
                _focal_quadratic(ast, field, *args_got, h, 1e-6)
            continue
        got = _focal_quadratic(ast, field, *args_got, h, 1e-6)
        for g, w in zip(got[0], want[0]):
            assert np.array_equal(_bits(g), _bits(w))
        for g, w in zip(got[1:3], want[1:3]):
            assert np.array_equal(_bits(g), _bits(w))
        assert np.array_equal(got[3], want[3])
