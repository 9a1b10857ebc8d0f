"""Reflection law, modified forms, characteristic quadratic, caustic points."""

import dataclasses
import inspect
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catacaustics import (FlatFront, GridSpec, PointSource, build_surface,
                          caustic_coefficients, caustic_point, caustic_roots,
                          compute_caustic_sheets, eval_surface, frame_at,
                          fundamental_forms, incident_direction,
                          modified_forms, parse_surface, reflect_direction,
                          reflected_front_point, reflection_data,
                          solve_sheet_curvatures, statistics_text, to_text)
from catacaustics import caustics
from catacaustics.caustics import (_CROSSCHECK_RTOL, EPS_GRAZING_DEFAULT,
                                   FLAG_AT_INFINITY, FLAG_AT_SOURCE,
                                   FLAG_CLIPPED, FLAG_DEGENERATE,
                                   FLAG_DOMAIN, FLAG_EXCLUDED_ZERO_ROOT,
                                   FLAG_GRAZING, FLAG_VALID,
                                   InternalConsistencyError, _column_extrema,
                                   _sheet_statistics, _stable_quadratic_roots,
                                   caustic_radius,
                                   default_max_radius, fill_rows,
                                   masked_points_text, row_blocks)
from catacaustics.diffgeo import dot
from catacaustics.oracle import validate_sheets
from catacaustics.surfaces import BUILTINS
from conftest import (BLOCK_SCENES, DEFECT_SURFACES, GRAPH_DOMAIN, HUGE_BLOCK, block_sizes,
                      label_breaks, normal_curvature, random_field, random_graph_surface,
                      scene_surface, stack_planes, traced_peak_per_point)

SPHERE = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"
AXIAL = FlatFront((0.0, 0.0, 1.0))


def _pipeline(text, field, u, v, params=None):
    jet = eval_surface(parse_surface(text, params), u, v)
    r = jet.value()
    a, r_dist, _ = incident_direction(field, r)
    frame = frame_at(jet)
    forms = fundamental_forms(frame)
    refl = reflection_data(frame, a, r_dist)
    return frame, forms, refl


def weingarten(mods):
    """W* = g*^-1 B* at one point, by the adjugate of g*; its eigenvalues are the k*."""
    gs11, gs12, gs22 = mods.gs11, mods.gs12, mods.gs22
    Bs11, Bs12, Bs22 = mods.Bs11, mods.Bs12, mods.Bs22
    inv = 1.0 / mods.det_gs
    return np.array([[(gs22 * Bs11 - gs12 * Bs12) * inv, (gs22 * Bs12 - gs12 * Bs22) * inv],
                     [(gs11 * Bs12 - gs12 * Bs11) * inv, (gs11 * Bs22 - gs12 * Bs12) * inv]],
                    dtype=float)


class TestFlatFront:
    @pytest.mark.parametrize("direction, unit", [((1e308, 1e308, 0.0), (1.0, 1.0, 0.0)),
                                                 ((1e-170, 0.0, 1e-170), (1.0, 0.0, 1.0))],
                             ids=["overflowing", "underflowing"])
    def test_direction_is_normalized_at_any_scale(self, direction, unit):
        # the norm's squares once overflowed to a direction (0, 0, 0), every
        # point grazing, and underflowed to "must be non-zero"
        want = np.array(unit) / np.sqrt(2.0)
        got = FlatFront(direction).direction
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_scaling_keeps_the_bits_of_a_representable_norm(self):
        rng = np.random.default_rng(1601)
        for _ in range(2000):
            a = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100, size=3)
            want = a / np.linalg.norm(a)
            assert FlatFront(a).direction.tobytes() == want.tobytes()


class TestIncidentDirection:
    def test_flat_is_constant(self):
        a, _, _ = incident_direction(AXIAL, np.array([3.0, -1.0, 2.0]))
        assert np.allclose(a, [0, 0, 1])

    def test_point_source_at_origin_on_unit_sphere(self):
        r = np.array([np.cos(0.5), 0.0, np.sin(0.5)])
        a, _, _ = incident_direction(PointSource((0, 0, 0)), r)
        assert np.allclose(a, r, atol=1e-15)

    def test_point_source_off_origin(self):
        a, _, _ = incident_direction(PointSource((0, 0, 0.1)), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(a, [0, 0, 1])

    def test_source_on_surface_is_masked(self):
        # the first point is the source, the third an off-chart stand-in that
        # happens to lie on it; both read the stand-in distance 1
        r = (np.array([1.0, 0.0, 1.0]), np.array([2.0, 0.0, 2.0]), np.array([3.0, 0.0, 3.0]))
        a, r_dist, at_source = incident_direction(PointSource((1, 2, 3)), r,
                                                  np.array([False, False, True]))
        assert at_source.tolist() == [True, False, False]
        assert r_dist.tolist() == [1.0, np.sqrt(14.0), 1.0]
        assert [ai[0] for ai in a] == [0.0, 0.0, 0.0]
        assert incident_direction(AXIAL, r)[2] is False

    def test_far_source_distance_does_not_overflow(self):
        # |r - O|^2 overflows beyond ~1.34e154; the norm scales r - O first
        big = 2.0 ** 600
        r = (np.array([3.0 * big, 3.0]), np.array([4.0 * big, 4.0]), np.array([0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a, r_dist, at_source = incident_direction(PointSource((0, 0, 0)), r)
        assert r_dist.tolist() == [5.0 * big, 5.0]
        assert not np.any(at_source)
        assert [ai.tolist() for ai in a] == [[0.6, 0.6], [0.8, 0.8], [0.0, 0.0]]


class TestReflectDirection:
    def test_retro_reflection(self):
        b = reflect_direction((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
        assert np.allclose(b, [0, 0, -1])

    def test_sphere_point(self):
        u = np.pi / 6
        n = -np.array([np.cos(u), 0, np.sin(u)])
        b = reflect_direction((0.0, 0.0, 1.0), n)
        assert np.allclose(b, [-np.sqrt(3) / 2, 0, 0.5], atol=1e-15)

    def test_translation_surface_closed_form(self):
        # graph z = f(u) + h(v):  b = (2 f', 2 h', -1 + f'^2 + h'^2) / (1 + f'^2 + h'^2)
        field = AXIAL
        for u, v in [(0.4, -0.8), (1.0, 1.0), (-0.3, 0.2)]:
            frame, forms, refl = _pipeline("[u, v, u^2/2 + v^3/3]", field, u, v)
            fx, hy = u, v * v
            W2 = 1.0 + fx**2 + hy**2
            want = np.array([2 * fx, 2 * hy, -1 + fx**2 + hy**2]) / W2
            assert np.allclose(refl.b, want, atol=1e-14)

    def test_reflection_law_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if a @ n >= 0:
                n = -n
            b = reflect_direction(a, n)
            assert abs(np.linalg.norm(b) - 1) <= 1e-12
            assert abs(b @ n + a @ n) <= 1e-12
            assert abs(np.linalg.det(np.stack([a, b, n]))) <= 1e-12  # coplanar


class TestModifiedForms:
    def test_hyperbolic_paraboloid_displayed_forms(self):
        for u, v in [(1.0, 1.0), (0.5, -1.5), (-2.0, 0.3)]:
            frame, forms, refl = _pipeline("[u, v, u^2/2 - v^2/2]", AXIAL, u, v)
            mods = modified_forms(forms, refl)
            assert np.allclose([mods.gs11, mods.gs12, mods.gs22], [1.0, 0.0, 1.0], atol=1e-13)
            W2 = 1.0 + u**2 + v**2
            assert mods.Bs11 == pytest.approx(-2.0 / W2, rel=1e-12)
            assert mods.Bs22 == pytest.approx(+2.0 / W2, rel=1e-12)
            assert mods.Bs12 == pytest.approx(0.0, abs=1e-13)

    def test_plane_mirror_keeps_rays_parallel(self):
        frame, forms, refl = _pipeline("[u, v, 0]", FlatFront((0.2, 0.1, -1.0)), 0.7, 0.7)
        mods = modified_forms(forms, refl)
        assert np.allclose([mods.Bs11, mods.Bs12, mods.Bs22], 0.0, atol=1e-15)

    def test_central_source_sphere_weingarten_is_identity(self):
        field = PointSource((0.0, 0.0, 0.0))
        frame, forms, refl = _pipeline(SPHERE, field, 0.7, 0.4)
        mods = modified_forms(forms, refl)
        assert np.allclose(weingarten(mods), np.eye(2), atol=1e-12)

    def test_det_identity_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ast = random_graph_surface(rng)
            field = random_field(rng)
            u, v = rng.uniform(-0.9, 0.9, size=2)
            jet = eval_surface(ast, u, v)
            a, r_dist, _ = incident_direction(field, jet.value())
            frame = frame_at(jet)
            forms = fundamental_forms(frame)
            refl = reflection_data(frame, a, r_dist)
            mods = modified_forms(forms, refl)
            want = forms.det_g * refl.cos_theta**2
            assert mods.det_gs == pytest.approx(want, rel=1e-10)
            # cos theta is (a, n) on the chart's own normal, bit for bit
            assert refl.cos_theta == dot(a, frame.n)


class TestCausticCoefficients:
    def test_sphere_half_angle(self):
        u = np.pi / 6  # cos theta = -1/2
        frame, forms, refl = _pipeline(SPHERE, AXIAL, u, 0.0)
        p, q = caustic_coefficients(forms, refl)
        assert p == pytest.approx(-5.0, rel=1e-12)
        assert q == pytest.approx(4.0, rel=1e-12)

    def test_cylinder_has_zero_constant_term(self):
        field = FlatFront((1.0, 0.0, 0.0))
        frame, forms, refl = _pipeline("[cos(u), sin(u), v]", field, 0.4, 0.2)
        p, q = caustic_coefficients(forms, refl)
        assert q == 0.0
        assert p == pytest.approx(-2.0 / abs(refl.cos_theta), rel=1e-12)

    def test_central_source_sphere(self):
        field = PointSource((0.0, 0.0, 0.0))
        frame, forms, refl = _pipeline(SPHERE, field, 0.9, 2.2)
        p, q = caustic_coefficients(forms, refl)
        assert p == pytest.approx(-4.0, rel=1e-12)
        assert q == pytest.approx(4.0, rel=1e-12)


class TestSolveSheetCurvatures:
    def test_sphere_roots_and_product_identity(self):
        u = np.pi / 6
        frame, forms, refl = _pipeline(SPHERE, AXIAL, u, 0.0)
        mods = modified_forms(forms, refl)
        coeffs = caustic_coefficients(forms, refl)
        k_a, k_b, residual = solve_sheet_curvatures(mods, coeffs)
        assert sorted([float(k_a), float(k_b)]) == pytest.approx([1.0, 4.0], rel=1e-12)
        assert float(k_a) * float(k_b) == pytest.approx(4.0 * float(forms.K), rel=1e-12)
        assert residual <= 1e-8

    def test_negative_discriminant_is_internal_error(self):
        with pytest.raises(InternalConsistencyError):
            _stable_quadratic_roots(0.0, 1.0)  # mu^2 + 1 = 0

    def test_double_root_collapses_cleanly(self):
        mu_a, mu_b, clamped = _stable_quadratic_roots(-4.0 + 1e-15, 4.0 - 1e-15)
        assert clamped
        assert mu_a == mu_b == pytest.approx(2.0, rel=1e-14)


class TestCausticPoint:
    def test_sphere_sheet_points(self):
        u = np.pi / 6
        r = np.array([np.cos(u), 0.0, np.sin(u)])
        b = np.array([-np.sqrt(3) / 2, 0.0, 0.5])
        xi1, flags1 = caustic_point(r, b, 1.0, AXIAL)
        assert np.allclose(xi1, [0, 0, 1], atol=1e-15)
        xi2, _ = caustic_point(r, b, 4.0, AXIAL)
        assert np.allclose(xi2, [3 * np.sqrt(3) / 8, 0, 5 / 8], atol=1e-15)
        assert flags1 & FLAG_VALID

    def test_hyperbolic_paraboloid_both_sheets(self):
        field = AXIAL
        frame, forms, refl = _pipeline("[u, v, u^2/2 - v^2/2]", field, 1.0, 1.0)
        mods = modified_forms(forms, refl)
        k_a, k_b, _ = solve_sheet_curvatures(mods, caustic_coefficients(forms, refl))
        lo, hi = sorted([float(k_a), float(k_b)])
        r, b = np.array(frame.r), np.array(refl.b)
        xi_lo, _ = caustic_point(r, b, lo, field)
        xi_hi, _ = caustic_point(r, b, hi, field)
        assert np.allclose(xi_lo, [0, 2, -0.5], atol=1e-13)
        assert np.allclose(xi_hi, [2, 0, 0.5], atol=1e-13)

    def test_radius_cap_flags_clipped_in_place_of_valid(self):
        r = np.zeros((3, 2))
        b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])  # (x, y, z) planes of two points
        xi, flags = caustic_point(r, b, np.array([1.0, 0.25]), AXIAL, max_radius=2.0)
        assert flags.tolist() == [FLAG_VALID, FLAG_CLIPPED]
        # a clipped point keeps its place on the ray
        assert np.array_equal(xi, [[0.0, 0.0], [0.0, 0.0], [1.0, -4.0]])

    def test_zero_root_flags_by_field_kind(self):
        r = np.zeros(3)
        b = np.array([0.0, 0.0, 1.0])
        xi, flags = caustic_point(r, b, 1e-12, FlatFront((0, 0, 1)))
        assert flags & FLAG_AT_INFINITY and not flags & FLAG_VALID
        assert np.isnan(xi).all()
        _, flags = caustic_point(r, b, 1e-12, PointSource((0, 0, 5)))
        assert flags & FLAG_EXCLUDED_ZERO_ROOT and not flags & FLAG_VALID


class TestReflectedFrontPoint:
    def test_front_touches_mirror_at_launch(self):
        r = np.array([0.3, 0.4, 0.5])
        a = np.array([0.0, 0.0, 1.0])
        lam, rho = reflected_front_point(r, a, np.array([1.0, 0.0, 0.0]), L=float(r[2]))
        assert lam == 0.0
        assert np.allclose(rho, r)

    def test_sphere_front_at_L_1_5(self):
        u = np.pi / 6
        r = np.array([np.cos(u), 0.0, np.sin(u)])
        b = np.array([-np.sqrt(3) / 2, 0.0, 0.5])
        lam, rho = reflected_front_point(r, (0.0, 0.0, 1.0), b, L=1.5)
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(rho, [0, 0, 1], atol=1e-15)

    def test_plane_mirror_re_emits_flat_front(self):
        us = np.linspace(-1, 1, 5)
        U, V = np.meshgrid(us, us, indexing="ij")
        jet = eval_surface(parse_surface("[u, v, 0]"), U, V)
        r = jet.value()
        a = np.array([0.0, 0.0, -1.0])
        frame = frame_at(jet)
        b = reflect_direction(a, frame.n)
        lam, rho = reflected_front_point(r, a, b, L=2.0)
        assert np.allclose(rho[2], 2.0)
        assert np.all(lam >= 0.0)

    def test_not_arrived_is_flagged_not_raised(self):
        lam, _ = reflected_front_point(np.array([0.0, 0.0, 5.0]), (0.0, 0.0, 1.0),
                                       np.array([0.0, 0.0, -1.0]), L=1.0)
        assert not lam >= 0.0


class TestComputeCausticSheets:
    def test_hemisphere_axis_line_degeneracy(self):
        ast, _ = build_surface("sphere")
        grid = GridSpec(30, 30, (0.2, 1.4, 0.0, 6.283185307179586))
        s1, _, _ = compute_caustic_sheets(ast, AXIAL, grid)
        stats = _sheet_statistics(s1)
        ext = stats.bbox_max - stats.bbox_min
        assert ext[0] < 1e-9 and ext[1] < 1e-9
        assert stats.principal_extents[1] < 1e-9

    def test_elliptic_paraboloid_focal_point(self):
        ast, dom = build_surface("elliptic-paraboloid")
        grid = GridSpec(25, 25, dom)
        s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
        for s in (s1, s2):
            assert _sheet_statistics(s).diameter < 1e-9
        assert np.allclose(s1.points[:, s1.valid], [[0], [0], [0.5]], atol=1e-12)

    def test_central_source_sphere_collapses_to_origin(self):
        ast, _ = build_surface("sphere")
        grid = GridSpec(20, 20, (0.2, 1.4, 0.0, 6.283185307179586))
        s1, s2, _ = compute_caustic_sheets(ast, PointSource((0, 0, 0)), grid)
        assert np.nanmax(np.abs(s1.points)) < 1e-12
        assert np.nanmax(np.abs(s2.points)) < 1e-12

    def test_cylinder_one_sheet_at_infinity(self):
        ast, dom = build_surface("cylinder")
        grid = GridSpec(15, 8, dom)
        s1, s2, _ = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), grid)
        flat_sheet, finite_sheet = (s1, s2) if np.all(s1.flags & FLAG_AT_INFINITY) else (s2, s1)
        assert np.all(flat_sheet.flags & FLAG_AT_INFINITY)
        assert np.all(finite_sheet.valid)

    def test_grazing_points_masked_not_errors(self):
        # plane lit edge-on: every point grazes
        ast = parse_surface("[u, v, 0]")
        grid = GridSpec(5, 5, (-1, 1, -1, 1))
        s1, s2, roots = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), grid)
        assert np.count_nonzero(roots.base_flags & FLAG_GRAZING) == 25
        assert not np.any(s1.placed | s2.placed)

    def test_compute_path_never_reads_a_travel_distance(self):
        # flat-front caustics are independent of the front offset; the API
        # enforces it by not accepting one
        sig = inspect.signature(compute_caustic_sheets)
        assert "L" not in sig.parameters
        assert not any("travel" in name for name in sig.parameters)

    def test_point_source_zero_roots_excluded(self):
        # source at the cylinder axis: the trivial root k* = -1/r is valid,
        # but a source placed on the surface of symmetry the sphere collapses;
        # here check the excluded flag never co-occurs with valid
        ast, dom = build_surface("cylinder")
        grid = GridSpec(12, 6, dom)
        s1, s2, _ = compute_caustic_sheets(ast, PointSource((0.2, 0.0, 0.5)), grid)
        for s in (s1, s2):
            assert not np.any(s.valid & ((s.flags & FLAG_EXCLUDED_ZERO_ROOT) != 0))


def test_far_source_is_the_flat_front():
    # a source at 1e300 once overflowed |r - O|, which marked every point
    # grazing; its rays are the flat front's to the last bit
    ast, dom = build_surface("sphere")
    grid = GridSpec(12, 12, dom)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        *far, far_roots = compute_caustic_sheets(ast, PointSource((1e300, 0.0, 0.0)), grid)
        *flat, flat_roots = compute_caustic_sheets(ast, FlatFront((-1.0, 0.0, 0.0)), grid)
    assert np.count_nonzero(far_roots.base_flags & FLAG_GRAZING) == 0
    assert statistics_text(far_roots, far) == statistics_text(flat_roots, flat)
    for g, w, gk, wk in zip(far, flat, (far_roots.k1, far_roots.k2),
                            (flat_roots.k1, flat_roots.k2)):
        assert np.array_equal(g.flags, w.flags)
        assert np.array_equal(gk, wk, equal_nan=True)
        assert np.array_equal(g.points, w.points, equal_nan=True)
    assert validate_sheets(caustic_roots(ast, PointSource((1e300, 0.0, 0.0)), grid)).passed


class TestRootIdentities:
    def test_flat_front_sum_and_product(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            ast = random_graph_surface(rng)
            field = FlatFront((rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0))
            u, v = rng.uniform(-0.9, 0.9, size=2)
            jet = eval_surface(ast, u, v)
            a, r_dist, _ = incident_direction(field, jet.value())
            frame = frame_at(jet)
            forms = fundamental_forms(frame)
            refl = reflection_data(frame, a, r_dist)
            mods = modified_forms(forms, refl)
            p, q = caustic_coefficients(forms, refl)
            k_a, k_b, _ = solve_sheet_curvatures(mods, (p, q))
            K = float(forms.K)
            assert abs(float(k_a * k_b) - 4 * K) <= 1e-9 * max(1.0, abs(K))
            assert abs(float(k_a + k_b) + float(p)) <= 1e-9 * max(1.0, abs(float(p)))
            # B(a_t, a_t) = k_n(a_t) sin^2(theta) away from normal incidence,
            # with B(a_t, a_t) read back from p = 4 H cos + 2 B(a_t, a_t)/cos
            # and a_t = X^i d_i r from g X = (w1, w2)
            c = float(refl.cos_theta)
            s2 = 1.0 - c ** 2
            if s2 > 1e-2:
                g = np.array([[forms.g11, forms.g12], [forms.g12, forms.g22]], dtype=float)
                X = np.linalg.solve(g, [float(w) for w in refl.w])
                B_at_at = 0.5 * c * (float(p) - 4.0 * float(forms.H) * c)
                assert B_at_at == pytest.approx(
                    float(normal_curvature(forms, X)) * s2, rel=1e-9, abs=1e-12)


def _fill_every_kind(grid):
    """fill_rows of a result of each kind it takes, and how often each row ran."""
    runs = np.zeros(grid.nu, dtype=int)

    def block(U, V, rows):
        runs[rows] += 1
        return (np.uint8(5),                                # ()
                U * 2.0,                                    # (rows, 1)
                V > 0.5,                                    # (1, nv)
                (U < V, V > 0.25),                          # bool planes
                (0.25, U - V, -1.0))                        # planes, two of them scalars

    return fill_rows(grid, block), runs


def test_row_blocks_cover_every_row_once():
    for nu, nv in [(1, 5), (23, 17), (7, 1), (10, 3)]:
        for size in block_sizes(nv) + [HUGE_BLOCK]:
            with mock.patch.object(caustics, "BLOCK_POINTS", size):
                blocks = row_blocks(nu, nv)
            rows = [i for block in blocks for i in range(nu)[block]]
            assert rows == list(range(nu))
            assert all((b.stop - b.start) * nv <= max(size, nv) for b in blocks)
    # fill_rows runs each row once and fills what one block would
    for nu, nv in [(23, 17), (10, 3), (2, 2)]:
        grid = GridSpec(nu, nv, (0.0, 1.0, 0.0, 1.0))
        U, V = grid.mesh()
        with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
            want, _ = _fill_every_kind(grid)
        assert [x.shape for x in want] == [(nu, nv)] * 3 + [(2, nu, nv), (3, nu, nv)]
        assert [x.dtype for x in want] == [np.uint8, float, bool, bool, float]
        for g, w in zip(want, (5, 2.0 * U, V > 0.5, np.stack([U < V, V > 0.25]),
                               np.stack(np.broadcast_arrays(0.25, U - V, -1.0)))):
            assert np.array_equal(g, np.broadcast_to(w, g.shape))
        for size in block_sizes(nv):
            with mock.patch.object(caustics, "BLOCK_POINTS", size):
                got, runs = _fill_every_kind(grid)
            assert np.all(runs == 1)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


# x = 0*sin(...) is -0.0 or +0.0 by the sign of the sine, so every row block
# ties at zero in x, and the zero that wins decides the "surface bbox" bytes.
# Under the first, whose sign alternates between rows, the first row holds
# +0.0 and the last -0.0: a tie between blocks must go to the later one.  The
# second changes sign along the rows too: on the 31 x 7 grid a reduction
# across the contiguous x column picks the other zero than min/max(axis=0)
SIGNED_ZERO_TIES = {"[0*sin(40*u), v, u + v^2]": "-0", "[0*sin(40*u + 17*v), v, u + v^2]": "0"}
TIE_DOMAIN = (-1.05, 1.05, -1.0, 1.0)
EXTENT_SCENES = [
    *((text, TIE_DOMAIN, FlatFront((0.1, 0.2, 1.0)), shape)
      for text in SIGNED_ZERO_TIES for shape in ((31, 7), (300, 120))),
    # the apex is off the chart and out of the extent
    (*DEFECT_SURFACES["cone"], FlatFront((0.1, 0.2, -1.0)), (19, 21)),
    ("ellipsoid", None, PointSource((0.05, -0.03, 0.08)), (23, 17)),
]


def whole_grid_extent_lines(ast, field, grid):
    """stats.txt's surface lines by min/max(axis=0) over the grid's mirror points on the chart."""
    frame, _, flags = caustics._ray_block(ast, field, *grid.mesh(), EPS_GRAZING_DEFAULT)
    shape = (grid.nu, grid.nv)
    on_chart = np.broadcast_to((flags & FLAG_DOMAIN) == 0, shape)
    pts = np.stack([np.broadcast_to(x, shape) for x in frame.r], axis=-1)[on_chart]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return [f"surface bbox min: {caustics._fmt_vec(lo)}",
            f"surface bbox max: {caustics._fmt_vec(hi)}",
            f"surface diameter: {float(np.linalg.norm(hi - lo)):.9g}"]


@pytest.mark.parametrize("text, domain, field, shape", EXTENT_SCENES)
def test_surface_extent_is_the_whole_grid_rule(text, domain, field, shape):
    ast, domain = (parse_surface(text), domain) if domain else build_surface(text)
    grid = GridSpec(*shape, domain)
    want = whole_grid_extent_lines(ast, field, grid)
    if text in SIGNED_ZERO_TIES:
        assert [line.split(": ")[1].split()[0] for line in want[:2]] == [SIGNED_ZERO_TIES[text]] * 2
    for size in (1, 2, 5, caustics.BLOCK_POINTS):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            *sheets, sheet_roots = compute_caustic_sheets(ast, field, grid)
            roots = caustic_roots(ast, field, grid)
        text = statistics_text(sheet_roots, sheets)
        assert [line for line in text.splitlines() if line.startswith("surface ")] == want
        cap = default_max_radius(sheet_roots.surface_diameter)
        assert roots.max_radius == sheet_roots.max_radius == cap


@pytest.mark.parametrize("name, field, shape", BLOCK_SCENES)
def test_block_size_does_not_change_the_sheets(name, field, shape):
    ast, dom = scene_surface(name)
    grid = GridSpec(*shape, dom)
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        *want, want_roots = compute_caustic_sheets(ast, field, grid)
    for size in block_sizes(grid.nv):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            assert len(row_blocks(grid.nu, grid.nv)) > 1
            *got, roots = compute_caustic_sheets(ast, field, grid)
        assert statistics_text(roots, got) == statistics_text(want_roots, want)
        for g, w, gk, wk in zip(got, want, (roots.k1, roots.k2), (want_roots.k1, want_roots.k2)):
            assert np.array_equal(gk, wk, equal_nan=True)
            assert np.array_equal(g.points, w.points, equal_nan=True)
            assert np.array_equal(g.flags, w.flags)


@pytest.mark.parametrize("name, field, shape", BLOCK_SCENES)
def test_radius_cap_only_clips(name, field, shape):
    # the cap changes no root, no caustic point and no statistic, and flags
    # clipped exactly the valid points farther than it along the ray
    ast, dom = scene_surface(name)
    grid = GridSpec(*shape, dom)
    *uncapped, free_roots = compute_caustic_sheets(ast, field, grid, max_radius=np.inf)
    free_ks = (free_roots.k1, free_roots.k2)
    radii = [np.abs(caustic_radius(k[s.valid])) for s, k in zip(uncapped, free_ks)]
    binding = float(np.median(np.concatenate(radii)))
    for max_radius in (None, binding):
        *capped, roots = compute_caustic_sheets(ast, field, grid, max_radius=max_radius)
        cap = default_max_radius(roots.surface_diameter) if max_radius is None else binding
        assert roots.max_radius == cap
        assert statistics_text(roots, capped) == statistics_text(free_roots, uncapped)
        n_clipped = 0
        for c, u, ck, uk in zip(capped, uncapped, (roots.k1, roots.k2), free_ks):
            assert np.array_equal(ck, uk, equal_nan=True)
            assert np.array_equal(c.points, u.points, equal_nan=True)
            far = u.valid & (np.abs(caustic_radius(uk)) > cap)
            assert np.array_equal(c.flags, np.where(far, np.uint8(FLAG_CLIPPED), u.flags))
            n_clipped += np.count_nonzero(far)
    assert n_clipped  # the median radius binds


def test_vanishing_partial_is_degenerate_not_grazing():
    # r_v = 0 along u = 0: the regularity test once read 0 >= 0 there and
    # flagged the row grazing, with invalid-value warnings from det g = 0
    ast = parse_surface("[u*cos(v), u*sin(v), u^2/2]")
    grid = GridSpec(5, 8, (0.0, 1.0, 0.0, 2.0 * np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sheet1, sheet2, roots = compute_caustic_sheets(ast, AXIAL, grid)
    for sheet in (sheet1, sheet2):
        assert np.all(sheet.flags[0] == FLAG_DEGENERATE)
        assert not np.any(sheet.flags & FLAG_GRAZING)
        assert np.all(sheet.valid[1:])
    assert np.count_nonzero(roots.base_flags & FLAG_GRAZING) == 0


@pytest.mark.parametrize("text", ["[u, u^2, u^3]", "[v, v^2, v^3]"])
def test_degenerate_count_is_taken_on_the_grid(text):
    # a chart in u (or v) alone has planes of shape (nu, 1) (or (1, nv)); every
    # one of the 5 x 8 grid points is singular, not just one per plane entry
    grid = GridSpec(5, 8, (0.0, 1.0, 0.0, 1.0))
    sheet1, sheet2, _ = compute_caustic_sheets(parse_surface(text), AXIAL, grid)
    for sheet in (sheet1, sheet2):
        assert sheet.flags.shape == (5, 8)
        assert np.all(sheet.flags == FLAG_DEGENERATE)
    assert not np.any(sheet1.placed | sheet2.placed)


def test_off_chart_apex_is_flagged_where_it_is():
    # the apex of the cone is off the chart of sqrt, and at 21 x 21 it is a
    # grid point; every other point is computed as on the 20 x 20 grid
    ast = parse_surface("[u, v, sqrt(u^2+v^2)]")
    field = FlatFront((0.1, 0.2, -1.0))
    sheet1, sheet2, roots = compute_caustic_sheets(ast, field, GridSpec(21, 21, GRAPH_DOMAIN))
    for sheet in (sheet1, sheet2):
        assert sheet.flags[10, 10] == FLAG_DOMAIN
        assert np.count_nonzero(sheet.flags & FLAG_DOMAIN) == 1
    assert np.count_nonzero(sheet1.valid | sheet2.valid) == 21 * 21 - 1
    # the stand-in r = 0 of the apex is no surface point: z >= 0.1 elsewhere
    assert roots.surface_bbox_min[2] == pytest.approx(0.1)


STENCIL_SHIFTS = [(0.0, 0.0), (1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)]


def _slot_bits(jet, shape):
    """Every slot of a Jet2Vec3, broadcast to shape, as its IEEE bit patterns."""
    return [np.ascontiguousarray(np.broadcast_to(slot, shape), dtype=float).view(np.uint64)
            for component in jet.components() for slot in component.slots()]


@given(name=st.sampled_from(sorted(BUILTINS) + ["random-graph"]),
       seed=st.integers(0, 2**32 - 1), nu=st.integers(2, 30), nv=st.integers(2, 30),
       shift=st.sampled_from(STENCIL_SHIFTS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_evaluation_is_bitwise_the_mesh_evaluation(name, seed, nu, nv, shift, data):
    if name == "random-graph":
        ast, dom = random_graph_surface(np.random.default_rng(seed)), GRAPH_DOMAIN
    else:
        ast, dom = build_surface(name)
    grid = GridSpec(nu, nv, dom)
    start = data.draw(st.integers(0, nu - 1))
    rows = slice(start, data.draw(st.integers(start + 1, nu)))
    du, dv = shift
    U, V = grid.mesh()
    us, vs = grid.axes()
    u, v = us[rows, None], vs[None, :]
    assert u.shape == (rows.stop - rows.start, 1) and v.shape == (1, nv)
    want = _slot_bits(eval_surface(ast, U[rows] + du, V[rows] + dv), U[rows].shape)
    got = _slot_bits(eval_surface(ast, u + du, v + dv), U[rows].shape)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_compute_working_set_is_bounded():
    # the sheets are placed per row block, ~194 B per point here; a block's
    # results kept alive while the next block runs read ~209, and placing
    # the sheets over the whole grid at once ~267
    ast, dom = build_surface("revolution")
    grid = GridSpec(300, 300, dom)
    per_point, _ = traced_peak_per_point(
        lambda: compute_caustic_sheets(ast, AXIAL, grid), grid.nu * grid.nv)
    assert per_point <= 200, f"{per_point:.0f} B per grid point"


# -- the cross-check of the roots against the trace and determinant of W* ----

GRAPH_NEAR_SOURCE = parse_surface(
    "[u, v, a1*u + a2*v + a3*u^2 + a4*u*v + a5*v^2 + a6*sin(w1*u + p1) + a7*cos(w2*v + p2)]",
    {"a1": -0.158, "a2": -0.322, "a3": -0.112, "a4": -0.207, "a5": -0.014,
     "a6": -0.204, "a7": -0.04, "w1": 0.804, "w2": 0.879, "p1": 3.106, "p2": 5.897})

# (surface, domain, field, grid side)
CROSSCHECK_SCENES = {
    "ellipsoid-interior": (*build_surface("ellipsoid"), PointSource((0.2, 0.1, 0.1)), 60),
    "ellipsoid-exterior": (*build_surface("ellipsoid"), PointSource((0.3, 0.2, 3.0)), 60),
    "torus": (*build_surface("revolution"), AXIAL, 60),
    # the source sits 0.07 from the mirror, and k + 1/rho cancels where
    # |cos theta| ~ 0.02: the root magnitudes must count before the shift
    "graph-near-source": (GRAPH_NEAR_SOURCE, (-1.0, 1.0, -1.0, 1.0),
                          PointSource((-0.66, -0.9, 0.07)), 150),
}


def _compute_scene(scene):
    ast, dom, field, n = CROSSCHECK_SCENES[scene]
    return compute_caustic_sheets(ast, field, GridSpec(n, n, dom))


def _planted(plant):
    """A stage whose result passes through plant."""
    return lambda real: lambda *args: plant(real(*args))


def _flip_B(mods):
    return dataclasses.replace(mods, Bs11=-mods.Bs11, Bs12=-mods.Bs12, Bs22=-mods.Bs22)


def _halve_q(coeffs):
    p, q = coeffs
    return p, 0.5 * q


def _drop_shift(real):
    # B* = m B, as if the point-source branch of modified_forms were missing
    return lambda forms, refl: real(forms, dataclasses.replace(refl, r_dist=None))


@pytest.mark.parametrize("scene, stage, plant", [
    ("ellipsoid-interior", "modified_forms", _planted(_flip_B)),
    ("torus", "modified_forms", _planted(_flip_B)),
    ("ellipsoid-interior", "modified_forms", _drop_shift),
    ("ellipsoid-exterior", "modified_forms", _drop_shift),
    ("torus", "caustic_coefficients", _planted(_halve_q)),  # moves the product only
], ids=["flip-B-ellipsoid", "flip-B-torus", "drop-shift-interior",
        "drop-shift-exterior", "halve-q-torus"])
def test_planted_bugs_fail_the_crosscheck(scene, stage, plant):
    with mock.patch.object(caustics, stage, plant(getattr(caustics, stage))):
        with pytest.raises(InternalConsistencyError):
            _compute_scene(scene)


@pytest.mark.parametrize("scene", sorted(CROSSCHECK_SCENES))
def test_clean_residual_is_far_below_the_bound(scene):
    residuals = []
    real = caustics.solve_sheet_curvatures

    def spy(*args):
        out = real(*args)
        residuals.append(out[2])
        return out

    with mock.patch.object(caustics, "solve_sheet_curvatures", spy):
        _compute_scene(scene)
    assert 0.0 < max(residuals) <= _CROSSCHECK_RTOL / 100


def test_clamped_double_roots_pass_the_crosscheck():
    # a nearly umbilic mirror under a nearly normal front: its curvatures
    # differ by 5e-7 relative, so the discriminant stays below 2e-13 of p^2
    # and every point clamps; the clamp moves the root product by up to 5e-14
    # of itself, which the cross-check adds back
    field = FlatFront((1e-4, 2e-4, 1.0))
    U, V = GridSpec(41, 41, (-1.0, 1.0, -1.0, 1.0)).mesh()
    frame, forms, refl = _pipeline("[u, v, cx*u^2 + cy*v^2]", field, U, V,
                                   {"cx": 1e-4, "cy": 1.0000005e-4})
    p, q = caustic_coefficients(forms, refl)
    assert np.all(_stable_quadratic_roots(p, q)[2])
    mods = modified_forms(forms, refl)
    assert solve_sheet_curvatures(mods, (p, q))[2] <= _CROSSCHECK_RTOL / 100


def test_flag_bits_fill_the_byte_once():
    bits = [getattr(caustics, name) for name in caustics.__all__ if name.startswith("FLAG_")]
    assert sorted(bits) == [1 << i for i in range(8)]


def test_masked_points_text_reports_every_point_defect_bit():
    # bit k at grid point k; the statistics count grazing and the zero roots,
    # the mesh writers carry valid and clipped, and a line names each other bit
    grid = GridSpec(2, 4, (0.0, 1.0, 0.0, 1.0))
    flags = (1 << np.arange(8, dtype=np.uint8)).reshape(2, 4)
    text = masked_points_text(flags, parse_surface("[u, v, 0]"), grid)
    named = set()
    for line in text.splitlines():
        i, j = map(int, re.fullmatch(r"masked: 1 point\(s\) .*, first at grid index "
                                     r"\((\d), (\d)\)", line).groups())
        named.add(int(flags[i, j]))
    assert named == {FLAG_DOMAIN, FLAG_DEGENERATE, FLAG_AT_SOURCE}
    assert len(text.splitlines()) == 3
    counted = {FLAG_VALID, FLAG_GRAZING, FLAG_AT_INFINITY, FLAG_CLIPPED, FLAG_EXCLUDED_ZERO_ROOT}
    assert named | counted == {1 << k for k in range(8)}


@given(name=st.sampled_from(sorted(BUILTINS)), n=st.sampled_from([20, 50, 100, 200]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_no_builtin_scene_fails_the_crosscheck(name, n, seed):
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        field = FlatFront(rng.normal(size=3))
    else:
        field = PointSource(rng.normal(scale=2.0, size=3))
    ast, dom = build_surface(name)
    compute_caustic_sheets(ast, field, GridSpec(n, n, dom))  # point defects are flagged


def test_near_grazing_routes_differ_only_by_the_conditioning():
    # the one point of `validate --surface revolution --flat 0.3,0.1,-1
    # --grid 100,100` where the roots and the float eigenvalues of W* differed
    # by more than 1e-8 relative: |cos theta| = 1.8e-4, roots -1.1e4 and -1.2e-4
    field = FlatFront((0.3, 0.1, -1.0))
    ast, dom = build_surface("revolution")
    U, V = GridSpec(100, 100, dom).mesh()
    jet = eval_surface(ast, U[10, 2], V[10, 2])
    a, r_dist, _ = incident_direction(field, jet.value())
    frame = frame_at(jet)
    forms = fundamental_forms(frame)
    refl = reflection_data(frame, a, r_dist)
    mods = modified_forms(forms, refl)
    p, q = caustic_coefficients(forms, refl)
    cos = float(refl.cos_theta)
    assert abs(cos) == pytest.approx(1.8e-4, rel=1e-2)
    roots = sorted([float(k) for k in solve_sheet_curvatures(mods, (p, q))[:2]])
    eigs = sorted(np.linalg.eigvals(weingarten(mods)).real)

    mp = mpmath.mpf
    with mpmath.workdps(50):
        # each route evaluated exactly on its own float inputs
        g = mpmath.matrix([[mp(float(mods.gs11)), mp(float(mods.gs12))],
                           [mp(float(mods.gs12)), mp(float(mods.gs22))]])
        B = mpmath.matrix([[mp(float(mods.Bs11)), mp(float(mods.Bs12))],
                           [mp(float(mods.Bs12)), mp(float(mods.Bs22))]])
        exact_w = sorted(mpmath.re(e) for e in mpmath.eig(g ** -1 * B)[0])
        pp, qq = mp(float(p)), mp(float(q))
        d = mpmath.sqrt(pp * pp - 4 * qq)
        exact_q = sorted([(-pp - d) / 2, (-pp + d) / 2])

        def rel(x, y):
            return float(abs(mp(x) - y) / abs(y))

        # each route is accurate for its own inputs
        for got, want in zip(roots, exact_q):
            assert rel(got, want) <= 2e-11
        for got, want in zip(eigs, exact_w):
            assert rel(got, want) <= 2e-11
        # the exact routes part on the large root by the round-off of the
        # shared inputs times the conditioning 1/cos^2(theta)
        unit = 2.0 ** -53
        assert 1e-9 <= rel(exact_q[0], exact_w[0]) <= 10 * unit / cos ** 2
        assert rel(exact_q[1], exact_w[1]) <= 100 * unit


# signed zeros, NaN and infinities besides any other float
extrema_values = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats())


@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
              elements=extrema_values))
@settings(max_examples=300, deadline=None)
def test_column_extrema_is_bitwise_axis0(pts):
    # the planes of the C (N, k) array pts, C-ordered and as its F-ordered
    # transpose: the +-0 and NaN ties go by pts' axis-0 rule either way
    with np.errstate(invalid="ignore"):
        want_lo, want_hi = pts.min(axis=0), pts.max(axis=0)
    for planes in (np.ascontiguousarray(pts.T), pts.T):
        lo, hi = _column_extrema(planes)
        assert lo.view(np.uint64).tolist() == want_lo.view(np.uint64).tolist()
        assert hi.view(np.uint64).tolist() == want_hi.view(np.uint64).tolist()


# -- chart invariance: the caustic belongs to the mirror, not to r(u, v) ------

# (u, v) of the original chart as surface text in the new chart's (u, v), the
# same map on arrays, rounded as the jets evaluate that text, and its inverse
CHARTS = {
    "swap": ("v", "u", lambda s, t: (t, s), lambda u, v: (v, u)),
    # g12 = 0.5 g11 + g12 of the old chart: nonzero on the orthogonal charts
    "shear": ("u + 0.5*v", "v", lambda s, t: (s + 0.5 * t, t), lambda u, v: (u - 0.5 * v, v)),
    # monotone and nonlinear: the second derivatives of the chart enter the forms
    "cubic": ("u + 0.1*u^3", "v", lambda s, t: (s + 0.1 * np.power(s, 3.0), t),
              lambda u, v: (_cubic_inverse(u), v)),
    # nonlinear and mixing u with v: B12 of the new chart holds B11 of the old
    "mixed": ("u + 0.05*u*v", "v", lambda s, t: (s + 0.05 * s * t, t),
              lambda u, v: (u / (1.0 + 0.05 * v), v)),
}


def _cubic_inverse(u, steps=8):
    """s with s + 0.1 s^3 = u, by Newton steps from s = u; monotone, so one root."""
    s = u
    for _ in range(steps):
        s = s - (s + 0.1 * s**3 - u) / (1.0 + 0.3 * s**2)
    return s
CHART_FIELDS = {
    "axial": AXIAL,
    "oblique": FlatFront((0.3, 0.1, -1.0)),
    "point": PointSource((0.3, 0.2, 3.0)),
}


def rechart(ast, u_text, v_text):
    """The surface r(u_text, v_text): the chart substituted into the surface text."""
    subs = {"u": f"({u_text})", "v": f"({v_text})"}
    return parse_surface(re.sub(r"\b[uv]\b", lambda m: subs[m.group()], to_text(ast)),
                         ast.params)


def _sheet_block_at(ast, field, U, V):
    """_sheet_block's (r, b) as (..., 3) arrays, its flags and its two sheets' k*."""
    r, b, flags, k1, k2 = caustics._sheet_block(ast, field, U, V, EPS_GRAZING_DEFAULT)
    return (stack_planes(r, U.shape), stack_planes(b, U.shape),
            np.broadcast_to(flags, U.shape), k1, k2)


def _assert_chart_invariant(name, chart):
    ast, (u0, u1, v0, v1) = build_surface(name)
    U, V = np.meshgrid(np.linspace(u0, u1, 37), np.linspace(v0, v1, 29), indexing="ij")
    u_text, v_text, to_old, to_new = CHARTS[chart]
    new = rechart(ast, u_text, v_text)
    # points of the new chart near (U, V) of the old one, and those old
    # points as the new chart's text computes them, bit for bit
    S, T = to_new(U, V)
    U_old, V_old = to_old(S, T)
    for field_name, field in CHART_FIELDS.items():
        want = _sheet_block_at(ast, field, U_old, V_old)
        got = _sheet_block_at(new, field, S, T)
        where = f"{chart}, {field_name}"
        assert np.array_equal(got[0], want[0]), where
        assert np.allclose(got[1], want[1], rtol=0.0, atol=1e-13), where
        assert np.array_equal(got[2], want[2]), where
        lit = want[2] == 0
        scale = np.maximum(np.abs(want[3]), np.abs(want[4]))[lit]
        for g, w in zip(got[3:], want[3:]):
            assert np.array_equal(np.isnan(g), ~lit), where
            assert np.all(np.abs(g[lit] - w[lit]) <= 1e-10 * scale), where


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_sheet_block_is_chart_invariant(name):
    for chart in CHARTS:
        _assert_chart_invariant(name, chart)


def test_mixed_chart_catches_a_zeroed_b12():
    # planted bug: B12 := 0, which the cross-check cannot see (the modified
    # forms read the same B12); the built-ins' charts have B12 = 0 almost
    # everywhere, so only a chart that mixes u and v can show it
    real = caustics.fundamental_forms

    def zero_b12(frame):
        return real(dataclasses.replace(frame, r_uv=(0.0, 0.0, 0.0)))

    with mock.patch.object(caustics, "fundamental_forms", zero_b12):
        for name in sorted(BUILTINS):
            with pytest.raises(AssertionError, match="mixed"):
                _assert_chart_invariant(name, "mixed")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_sheets_do_not_depend_on_which_chart_axis_is_u(name):
    # the grid level of a u <-> v swap: r(v, u) on the transposed grid holds
    # the same sheets, point for point and label for label
    ast, (u0, u1, v0, v1) = build_surface(name)
    swapped = rechart(ast, "v", "u")
    fields = {**CHART_FIELDS, "near-point": PointSource((0.2, 0.1, 0.1))}
    for field_name, field in fields.items():
        *want, roots = compute_caustic_sheets(ast, field, GridSpec(37, 29, (u0, u1, v0, v1)))
        *got, _ = compute_caustic_sheets(swapped, field, GridSpec(29, 37, (v0, v1, u0, u1)))
        for sheet_id, (g, w) in enumerate(zip(got, want), start=1):
            where = f"{field_name}, sheet {sheet_id}"
            assert np.array_equal(g.flags.T, w.flags), where
            points = g.points.transpose(0, 2, 1)[:, w.valid]
            scale = np.maximum(np.linalg.norm(w.points[:, w.valid], axis=0),
                               roots.surface_diameter)
            assert np.all(np.linalg.norm(points - w.points[:, w.valid], axis=0) <= 1e-8 * scale), \
                where
        both = np.isfinite(roots.k1) & np.isfinite(roots.k2)
        assert np.all(roots.k1[both] <= roots.k2[both]), field_name


# the grid level of an affine chart: a paraboloid, regular everywhere and
# with B12 = 0 on its own chart, re-charted by (u, v) -> (u + 0.5 v, v) + c,
# whose B12 is 0.5 B11 of the original; the map on arrays rounds as the jets
# evaluate its text
AFFINE_MIRROR = "[u, v, 0.3*u^2 + 0.7*v^2]"
AFFINE_CHART = ("u + 0.5*v + 0.1", "v - 0.2", lambda s, t: (s + 0.5 * t + 0.1, t - 0.2))
AFFINE_DOMAIN = (-0.5, 0.5, -1.0, 1.0)
AFFINE_FIELD = PointSource((0.3, 0.2, 3.0))


def assert_affine_chart_invariant(nu, nv):
    """compute on the affine chart's nu x nv grid places the sheets that
    _sheet_block and caustic_point place on the original chart at the mapped
    (u, v), and validate passes on the affine chart."""
    ast = parse_surface(AFFINE_MIRROR)
    u_text, v_text, to_old = AFFINE_CHART
    new = rechart(ast, u_text, v_text)
    grid = GridSpec(nu, nv, AFFINE_DOMAIN)
    *sheets, roots = compute_caustic_sheets(new, AFFINE_FIELD, grid, max_radius=np.inf)
    r, b, flags, *ks = caustics._sheet_block(ast, AFFINE_FIELD, *to_old(*grid.mesh()),
                                              EPS_GRAZING_DEFAULT)
    scale = np.maximum(np.abs(ks[0]), np.abs(ks[1]))
    for sheet, k_star, k in zip(sheets, (roots.k1, roots.k2), ks):
        xi, want_flags = caustic_point(r, b, k, AFFINE_FIELD, base_flags=flags)
        assert np.array_equal(sheet.flags, want_flags) and np.all(sheet.valid)
        assert np.all(np.abs(k_star - k) <= 1e-10 * scale)
        # a relative error of k* moves the point by that fraction of its radius
        assert np.all(np.linalg.norm(sheet.points - np.stack(xi), axis=0)
                      <= 1e-10 * np.abs(caustic_radius(k)))
    assert validate_sheets(caustic_roots(new, AFFINE_FIELD, grid)).passed


def test_sheets_do_not_depend_on_an_affine_chart():
    assert_affine_chart_invariant(40, 30)


# between-row label breaks at 100^2 (ROADMAP item 1's metric): an upper
# bound each, the count of the sorted pair, which breaks where a root passes
# through +-inf; the point-source ellipsoid has no such root
LABEL_BREAK_BOUNDS = {
    "ellipsoid-oblique": ("ellipsoid", FlatFront((0.3, 0.2, -1.0)), 100),
    "revolution-oblique": ("revolution", FlatFront((0.3, 0.1, -1.0)), 28),
    "sphere-oblique": ("sphere", FlatFront((0.3, 0.1, -1.0)), 28),
    "hyperbolic-paraboloid-point": ("hyperbolic-paraboloid", PointSource((0.2, 0.1, 0.1)), 149),
    "ellipsoid-point": ("ellipsoid", PointSource((0.2, 0.1, 0.1)), 0),
}


@pytest.mark.parametrize("name, field, bound", LABEL_BREAK_BOUNDS.values(),
                         ids=LABEL_BREAK_BOUNDS.keys())
def test_sheet_labels_rarely_break_between_rows(name, field, bound):
    ast, dom = build_surface(name)
    roots = compute_caustic_sheets(ast, field, GridSpec(100, 100, dom), max_radius=np.inf)[2]
    assert label_breaks(roots.k1, roots.k2, roots.surface_diameter, axis=0) <= bound


def _sign_free_quantities(frame, refl, sign):
    """cos theta and, by name, what the caustic reads at frame's points; H times sign."""
    forms = fundamental_forms(frame)
    refl = reflection_data(frame, refl.a, refl.r_dist)
    mods = modified_forms(forms, refl)
    p, q = caustic_coefficients(forms, refl)
    return refl.cos_theta, {
        "b_x": refl.b[0], "b_y": refl.b[1], "b_z": refl.b[2],
        "Bs11": mods.Bs11, "Bs12": mods.Bs12, "Bs22": mods.Bs22,
        "p": p, "q": q, "K": forms.K, "sign H": sign * forms.H,
        "|cos theta|": np.abs(refl.cos_theta)}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_pipeline_is_free_of_the_normal_s_sign(name):
    # the mirror is two-sided: under n -> -n every quantity the caustic reads
    # keeps its value; where cos theta = +0 both ways (a grazing point, which
    # FLAG_GRAZING masks) p = +-inf takes n's sign, so those points are skipped
    ast, dom = build_surface(name)
    U, V = GridSpec(31, 29, dom).mesh()
    for field in (FlatFront((0.3, 0.2, -1.0)), PointSource((0.2, 0.1, 0.1))):
        frame, refl, _ = caustics._ray_block(ast, field, U, V, EPS_GRAZING_DEFAULT)
        negated = dataclasses.replace(frame, n=tuple(-x for x in frame.n))
        cos, want = _sign_free_quantities(frame, refl, 1.0)
        _, got = _sign_free_quantities(negated, refl, -1.0)
        compared = np.broadcast_to(cos != 0.0, U.shape)
        assert np.count_nonzero(compared) > 0.9 * U.size
        for label, w in want.items():
            # equal as floats: bit for bit apart from the sign of a zero, which a
            # product with a vanishing B_ij takes from n (B*_12 = -2 cos theta * 0)
            g, w = (np.broadcast_to(x, U.shape)[compared] for x in (got[label], w))
            assert np.array_equal(g, w), f"{type(field).__name__}, {label}"
