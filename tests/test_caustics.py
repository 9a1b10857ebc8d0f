"""Reflection law, modified forms, characteristic quadratic, caustic points."""

import dataclasses
import inspect
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catacaustics import (FlatFront, GridSpec, PointSource, build_surface,
                          caustic_coefficients, caustic_point,
                          compute_caustic_sheets, eval_surface, frame_at,
                          fundamental_forms, incident_direction,
                          modified_forms, parse_surface, reflect_direction,
                          reflected_front_point, reflection_data,
                          solve_sheet_curvatures)
from catacaustics import caustics
from catacaustics.caustics import (_CROSSCHECK_RTOL, FLAG_AT_INFINITY,
                                   FLAG_EXCLUDED_ZERO_ROOT,
                                   InternalConsistencyError,
                                   SourceOnSurfaceError, _column_extrema,
                                   _order_roots_by_continuity,
                                   _stable_quadratic_roots, row_blocks)
from catacaustics.diffgeo import DegenerateSurfaceError, normal_curvature
from catacaustics.surfacelang import EvalDomainError
from catacaustics.surfaces import BUILTINS
from conftest import (BLOCK_SCENES, GRAPH_DOMAIN, HUGE_BLOCK, block_sizes,
                      random_field, random_graph_surface,
                      traced_peak_per_point)

SPHERE = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"
AXIAL = FlatFront((0.0, 0.0, 1.0))


def _pipeline(text, field, u, v, params=None):
    jet = eval_surface(parse_surface(text, params), u, v)
    r = jet.value()
    a = incident_direction(field, r)
    frame = frame_at(jet, a)
    forms = fundamental_forms(frame)
    refl = reflection_data(frame, a, field)
    return frame, forms, refl


class TestIncidentDirection:
    def test_flat_is_constant(self):
        a = incident_direction(AXIAL, np.array([3.0, -1.0, 2.0]))
        assert np.allclose(a, [0, 0, 1])

    def test_point_source_at_origin_on_unit_sphere(self):
        r = np.array([np.cos(0.5), 0.0, np.sin(0.5)])
        a = incident_direction(PointSource((0, 0, 0)), r)
        assert np.allclose(a, r, atol=1e-15)

    def test_point_source_off_origin(self):
        a = incident_direction(PointSource((0, 0, 0.1)), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(a, [0, 0, 1])

    def test_source_on_surface_is_error(self):
        with pytest.raises(SourceOnSurfaceError):
            incident_direction(PointSource((1, 2, 3)), np.array([1.0, 2.0, 3.0]))


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
            mods = modified_forms(forms, refl, AXIAL)
            assert np.allclose([mods.gs11, mods.gs12, mods.gs22], [1.0, 0.0, 1.0], atol=1e-13)
            W2 = 1.0 + u**2 + v**2
            assert mods.Bs11 == pytest.approx(-2.0 / W2, rel=1e-12)
            assert mods.Bs22 == pytest.approx(+2.0 / W2, rel=1e-12)
            assert mods.Bs12 == pytest.approx(0.0, abs=1e-13)

    def test_plane_mirror_keeps_rays_parallel(self):
        frame, forms, refl = _pipeline("[u, v, 0]", FlatFront((0.2, 0.1, -1.0)), 0.7, 0.7)
        mods = modified_forms(forms, refl, FlatFront((0.2, 0.1, -1.0)))
        assert np.allclose([mods.Bs11, mods.Bs12, mods.Bs22], 0.0, atol=1e-15)

    def test_central_source_sphere_weingarten_is_identity(self):
        field = PointSource((0.0, 0.0, 0.0))
        frame, forms, refl = _pipeline(SPHERE, field, 0.7, 0.4)
        mods = modified_forms(forms, refl, field)
        assert np.allclose(mods.weingarten, np.eye(2), atol=1e-12)

    def test_det_identity_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ast = random_graph_surface(rng)
            field = random_field(rng)
            u, v = rng.uniform(-0.9, 0.9, size=2)
            jet = eval_surface(ast, u, v)
            a = incident_direction(field, jet.value())
            frame = frame_at(jet, a)
            forms = fundamental_forms(frame)
            refl = reflection_data(frame, a, field)
            mods = modified_forms(forms, refl, field)
            want = forms.det_g * refl.cos_theta**2
            assert mods.det_gs == pytest.approx(want, rel=1e-10)


class TestCausticCoefficients:
    def test_sphere_half_angle(self):
        u = np.pi / 6  # cos theta = -1/2
        frame, forms, refl = _pipeline(SPHERE, AXIAL, u, 0.0)
        p, q = caustic_coefficients(forms, refl, AXIAL)
        assert p == pytest.approx(-5.0, rel=1e-12)
        assert q == pytest.approx(4.0, rel=1e-12)

    def test_cylinder_has_zero_constant_term(self):
        field = FlatFront((1.0, 0.0, 0.0))
        frame, forms, refl = _pipeline("[cos(u), sin(u), v]", field, 0.4, 0.2)
        p, q = caustic_coefficients(forms, refl, field)
        assert q == 0.0
        assert p == pytest.approx(2.0 / refl.cos_theta, rel=1e-12)

    def test_central_source_sphere(self):
        field = PointSource((0.0, 0.0, 0.0))
        frame, forms, refl = _pipeline(SPHERE, field, 0.9, 2.2)
        p, q = caustic_coefficients(forms, refl, field)
        assert p == pytest.approx(-4.0, rel=1e-12)
        assert q == pytest.approx(4.0, rel=1e-12)


class TestSolveSheetCurvatures:
    def test_sphere_roots_and_product_identity(self):
        u = np.pi / 6
        frame, forms, refl = _pipeline(SPHERE, AXIAL, u, 0.0)
        mods = modified_forms(forms, refl, AXIAL)
        coeffs = caustic_coefficients(forms, refl, AXIAL)
        k_a, k_b, residual = solve_sheet_curvatures(mods, coeffs, AXIAL)
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
        cp1 = caustic_point(r, b, 1.0, sheet_id=1)
        assert np.allclose(cp1.xi, [0, 0, 1], atol=1e-15)
        cp2 = caustic_point(r, b, 4.0, sheet_id=2)
        assert np.allclose(cp2.xi, [3 * np.sqrt(3) / 8, 0, 5 / 8], atol=1e-15)
        assert cp1.valid.all() if cp1.valid.shape else cp1.valid

    def test_hyperbolic_paraboloid_both_sheets(self):
        field = AXIAL
        frame, forms, refl = _pipeline("[u, v, u^2/2 - v^2/2]", field, 1.0, 1.0)
        mods = modified_forms(forms, refl, field)
        k_a, k_b, _ = solve_sheet_curvatures(mods, caustic_coefficients(forms, refl, field), field)
        lo, hi = sorted([float(k_a), float(k_b)])
        xi_lo = caustic_point(frame.r, refl.b, lo).xi
        xi_hi = caustic_point(frame.r, refl.b, hi).xi
        assert np.allclose(xi_lo, [0, 2, -0.5], atol=1e-13)
        assert np.allclose(xi_hi, [2, 0, 0.5], atol=1e-13)

    def test_zero_root_flags_by_field_kind(self):
        r = np.zeros(3)
        b = np.array([0.0, 0.0, 1.0])
        flat = caustic_point(r, b, 1e-12, field=FlatFront((0, 0, 1)))
        assert flat.at_infinity and not flat.valid
        assert np.isinf(flat.radius)
        point = caustic_point(r, b, 1e-12, field=PointSource((0, 0, 5)))
        assert point.excluded_zero_root and not point.valid


class TestReflectedFrontPoint:
    def test_front_touches_mirror_at_launch(self):
        r = np.array([0.3, 0.4, 0.5])
        a = np.array([0.0, 0.0, 1.0])
        fp = reflected_front_point(r, a, np.array([1.0, 0.0, 0.0]), L=float(r[2]))
        assert fp.lam == 0.0
        assert np.allclose(fp.rho, r)

    def test_sphere_front_at_L_1_5(self):
        u = np.pi / 6
        r = np.array([np.cos(u), 0.0, np.sin(u)])
        b = np.array([-np.sqrt(3) / 2, 0.0, 0.5])
        fp = reflected_front_point(r, (0.0, 0.0, 1.0), b, L=1.5)
        assert fp.lam == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(fp.rho, [0, 0, 1], atol=1e-15)

    def test_plane_mirror_re_emits_flat_front(self):
        us = np.linspace(-1, 1, 5)
        U, V = np.meshgrid(us, us, indexing="ij")
        jet = eval_surface(parse_surface("[u, v, 0]"), U, V)
        r = jet.value()
        a = np.array([0.0, 0.0, -1.0])
        frame = frame_at(jet, a)
        b = reflect_direction(a, frame.n)
        fp = reflected_front_point(r, a, b, L=2.0)
        assert np.allclose(fp.rho[2], 2.0)
        assert np.all(fp.arrived)

    def test_not_arrived_is_flagged_not_raised(self):
        fp = reflected_front_point(np.array([0.0, 0.0, 5.0]), (0.0, 0.0, 1.0),
                                   np.array([0.0, 0.0, -1.0]), L=1.0)
        assert not fp.arrived


class TestComputeCausticSheets:
    def test_hemisphere_axis_line_degeneracy(self):
        ast, _ = build_surface("sphere")
        grid = GridSpec(30, 30, (0.2, 1.4, 0.0, 6.283185307179586))
        s1, s2, stats = compute_caustic_sheets(ast, AXIAL, grid)
        ext = stats.sheets[0].bbox_max - stats.sheets[0].bbox_min
        assert ext[0] < 1e-9 and ext[1] < 1e-9
        assert stats.sheets[0].principal_extents[1] < 1e-9

    def test_elliptic_paraboloid_focal_point(self):
        ast, dom = build_surface("elliptic-paraboloid")
        grid = GridSpec(25, 25, dom)
        s1, s2, stats = compute_caustic_sheets(ast, AXIAL, grid)
        for s in stats.sheets:
            assert s.diameter < 1e-9
        assert np.allclose(s1.xi[s1.valid], [0, 0, 0.5], atol=1e-12)

    def test_central_source_sphere_collapses_to_origin(self):
        ast, _ = build_surface("sphere")
        grid = GridSpec(20, 20, (0.2, 1.4, 0.0, 6.283185307179586))
        s1, s2, stats = compute_caustic_sheets(ast, PointSource((0, 0, 0)), grid)
        assert np.nanmax(np.abs(s1.xi)) < 1e-12
        assert np.nanmax(np.abs(s2.xi)) < 1e-12

    def test_cylinder_one_sheet_at_infinity(self):
        ast, dom = build_surface("cylinder")
        grid = GridSpec(15, 8, dom)
        s1, s2, stats = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), grid)
        flat_sheet, finite_sheet = (s1, s2) if np.all(s1.flags & FLAG_AT_INFINITY) else (s2, s1)
        assert np.all(flat_sheet.flags & FLAG_AT_INFINITY)
        assert np.all(finite_sheet.valid)

    def test_grazing_points_masked_not_errors(self):
        # plane lit edge-on: every point grazes
        ast = parse_surface("[u, v, 0]")
        grid = GridSpec(5, 5, (-1, 1, -1, 1))
        s1, s2, stats = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), grid)
        assert stats.n_grazing == 25
        assert stats.empty

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


class TestRootIdentities:
    def test_flat_front_sum_and_product(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            ast = random_graph_surface(rng)
            field = FlatFront((rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0))
            u, v = rng.uniform(-0.9, 0.9, size=2)
            jet = eval_surface(ast, u, v)
            a = incident_direction(field, jet.value())
            frame = frame_at(jet, a)
            forms = fundamental_forms(frame)
            refl = reflection_data(frame, a, field)
            mods = modified_forms(forms, refl, field)
            p, q = caustic_coefficients(forms, refl, field)
            k_a, k_b, _ = solve_sheet_curvatures(mods, (p, q), field)
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
                X = np.linalg.solve(g, [float(refl.w1), float(refl.w2)])
                B_at_at = 0.5 * c * (float(p) - 4.0 * float(forms.H) * c)
                assert B_at_at == pytest.approx(
                    float(normal_curvature(forms, X)) * s2, rel=1e-9, abs=1e-12)


def order_roots_reference(k_a, k_b, usable):
    """The per-point double loop that _order_roots_by_continuity replaced."""
    lo = np.minimum(k_a, k_b)
    hi = np.maximum(k_a, k_b)
    s1 = np.full_like(k_a, np.nan)
    s2 = np.full_like(k_a, np.nan)
    nu, nv = k_a.shape
    for i in range(nu):
        prev = None
        for j in range(nv):
            if not usable[i, j]:
                continue
            x, y = lo[i, j], hi[i, j]
            if prev is None:
                first, second = x, y
            else:
                keep = abs(x - prev[0]) + abs(y - prev[1])
                swap = abs(y - prev[0]) + abs(x - prev[1])
                first, second = (x, y) if keep <= swap else (y, x)
            s1[i, j] = first
            s2[i, j] = second
            prev = (first, second)
    return s1, s2


# rounded values make ties between keeping and swapping a pair common
root_values = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                        st.floats(-4.0, 4.0).map(lambda x: round(x, 1)),
                        st.floats(-1e6, 1e6))


@st.composite
def root_grids(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 9)))
    k_a = draw(arrays(np.float64, shape, elements=root_values))
    k_b = draw(arrays(np.float64, shape, elements=root_values))
    usable = draw(arrays(np.bool_, shape))
    return k_a, k_b, usable


@given(root_grids())
@settings(max_examples=200, deadline=None)
def test_order_roots_matches_reference_loop(grid):
    with np.errstate(invalid="ignore"):
        want = order_roots_reference(*grid)
    got = _order_roots_by_continuity(*grid)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


def test_row_blocks_cover_every_row_once():
    for nu, nv in [(1, 5), (23, 17), (7, 1), (10, 3)]:
        for size in block_sizes(nv) + [HUGE_BLOCK]:
            with mock.patch.object(caustics, "BLOCK_POINTS", size):
                blocks = row_blocks(nu, nv)
            rows = [i for block in blocks for i in range(nu)[block]]
            assert rows == list(range(nu))
            assert all((b.stop - b.start) * nv <= max(size, nv) for b in blocks)


@pytest.mark.parametrize("name, field, shape", BLOCK_SCENES)
def test_block_size_does_not_change_the_sheets(name, field, shape):
    ast, dom = build_surface(name)
    grid = GridSpec(*shape, dom)
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        *want, want_stats = compute_caustic_sheets(ast, field, grid)
    for size in block_sizes(grid.nv):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            assert len(row_blocks(grid.nu, grid.nv)) > 1
            *got, stats = compute_caustic_sheets(ast, field, grid)
        assert stats.to_text() == want_stats.to_text()
        for g, w in zip(got, want):
            assert np.array_equal(g.k_star, w.k_star, equal_nan=True)
            assert np.array_equal(g.xi, w.xi, equal_nan=True)
            assert np.array_equal(g.flags, w.flags)


def test_degenerate_rows_in_later_blocks_report_the_whole_grid():
    # r_u = r_v wherever d/du (u (u - 1/2))^2 = 0: rows u = 0, 1/4, 1/2
    ast = parse_surface("[u + v, (u+v)^2 + (u*(u-0.5))^2, (u+v)^3 + (u*(u-0.5))^2]")
    grid = GridSpec(9, 6, (-1.0, 1.0, -1.0, 1.0))
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        with pytest.raises(DegenerateSurfaceError) as whole:
            compute_caustic_sheets(ast, AXIAL, grid)
    assert "at 18 point(s)" in str(whole.value)
    # two rows per block: the singular rows 4, 5 and 6 sit in blocks 2 and 3
    with mock.patch.object(caustics, "BLOCK_POINTS", 2 * grid.nv):
        with pytest.raises(DegenerateSurfaceError) as blocked:
            compute_caustic_sheets(ast, AXIAL, grid)
    assert str(blocked.value) == str(whole.value)


def test_vanishing_partial_is_degenerate_not_grazing():
    # r_v = 0 along u = 0: the regularity test once read 0 >= 0 there and
    # flagged the row grazing, with invalid-value warnings from det g = 0
    ast = parse_surface("[u*cos(v), u*sin(v), u^2/2]")
    grid = GridSpec(5, 8, (0.0, 1.0, 0.0, 2.0 * np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateSurfaceError) as err:
            compute_caustic_sheets(ast, AXIAL, grid)
    message = str(err.value)
    assert "at 8 point(s)" in message
    assert "first at grid index (0, 0)" in message


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
    u, v = grid.block(rows)
    assert u.shape == (rows.stop - rows.start, 1) and v.shape == (1, nv)
    want = _slot_bits(eval_surface(ast, U[rows] + du, V[rows] + dv), U[rows].shape)
    got = _slot_bits(eval_surface(ast, u + du, v + dv), U[rows].shape)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_compute_working_set_is_bounded():
    ast, dom = build_surface("revolution")
    grid = GridSpec(300, 300, dom)
    per_point, _ = traced_peak_per_point(
        lambda: compute_caustic_sheets(ast, AXIAL, grid), grid.nu * grid.nv)
    assert per_point <= 400, f"{per_point:.0f} B per grid point"


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
    return lambda forms, refl, field: real(forms, refl, AXIAL)


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
    # a nearly flat, nearly umbilic mirror: |p| ~ 4e-4, so the clamp of a
    # discriminant below 2e-13 moves the root product by up to 1e-7 of itself
    field = FlatFront((0.01, 0.02, 1.0))
    U, V = GridSpec(41, 41, (-1.0, 1.0, -1.0, 1.0)).mesh()
    frame, forms, refl = _pipeline("[u, v, cx*u^2 + cy*v^2]", field, U, V,
                                   {"cx": 1e-4, "cy": 1.00001e-4})
    p, q = caustic_coefficients(forms, refl, field)
    assert np.all(_stable_quadratic_roots(p, q)[2])
    mods = modified_forms(forms, refl, field)
    assert solve_sheet_curvatures(mods, (p, q), field)[2] <= _CROSSCHECK_RTOL / 100


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
    try:
        compute_caustic_sheets(ast, field, GridSpec(n, n, dom))
    except (SourceOnSurfaceError, DegenerateSurfaceError, EvalDomainError):
        pass  # input errors; InternalConsistencyError must not occur


def test_near_grazing_routes_differ_only_by_the_conditioning():
    # the one point of `validate --surface revolution --flat 0.3,0.1,-1
    # --grid 100,100` where the roots and the float eigenvalues of W* differed
    # by more than 1e-8 relative: |cos theta| = 1.8e-4, roots -1.1e4 and -1.2e-4
    field = FlatFront((0.3, 0.1, -1.0))
    ast, dom = build_surface("revolution")
    U, V = GridSpec(100, 100, dom).mesh()
    jet = eval_surface(ast, U[10, 2], V[10, 2])
    a = incident_direction(field, jet.value())
    frame = frame_at(jet, a)
    forms = fundamental_forms(frame)
    refl = reflection_data(frame, a, field)
    mods = modified_forms(forms, refl, field)
    p, q = caustic_coefficients(forms, refl, field)
    cos = float(refl.cos_theta)
    assert cos == pytest.approx(-1.8e-4, rel=1e-2)
    roots = sorted([float(k) for k in solve_sheet_curvatures(mods, (p, q), field)[:2]])
    eigs = sorted(np.linalg.eigvals(mods.weingarten).real)

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
    lo, hi = _column_extrema(pts)
    with np.errstate(invalid="ignore"):
        want_lo, want_hi = pts.min(axis=0), pts.max(axis=0)
    assert lo.view(np.uint64).tolist() == want_lo.view(np.uint64).tolist()
    assert hi.view(np.uint64).tolist() == want_hi.view(np.uint64).tolist()
