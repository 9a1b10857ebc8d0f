"""Brute-force ray-envelope oracle and sheet validation."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catacaustics import (FlatFront, GridSpec, PointSource, build_surface,
                          caustic_roots, compute_caustic_sheets, eval_surface,
                          parse_surface, validate_sheets)
from catacaustics import caustics, oracle
from catacaustics.caustics import (EPS_GRAZING_DEFAULT, FLAG_CLIPPED,
                                   FLAG_GRAZING, FLAG_VALID, _ray_block,
                                   default_max_radius)
from catacaustics.diffgeo import REGULARITY_RTOL
from catacaustics.oracle import (FD_STEP_DEFAULT, _focal_quadratic, _norm_planes,
                                 _roots_of_focal_quadratic)
from catacaustics.surfacelang import EvalDomainError
from catacaustics.surfaces import BUILTINS
from conftest import (BLOCK_SCENES, DEFECT_SURFACES, GRAPH_DOMAIN, HUGE_BLOCK,
                      block_sizes, random_field, random_graph_surface,
                      scene_surface, stack_planes, traced_peak_per_point)

SPHERE_TEXT = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"
AXIAL = FlatFront((0.0, 0.0, 1.0))


def reflected_ray(ast, field, u, v):
    """(origin, direction) of the reflected ray at one lit parameter point."""
    frame, refl, flags = _ray_block(ast, field, u, v, EPS_GRAZING_DEFAULT)
    assert flags == 0
    return np.array(frame.r), np.array(refl.b)


def focal_distances(ast, field, u, v, h=FD_STEP_DEFAULT):
    """The two oracle focal distances at one lit parameter point."""
    coeffs, _, _, ok, _ = _focal_quadratic(ast, field, u, v, h, EPS_GRAZING_DEFAULT)
    assert ok
    lam_a, lam_b = _roots_of_focal_quadratic(*coeffs)
    return float(lam_a), float(lam_b)


class TestReflectedRay:
    def test_sphere_point(self):
        ast = parse_surface(SPHERE_TEXT)
        origin, direction = reflected_ray(ast, AXIAL, np.pi / 6, 0.0)
        assert np.allclose(origin, [np.sqrt(3) / 2, 0, 0.5], atol=1e-15)
        assert np.allclose(direction, [-np.sqrt(3) / 2, 0, 0.5], atol=1e-15)

    def test_plane_normal_incidence_retroreflects(self):
        ast = parse_surface("[u, v, 0]")
        _, direction = reflected_ray(ast, FlatFront((0, 0, -1)), 0.2, 0.7)
        assert np.allclose(direction, [0, 0, 1])

    def test_central_source_reflects_back(self):
        ast = parse_surface(SPHERE_TEXT)
        origin, direction = reflected_ray(ast, PointSource((0, 0, 0)), 0.8, 1.0)
        assert np.allclose(direction, -origin, atol=1e-14)

    def test_grazing_point_is_unlit(self):
        ast = parse_surface("[u, v, 0]")
        _, _, flags = _ray_block(ast, FlatFront((1, 0, 0)), 0.0, 0.0, EPS_GRAZING_DEFAULT)
        assert flags == FLAG_GRAZING


class TestFocalDistances:
    def test_sphere_matches_inverse_roots(self):
        ast = parse_surface(SPHERE_TEXT)
        lam = sorted(focal_distances(ast, AXIAL, np.pi / 6, 0.0, h=1e-4))
        assert lam[0] == pytest.approx(0.25, abs=1e-5)
        assert lam[1] == pytest.approx(1.0, abs=1e-5)

    def test_plane_mirror_never_focuses(self):
        ast = parse_surface("[u, v, 0]")
        lam = focal_distances(ast, AXIAL, 0.1, 0.2)
        assert np.isinf(lam[0]) and np.isinf(lam[1])

    def test_central_source_focuses_at_origin(self):
        ast = parse_surface(SPHERE_TEXT)
        lam = focal_distances(ast, PointSource((0, 0, 0)), 0.7, 0.3)
        assert lam[0] == pytest.approx(1.0, abs=1e-5)
        assert lam[1] == pytest.approx(1.0, abs=1e-5)

    def test_vieta_self_consistency(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 30:
            ast = random_graph_surface(rng)
            field = random_field(rng)
            U = rng.uniform(-0.8, 0.8)
            V = rng.uniform(-0.8, 0.8)
            coeffs, _, _, ok, _ = _focal_quadratic(ast, field, U, V, 1e-4, 1e-6)
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
        return validate_sheets(caustic_roots(ast, field, grid), **kw)

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
        w = np.stack([2 * fx, 2 * hy, -1 + fx**2 + hy**2])
        r = np.stack([U, V, c1 * U**2 + c2 * V**2])
        xi_f = r - w / (2 * fxx)
        xi_h = r - w / (2 * hyy)
        # match computed sheets to the displayed pair point-by-point
        d_keep = np.linalg.norm(s1.points - xi_f, axis=0) + np.linalg.norm(s2.points - xi_h, axis=0)
        d_swap = np.linalg.norm(s1.points - xi_h, axis=0) + np.linalg.norm(s2.points - xi_f, axis=0)
        assert np.all(np.minimum(d_keep, d_swap) <= 2e-9)
        report = validate_sheets(caustic_roots(ast, AXIAL, grid))
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

    def test_convergence_is_second_order(self):
        rng = np.random.default_rng(29)
        ast = random_graph_surface(rng)
        field = FlatFront((0.1, -0.05, 1.0))
        grid = GridSpec(15, 15, GRAPH_DOMAIN)
        roots = caustic_roots(ast, field, grid)
        errs = [validate_sheets(roots, h=h).max_error
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
    ast, dom = scene_surface(name)
    grid = GridSpec(*shape, dom)
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        roots = caustic_roots(ast, field, grid)
        sheet_roots = compute_caustic_sheets(ast, field, grid)[2]
        want = validate_sheets(roots)
    assert want.n_compared
    assert want.max_radius == roots.max_radius == sheet_roots.max_radius
    assert want.max_radius == default_max_radius(sheet_roots.surface_diameter)
    for size in block_sizes(grid.nv):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            # either pass in blocks: the oracle's on the roots of one block, and both
            got = [validate_sheets(roots), validate_sheets(caustic_roots(ast, field, grid))]
        for g in got:
            assert g.to_text() == want.to_text()
            assert repr(g) == repr(want)


# validate's mean_error to the bit: the mean sums the compared points one
# sheet after the other, and summed point-major the last bit of either scene
# moves; (flat front, grid shape, mean_error.hex())
MEAN_ERROR_HEX = {
    "torus-axial-60": ((0.0, 0.0, 1.0), (60, 60), "0x1.a813a08617913p-31"),
    "torus-tilted-80x70": ((0.1, 0.2, 1.0), (80, 70), "0x1.c7216f2fa1ed8p-27"),
}


def mean_error_hex(scene) -> str:
    """mean_error.hex() of oracle.validate_sheets on a MEAN_ERROR_HEX scene."""
    direction, shape, _ = MEAN_ERROR_HEX[scene]
    ast, dom = build_surface("revolution")
    roots = caustic_roots(ast, FlatFront(direction), GridSpec(*shape, dom))
    return oracle.validate_sheets(roots).mean_error.hex()


@pytest.mark.parametrize("scene", MEAN_ERROR_HEX)
def test_mean_error_bits_are_pinned(scene):
    assert mean_error_hex(scene) == MEAN_ERROR_HEX[scene][2]


# +-0, subnormal, normal, overflowing, infinite and NaN entries
_NORM_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.0, -1.5,
                  1e154, 1.7e308, np.inf, -np.inf, np.nan, -np.nan]


@pytest.mark.parametrize("stacked", [
    np.random.default_rng(2501).standard_normal((2, 150, 150, 3))
    * 10.0 ** np.random.default_rng(2502).integers(-8, 8, (2, 150, 150, 1)),
    np.array(list(itertools.product(_NORM_SPECIALS, repeat=3))),
], ids=["random", "specials"])
def test_plane_norm_is_bitwise_linalg_norm(stacked):
    # the other two sum orders of the squares each differ on ~10% of random values
    def bits(x):  # NaN payloads carry no information
        return np.where(np.isnan(x), np.nan, x).view(np.uint64)

    with np.errstate(all="ignore"):
        got = _norm_planes(np.moveaxis(stacked, -1, 0))
        want = np.linalg.norm(stacked, axis=-1)
    assert np.array_equal(bits(got), bits(want))


def test_validate_working_set_is_bounded():
    # the whole validate, both passes: the roots pass holds k1, k2 and the flag
    # byte (17 B per point) plus one block's temporaries, the oracle's pass adds
    # err and both (18 B) plus one block's; ~72 B per point here.  The oracle
    # on the whole sheets of compute_caustic_sheets, whose roots pass held r
    # and b too, read ~123
    ast, dom = build_surface("revolution")
    grid = GridSpec(500, 500, dom)
    per_point, report = traced_peak_per_point(
        lambda: validate_sheets(caustic_roots(ast, AXIAL, grid)), grid.nu * grid.nv)
    assert report.passed
    assert per_point <= 90, f"{per_point:.0f} B per grid point"


# -- the oracle's stencil on (..., 3) arrays, the reference for the planes ---

def stacked_dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def stacked_norm(x):
    return np.sqrt(stacked_dot(x, x))


def rays_reference(r, ru, rv, field, eps_grazing, outside=False):
    """Rays at stacked (..., 3) points and partials, with np.cross and einsum.

    Singular points take the flat stand-in partials r_u = e_x, r_v = e_y;
    points off the chart (outside) hold r = 0 with those partials.  There
    and on the point source the source distance reads 1, and no such point
    is lit.
    """
    c = np.cross(ru, rv)
    cn = stacked_norm(c)
    regular = cn > REGULARITY_RTOL * stacked_norm(ru) * stacked_norm(rv)
    ru = np.where(regular[..., None], ru, (1.0, 0.0, 0.0))
    rv = np.where(regular[..., None], rv, (0.0, 1.0, 0.0))
    c = np.cross(ru, rv)
    n = c / stacked_norm(c)[..., None]
    if isinstance(field, PointSource):
        d = r - field.origin
        dist = np.where(outside, 1.0, stacked_norm(d))
        at_source = dist <= caustics.SOURCE_MIN_DISTANCE
        a = d / np.where(at_source, 1.0, dist)[..., None]
    else:
        a = np.broadcast_to(field.direction, r.shape)
        at_source = np.zeros(r.shape[:-1], dtype=bool)
    cos_theta = stacked_dot(a, n)
    b = a - 2.0 * cos_theta[..., None] * n
    lit = regular & (np.abs(cos_theta) > eps_grazing) & ~outside & ~at_source
    return r, b, lit


def ray_bundle_reference(surface, field, U, V, eps_grazing):
    """Rays of the stencil on stacked (..., 3) arrays; EvalDomainError off the chart."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    jet = eval_surface(surface, U, V)
    planes = (jet.value(), jet.d_u(), jet.d_v())
    shape = np.broadcast(U, V, *(p for vec in planes for p in vec)).shape
    return rays_reference(*(stack_planes(vec, shape) for vec in planes), field, eps_grazing)


def bundle_or_mask_reference(surface, field, U, V, eps_grazing):
    try:
        return ray_bundle_reference(surface, field, U, V, eps_grazing)
    except EvalDomainError:
        pass
    # point by point: a point whose evaluation raises is off the chart
    shape = np.broadcast_shapes(np.shape(U), np.shape(V))
    U = np.broadcast_to(np.asarray(U, dtype=float), shape)
    V = np.broadcast_to(np.asarray(V, dtype=float), shape)
    r = np.zeros(shape + (3,))
    ru = np.broadcast_to((1.0, 0.0, 0.0), shape + (3,)).copy()
    rv = np.broadcast_to((0.0, 1.0, 0.0), shape + (3,)).copy()
    outside = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        try:
            jet = eval_surface(surface, U[idx], V[idx])
        except EvalDomainError:
            outside[idx] = True
            continue
        r[idx], ru[idx], rv[idx] = jet.value(), jet.d_u(), jet.d_v()
    return rays_reference(r, ru, rv, field, eps_grazing, outside)


def focal_quadratic_reference(surface, field, U, V, h, eps_grazing):
    def bundle(du, dv):
        return bundle_or_mask_reference(surface, field, U + du, V + dv, eps_grazing)

    (r0, b0, lit0), *stencil = (bundle(0.0, 0.0), bundle(h, 0.0), bundle(-h, 0.0),
                                bundle(0.0, h), bundle(0.0, -h))
    (rpu, bpu, lpu), (rmu, bmu, lmu), (rpv, bpv, lpv), (rmv, bmv, lmv) = stencil
    ok = lit0 & lpu & lmu & lpv & lmv

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


# stencils at u - h <= 0 leave the chart of sqrt(u) and are masked
SQRT_APEX = ("[u, v, sqrt(u) + 0.3*v^2]", (5e-5, 0.5, -1.0, 1.0))


@given(name=st.sampled_from(sorted(BUILTINS) + ["random-graph", "sqrt-apex", *DEFECT_SURFACES]),
       seed=st.integers(0, 2**32 - 1), point=st.booleans(),
       nu=st.integers(2, 7), nv=st.integers(2, 7),
       h=st.sampled_from([1e-4, 1e-2, 0.1]))
@settings(max_examples=200, deadline=None)
def test_planes_oracle_is_bitwise_the_stacked_reference(name, seed, point, nu, nv, h):
    # larger steps reach further: more stencil points leave the chart or graze
    rng = np.random.default_rng(seed)
    if name == "random-graph":
        ast, dom = random_graph_surface(rng), GRAPH_DOMAIN
    elif name == "sqrt-apex":
        ast, dom = parse_surface(SQRT_APEX[0]), SQRT_APEX[1]
    else:
        ast, dom = scene_surface(name)
    field = PointSource(rng.normal(scale=2.0, size=3)) if point else FlatFront(rng.normal(size=3))
    grid = GridSpec(nu, nv, dom)
    U, V = grid.mesh()
    for args_want, args_got in (((U, V), (U[:, :1], V[:1])),
                                ((U[0, -1], V[0, -1]), (float(U[0, -1]), float(V[0, -1])))):
        want = focal_quadratic_reference(ast, field, *args_want, h, 1e-6)
        got = _focal_quadratic(ast, field, *args_got, h, 1e-6)
        for g, w in zip(got[0], want[0]):
            assert np.array_equal(_bits(g), _bits(w))
        for g, w in zip(got[1:3], want[1:3]):
            assert np.array_equal(_bits(stack_planes(g, w.shape[:-1])), _bits(w))
        assert np.array_equal(got[3], want[3])


def test_stencil_on_the_source_is_bitwise_the_stacked_reference():
    # the stencil point u - h of the grid point (0, 0) is the source (1, 0, 0)
    ast, _ = build_surface("sphere")
    field = PointSource((1.0, 0.0, 0.0))
    grid = GridSpec(6, 6, (1e-4, 0.5, 0.0, 1.0))
    want = focal_quadratic_reference(ast, field, *grid.mesh(), 1e-4, 1e-6)
    us, vs = grid.axes()
    got = _focal_quadratic(ast, field, us[:, None], vs[None, :], 1e-4, 1e-6)
    stacked = [stack_planes(planes, want[1].shape[:-1]) for planes in got[1:3]]
    for g, w in zip((*got[0], *stacked), (*want[0], *want[1:3])):
        assert np.array_equal(_bits(g), _bits(w))
    assert np.array_equal(got[3], want[3])
    assert not got[3][0, 0] and np.count_nonzero(~got[3]) == 1


def test_validate_places_the_sheets_compute_places():
    # the oracle's centre ray is the closed form's r and b to the bit, so the
    # points and flags validate compares are compute's, clipped ones included
    ast, dom = build_surface("ellipsoid")
    grid = GridSpec(40, 30, dom)
    field = PointSource((0.2, 0.1, 0.1))
    placed, place = [], caustics.caustic_point
    with mock.patch.object(caustics, "BLOCK_POINTS", 7 * grid.nv), \
            mock.patch.object(caustics, "caustic_point", lambda *a: placed.append(place(*a))
                              or placed[-1]):
        sheets = compute_caustic_sheets(ast, field, grid, max_radius=1.0)[:2]
        n_compute = len(placed)
        oracle.validate_sheets(caustic_roots(ast, field, grid, max_radius=1.0))
        blocks = caustics.row_blocks(grid.nu, grid.nv)
    assert all(np.any(s.flags & FLAG_CLIPPED) for s in sheets)
    assert len(blocks) == 6 and len(placed) == 2 * n_compute == 4 * len(blocks)
    for (got_xi, got_flags), (want_xi, want_flags) in zip(placed[n_compute:], placed[:n_compute]):
        assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got_xi, want_xi))
        assert np.array_equal(got_flags, want_flags)


def test_off_chart_stencils_take_one_evaluation_per_stencil_point():
    # the first row block has stencils at u - h < 0, off the chart of sqrt(u); they
    # are masked in the batch instead of re-evaluating the block point by point
    ast, dom = parse_surface(SQRT_APEX[0]), SQRT_APEX[1]
    grid = GridSpec(200, 200, dom)
    assert len(caustics.row_blocks(grid.nu, grid.nv)) == 2
    sheets = compute_caustic_sheets(ast, AXIAL, grid)
    roots = caustic_roots(ast, AXIAL, grid)
    with mock.patch.object(caustics, "eval_surface", wraps=eval_surface) as spy:
        report = validate_sheets(roots)
    assert spy.call_count == 10
    assert report.passed
    # row u0, whose stencils leave the chart, has both closed-form sheets placed
    # (valid or beyond the radius cap) and no oracle verdict: no flag mismatch
    placed = FLAG_VALID | FLAG_CLIPPED
    assert np.all(sheets[0].flags[0] & placed) and np.all(sheets[1].flags[0] & placed)
    assert report.n_flag_disagreements == 0


def planted_grazing_mismatches():
    """validate's flag mismatches on a sphere before and after planting a bug.

    The bug lights a grazing point (on the equator) in the roots and gives
    sheet 1 a root there, so that the closed form places sheet 1 only.
    """
    ast = parse_surface(SPHERE_TEXT)
    grid = GridSpec(7, 8, (-0.6, 0.6, 0.0, 6.0))
    roots = caustic_roots(ast, AXIAL, grid)
    i, j = np.argwhere(roots.base_flags & FLAG_GRAZING)[0]
    before = validate_sheets(roots).n_flag_disagreements
    planted = dataclasses.replace(roots, base_flags=roots.base_flags.copy(), k1=roots.k1.copy())
    planted.base_flags[i, j], planted.k1[i, j] = 0, 1.0
    return before, validate_sheets(planted).n_flag_disagreements


def test_unlit_oracle_centre_still_counts_as_a_flag_mismatch():
    # the oracle decides the planted point, its centre ray being unlit, so the
    # mismatch counts
    before, after = planted_grazing_mismatches()
    assert after == before + 1


SILHOUETTE_SCENES = [
    ("sphere", PointSource((0.3, 0.2, 3.0)), 100, 19_876),
    ("sphere", PointSource((0.3, 0.2, 3.0)), 200, 79_511),
    ("sphere", PointSource((0.3, 0.2, 3.0)), 400, 318_044),
    ("revolution", FlatFront((0.3, 0.2, -1.0)), 200, 79_543),
    ("revolution", PointSource((0.3, 0.2, 3.0)), 200, 78_546),
]


@pytest.mark.parametrize("surface, field, n, compared", SILHOUETTE_SCENES,
                         ids=[f"{n}-{compared}" for *_, n, compared in SILHOUETTE_SCENES])
def test_silhouette_inside_the_chart_gives_no_flag_mismatch(surface, field, n, compared):
    # scenes whose silhouette lies on the chart: a stencil whose rays span it
    # is usable, since the oracle differences r and b, never n; a lit centre
    # whose stencil reaches the grazing band gets no verdict
    ast, dom = build_surface(surface)
    report = validate_sheets(caustic_roots(ast, field, GridSpec(n, n, dom)))
    assert report.n_flag_disagreements == 0
    assert report.n_compared == compared
    assert report.passed


SWEEP_FIELDS = (FlatFront((0.0, 0.0, 1.0)), FlatFront((0.3, 0.2, -1.0)),
                FlatFront((0.3, 0.1, -1.0)), PointSource((0.2, 0.1, 0.1)),
                PointSource((0.3, 0.2, 3.0)))


@pytest.mark.parametrize("n", [45, 200])
def test_builtin_scenes_give_no_flag_mismatch(n):
    mismatched = []
    for name, field in itertools.product(sorted(BUILTINS), SWEEP_FIELDS):
        ast, dom = build_surface(name)
        report = validate_sheets(caustic_roots(ast, field, GridSpec(n, n, dom)))
        if report.n_flag_disagreements:
            mismatched.append((name, field, report.n_flag_disagreements))
    assert not mismatched
