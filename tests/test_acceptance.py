"""Acceptance suite: closed-form golden values plus property checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are fixed here, not calibrated.
"""

import numpy as np
import pytest

from catacaustics import (FlatFront, GridSpec, PointSource, build_surface,
                          compute_caustic_sheets, eval_surface, frame_at,
                          fundamental_forms, incident_direction,
                          modified_forms, parse_surface, reflection_data,
                          caustic_coefficients, caustic_roots,
                          solve_sheet_curvatures, validate_sheets)
from catacaustics.cli import main
from catacaustics.surfacelang import format_expr
from conftest import (GRAPH_DOMAIN, random_field, random_flat_field,
                      random_graph_surface, random_point_field,
                      random_rotation)

TWO_PI = 6.283185307179586
AXIAL = FlatFront((0.0, 0.0, 1.0))


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {criterion:02d} {label}: {state}{suffix}")
    assert ok, f"criterion {criterion}: {label} {detail}"


def match_sheets(sheets, golden_a, golden_b):
    """Pair computed sheets with two golden grids by least total distance."""
    s1, s2 = sheets
    d_keep = (np.nanmax(np.linalg.norm(s1.points - golden_a, axis=0)) +
              np.nanmax(np.linalg.norm(s2.points - golden_b, axis=0)))
    d_swap = (np.nanmax(np.linalg.norm(s1.points - golden_b, axis=0)) +
              np.nanmax(np.linalg.norm(s2.points - golden_a, axis=0)))
    if d_swap < d_keep:
        return (s1, s2), (golden_b, golden_a), d_swap
    return (s1, s2), (golden_a, golden_b), d_keep


def test_criterion_01_sphere_flat_axial_front():
    grid = GridSpec(60, 60, (0.2, 1.4, 0.0, TWO_PI))
    ast, _ = build_surface("sphere")
    s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
    U, V = grid.mesh()
    sin_u, cos_u = np.sin(U), np.cos(U)

    k1_ref = 2.0 * sin_u          # -2 cos(theta), cos(theta) = -sin(u)
    k2_ref = 2.0 / sin_u          # -2 / cos(theta)
    roots_ok = (np.max(np.abs(s1.k_star - k1_ref) / np.abs(k1_ref)) <= 1e-9 and
                np.max(np.abs(s2.k_star - k2_ref) / np.abs(k2_ref)) <= 1e-9)

    xi1_ref = np.stack([np.zeros_like(U), np.zeros_like(U), 1.0 / (2.0 * sin_u)])
    xi2_ref = np.stack([cos_u**3 * np.cos(V), cos_u**3 * np.sin(V),
                        0.5 * sin_u * (2.0 * cos_u**2 + 1.0)])
    err1 = np.max(np.linalg.norm(s1.points - xi1_ref, axis=0))
    err2 = np.max(np.linalg.norm(s2.points - xi2_ref, axis=0))
    report(1, "sphere, flat axial front", roots_ok and err1 <= 1e-9 and err2 <= 1e-9,
           f"sheet errors {err1:.2e}, {err2:.2e}")


def test_criterion_02_hyperbolic_paraboloid():
    grid = GridSpec(41, 41, (-2.0, 2.0, -2.0, 2.0))
    ast, _ = build_surface("hyperbolic-paraboloid")
    s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
    X, Y = grid.mesh()
    zeros = np.zeros_like(X)
    xi_a = np.stack([zeros, 2.0 * Y, 0.5 - Y**2])
    xi_b = np.stack([2.0 * X, zeros, X**2 - 0.5])
    sheets, goldens, _ = match_sheets((s1, s2), xi_a, xi_b)
    errs = [np.max(np.linalg.norm(s.points - g, axis=0)) for s, g in zip(sheets, goldens)]
    report(2, "hyperbolic paraboloid parabolas", max(errs) <= 1e-9,
           f"max error {max(errs):.2e}")


def test_criterion_03_elliptic_paraboloid_focal_point():
    grid = GridSpec(41, 41, (-1.0, 1.0, -1.0, 1.0))
    ast, _ = build_surface("elliptic-paraboloid")
    s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
    worst = 0.0
    for s in (s1, s2):
        worst = max(worst, float(np.max(
            np.linalg.norm(s.points[:, s.valid] - np.array([[0.0], [0.0], [0.5]]), axis=0))))
    report(3, "elliptic paraboloid focal point", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_04_cylinder_flat_front():
    grid = GridSpec(33, 7, (-1.2, 1.2, 0.0, 1.0))
    ast, _ = build_surface("cylinder")
    field = FlatFront((1.0, 0.0, 0.0))
    s1, s2, _ = compute_caustic_sheets(ast, field, grid)
    inf_sheet, fin_sheet = (s1, s2) if np.all(~s1.valid) else (s2, s1)

    U, V = grid.mesh()
    a = np.array([1.0, 0.0, 0.0])
    tau = np.stack([-np.sin(U), np.cos(U), np.zeros_like(U)], axis=-1)
    nu_ = np.stack([-np.cos(U), -np.sin(U), np.zeros_like(U)], axis=-1)
    k = 1.0  # curvature of the unit circle with inward Frenet normal
    r = np.stack([np.cos(U), np.sin(U), V], axis=-1)
    a_nu = np.einsum("...i,i->...", nu_, a)
    a_tau = np.einsum("...i,i->...", tau, a)
    xi_ref = np.moveaxis(r + (a_nu / (2.0 * k))[..., None] * (
        -a_tau[..., None] * tau + a_nu[..., None] * nu_), -1, 0)

    from catacaustics.caustics import FLAG_AT_INFINITY
    zero_ok = bool(np.all(np.abs(inf_sheet.k_star) <= 1e-9) and
                   np.all(inf_sheet.flags & FLAG_AT_INFINITY))
    k_ref = 2.0 / np.cos(U)  # -2 k / cos(theta) with cos(theta) = -cos(u)
    root_ok = np.max(np.abs(fin_sheet.k_star - k_ref) / np.abs(k_ref)) <= 1e-9
    err = np.max(np.linalg.norm(fin_sheet.points - xi_ref, axis=0))
    report(4, "cylinder, flat front", zero_ok and root_ok and err <= 1e-9,
           f"sheet error {err:.2e}")


def test_criterion_05_torus_surface_of_revolution():
    grid = GridSpec(40, 40, (0.2, 1.2, 0.0, TWO_PI))
    ast, _ = build_surface("revolution")  # profile (2 + cos u, sin u)
    s1, s2, _ = compute_caustic_sheets(ast, AXIAL, grid)
    U, V = grid.mesh()
    x, z = 2.0 + np.cos(U), np.sin(U)
    xp, zp = -np.sin(U), np.cos(U)
    xpp, zpp = -np.cos(U), -np.sin(U)
    D = zpp * xp - zp * xpp  # profile curvature factor; equals 1 for this torus
    rev_radius = x - xp**2 * zp / D
    xi_surface = np.stack([rev_radius * np.cos(V), rev_radius * np.sin(V),
                           z - xp * (zp**2 - xp**2) / (2.0 * D)])
    zeros = np.zeros_like(U)
    xi_axis = np.stack([zeros, zeros, z - x * (zp**2 - xp**2) / (2.0 * xp * zp)])

    sheets, goldens, _ = match_sheets((s1, s2), xi_axis, xi_surface)
    errs = [np.max(np.linalg.norm(s.points - g, axis=0)) for s, g in zip(sheets, goldens)]
    axis_sheet = sheets[0] if goldens[0] is xi_axis else sheets[1]
    pts = axis_sheet.points[:, axis_sheet.valid]
    extent = max(float(np.ptp(pts[0])), float(np.ptp(pts[1])))
    report(5, "torus of revolution (both displayed sheets)",
           max(errs) <= 1e-9 and extent < 1e-9,
           f"max error {max(errs):.2e}, axis-sheet xy extent {extent:.2e}")


def test_criterion_06_point_source_at_sphere_center():
    grid = GridSpec(40, 40, (0.2, 1.4, 0.0, TWO_PI))
    ast, _ = build_surface("sphere")
    s1, s2, _ = compute_caustic_sheets(ast, PointSource((0.0, 0.0, 0.0)), grid)
    k_ok = (np.max(np.abs(s1.k_star - 1.0)) <= 1e-9 and
            np.max(np.abs(s2.k_star - 1.0)) <= 1e-9)
    worst = max(float(np.max(np.linalg.norm(s.points[:, s.valid], axis=0))) for s in (s1, s2))
    report(6, "point source at sphere center", k_ok and worst <= 1e-12,
           f"|xi| max {worst:.2e}")


def test_criterion_07_cylinder_point_source_cross_section():
    source = np.array([0.3, -0.2, 0.0])
    grid = GridSpec(31, 9, (-1.2, 1.2, -0.5, 0.5))  # middle row sits at z = 0
    ast, _ = build_surface("cylinder")
    s1, s2, _ = compute_caustic_sheets(ast, PointSource(source), grid)
    j0 = 4
    assert abs(grid.axes()[1][j0]) < 1e-15

    us = grid.axes()[0]
    tau = np.stack([-np.sin(us), np.cos(us), np.zeros_like(us)], axis=-1)
    nu_ = np.stack([-np.cos(us), -np.sin(us), np.zeros_like(us)], axis=-1)
    r = np.stack([np.cos(us), np.sin(us), np.zeros_like(us)], axis=-1)
    k = 1.0
    d = r - source
    d_nu = np.einsum("...i,...i->...", d, nu_)
    d_tau = np.einsum("...i,...i->...", d, tau)
    d2 = np.einsum("...i,...i->...", d, d)
    coef = d_nu / (d_nu + 2.0 * d2 * k)
    xi_ref = r + coef[..., None] * (-d_tau[..., None] * tau + d_nu[..., None] * nu_)

    # the non-trivial sheet is the one away from the virtual image root -1/|d|
    shift_root = -1.0 / np.sqrt(d2)
    row1, row2 = s1.k_star[:, j0], s2.k_star[:, j0]
    fin = s2 if np.max(np.abs(row1 - shift_root)) < np.max(np.abs(row2 - shift_root)) else s1
    err = np.max(np.linalg.norm(fin.points[:, :, j0] - xi_ref.T, axis=0))
    report(7, "cylinder, point source (z = 0 slice)", err <= 1e-9, f"error {err:.2e}")


def _builtin_validation_scenes():
    yield "sphere", {}, GridSpec(20, 20, (0.2, 1.4, 0.0, TWO_PI)), AXIAL
    yield "sphere", {}, GridSpec(20, 20, (0.2, 1.4, 0.0, TWO_PI)), PointSource((0.0, 0.0, 0.15))
    yield "ellipsoid", {}, GridSpec(20, 20, (-1.3, 1.3, 0.0, TWO_PI)), \
        FlatFront((0.1, 0.2, 1.0))
    yield "ellipsoid", {}, GridSpec(20, 20, (-1.3, 1.3, 0.0, TWO_PI)), \
        PointSource((0.05, -0.03, 0.08))
    yield "elliptic-paraboloid", {}, GridSpec(20, 20, (-1.0, 1.0, -1.0, 1.0)), AXIAL
    yield "elliptic-paraboloid", {}, GridSpec(20, 20, (-1.0, 1.0, -1.0, 1.0)), \
        PointSource((0.2, 0.1, 3.0))
    yield "hyperbolic-paraboloid", {}, GridSpec(20, 20, (-2.0, 2.0, -2.0, 2.0)), \
        FlatFront((0.05, -0.1, 1.0))
    yield "hyperbolic-paraboloid", {}, GridSpec(20, 20, (-2.0, 2.0, -2.0, 2.0)), \
        PointSource((0.0, 0.0, 4.0))
    yield "translation", {"f": "u^2/2 + 0.3*sin(u)", "h": "v^2/2"}, \
        GridSpec(20, 20, (-1.0, 1.0, -1.0, 1.0)), AXIAL
    yield "revolution", {}, GridSpec(20, 24, (0.2, 1.2, 0.0, TWO_PI)), AXIAL
    yield "cylinder", {}, GridSpec(20, 6, (-1.2, 1.2, 0.0, 1.0)), FlatFront((1.0, 0.0, 0.0))
    yield "cylinder", {}, GridSpec(20, 6, (-1.2, 1.2, 0.0, 1.0)), PointSource((0.3, -0.2, 0.0))


def test_criterion_08_oracle_equivalence():
    worst = 0.0
    failures = []
    for name, params, grid, field in _builtin_validation_scenes():
        ast, _ = build_surface(name, params)
        rep = validate_sheets(caustic_roots(ast, field, grid), h=1e-4, tol=1e-4)
        worst = max(worst, rep.max_error)
        if not rep.passed:
            failures.append(f"{name}/{type(field).__name__}: {rep.max_error:.2e}")

    rng = np.random.default_rng(1234)
    random_scenes = []
    for i in range(20):
        ast = random_graph_surface(rng)
        field = random_flat_field(rng) if i % 2 == 0 else random_point_field(rng)
        grid = GridSpec(15, 15, GRAPH_DOMAIN)
        roots = caustic_roots(ast, field, grid)
        rep = validate_sheets(roots, h=1e-4, tol=1e-4)
        worst = max(worst, rep.max_error)
        if not rep.passed:
            failures.append(f"random-{i}: {rep.max_error:.2e}")
        random_scenes.append(roots)

    # halving the step must shrink the error second-order (up to a noise floor)
    decay_ok = True
    decays = []
    ast, _ = build_surface("ellipsoid")
    grid = GridSpec(15, 15, (-1.3, 1.3, 0.0, TWO_PI))
    field = PointSource((0.05, -0.03, 0.08))
    convergence_cases = [*random_scenes[:2], caustic_roots(ast, field, grid)]
    for roots in convergence_cases:
        big = validate_sheets(roots, h=4e-4).max_error
        small = validate_sheets(roots, h=2e-4).max_error
        decays.append(f"{big:.1e}->{small:.1e}")
        if small > big / 3.0 + 1e-9:
            decay_ok = False
    report(8, "oracle equivalence + O(h^2) decay",
           not failures and worst <= 1e-4 and decay_ok,
           f"worst {worst:.2e}; decay {', '.join(decays)}" +
           (f"; failures {failures}" if failures else ""))


def test_criterion_09_algebraic_property_suite():
    rng = np.random.default_rng(97)
    n_points = 0
    worst = dict(product=0.0, total=0.0, det=0.0, eig=0.0)
    while n_points < 10_000:
        ast = random_graph_surface(rng)
        field = random_field(rng)
        grid = GridSpec(20, 20, GRAPH_DOMAIN)
        U, V = grid.mesh()
        jet = eval_surface(ast, U, V)
        a, r_dist, _ = incident_direction(field, jet.value())
        frame = frame_at(jet)
        forms = fundamental_forms(frame)
        refl = reflection_data(frame, a, r_dist)
        lit = np.abs(refl.cos_theta) > 1e-6
        if not np.all(lit):
            continue
        mods = modified_forms(forms, refl)
        p, q = caustic_coefficients(forms, refl)
        k_a, k_b, resid = solve_sheet_curvatures(mods, (p, q), refl.r_dist)
        n_points += int(U.size)

        shift = 0.0 if isinstance(field, FlatFront) else 1.0 / refl.r_dist
        mu_a, mu_b = k_a + shift, k_b + shift
        prod_err = np.max(np.abs(mu_a * mu_b - 4.0 * forms.K) /
                          np.maximum(1.0, np.abs(forms.K)))
        sum_err = np.max(np.abs(mu_a + mu_b + p) / np.maximum(1.0, np.abs(p)))
        det_err = np.max(np.abs(mods.det_gs - forms.det_g * refl.cos_theta**2) /
                         np.maximum(1.0, forms.det_g * refl.cos_theta**2))
        worst["product"] = max(worst["product"], float(prod_err))
        worst["total"] = max(worst["total"], float(sum_err))
        worst["det"] = max(worst["det"], float(det_err))
        worst["eig"] = max(worst["eig"], float(resid))
    ok = (worst["product"] <= 1e-9 and worst["total"] <= 1e-9 and
          worst["det"] <= 1e-10 and worst["eig"] <= 1e-8)
    report(9, f"algebraic identities on {n_points} lit points", ok,
           "; ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def moved_mirror(ast, linear, offset):
    """The mirror M r + t, written around the surface text of r."""
    r = [f"({format_expr(c)})" for c in ast.components()]
    rows = [" + ".join([*(f"{float(m)!r}*{c}" for m, c in zip(row, r)), repr(float(t))])
            for row, t in zip(linear, offset)]
    return parse_surface(f"[{', '.join(rows)}]", ast.params)


def test_criterion_10_equivariance():
    rng = np.random.default_rng(55)
    scenes = [
        (build_surface("sphere")[0], AXIAL, GridSpec(15, 15, (0.2, 1.4, 0.0, TWO_PI))),
        (random_graph_surface(rng), PointSource((0.1, -0.2, 3.0)),
         GridSpec(15, 15, GRAPH_DOMAIN)),
        (build_surface("hyperbolic-paraboloid")[0], FlatFront((0.1, 0.0, 1.0)),
         GridSpec(15, 15, (-2.0, 2.0, -2.0, 2.0))),
    ]
    worst = 0.0
    flags_ok = True
    # no radius cap: the default one follows the axis-aligned bounding box of
    # the mirror, which a rotation changes
    for ast, field, grid in scenes:
        base = compute_caustic_sheets(ast, field, grid, max_radius=np.inf)[:2]
        for _ in range(4):
            R = random_rotation(rng)
            t = rng.uniform(-2.0, 2.0, size=3)
            c = float(rng.uniform(0.5, 2.0))
            moved_ast = moved_mirror(ast, c * R, t)
            if isinstance(field, FlatFront):
                moved_field = FlatFront(R @ field.direction)
            else:
                moved_field = PointSource(c * (R @ field.origin) + t)
            moved = compute_caustic_sheets(moved_ast, moved_field, grid, max_radius=np.inf)[:2]
            for s_base, s_new in zip(base, moved):
                if not np.array_equal(s_base.flags, s_new.flags):
                    flags_ok = False
                want_xi = c * np.einsum("ij,juv->iuv", R, s_base.points) + t[:, None, None]
                m = s_base.valid & s_new.valid
                scale = np.maximum(1.0, np.linalg.norm(want_xi[:, m], axis=0))
                err = np.linalg.norm(s_new.points[:, m] - want_xi[:, m], axis=0) / scale
                k_err = np.abs(s_new.k_star[m] - s_base.k_star[m] / c) / \
                    np.maximum(1.0, np.abs(s_base.k_star[m] / c))
                worst = max(worst, float(err.max()), float(k_err.max()))
    report(10, "equivariance under rotation/translation/scaling",
           flags_ok and worst <= 1e-9, f"worst relative {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    base_args = ["compute", "--surface", "sphere", "--flat", "0,0,1",
                 "--grid", "30,30"]
    outputs = {}
    for fmt in ("obj", "csv"):
        blobs = []
        for run_id in ("a", "b"):
            prefix = str(tmp_path / f"{fmt}-{run_id}")
            code = main(base_args + ["--format", fmt, "--out", prefix])
            assert code == 0
            with open(f"{prefix}-sheet1.{fmt}", "rb") as f1, \
                    open(f"{prefix}-sheet2.{fmt}", "rb") as f2, \
                    open(f"{prefix}-stats.txt", "rb") as fs:
                blobs.append((f1.read(), f2.read(), fs.read()))
        outputs[fmt] = blobs[0] == blobs[1]
    report(11, "byte-identical repeated compute", all(outputs.values()), str(outputs))
