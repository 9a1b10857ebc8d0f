"""Caustics of reflected wavefronts from parametric mirror surfaces.

The package computes, in closed form, the two focal sheets (caustics) of a
flat or spherical wavefront after reflection from a mirror r(u, v), and
validates them against an independent brute-force ray-envelope oracle.

Importing the package sets OPENBLAS_NUM_THREADS to 1 in os.environ unless it
is already set, so processes started from this one inherit it too.  It
takes effect only when numpy has not been imported yet.
"""

import os

# Pinned before numpy loads OpenBLAS.  On a 2-vCPU host, median of 8
# alternating runs each: `catacaustics builtins` (start-up plus import) took
# 0.337 s with 2 threads and 0.272 s pinned, and `compute` on the ellipsoid
# with a point source at 400x400 (OBJ) 0.993 s and 0.717 s; the threaded
# BLAS stalls at start-up in the sheet statistics' SVD and projection.
# Pinning changes no output byte.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .caustics import (CausticSheet, FlatFront, FrontPoint, FrontStatistics,
                       GridSpec, IncidentField, MaskedGrid, ModifiedForms,
                       PointSource, ReflectionData, caustic_coefficients,
                       caustic_point, compute_caustic_sheets,
                       incident_direction, modified_forms, reflect_direction,
                       reflected_front_point, reflection_data,
                       solve_sheet_curvatures)
from .diffgeo import FrameData, SurfaceForms, frame_at, fundamental_forms
from .jets import Jet2, Jet2Vec3
from .meshio import export_mesh
from .oracle import ValidationReport, validate_sheets
from .surfacelang import (SurfaceAST, eval_surface, parse_surface,
                          parse_surface_definition, to_text)
from .surfaces import BUILTINS, build_surface, builtin_listing

__version__ = "0.1.0"

__all__ = [
    "Jet2", "Jet2Vec3",
    "SurfaceAST", "parse_surface", "parse_surface_definition", "eval_surface", "to_text",
    "BUILTINS", "build_surface", "builtin_listing",
    "FrameData", "SurfaceForms", "frame_at", "fundamental_forms",
    "FlatFront", "PointSource", "IncidentField", "GridSpec",
    "ReflectionData", "ModifiedForms", "MaskedGrid", "CausticSheet",
    "FrontPoint", "FrontStatistics",
    "incident_direction", "reflect_direction", "reflection_data",
    "modified_forms", "caustic_coefficients", "solve_sheet_curvatures",
    "caustic_point", "reflected_front_point", "compute_caustic_sheets",
    "ValidationReport", "validate_sheets",
    "export_mesh",
]
