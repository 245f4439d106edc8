"""Diagnostics CSV and legacy ASCII VTK output."""

import os

import numpy as np

from .diagnostics import CSV_COLUMNS


FLOAT = "%.17g"


def format_float(v):
    return FLOAT % v


def write_diagnostics_csv(reports, path, abort_note=None):
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        row = []
        for col in CSV_COLUMNS:
            v = getattr(r, col)
            row.append(str(v) if isinstance(v, (int, np.integer)) else format_float(v))
        lines.append(",".join(row))
    if abort_note:
        lines.append("# abort: " + abort_note)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _formatted(fmt, values, sep="\n"):
    """``fmt`` applied to each row of ``values``, joined by ``sep``, in one %
    operation over the whole array: the same text as formatting entry by entry."""
    values = np.asarray(values, dtype=float)
    return sep.join([fmt] * len(values)) % tuple(values.ravel().tolist())


def cell_velocity(mesh, u_face):
    """Cell-averaged velocity: mean of the four face vectors."""
    return np.mean(np.asarray(u_face)[mesh.cell_faces], axis=1)


def write_vtk(mesh, state, eos, path):
    """Legacy ASCII rectilinear-grid dump with the cell unknowns."""
    nx, ny = mesh.nx, mesh.ny
    xs = mesh.x0 + mesh.dx * np.arange(nx + 1)
    ys = mesh.y0 + mesh.dy * np.arange(ny + 1)
    alpha_g = eos.a2 * state.z / state.p
    vel = cell_velocity(mesh, state.u)
    out = []
    out.append("# vtk DataFile Version 3.0")
    out.append(f"driftflux t={format_float(state.t)}")
    out.append("ASCII")
    out.append("DATASET RECTILINEAR_GRID")
    out.append(f"DIMENSIONS {nx + 1} {ny + 1} 1")
    out.append(f"X_COORDINATES {nx + 1} double")
    out.append(_formatted(FLOAT, xs, " "))
    out.append(f"Y_COORDINATES {ny + 1} double")
    out.append(_formatted(FLOAT, ys, " "))
    out.append("Z_COORDINATES 1 double")
    out.append("0")
    out.append(f"CELL_DATA {mesh.n_cells}")
    for name, arr in (("p", state.p), ("rho", state.rho), ("z", state.z),
                      ("y", state.y), ("alpha_g", alpha_g)):
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.append(_formatted(FLOAT, arr))
    out.append("VECTORS velocity double")
    out.append(_formatted(f"{FLOAT} {FLOAT} 0", vel))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def dump_path(out_dir, step):
    return os.path.join(out_dir, f"fields_{step:06d}.vtk")
