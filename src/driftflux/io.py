"""Diagnostics CSV and legacy binary VTK output.

The VTK dumps store every array as big-endian IEEE doubles, so each value is
written exactly and the bytes do not depend on how a platform formats floats.
"""

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


def cell_velocity(mesh, u_face):
    """Cell-averaged velocity: mean of the four face vectors."""
    return np.mean(np.asarray(u_face)[mesh.cell_faces], axis=1)


def write_vtk(mesh, state, eos, path):
    """Legacy binary rectilinear-grid dump with the cell unknowns: each array
    is a block of big-endian float64 after its header line."""
    nx, ny = mesh.nx, mesh.ny
    vel = np.zeros((mesh.n_cells, 3))
    vel[:, :2] = cell_velocity(mesh, state.u)
    out = [f"# vtk DataFile Version 3.0\ndriftflux t={format_float(state.t)}\nBINARY\n"
           f"DATASET RECTILINEAR_GRID\nDIMENSIONS {nx + 1} {ny + 1} 1\n".encode()]

    def block(line, values):
        out.extend((f"{line}\n".encode(), np.asarray(values, dtype=">f8").tobytes(), b"\n"))

    block(f"X_COORDINATES {nx + 1} double", mesh.x0 + mesh.dx * np.arange(nx + 1))
    block(f"Y_COORDINATES {ny + 1} double", mesh.y0 + mesh.dy * np.arange(ny + 1))
    block("Z_COORDINATES 1 double", 0.0)
    out.append(f"CELL_DATA {mesh.n_cells}\n".encode())
    for name, arr in (("p", state.p), ("rho", state.rho), ("z", state.z),
                      ("y", state.y), ("alpha_g", eos.a2 * state.z / state.p)):
        block(f"SCALARS {name} double 1\nLOOKUP_TABLE default", arr)
    block("VECTORS velocity double", vel)
    with open(path, "wb") as fh:
        fh.writelines(out)


def dump_path(out_dir, step):
    return os.path.join(out_dir, f"fields_{step:06d}.vtk")
