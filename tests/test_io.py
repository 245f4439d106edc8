import numpy as np

from driftflux.eos import EosParams
from driftflux.fields import State
from driftflux.io import cell_velocity, write_vtk
from driftflux.mesh import build_uniform_mesh


def _reference_vtk(mesh, state, eos):
    """The dump formatted entry by entry with "%.17g": the oracle of
    :func:`write_vtk`'s whole-array formatting."""
    g = "%.17g".__mod__
    xs = mesh.x0 + mesh.dx * np.arange(mesh.nx + 1)
    ys = mesh.y0 + mesh.dy * np.arange(mesh.ny + 1)
    out = ["# vtk DataFile Version 3.0", f"driftflux t={g(state.t)}", "ASCII",
           "DATASET RECTILINEAR_GRID", f"DIMENSIONS {mesh.nx + 1} {mesh.ny + 1} 1",
           f"X_COORDINATES {mesh.nx + 1} double", " ".join(g(v) for v in xs),
           f"Y_COORDINATES {mesh.ny + 1} double", " ".join(g(v) for v in ys),
           "Z_COORDINATES 1 double", "0", f"CELL_DATA {mesh.n_cells}"]
    for name, arr in (("p", state.p), ("rho", state.rho), ("z", state.z),
                      ("y", state.y), ("alpha_g", eos.a2 * state.z / state.p)):
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [g(v) for v in arr]
    out.append("VECTORS velocity double")
    out += [f"{g(v[0])} {g(v[1])} 0" for v in cell_velocity(mesh, state.u)]
    return "\n".join(out) + "\n"


def test_vtk_dump_matches_entry_by_entry_formatting(tmp_path):
    mesh = build_uniform_mesh(7, 5, 0.7, 0.3)
    rng = np.random.default_rng(4)
    M = mesh.n_cells

    def field(scale):
        v = scale * rng.uniform(0.5, 2.0, M)
        # values whose shortest text differs from their 17 digits, subnormals
        # and powers of ten
        v[:6] = [0.1, 1.0 / 3.0, 5e-324, 1e-300, 1e300, 100.0]
        return v

    p, rho, z, y = field(1e5), field(1.0), field(0.5), field(0.5)
    u = rng.normal(size=(mesh.n_faces, 2))
    u[0] = [-0.0, 1e-17]
    state = State(t=0.125, u=u, p=p, rho=rho, z=z, y=y, rho_prev=rho,
                  fluxes=np.zeros(mesh.n_faces))
    eos = EosParams(5.0, 1.0)
    path = tmp_path / "dump.vtk"
    write_vtk(mesh, state, eos, str(path))
    assert path.read_bytes() == _reference_vtk(mesh, state, eos).encode()
