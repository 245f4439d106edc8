import numpy as np

from driftflux import driver
from driftflux.config import make_config
from driftflux.eos import EosParams
from driftflux.fields import State, face_density
from driftflux.io import cell_velocity, write_vtk
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh


def read_vtk(path):
    """(header lines, arrays by keyword or name) of a legacy binary VTK dump,
    read line by line; the file must end right after its velocity block."""
    data = open(path, "rb").read()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode(), end + 1
        return text

    def block(count):
        nonlocal pos
        values = np.frombuffer(data, dtype=">f8", count=count, offset=pos)
        pos += 8 * count
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return values

    header = [line() for _ in range(5)]
    arrays = {}
    while True:
        words = line().split()
        if words[0].endswith("_COORDINATES"):
            arrays[words[0]] = block(int(words[1]))
        elif words[0] == "CELL_DATA":
            n_cells = int(words[1])
        elif words[0] == "SCALARS":
            assert line() == "LOOKUP_TABLE default"
            arrays[words[1]] = block(n_cells)
        else:
            assert words == ["VECTORS", "velocity", "double"]
            arrays["velocity"] = block(3 * n_cells).reshape(n_cells, 3)
            break
    assert pos == len(data)
    return header, arrays


def assert_dump_matches(path, mesh, state, eos):
    """Every array of the dump equals its source bit for bit."""
    header, arrays = read_vtk(path)
    assert header[2:] == ["BINARY", "DATASET RECTILINEAR_GRID",
                          f"DIMENSIONS {mesh.nx + 1} {mesh.ny + 1} 1"]
    vel = np.zeros((mesh.n_cells, 3))
    vel[:, :2] = cell_velocity(mesh, state.u)
    expected = {"X_COORDINATES": mesh.x0 + mesh.dx * np.arange(mesh.nx + 1),
                "Y_COORDINATES": mesh.y0 + mesh.dy * np.arange(mesh.ny + 1),
                "Z_COORDINATES": np.zeros(1),
                "p": state.p, "rho": state.rho, "z": state.z, "y": state.y,
                "alpha_g": eos.a2 * state.z / state.p, "velocity": vel}
    assert list(arrays) == list(expected)
    for name, values in expected.items():
        got = arrays[name].astype(np.float64)
        assert got.shape == values.shape, name
        np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64), err_msg=name)


def test_vtk_dump_stores_every_value_bit_for_bit(tmp_path):
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
    rho[6] = y[6] = -0.0
    u = rng.normal(size=(mesh.n_faces, 2))
    u[0] = [-0.0, 1e-17]
    rho_face = face_density(rho, build_diamond_geometry(mesh))
    state = State(t=0.125, u=u, p=p, rho=rho, z=z, y=y, rho_prev=rho,
                  fluxes=np.zeros(mesh.n_faces), rho_face=rho_face, rho_face_prev=rho_face)
    eos = EosParams(5.0, 1.0)
    path = tmp_path / "dump.vtk"
    write_vtk(mesh, state, eos, str(path))
    header, arrays = read_vtk(path)
    assert header[:2] == ["# vtk DataFile Version 3.0", "driftflux t=0.125"]
    # the negative zeros keep their sign
    assert np.signbit(arrays["rho"][6]) and np.signbit(arrays["y"][6])
    assert_dump_matches(path, mesh, state, eos)


def test_each_vtk_dump_holds_its_level(tmp_path, monkeypatch):
    """Each fields_NNNNNN.vtk parses back to the state the time loop yielded at
    step NNNNNN."""
    yielded = {}
    steps = driver.steps

    def recording_steps(*args, **kwargs):
        for state, report in steps(*args, **kwargs):
            yielded[report.step] = state
            yield state, report

    monkeypatch.setattr(driver, "steps", recording_steps)
    result = driver.run_simulation(make_config("interface", nx=10, ny=2, dt=0.01, t_end=0.03,
                                               out_dir=str(tmp_path), dump_interval=1))
    problem = result.problem
    assert sorted(yielded) == [0, 1, 2, 3]
    # the front moves, so a dump of the wrong level would not match
    assert all(not np.array_equal(yielded[n].rho, yielded[n + 1].rho) for n in range(3))
    assert sorted(p.name for p in tmp_path.glob("*.vtk")) == [
        f"fields_{n:06d}.vtk" for n in range(4)]
    for n, state in yielded.items():
        assert_dump_matches(tmp_path / f"fields_{n:06d}.vtk", problem.mesh, state, problem.eos)
