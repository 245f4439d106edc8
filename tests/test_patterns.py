"""The per-step systems fill fixed sparse patterns.

Each pattern-filled matrix is compared with a COO matrix of the same
triplets, written out here as the assembly wrote them before the patterns;
a fill of at most ``DENSE_MAX`` unknowns is an ndarray, so the comparisons
go through :func:`dense`, and on every pattern of two small boxes the dense
fill equals the CSC fill entry for entry.  A short run checks that every
pattern is built once and that successive CSC matrices share its structure
but not their values.  The sort-based pattern build is checked against the
np.unique construction it replaced, and its traced memory is bounded.
"""

import copy

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import driftflux.driver as driver
import driftflux.gas_fraction as gf
import driftflux.mesh as mesh_mod
import driftflux.momentum as momentum
import driftflux.pressure_correction as pc
import driftflux.verification as verification
from driftflux import eos as E
from driftflux.boundary import BoundaryConditions
from driftflux.config import make_config
from driftflux.eos import EosParams
from driftflux.fields import State, face_density
from driftflux.gas_fraction import FLUX_FUNCTIONS
from driftflux.linalg import DENSE_MAX
from driftflux.mesh import (SparsePattern, build_diamond_geometry, build_uniform_mesh,
                            inlet_split, upwind, volume_fluxes)
from driftflux.momentum import (MomentumAssembler, ViscosityModel, assemble_dual_mass_fluxes,
                                viscous_element_matrix)
from driftflux.pressure_correction import PressureCorrector

E51 = EosParams(5.0, 1.0)
INLET_OUTLET = {"left": "inlet", "right": "outlet", "bottom": "slip", "top": "wall"}


class _Captured(Exception):
    pass


def dense(A):
    """The entries of a pattern fill, an ndarray or a sparse matrix."""
    return A.toarray() if sp.issparse(A) else A


def _mesh_patterns(mesh):
    """The :class:`SparsePattern` entries of the mesh's cache, by key."""
    return {key: value for key, value in mesh._cache.items()
            if isinstance(value, SparsePattern)}


def _assert_same_matrix(A, oracle):
    if A.shape[0] <= DENSE_MAX:
        assert type(A) is np.ndarray
    else:
        assert A.format == "csc"
    assert A.shape == oracle.shape
    scale = np.max(np.abs(oracle.toarray()))
    assert np.max(np.abs(dense(A) - oracle.toarray())) <= 1e-14 * scale


def _coo(n, triplets):
    rows, cols, vals = [np.concatenate(part) for part in zip(*triplets)]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def _pairs(mesh, col, val, row0=0):
    """+val in row K, -val in row L of every internal edge, in column ``col``."""
    return (np.concatenate([mesh.edge_K, mesh.edge_L]) + row0,
            np.concatenate([col, col]), np.concatenate([val, -val]))


# --- momentum ---------------------------------------------------------------

def _dirichlet(mesh):
    """Dirichlet dofs from the boundary tags: both components of a wall,
    inlet or outlet face, the normal one of a slip face."""
    dirichlet = []
    for b, tag in enumerate(mesh.boundary_tags):
        f = mesh.n_internal + b
        dirichlet += [2 * f + int(mesh.face_axis[f])] if tag == "slip" else [2 * f, 2 * f + 1]
    return np.array(dirichlet)


def _momentum_oracle(mesh, geom, constant, rho_n, rho_nm1, u_n, dual, p, dt, mu,
                     body, source, t, bc):
    F, M = mesh.n_faces, mesh.n_cells
    lump = geom.face_lump
    trip = []
    h = 0.5 * dual.ravel()
    for i in (0, 1):
        d = 2 * np.arange(F) + i
        trip.append((d, d, lump * rho_n / dt))
        fo = 2 * mesh.cell_faces[:, momentum._CORNER_OUT].ravel() + i
        fi = 2 * mesh.cell_faces[:, momentum._CORNER_IN].ravel() + i
        trip += [(fo, fo, h), (fo, fi, h), (fi, fi, -h), (fi, fo, -h)]
    gd = np.empty((M, 8), dtype=int)
    gd[:, 0::2] = 2 * mesh.cell_faces
    gd[:, 1::2] = 2 * mesh.cell_faces + 1
    element = viscous_element_matrix(mesh.dx, mesh.dy, constant)
    trip.append((np.repeat(gd, 8, axis=1).ravel(), np.tile(gd, (1, 8)).ravel(),
                 (mu[:, None, None] * element).ravel()))
    dirichlet = _dirichlet(mesh)
    constrained = np.zeros(2 * F, dtype=bool)
    constrained[dirichlet] = True
    trip = [(r[~constrained[r]], c[~constrained[r]], v[~constrained[r]]) for r, c, v in trip]
    trip.append((dirichlet, dirichlet, np.ones(dirichlet.size)))

    rhs = np.zeros(2 * F)
    dp = p[mesh.edge_K] - p[mesh.edge_L]
    sv = source(mesh.face_midpoint, t)
    u_bnd = np.zeros((F, 2))
    u_bnd[mesh.n_internal:] = bc.face_velocity(mesh, t)
    for i in (0, 1):
        d = 2 * np.arange(F) + i
        rhs[d] += lump * rho_nm1 * u_n[:, i] / dt
        rhs[2 * np.arange(mesh.n_internal) + i] += mesh.edge_measure * dp * mesh.edge_normal[:, i]
        rhs[d] += lump * rho_n * body[i]
        rhs[d] += lump * sv[:, i]
    rhs[dirichlet] = u_bnd.ravel()[dirichlet]
    return _coo(2 * F, trip), rhs


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("tags", ["slip", "inlet_outlet"])
def test_momentum_matrix_matches_coo_oracle(tags, constant):
    rng = np.random.default_rng(7)
    tag_map = ({s: "slip" for s in ("left", "right", "bottom", "top")}
               if tags == "slip" else INLET_OUTLET)
    mesh = build_uniform_mesh(5, 4, 1.0, 0.8, tags=tag_map)
    geom = build_diamond_geometry(mesh)
    F, M = mesh.n_faces, mesh.n_cells
    visc = (ViscosityModel("constant", mu=0.3) if constant
            else ViscosityModel("density_scaled", c=2.0))
    rho_n, rho_nm1 = rng.uniform(0.5, 2.0, (2, F))
    u_n = rng.normal(size=(F, 2))
    p = rng.uniform(0.5, 2.0, M)
    mu = visc.cell_viscosity(rng.uniform(0.5, 2.0, M))
    dual = assemble_dual_mass_fluxes(mesh, rng.normal(size=F))
    assert np.all(dual != 0.0)
    bc = BoundaryConditions(velocity=lambda x, t: np.column_stack([1.0 + x[:, 1], -x[:, 0] * t]))
    body = (0.3, -9.81)

    def source(x, t):
        return np.column_stack([np.sin(x[:, 0]) * t, np.cos(x[:, 1])])

    args = (rho_n, rho_nm1, u_n, dual, p, 0.05, mu)
    kw = dict(body_accel=body, source=source, t=0.1, bc=bc)
    oracle, rhs_oracle = _momentum_oracle(mesh, geom, constant, *args, body, source, 0.1, bc)
    asm = MomentumAssembler(mesh, geom, visc)
    A, rhs = asm.assemble(*args, **kw)
    _assert_same_matrix(A, oracle)
    assert mesh.cached("momentum_pattern", None).nnz == oracle.nnz
    assert np.max(np.abs(rhs - rhs_oracle)) <= 1e-14 * np.max(np.abs(rhs_oracle))
    # a second fill of the same pattern with other values
    A2, _ = asm.assemble(*args[:-1], 2.0 * mu, **kw)
    oracle2, _ = _momentum_oracle(mesh, geom, constant, *args[:-1], 2.0 * mu, body, source,
                                  0.1, bc)
    _assert_same_matrix(A2, oracle2)


# --- pressure Jacobian ------------------------------------------------------

def _capture_newton(monkeypatch, module, run):
    """(residual, jacobian, x0) of the first Newton solve ``run`` starts."""
    captured = {}

    def spy(residual, jacobian, x0, *args, **kwargs):
        captured.update(residual=residual, jacobian=jacobian, x0=np.array(x0))
        raise _Captured

    monkeypatch.setattr(module, "newton_solve", spy)
    with pytest.raises(_Captured):
        run()
    return captured["jacobian"], captured["x0"]


def _pressure_oracle(mesh, geom, state, u_tilde, dt, bc, eos, x):
    M, nint = mesh.n_cells, mesh.n_internal
    K, L = mesh.edge_K, mesh.edge_L
    bK = mesh.face_K[nint:]
    p_old = state.p
    vol_dt = mesh.cell_measure / dt
    c_edge = dt * mesh.edge_measure**2 / (geom.diamond * state.rho_face[:nint])
    v_all = volume_fluxes(mesh, u_tilde)
    vb_out, vb_in = inlet_split(mesh, v_all[nint:])

    p, z = x[:M], x[M:]
    rho_c = E.rho_from_pz(p, z, eos)
    drdp, drdz = E.drho_dp_pz(p, z, eos), E.drho_dz_pz(p, z, eos)
    v = v_all[:nint] + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))
    up = upwind(mesh, v)[0]  # upwinded by the iterate's own edge volume fluxes
    c_rho, c_z = c_edge * rho_c[up], c_edge * z[up]
    inlet = mesh.boundary_tags == "inlet"
    y_in = bc.inlet_mass_fraction
    drin_dp = np.where(inlet, E.drho_dp_py(p[bK], y_in, eos), 0.0)
    idx = np.arange(M)
    return _coo(2 * M, [
        _pairs(mesh, K, c_rho), _pairs(mesh, L, -c_rho), _pairs(mesh, up, v * drdp[up]),
        _pairs(mesh, M + up, v * drdz[up]),
        _pairs(mesh, K, c_z, M), _pairs(mesh, L, -c_z, M), _pairs(mesh, M + up, v, M),
        (idx, idx, vol_dt * drdp), (idx, M + idx, vol_dt * drdz),
        (M + idx, M + idx, np.full(M, vol_dt)),
        (bK, bK, vb_out * drdp[bK]), (bK, M + bK, vb_out * drdz[bK]), (M + bK, M + bK, vb_out),
        (bK, bK, -vb_in * drin_dp), (M + bK, bK, -vb_in * drin_dp * y_in),
    ])


def test_pressure_jacobian_matches_coo_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    mesh = build_uniform_mesh(6, 5, 1.2, 1.0, tags=INLET_OUTLET)
    geom = build_diamond_geometry(mesh)
    M, nint = mesh.n_cells, mesh.n_internal
    p = rng.uniform(0.5, 2.0, M)
    y = rng.uniform(0.2, 0.6, M)
    rho = E.rho_from_py(p, y, E51)
    rho_face = face_density(rho, geom)
    state = State(t=0.0, u=np.zeros((mesh.n_faces, 2)), p=p, rho=rho, z=rho * y, y=y,
                  rho_prev=rho.copy(), fluxes=np.zeros(mesh.n_faces),
                  rho_face=rho_face, rho_face_prev=rho_face)
    u_tilde = rng.normal(size=(mesh.n_faces, 2))
    u_tilde[rng.permutation(nint)[: int(0.3 * nint)]] = 0.0
    bc = BoundaryConditions(inlet_mass_fraction=0.3)
    dt = 0.05
    corr = PressureCorrector(mesh, geom, E51, bc)
    jacobian, x0 = _capture_newton(
        monkeypatch, pc, lambda: corr.step(state, u_tilde, dt, dt))
    assert np.array_equal(x0[:M], p)

    v = volume_fluxes(mesh, u_tilde)
    assert np.mean(v[:nint] == 0.0) >= 0.25
    assert np.any(v[:nint] > 0) and np.any(v[:nint] < 0)
    vb_in = inlet_split(mesh, v[nint:])[1]
    assert np.any(vb_in > 0)  # inflow through inlet faces

    x1 = x0 * rng.uniform(0.95, 1.05, x0.size)
    for x in (x0, x1):
        _assert_same_matrix(jacobian(x), _pressure_oracle(mesh, geom, state, u_tilde, dt,
                                                          bc, E51, x))


# --- y-correction Jacobian --------------------------------------------------

@pytest.mark.parametrize("flux", ["flux_splitting", "godunov"])
def test_y_jacobian_matches_coo_oracle(monkeypatch, flux):
    rng = np.random.default_rng(13)
    mesh = build_uniform_mesh(6, 5, 1.2, 1.0)
    M = mesh.n_cells
    K, L = mesh.edge_K, mesh.edge_L
    rho = rng.uniform(1.0, 4.0, M)
    z = rho * rng.uniform(0.1, 0.9, M)
    G = rng.normal(size=mesh.n_internal)
    G[rng.permutation(G.size)[: G.size // 5]] = 0.0
    diffusion, dt = 0.1, 0.05
    flux_fn = FLUX_FUNCTIONS[flux]
    jacobian, y0 = _capture_newton(monkeypatch, gf, lambda: gf.correct_mass_fraction(
        mesh, rho, z, G, flux_fn, diffusion, dt))

    up, down = upwind(mesh, G)
    dcoef = diffusion * mesh.edge_measure / mesh.d_sigma
    idx = np.arange(M)
    for y in (y0, rng.uniform(0.0, 1.0, M)):
        d_up, d_down = flux_fn.partials(y[up], y[down])
        oracle = _coo(M, [_pairs(mesh, up, G * d_up), _pairs(mesh, down, G * d_down),
                          _pairs(mesh, K, dcoef), _pairs(mesh, L, -dcoef),
                          (idx, idx, mesh.cell_measure / dt * rho)])
        _assert_same_matrix(jacobian(y), oracle)


# --- pressure renormalization ----------------------------------------------

def test_renormalization_system_matches_bmat_oracle():
    """The bordered operator against the COO operator bordered by sp.bmat, as
    renormalize_pressure built it before the pattern, and the renormalized
    pressure against that system's solution."""
    rng = np.random.default_rng(17)
    mesh = build_uniform_mesh(5, 4, 1.0, 0.8)
    geom = build_diamond_geometry(mesh)
    M, K, L = mesh.n_cells, mesh.edge_K, mesh.edge_L
    rho_n, rho_nm1 = rng.uniform(0.5, 2.0, (2, mesh.n_internal))
    p = rng.uniform(0.5, 2.0, M)

    def operator(rho_face):
        w = mesh.edge_measure**2 / geom.diamond / rho_face
        return _coo(M, [_pairs(mesh, K, w), _pairs(mesh, L, -w)])

    vol = np.full(M, mesh.cell_measure)
    kkt = sp.bmat([[operator(rho_n), vol[:, None]], [vol[None, :], None]], format="csc")
    _assert_same_matrix(pc.assemble_pressure_operator(mesh, geom, rho_n, 1.0,
                                                      border=mesh.cell_measure), kkt)
    expected = spla.spsolve(kkt, np.append(operator(np.sqrt(rho_n * rho_nm1)) @ p,
                                           vol @ p))[:M]
    got = pc.renormalize_pressure(mesh, geom, p, rho_n, rho_nm1)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_successive_fills_own_their_data():
    """The same triplets in a 3-by-3 pattern, filled dense, and in the top
    left corner of a pattern just above DENSE_MAX, filled CSC."""
    for n in (3, DENSE_MAX + 1):
        pattern = SparsePattern(n, [(np.array([0, 1, 2, 0, -1]), np.array([0, 1, 2, 2, 0])),
                                    (np.array([0]), np.array([0]))])

        def expected(corner):
            out = np.zeros((n, n))
            out[:3, :3] = corner
            return out

        A = pattern.matrix([np.array([1.0, 2.0, 3.0, 4.0, 9.0]), np.array([0.5])])
        B = pattern.matrix([np.array([5.0, 6.0, 7.0, 8.0, 9.0]), np.array([0.5])])
        if n <= DENSE_MAX:
            assert type(A) is np.ndarray and A.shape == (n, n)
            assert not np.shares_memory(A, B)
            B[:] = 0.0
        else:
            assert A.format == "csc" and A.has_canonical_format
            assert np.shares_memory(A.indices, B.indices)
            assert np.shares_memory(A.indptr, B.indptr)
            assert not np.shares_memory(A.data, B.data)
            B.data[:] = 0.0
        assert np.array_equal(dense(A), expected([[1.5, 0.0, 4.0], [0.0, 2.0, 0.0],
                                                  [0.0, 0.0, 3.0]]))
        C = pattern.matrix([np.array([1.0, 1.0, 1.0, 1.0, 9.0]), np.array([1.0])])
        assert np.array_equal(dense(C), expected([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                                  [0.0, 0.0, 1.0]]))
        # the value blocks may split the triplets anywhere, but must cover them all
        D = pattern.matrix([np.array([1.0, 1.0]), np.array([1.0, 1.0, 9.0, 1.0])])
        assert np.array_equal(dense(D), dense(C))
        for short_or_long in ([np.ones(5)], [np.ones(5), np.ones(2)]):
            with pytest.raises(ValueError):
                pattern.matrix(short_or_long)


@pytest.mark.parametrize("shape", [(4, 4), (3, 3)])
def test_dense_fill_equals_the_csc_fill(monkeypatch, shape):
    """Every fill of every pattern of a small closed box (the momentum
    matrix, whose wall rows are dropped and whose element entries repeat,
    the pressure Jacobian, the bordered renormalization system, the density
    prediction's transport matrix and the y Jacobian on the same pattern),
    and of a random pattern with duplicate and dropped triplets, is dense and
    equals the CSC fill of the same blocks entry for entry."""
    fills = []
    fill = mesh_mod.SparsePattern.matrix

    def recording_fill(self, blocks):
        blocks = list(blocks)
        fills.append((self, blocks, fill(self, blocks)))
        return fills[-1][2]

    monkeypatch.setattr(mesh_mod.SparsePattern, "matrix", recording_fill)
    problem = verification.random_wall_problem(np.random.default_rng(3), *shape)
    driver.simulate(problem, dt=0.05, t_end=0.1, renormalize=True)
    mesh = problem.mesh
    n_run = len(fills)
    rng = np.random.default_rng(9)
    _, rho, z, p, G = verification.drift_instance(rng, E51, *shape)
    gf.correct_mass_fraction(mesh, rho, z, G, FLUX_FUNCTIONS["godunov"], 0.0, 0.05)
    assert len(fills) > n_run  # y Jacobians
    rows = rng.integers(-3, 9, 200)
    random = SparsePattern(9, [(rows, rng.integers(0, 9, 200)),
                               (np.array([-1, 2]), np.array([4, 2]))])
    random.matrix([rng.normal(size=200), rng.normal(size=2)])

    patterns = _mesh_patterns(mesh)
    assert sorted(patterns) == ["bordered_pressure_operator", "momentum_pattern",
                                "pressure_jacobian", "transport"]
    assert {id(pattern) for pattern, _, _ in fills} == {
        id(pattern) for pattern in [random, *patterns.values()]}
    for pattern, blocks, A in fills:
        assert type(A) is np.ndarray and A.shape[0] <= DENSE_MAX
        as_csc = copy.copy(pattern)
        as_csc._dense = None
        B = fill(as_csc, blocks)
        assert B.format == "csc"
        assert np.array_equal(A, B.toarray())


def test_closed_box_step_builds_no_sparse_matrix(monkeypatch):
    """Once its patterns exist, a 4x4 closed-box run with renormalization
    constructs and copies no scipy sparse matrix: every system it fills has
    at most DENSE_MAX unknowns and goes to the dense solve as an ndarray."""
    problem = verification.random_wall_problem(np.random.default_rng(4))
    driver.simulate(problem, dt=0.05, t_end=0.1, renormalize=True)  # the patterns
    built, copied = [], []
    init, shallow = sp.csc_matrix.__init__, copy.copy

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_copy(x):
        if sp.issparse(x):
            copied.append(1)
        return shallow(x)

    monkeypatch.setattr(sp.csc_matrix, "__init__", counting_init)
    monkeypatch.setattr(mesh_mod.copy, "copy", counting_copy)
    copy.copy(sp.csc_matrix((1, 1)))  # the spies are in place
    assert (built, copied) == ([1], [1])
    problem = verification.random_wall_problem(np.random.default_rng(5))
    res = driver.simulate(problem, dt=0.05, t_end=0.1, renormalize=True)
    assert len(res.reports) == 3
    assert (built, copied) == ([1], [1])


# --- the pattern build -----------------------------------------------------

def _unique_build(n, blocks):
    """(nnz, indices, indptr, slot) of the np.unique construction that the
    sort-based build replaced, on the same blocks."""
    flat = [[a.ravel() for a in np.broadcast_arrays(rows, cols)] for rows, cols in blocks]
    rows, cols = [np.concatenate(part) for part in zip(*flat)]
    keep = rows >= 0
    keys, slot = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    indices = (keys % n).astype(np.int32)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(keys // n, minlength=n))]).astype(np.int32)
    full = np.full(rows.size, keys.size, dtype=np.int32)
    full[keep] = slot
    return keys.size, indices, indptr, full


def _assert_matches_unique_build(pattern, n, blocks):
    nnz, indices, indptr, slot = _unique_build(n, blocks)
    assert pattern.nnz == nnz
    assert np.array_equal(pattern.indices, indices) and pattern.indices.dtype == np.int32
    assert np.array_equal(pattern.indptr, indptr) and pattern.indptr.dtype == np.int32
    assert np.array_equal(pattern._slot, slot) and pattern._slot.dtype == np.int32


@pytest.mark.parametrize("case", ["sloshing", "manufactured", "bubble_column", "interface"])
def test_every_mesh_pattern_matches_the_unique_build(monkeypatch, case):
    built = []
    init = mesh_mod.SparsePattern.__init__

    def recording_init(self, n, blocks):
        init(self, n, blocks)
        built.append((self, n, blocks))

    monkeypatch.setattr(mesh_mod.SparsePattern, "__init__", recording_init)
    config = make_config(case, nx=6, ny=8, dt=0.01, t_end=0.01, renormalize=True)
    mesh = driver.run_simulation(config).problem.mesh
    assert sorted(_mesh_patterns(mesh)) == ["bordered_pressure_operator", "momentum_pattern",
                                            "pressure_jacobian", "transport"]
    assert len(built) == 4
    for pattern, n, blocks in built:
        _assert_matches_unique_build(pattern, n, blocks)


def test_pattern_with_duplicate_and_dropped_triplets_matches_the_unique_build():
    rng = np.random.default_rng(5)
    rows = rng.integers(-3, 9, 200)
    blocks = [(rows, rng.integers(0, 9, 200)), (np.array([-1, -1]), np.array([4, 0])),
              (np.arange(9)[:, None], np.array([[0, 8, 0]])), (np.array([2]), np.array([2]))]
    pattern = SparsePattern(9, blocks)
    _assert_matches_unique_build(pattern, 9, blocks)
    # every dropped triplet lands in the trailing bin
    dropped = np.concatenate([rows, [-1, -1]]) < 0
    assert np.all(pattern._slot[:202][dropped] == pattern.nnz)


def test_pattern_keys_do_not_overflow_beyond_int32():
    n = 50_000  # n * n overflows int32
    rows = np.array([n - 1, 0, n - 1, 7, n - 1], dtype=np.int32)
    cols = np.array([n - 1, n - 1, n - 1, 0, 3], dtype=np.int32)
    pattern = SparsePattern(n, [(rows, cols)])
    _assert_matches_unique_build(pattern, n, [(rows.astype(np.int64), cols.astype(np.int64))])
    A = pattern.matrix([np.array([1.0, 2.0, 3.0, 4.0, 5.0])])
    assert A[n - 1, n - 1] == 4.0 and A[0, n - 1] == 2.0 and A[7, 0] == 4.0
    assert A[n - 1, 3] == 5.0 and A.nnz == 4


def test_momentum_pattern_build_memory():
    """Building the momentum pattern of a 40x40 sloshing mesh peaks at most
    44 bytes per triplet of traced memory and keeps at most 7 (the np.unique
    build took 87 and kept 10.7)."""
    problem = driver.build_case(make_config("sloshing", nx=40, ny=40))
    MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)  # builds the tables
    momentum.momentum_pattern(build_uniform_mesh(3, 3, 1.0, 1.0))  # first-call costs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pattern = problem.mesh.cached("momentum_pattern", momentum.momentum_pattern)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    triplets = pattern._slot.size
    assert triplets == 160_320
    assert (peak - start) / triplets <= 44.0
    assert (kept - start) / triplets <= 7.0


def test_momentum_fill_memory(monkeypatch):
    """One fill of a 40x40 momentum pattern peaks at its (nnz + 1)-entry data
    array plus numpy's fixed-size ufunc buffers: no concatenated copy of the
    values, which would add 8 bytes per triplet.  Its sums equal those of
    the concatenated values bit for bit, and blocks that miss a triplet
    raise."""
    problem = driver.build_case(make_config("sloshing", nx=40, ny=40))
    m = problem.mesh
    assembler = MomentumAssembler(m, problem.geom, problem.viscosity)
    filled = []
    fill = mesh_mod.SparsePattern.matrix

    def recording_fill(self, blocks):
        blocks = list(blocks)
        filled.append((self, blocks))
        return fill(self, blocks)

    monkeypatch.setattr(mesh_mod.SparsePattern, "matrix", recording_fill)
    assembler.assemble(np.ones(m.n_faces), np.ones(m.n_faces), np.zeros((m.n_faces, 2)),
                       np.ones((m.n_cells, 4)), np.zeros(m.n_cells), 0.01, np.ones(m.n_cells))
    (pattern, blocks), = filled
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        A = fill(pattern, blocks)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = (pattern.nnz + 1) * 8
    assert pattern._slot.size == 160_320 and len(blocks) == 4
    assert data <= kept - start <= data + 1024
    assert peak - start <= data + 128 * 1024 < data + 8 * pattern._slot.size
    sums = np.bincount(pattern._slot, np.concatenate(blocks), minlength=pattern.nnz + 1)
    assert np.array_equal(A.data, sums[:-1])
    with pytest.raises(ValueError):
        fill(pattern, blocks[:-1])


# --- structure built once ---------------------------------------------------

def test_momentum_tables_are_built_once_per_mesh_and_read_only(monkeypatch):
    """A second problem on a box shape builds no element matrix or dof table:
    its assembler shares the mesh's read-only tables and element matrix."""
    first = verification.random_wall_problem(np.random.default_rng(3), 3, 5)
    driver.simulate(first, dt=0.05, t_end=0.05)
    for name in ("viscous_element_matrix", "momentum_tables"):
        def spy(*args, _name=name):
            raise AssertionError(f"{_name} called again")
        monkeypatch.setattr(momentum, name, spy)
    second = verification.random_wall_problem(np.random.default_rng(4), 3, 5)
    assert second.mesh is first.mesh
    assert len(driver.simulate(second, dt=0.05, t_end=0.1).reports) == 3
    a = MomentumAssembler(first.mesh, first.geom, first.viscosity)
    b = MomentumAssembler(second.mesh, second.geom, second.viscosity)
    assert a.tables is b.tables and a.element is b.element
    assert not a.element.flags.writeable
    for name, array in vars(a.tables).items():
        if name != "ndof":
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0



def test_patterns_built_once_and_matrices_do_not_alias(monkeypatch):
    built = []
    filled = {}
    init, fill = mesh_mod.SparsePattern.__init__, mesh_mod.SparsePattern.matrix

    def counting_init(self, n, blocks):
        built.append(n)
        init(self, n, blocks)

    def recording_fill(self, blocks):
        A = fill(self, blocks)
        entry = (self, self.indices.copy(), self.indptr.copy(), [])
        filled.setdefault(id(self), entry)[3].append(A)
        return A

    monkeypatch.setattr(mesh_mod.SparsePattern, "__init__", counting_init)
    monkeypatch.setattr(mesh_mod.SparsePattern, "matrix", recording_fill)

    coo_built = []

    class CountingCoo(sp.coo_matrix):
        def __init__(self, *args, **kwargs):
            coo_built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sp, "coo_matrix", CountingCoo)
    for module in (momentum, pc, gf, mesh_mod):
        if hasattr(module, "coo_matrix"):
            monkeypatch.setattr(module, "coo_matrix", CountingCoo)
    per_step = []
    advance = driver.advance

    def counting_advance(*args, **kwargs):
        before = len(coo_built)
        out = advance(*args, **kwargs)
        per_step.append(len(coo_built) - before)
        return out

    monkeypatch.setattr(driver, "advance", counting_advance)

    sp.coo_matrix((1, 1))  # the spy is in place
    # 12x12, so that every pattern has more than DENSE_MAX unknowns and is
    # filled CSC
    config = make_config("manufactured", nx=12, ny=12, dt=0.01, t_end=0.03)
    result = driver.run_simulation(config)
    mesh = result.problem.mesh
    assert mesh.n_cells > DENSE_MAX

    # momentum, pressure Jacobian and the transport pattern that the density
    # prediction and the y Jacobian share, each built once
    assert sorted(built) == sorted([mesh.n_cells, 2 * mesh.n_cells, 2 * mesh.n_faces])
    assert len(filled) == 3
    for pattern, indices, indptr, matrices in filled.values():
        assert len(matrices) >= 3
        for A, B in zip(matrices, matrices[1:]):
            assert np.shares_memory(A.indices, B.indices)
            assert np.shares_memory(A.indptr, B.indptr)
            assert not np.shares_memory(A.data, B.data)
        assert np.array_equal(pattern.indices, indices)
        assert np.array_equal(pattern.indptr, indptr)
        assert np.array_equal(matrices[-1].indices, indices)
    # neither the set-up (the density prediction) nor any step builds a COO
    # matrix
    assert len(coo_built) == 1
    assert per_step == [0, 0, 0]


def test_inlet_state_evaluated_once_per_step():
    problem = driver.build_case(make_config("manufactured", nx=6, ny=6))
    inlet_state = problem.bc.inlet_state
    times = []

    def counted(x, t):
        times.append(t)
        return inlet_state(x, t)

    problem.bc.inlet_state = counted
    dt = 0.01
    driver.simulate(problem, dt, 3 * dt)
    # once in the density prediction, then once per pressure-correction step
    assert times == pytest.approx([0.0, dt, 2 * dt, 3 * dt])
