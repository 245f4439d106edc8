"""The property suites build one mesh per box shape."""

import numpy as np

import driftflux.verification as verification


def test_unit_box_is_one_mesh_per_shape():
    mesh, geom = verification._unit_box(4, 4)
    again = verification._unit_box(4, 4)
    assert again[0] is mesh and again[1] is geom
    assert verification._unit_box(3, 3)[0] is not mesh
    problems = [verification.random_wall_problem(np.random.default_rng(s)) for s in (1, 2)]
    assert all(p.mesh is mesh and p.geom is geom for p in problems)
    assert not np.array_equal(problems[0].p_init, problems[1].p_init)


def test_entropy_suite_is_the_same_with_fresh_meshes(monkeypatch):
    """The shared mesh and the patterns cached on it change no result: the
    suite computes bit for bit what it computes with a fresh mesh per problem."""
    shared = verification.suite_entropy(seed=101, n_seeds=2)
    built = []
    unit_box = verification._unit_box.__wrapped__
    monkeypatch.setattr(verification, "_unit_box",
                        lambda nx, ny: built.append(1) or unit_box(nx, ny))
    fresh = verification.suite_entropy(seed=101, n_seeds=2)
    assert len(built) == 4
    assert shared.passed and fresh.data == shared.data
