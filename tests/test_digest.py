"""The numerics digest of ``tests/digest.py`` stays runnable and repeatable."""

from digest import manufactured, record


def test_two_runs_of_w2_give_equal_digests():
    first, second = (record(lambda: manufactured(steps=5)) for _ in range(2))
    assert first["error"] is None and first["digest"] == second["digest"]
    assert first["newton"] == second["newton"]
    assert first["newton"]["p"][0] > 0 and first["newton"]["y"][0] > 0
    # every level's state is digested: levels 0 to 5 of the 40x40 mesh
    assert first["fields"]["state.p"].size == 6 * 1600
