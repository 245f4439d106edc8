import logging

from driftflux import driver
from driftflux.cli import main
from driftflux.errors import NewtonError


def test_cli_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[case]
name = uniform

[mesh]
nx = 3
ny = 3

[time]
dt = 0.05
t_end = 0.1
""")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "completed 2 steps" in out
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_verify_pass(capsys):
    assert main(["verify", "--suite", "flux-functions", "--seed", "1"]) == 0
    assert "[PASS] suite flux-functions" in capsys.readouterr().out


def test_cli_verify_interface(capsys):
    assert main(["verify", "--suite", "interface"]) == 0
    out = capsys.readouterr().out
    assert "front moved" in out


def test_cli_convergence(tmp_path, capsys):
    code = main(["convergence", "--meshes", "5,10", "--dts", "0.05,0.025",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "spatial order (u):" in out
    assert "temporal order (u):" in out
    table = (tmp_path / "convergence.csv").read_text().splitlines()
    assert table[0] == "n,dt,err_u,err_p,err_y"
    assert len(table) == 4  # header + three runs (no full matrix)


def test_cli_convergence_names_a_failed_run(tmp_path, capsys, caplog, monkeypatch):
    """A run that fails leaves its table row and stops the order fit with a
    named error: exit code 2, not a TypeError traceback."""
    def run_manufactured(n, dt, t_end=0.5, flux="flux_splitting"):
        if n == 10:
            raise NewtonError("Newton did not converge")
        return (1.0 / n, 2.0 / n, 3.0 / n)

    monkeypatch.setattr(driver, "run_manufactured", run_manufactured)
    with caplog.at_level(logging.ERROR, logger="driftflux"):
        code = main(["convergence", "--meshes", "5,10", "--dts", "0.05",
                     "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "10, 0.05, failed, failed, failed" in out and "order" not in out
    assert (tmp_path / "convergence.csv").read_text().splitlines()[2] == \
        "10,0.050000000000000003,failed,failed,failed"
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors[0] == "run (10, 0.05) failed: Newton did not converge"
    assert errors[-1] == "the manufactured run (10, 0.05) failed, so its error is missing"


def test_cli_bad_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


SLOSHING_14x18 = """
[case]
name = sloshing

[mesh]
nx = 14
ny = 18

[time]
dt = 0.02
t_end = 0.06
"""


def test_cli_run_in_bounds_does_not_warn(tmp_path, caplog):
    cfg = tmp_path / "sloshing.cfg"
    cfg.write_text(SLOSHING_14x18)
    with caplog.at_level(logging.WARNING, logger="driftflux"):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
