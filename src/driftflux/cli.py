"""Command-line entry point: run, convergence, verify."""

import argparse
import logging
import os
import sys

from .config import load_config
from .driver import convergence_study, run_simulation
from .errors import DriftFluxError
from .verification import SUITES, run_suite

log = logging.getLogger("driftflux")


def _setup_logging():
    level = os.environ.get("DRIFTFLUX_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_run(args):
    config = load_config(args.config)
    if args.out:
        config.out_dir = args.out
    result = run_simulation(config)
    rep = result.reports[-1]
    print(f"completed {rep.step} steps to t={rep.time:g}: mass={rep.mass:.12g} "
          f"gas_mass={rep.gas_mass:.12g} p in [{rep.p_min:.6g}, {rep.p_max:.6g}] "
          f"y in [{rep.y_min:.6g}, {rep.y_max:.6g}]")
    if config.out_dir:
        print(f"diagnostics written to {config.out_dir}/diagnostics.csv")
    return 0


def _cmd_convergence(args):
    meshes = [int(v) for v in args.meshes.split(",")]
    dts = [float(v) for v in args.dts.split(",")]
    study = convergence_study(meshes, dts)
    print("n, dt, err_u, err_p, err_y")
    for (n, dt), errs in sorted(study.errors.items()):
        if errs is None:
            print(f"{n}, {dt:g}, failed, failed, failed")
        else:
            print(f"{n}, {dt:g}, {errs[0]:.6e}, {errs[1]:.6e}, {errs[2]:.6e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "convergence.csv"), "w") as fh:
            fh.write("n,dt,err_u,err_p,err_y\n")
            for (n, dt), errs in sorted(study.errors.items()):
                vals = "failed,failed,failed" if errs is None else \
                    f"{errs[0]:.17g},{errs[1]:.17g},{errs[2]:.17g}"
                fh.write(f"{n},{dt:.17g},{vals}\n")
    if len(meshes) >= 2:
        for var in ("u", "p", "y"):
            print(f"spatial order ({var}): {study.observed_order(var, 'space'):.3f}")
    if len(dts) >= 2:
        for var in ("u", "p", "y"):
            print(f"temporal order ({var}): {study.observed_order(var, 'time'):.3f}")
    return 0


def _cmd_verify(args):
    result = run_suite(args.suite, seed=args.seed)
    print(result.report())
    return 0 if result.passed else 1


def main(argv=None):
    _setup_logging()
    parser = argparse.ArgumentParser(prog="driftflux",
                                     description="drift-flux pressure-correction solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="manufactured-solution study")
    p_conv.add_argument("--meshes", required=True, help="comma-separated cell counts")
    p_conv.add_argument("--dts", required=True, help="comma-separated time steps")
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(func=_cmd_convergence)

    p_ver = sub.add_parser("verify", help="run a randomized property suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DriftFluxError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
