"""Command-line front end.

Subcommands: reference (emit the bundled config), tighten, dispatch,
validate, compare.  All numeric outputs are pure functions of the config,
flags, and seed; wall-clock timings are confined to the comparison report.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import csvtext
from .compile import (
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
    unit_of,
)
from .config_io import document_text, load_system
from .dispatch import (
    CostModel,
    LpTooLargeError,
    Policy,
    build_nominal_problem,
    deterministic_schedule,
    solve_dispatch,
)
from .lp import import_solver
from .model import SystemModel
from .reference import build_reference_system, reference_document
from .tighten import check_budget, choose_gain, tighten, tighten_iterative_lp
from .validation import compare_methods, evaluate, sample_disturbances

__all__ = ["main", "run"]

OUT_DIR_ENV = "CHPDISPATCH_OUT"


class DomainError(RuntimeError):
    pass


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chpdispatch",
        description="Robust dispatch for combined heat-and-power systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, with_mode: bool = True) -> None:
        sp.add_argument("--config", help="system config file (default: bundled reference)")
        sp.add_argument("--horizon", type=int, help="override horizon steps")
        sp.add_argument("--dt", type=float, help="override step length in seconds")
        sp.add_argument(
            "--out",
            default=os.environ.get(OUT_DIR_ENV, "."),
            help=f"output directory (default: ${OUT_DIR_ENV} or cwd)",
        )
        if with_mode:
            sp.add_argument("--mode", choices=["box", "budget"], default="box")
            sp.add_argument("--gamma", type=float, help="budget (required for mode=budget)")

    sp = sub.add_parser("reference", help="write the bundled reference config")
    sp.add_argument("--horizon", type=int, default=288)
    sp.add_argument("--dt", type=float, default=300.0)
    sp.add_argument("--out", default=os.environ.get(OUT_DIR_ENV, "."))

    sp = sub.add_parser("tighten", help="compute a tightened-constraint schedule")
    common(sp)
    sp.add_argument("--iterative", action="store_true", help="use the LP-iteration baseline")

    sp = sub.add_parser("dispatch", help="solve the nominal dispatch problem")
    common(sp)
    sp.add_argument("--deterministic", action="store_true", help="disable tightening (DO)")
    sp.add_argument("--plot-data", action="store_true", help="emit per-quantity bound CSVs")

    sp = sub.add_parser("validate", help="Monte Carlo validation of a policy")
    common(sp)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--deterministic", action="store_true", help="validate the DO policy")
    sp.add_argument(
        "--sampling", choices=["uniform", "budget", "vertex"], default="uniform"
    )
    sp.add_argument("--traces", action="store_true", help="emit per-sample traces CSV")
    sp.add_argument(
        "--plot-data", action="store_true",
        help="emit state-envelope CSVs (nominal, bounds, sample min/max)",
    )

    sp = sub.add_parser("compare", help="compare methods on one scenario batch")
    common(sp, with_mode=False)
    sp.add_argument(
        "--methods",
        default="do,erd-box",
        help="comma list: do, erd-box, erd-budget:G, erd-iterative-box",
    )
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _load_model(args) -> SystemModel:
    if args.config:
        model = load_system(args.config)
        if args.horizon is not None or args.dt is not None:
            raise DomainError(
                "horizon/dt overrides apply to the bundled reference only; "
                "edit the config file instead"
            )
        return model
    horizon = 288 if args.horizon is None else args.horizon
    dt = 300.0 if args.dt is None else args.dt
    return build_reference_system(horizon, dt)


def _prepare(args, gamma: float | None):
    model = _load_model(args)
    ssm = compile_state_space(model)
    constraints = compile_constraints(model, ssm)
    if gamma is not None:
        check_budget(gamma)
    tube = compile_uncertainty_tube(model)
    gain = choose_gain(ssm)
    costs = CostModel.from_model(model)
    return model, ssm, constraints, tube, gain, costs


def _schedule(args, ssm, constraints, tube, gain):
    mode = getattr(args, "mode", "box")
    gamma = getattr(args, "gamma", None)
    if mode == "budget" and gamma is None:
        raise DomainError("--gamma is required when --mode budget")
    if getattr(args, "deterministic", False):
        return deterministic_schedule(ssm, constraints, tube, gain), "do"
    if getattr(args, "iterative", False):
        return (
            tighten_iterative_lp(ssm, constraints, tube, gain, mode=mode, budget=gamma),
            f"iterative-{mode}",
        )
    return tighten(ssm, constraints, tube, gain, mode=mode, budget=gamma), mode


def _ensure_out(args) -> str:
    out = args.out
    os.makedirs(out, exist_ok=True)
    return out


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write a text, or the parts of one in turn (never joined in memory)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # ConfigError, ModelValidationError, TighteningInfeasibleError and
    # DomainError derive from ValueError or RuntimeError
    try:
        return _dispatch_command(args)
    except LpTooLargeError as exc:
        # the horizon/dt flags apply to the bundled reference only
        coarser = "fewer, longer steps in the config" if args.config else "--horizon 24 --dt 3600"
        print(f"error: {exc}; use a coarser horizon (e.g. {coarser})", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch_command(args) -> int:
    out = _ensure_out(args)

    if args.command == "reference":
        doc = reference_document(args.horizon, args.dt)
        path = os.path.join(out, "reference.yaml")
        _write(path, document_text(doc))
        print(f"wrote {path}")
        return 0

    gamma = getattr(args, "gamma", None)
    model, ssm, constraints, tube, gain, costs = _prepare(args, gamma)

    if args.command == "tighten":
        schedule, label = _schedule(args, ssm, constraints, tube, gain)
        path = os.path.join(out, "schedule.csv")
        _write(path, schedule.csv_blocks())
        print(f"wrote {path} ({label})")
        return 0

    if args.command == "dispatch":
        import time

        import_solver()
        schedule, label = _schedule(args, ssm, constraints, tube, gain)
        t0 = time.perf_counter()
        problem = build_nominal_problem(ssm, schedule, costs, tube.w_center)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        sol = solve_dispatch(ssm, schedule, costs, tube.w_center, problem=problem)
        t_solve = time.perf_counter() - t0
        _write(os.path.join(out, "dispatch.csv"), _trajectory_csv(ssm, sol))
        summary = {
            "status": "optimal",
            "objective_usd": sol.objective,
            "mode": label,
            "gamma": gamma,
            "horizon": ssm.horizon,
            "lp_variables": problem.lp.n_vars,
            "lp_inequalities": problem.lp.n_ineq,
            "lp_equalities": problem.lp.n_eq,
            "lp_nonzeros": sum(m.nnz for m in problem.lp.csr),
            "kkt_gap": sol.kkt.gap,
            "kkt_primal_residual": sol.kkt.primal_residual,
            "kkt_dual_residual": sol.kkt.dual_residual,
            "kkt_complementarity": sol.kkt.complementarity,
        }
        _write(os.path.join(out, "summary.json"), _json_text(summary))
        # wall-clock diagnostics and solver internals stay out of the deterministic summary
        timings = {
            "build_seconds": t_build,
            "solve_seconds": t_solve,
            "solver": "highs",
            "iterations": sol.iterations,
        }
        _write(os.path.join(out, "timings.json"), _json_text(timings))
        if getattr(args, "plot_data", False):
            _plot_data(out, sol, schedule)
        print(f"objective {sol.objective:.6f}, status optimal")
        return 0

    if args.command == "validate":
        schedule, label = _schedule(args, ssm, constraints, tube, gain)
        sol = solve_dispatch(ssm, schedule, costs, tube.w_center)
        policy = Policy(solution=sol, gain=gain)
        batch = sample_disturbances(
            tube, args.samples, args.seed, mode=args.sampling, budget=gamma
        )
        metrics, traces = evaluate(policy, ssm, constraints, costs, batch)
        payload = metrics.to_dict()
        payload.update({"mode": label, "gamma": gamma, "seed": args.seed, "sampling": args.sampling})
        _write(os.path.join(out, "metrics.json"), _json_text(payload))
        _write(os.path.join(out, "metrics.csv"), _metrics_csv(payload))
        if args.traces:
            _write(os.path.join(out, "samples.csv"), _samples_csv(traces))
        if getattr(args, "plot_data", False):
            _envelope_data(out, ssm, sol, schedule, traces)
        print(
            f"violation rate {metrics.violation_rate:.4%}, "
            f"J_exp {metrics.j_expected:.4f} (J_nom {metrics.j_nominal:.4f})"
        )
        return 0

    if args.command == "compare":
        methods = [m for m in args.methods.split(",") if m]
        report = compare_methods(
            ssm, constraints, tube, gain, costs, methods,
            sample_count=args.samples, seed=args.seed,
        )
        _write(os.path.join(out, "comparison.json"), _json_text(report.to_dict()))
        _write(os.path.join(out, "comparison_timings.json"), _json_text(report.timings_dict()))
        _write(os.path.join(out, "comparison.txt"), report.to_text())
        print(report.to_text())
        return 0

    raise DomainError(f"unhandled command {args.command}")


def _trajectory_csv(ssm, sol) -> Iterator[str]:
    man = ssm.manifest
    cols = (
        [f"x:{k}:{n}[{unit_of(k)}]" for k, n in man.x]
        + [f"u:{k}:{n}[{unit_of(k)}]" for k, n in man.u]
        + [f"y:{k}:{n}[{unit_of(k)}]" for k, n in man.y]
    )
    yield "step," + ",".join(cols) + "\n"
    T = ssm.horizon
    values = np.hstack([sol.x_seq[:T], sol.u_seq, sol.y_seq])
    yield from csvtext.blocks(
        map(str, range(T)), [csvtext.line([None] * len(cols))], values.tolist()
    )
    # the state after the last step has no control or output
    last = csvtext.line([None] * len(man.x) + [""] * (len(man.u) + len(man.y)))
    yield from csvtext.blocks([str(T)], [last], [sol.x_seq[T].tolist()])


def _samples_csv(traces) -> Iterator[str]:
    yield "sample,violated[bool],realized_cost[$]\n"
    # a violation flag prints as 0 or 1 through %.12g too
    values = np.column_stack((traces["violated"], traces["realized_cost"]))
    yield from csvtext.blocks(
        map(str, range(len(values))), [csvtext.line([None, None])], values.tolist()
    )


def _metrics_csv(payload: dict) -> str:
    keys = ["violation_rate", "j_nominal", "j_expected", "j_max", "j_min", "sample_count"]
    units = ["fraction", "$", "$", "$", "$", "count"]
    header = ",".join(f"{k}[{u}]" for k, u in zip(keys, units))
    row = ",".join(f"{payload[k]:.12g}" if isinstance(payload[k], float) else str(payload[k]) for k in keys)
    return header + "\n" + row + "\n"


def _bound_pairs(poly) -> dict[str, tuple[int | None, int | None]]:
    """Label stem -> (upper row, lower row), None for a side with no row
    (an infinite limit's)."""
    sides: dict[str, dict[str, int]] = {}
    for ri, label in enumerate(poly.labels):
        stem, side = label.rsplit(" ", 1)
        sides.setdefault(stem, {})[side] = ri
    return {stem: (pair.get("upper"), pair.get("lower")) for stem, pair in sides.items()}


def _bounds_csv(unit: str, fam, rows: tuple[int | None, int | None], nominal, **extra) -> Iterator[str]:
    """Per step of ``fam``: the nominal value, the original and tightened
    bounds of the (upper, lower) row pair (+-inf for a side with no row),
    then one column per ``extra`` per-step series."""
    bounds, tight = fam.polyhedron.bounds, fam.tightened_bounds
    columns = ["nominal", "orig_lower", "orig_upper", "tight_lower", "tight_upper", *extra]
    steps = fam.steps.astype(int)
    n = len(steps)
    # (upper, lower) in upper form; a side with no row is +inf
    orig = [np.inf if row is None else bounds[row] for row in rows]
    tighter = [np.full(n, np.inf) if row is None else tight[:, row] for row in rows]
    values = np.column_stack([
        nominal[steps], np.full(n, -orig[1]), np.full(n, orig[0]), -tighter[1], tighter[0],
        *(series[steps] for series in extra.values()),
    ])
    yield "step," + ",".join(f"{col}[{unit}]" for col in columns) + "\n"
    yield from csvtext.blocks(
        map(str, steps.tolist()), [csvtext.line([None] * len(columns))], values.tolist()
    )


def _plot_data(out: str, sol, schedule) -> None:
    """Per-quantity CSVs: nominal line plus original and tightened bounds."""
    # states: battery energy / tank level; controls: chp and grid active power
    targets = [
        ("x", "battery_energy", sol.x_seq),
        ("x", "tank_level", sol.x_seq),
        ("u", "chp_p", sol.u_seq),
        ("u", "grid_p", sol.u_seq),
    ]
    for fam_name, kind, seq in targets:
        fam = schedule.family(fam_name)
        for stem, rows in _bound_pairs(fam.polyhedron).items():
            if not stem.startswith(kind):
                continue
            row = rows[0] if rows[0] is not None else rows[1]
            idx = int(np.argmax(np.abs(fam.polyhedron.coefficients[row])))
            name = stem.replace("[", "_").replace("]", "").replace(" ", "_")
            _write(
                os.path.join(out, f"bounds_{name}.csv"),
                _bounds_csv(unit_of(stem), fam, rows, seq[:, idx]),
            )


def _envelope_data(out: str, ssm, sol, schedule, traces) -> None:
    """Fig-style per-state CSV: nominal, original/tightened bounds, and the
    sampled envelope from ``evaluate``'s traces."""
    fam = schedule.family("x")
    pairs = _bound_pairs(fam.polyhedron)
    for idx, (kind, name) in enumerate(ssm.manifest.x):
        rows = pairs.get(f"{kind}[{name}]")
        if rows is None:
            continue
        safe = f"{kind}_{name}".replace("[", "_").replace("]", "")
        _write(os.path.join(out, f"envelope_{safe}.csv"), _bounds_csv(
            unit_of(kind), fam, rows, sol.x_seq[:, idx],
            env_min=traces["state_min"][:, idx], env_max=traces["state_max"][:, idx],
        ))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
