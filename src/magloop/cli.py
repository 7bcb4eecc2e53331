"""Command-line interface: one experiment per process invocation.

Subcommands:

  run     full continuation experiment from a JSON config; with
          "n_steps": 1 it is a single minimax solve at (eps0, tau0)
  flow    integrate the Lorentz flow and write a trajectory CSV
  oracle  reference values (larmor / shoot)

Exit codes: 0 ConvergedExtremal or DivergingLengths, 2 config error (a
ConfigError, raised by the type or entry point that owns the check),
3 Inconclusive, 4 NoNegativeLoopFound.
No network access; all output lands under the experiment's output_dir.
Relative output paths resolve under $MAGLOOP_OUTPUT_ROOT when that is set.
json_fields writes every result's JSON, so no other module knows the format.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action import ActionParams
from .continuation import (BETA_FRAC, Classification, ConvergedExtremal,
                           DivergingLengths, Inconclusive, Schedule,
                           continuation_run)
from .dynamics import FlowState, _norm_sq, integrate_flow, write_trajectory_csv
from .errors import (ConfigError, NoNegativeLoopFound, _check_keys, _number,
                     _require)
from .geometry import ChartPoint, GeometryKind, GeometrySpec
from .loops import Loop, save_loop_csv
from .minimax import DescentSettings, init_sweep_family
from .oracle import (_check_loop_size, _state_gap, larmor_orbit,
                     orbit_to_loop, shooting_periodic)

OUTPUT_ROOT_ENV = "MAGLOOP_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_NEGATIVE_LOOP = 4

# the default mesh of a run: vertices per loop, loops per family row and
# rows of a cylinder family
N_VERTICES = 128
FAMILY_SIZE = 33
M_P = 8
# upper bound on the vertices of one loop family (rows = m_p for a cylinder,
# 1 for a path); the family alone then stays below about 160 MB
MAX_FAMILY_VERTICES = 10 ** 7
# upper bound on action.n_steps: with rho = 0.5 and eps0 = 1e-2, eps falls
# below 1e-300 before step 1000
MAX_STEPS = 1000
# upper bound on oracle shoot --seeds [default 5]: each seed takes at most
# 1 + oracle._NEWTON_ITERS return searches and two duplicate tests (an early
# merge check and its candidate's), each one signature read off a search
# that already ran and compared with those of the orbits kept
MAX_SHOOT_SEEDS = 1000
# every chart depends on x alone, so a start's y only translates the orbit:
# flow starts at y = FLOW_Y0 and oracle shoot's seed box is centred at
# y = SHOOT_Y0
FLOW_Y0 = 0.0
SHOOT_Y0 = 0.5


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    geometry: GeometrySpec
    E: float
    w_shape: str
    n_vertices: int
    family_size: int
    m_p: int
    schedule: Schedule
    delta: float
    solver: DescentSettings
    output_dir: str
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "geometry": json_fields(self.geometry),
            "E": self.E,
            "w_shape": self.w_shape,
            "discretization": {
                "n_vertices": self.n_vertices,
                "family_size": self.family_size,
                "m_p": self.m_p,
            },
            "action": {
                "eps0": self.schedule.eps0,
                "tau0": self.schedule.tau0,
                "rho": self.schedule.rho,
                "n_steps": self.schedule.n_steps,
                "delta": self.delta,
            },
            "solver": {
                "max_iters": self.solver.max_iters,
                "grad_tol": self.solver.grad_tol,
            },
            "output_dir": self.output_dir,
            "seed": self.seed,
        }


def parse_config_dict(obj: dict) -> ExperimentConfig:
    _check_keys(obj, {"geometry", "E", "w_shape", "discretization", "action",
                      "solver", "output_dir", "seed"}, "config")
    geometry = GeometrySpec.from_json_dict(_require(obj, "geometry", "config"))

    E = _number(obj, "E", "config", required=True)

    w_shape = _require(obj, "w_shape", "config")
    if w_shape not in ("path", "cylinder"):
        raise ConfigError("config.w_shape: must be 'path' or 'cylinder'")

    disc = obj.get("discretization", {})
    _check_keys(disc, {"n_vertices", "family_size", "m_p"},
                "config.discretization")
    n_vertices = _number(disc, "n_vertices", "config.discretization",
                         default=N_VERTICES, integer=True)
    family_size = _number(disc, "family_size", "config.discretization",
                          default=FAMILY_SIZE, integer=True)
    m_p = _number(disc, "m_p", "config.discretization", default=M_P,
                  integer=True)
    if n_vertices < 3:
        raise ConfigError("config.discretization.n_vertices: must be >= 3")
    if family_size < 3:
        raise ConfigError("config.discretization.family_size: must be >= 3")
    if m_p < 1:
        raise ConfigError("config.discretization.m_p: must be >= 1")
    size = n_vertices * family_size * (m_p if w_shape == "cylinder" else 1)
    if size > MAX_FAMILY_VERTICES:
        raise ConfigError(
            f"config.discretization: n_vertices * family_size * rows = "
            f"{size} exceeds {MAX_FAMILY_VERTICES}")

    act = _require(obj, "action", "config")
    _check_keys(act, {"eps0", "tau0", "rho", "n_steps", "delta"},
                "config.action")
    schedule = Schedule(
        eps0=_number(act, "eps0", "config.action", required=True),
        tau0=_number(act, "tau0", "config.action", required=True),
        rho=_number(act, "rho", "config.action", required=True),
        n_steps=_number(act, "n_steps", "config.action", required=True,
                        integer=True))
    if schedule.n_steps > MAX_STEPS:
        raise ConfigError(
            f"config.action.n_steps: {schedule.n_steps} exceeds {MAX_STEPS}")
    delta = _number(act, "delta", "config.action",
                    default=ActionParams.delta)
    # the action of step 0, built for its checks of E and delta
    ActionParams(E=E, eps=schedule.eps0, tau=schedule.tau0, delta=delta)

    sol = obj.get("solver", {})
    _check_keys(sol, {"max_iters", "grad_tol"}, "config.solver")
    solver = DescentSettings(
        max_iters=_number(sol, "max_iters", "config.solver",
                          default=DescentSettings.max_iters, integer=True),
        grad_tol=_number(sol, "grad_tol", "config.solver",
                         default=DescentSettings.grad_tol))
    seed = _number(obj, "seed", "config", default=0, integer=True)
    if seed < 0:
        raise ConfigError("config.seed: must be nonnegative")

    output_dir = _require(obj, "output_dir", "config")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config.output_dir: expected a nonempty string")

    return ExperimentConfig(
        geometry=geometry, E=E, w_shape=w_shape, n_vertices=n_vertices,
        family_size=family_size, m_p=m_p, schedule=schedule, delta=delta,
        solver=solver, output_dir=output_dir, seed=seed)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from None
    return parse_config_dict(obj)


def resolve_output_dir(path_str: str) -> Path:
    if not path_str:  # the output root (or the cwd) itself
        raise ConfigError("the output directory must be a nonempty path")
    path = Path(path_str)
    if not path.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


def classification_exit_code(classification: Classification) -> int:
    """Exit codes: converged and diverging both succeed; inconclusive is 3."""
    if isinstance(classification, (ConvergedExtremal, DivergingLengths)):
        return EXIT_OK
    if isinstance(classification, Inconclusive):
        return EXIT_INCONCLUSIVE
    raise TypeError(f"not a classification: {classification!r}")


# the field types that json writes as they are (a bool is an int); tested
# first, since they are most of the fields
_JSON_LEAVES = (str, int, float, tuple)


def json_fields(obj) -> dict:
    """The JSON object of a result or spec dataclass, read off its fields:
    a nested result becomes its own object, an enum its value, and a
    classification also gets its ``case``.  A field holding a Loop or a
    FlowState is left out; loops are written as CSV beside the JSON."""
    out = {"case": obj.case} if isinstance(obj, Classification) else {}
    for key, val in vars(obj).items():
        if isinstance(val, _JSON_LEAVES):
            out[key] = val
        elif isinstance(val, enum.Enum):
            out[key] = val.value
        elif not isinstance(val, (Loop, FlowState)):
            out[key] = json_fields(val)
    return out


def _json_dump(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one continuation experiment; writes result.json, summary.txt,
    and step_<n>.csv loops under output_dir.  Returns the process exit code.
    """
    out = resolve_output_dir(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        family = init_sweep_family(config.geometry, config.E, config.w_shape,
                                   config.family_size, config.n_vertices,
                                   m_p=config.m_p)
        records, classification, c_ref = continuation_run(
            config.geometry, config.E, family, config.schedule,
            config.solver, delta=config.delta)
    except NoNegativeLoopFound as exc:
        (out / "summary.txt").write_text(
            f"NoNegativeLoopFound: {exc}\nexit code {EXIT_NO_NEGATIVE_LOOP}\n")
        print(f"no negative-action loop: {exc}", file=sys.stderr)
        return EXIT_NO_NEGATIVE_LOOP
    elapsed = time.perf_counter() - t0

    rec_objs = []
    for rec in records:
        name = f"step_{rec.step}.csv"
        save_loop_csv(out / name, rec.loop, torus=config.geometry.is_torus)
        entry = json_fields(rec)
        entry["loop_csv"] = name
        rec_objs.append(entry)

    result = {
        "version": __version__,
        # the seed is echoed in summary.txt only; no computation reads it
        "config": {key: val for key, val in config.to_json_dict().items()
                   if key != "seed"},
        # JSON has no infinity or NaN: a bootstrap level that is not
        # positive and finite has no band, and a non-finite one is null
        "c_ref": c_ref if math.isfinite(c_ref) else None,
        "beta": BETA_FRAC * c_ref if 0.0 < c_ref < math.inf else None,
        "records": rec_objs,
        "classification": json_fields(classification),
        "timings": {"total_s": elapsed},
    }
    _json_dump(out / "result.json", result)

    lines = [
        f"magloop {__version__}",
        f"seed {config.seed}",
        f"classification: {classification.case}",
        f"bootstrap level c_ref = {c_ref!r}",
        f"elapsed {elapsed:.3f} s",
    ]
    if isinstance(classification, Inconclusive):
        lines.insert(3, f"reason: {classification.reason}")
    for rec in records:
        lines.append(
            f"step {rec.step}: eps={rec.eps:.6g} tau={rec.tau:.6g} "
            f"level={rec.level!r} l={rec.l!r} nu={rec.nu:.6g} "
            f"residual={rec.residual.max_res:.3e} stop={rec.minimax.stop}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    code = classification_exit_code(classification)
    print(f"{classification.case}: level trail "
          f"{[round(r.level, 6) for r in records]} -> exit {code}")
    return code


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    return run_experiment(config)


def _geometry_from_args(args) -> GeometrySpec:
    return GeometrySpec(kind=GeometryKind(args.kind), B=args.B, a=args.a,
                        k=args.k, u_amp=args.u_amp)


def _cmd_flow(args) -> int:
    spec = _geometry_from_args(args)
    if not (0 < args.speed < math.inf):
        raise ConfigError("speed must be finite and positive")
    if not math.isfinite(args.angle):
        raise ConfigError("angle must be finite")
    p = ChartPoint(args.x0, FLOW_Y0)
    direction = np.array([math.cos(args.angle), math.sin(args.angle)])
    v = args.speed * (direction / math.sqrt(_norm_sq(spec, p, direction)))
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(_norm_sq(spec, p, v)):
            raise ConfigError("launch kinetic energy is not finite")
    out = resolve_output_dir(args.output_dir)
    traj = integrate_flow(spec, FlowState(p, v), args.T, args.steps)
    out.mkdir(parents=True, exist_ok=True)
    energies = write_trajectory_csv(out / "trajectory.csv", spec, traj,
                                    args.T)
    closure = _state_gap(spec, traj[-1], traj[0])
    drift = max(abs(e - energies[0]) for e in energies)
    print(json.dumps({"closure_residual": closure, "energy_drift": drift}))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "larmor":
        radius, level = larmor_orbit(args.E, args.B)
        print(json.dumps({"radius": radius, "level": level}))
        return EXIT_OK
    if args.oracle_cmd == "shoot":
        spec = _geometry_from_args(args)
        _check_loop_size(args.n)
        if not 1 <= args.seeds <= MAX_SHOOT_SEEDS:
            raise ConfigError(f"shoot needs --seeds in [1, {MAX_SHOOT_SEEDS}]")
        if args.seed < 0:
            raise ConfigError("shoot needs a nonnegative --seed")
        out = resolve_output_dir(args.output_dir)
        rng = np.random.default_rng(args.seed)
        seeds = []
        for _ in range(args.seeds):
            p = ChartPoint(float(rng.uniform(-0.2, 0.2)) + args.x0,
                           float(rng.uniform(-0.2, 0.2)) + SHOOT_Y0)
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            seeds.append(FlowState(p, np.array([math.cos(ang),
                                                math.sin(ang)])))
        cands = shooting_periodic(spec, args.E_mech, seeds, args.period_cap,
                                  args.tol, dt=args.dt)
        out.mkdir(parents=True, exist_ok=True)
        payload = []
        for i, cand in enumerate(cands):
            loop = orbit_to_loop(spec, cand, args.n)
            name = f"orbit_{i}.csv"
            save_loop_csv(out / name, loop, torus=spec.is_torus)
            entry = json_fields(cand)
            entry["loop_csv"] = name
            payload.append(entry)
        _json_dump(out / "orbits.json", payload)
        print(json.dumps({"n_candidates": len(cands)}))
        return EXIT_OK
    raise ConfigError("unknown oracle subcommand")


def _add_geometry_args(sub):
    sub.add_argument("--kind", default="plane_constant_B",
                     choices=[m.value for m in GeometryKind])
    sub.add_argument("--B", type=float, default=0.0)
    sub.add_argument("--a", type=float, default=0.0)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--u-amp", dest="u_amp", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magloop",
        description="Variational solver for periodic magnetic geodesics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full continuation experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)

    p_flow = sub.add_parser("flow", help="integrate the Lorentz flow")
    _add_geometry_args(p_flow)
    p_flow.add_argument("--x0", type=float, default=0.0)
    p_flow.add_argument("--angle", type=float, default=0.0)
    p_flow.add_argument("--speed", type=float, required=True)
    p_flow.add_argument("--T", type=float, required=True)
    p_flow.add_argument("--steps", type=int, default=10000)
    p_flow.add_argument("--output-dir", default="flow_out")

    p_or = sub.add_parser("oracle", help="reference values")
    or_sub = p_or.add_subparsers(dest="oracle_cmd", required=True)
    o_lar = or_sub.add_parser("larmor")
    o_lar.add_argument("--E", type=float, required=True)
    o_lar.add_argument("--B", type=float, required=True)
    o_sh = or_sub.add_parser("shoot")
    _add_geometry_args(o_sh)
    o_sh.add_argument("--E-mech", dest="E_mech", type=float, required=True)
    o_sh.add_argument("--x0", type=float, default=0.0)
    o_sh.add_argument("--seeds", type=int, default=5)
    o_sh.add_argument("--seed", type=int, default=0)
    o_sh.add_argument("--period-cap", dest="period_cap", type=float,
                      default=2.0)
    o_sh.add_argument("--tol", type=float, default=1e-6)
    o_sh.add_argument("--dt", type=float, default=1e-3)
    o_sh.add_argument("--n", type=int, default=256)
    o_sh.add_argument("--output-dir", default="oracle_out")
    return parser


# built once per process, at import: main only parses with it, so an
# in-process caller pays for the ~30 arguments once, not on every call
_PARSER = build_parser()

_COMMANDS = {
    "run": _cmd_run,
    "flow": _cmd_flow,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
