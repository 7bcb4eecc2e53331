"""Seeded workload inputs, reference values and correctness gates.

Seed 0 is the default: the shipped plane config, the reduced torus config
below and criterion 10's shooting seed states.  Any other seed draws the
plane's B and E for each solve from the range documented in README.md.
magloop only ever sees the generated config file or the generated
arguments; the generator lives here.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("plane_path", "torus_cylinder", "torus_shoot")

# configs/plane_larmor.json as shipped (N=128, path of 33, 8 steps).
PLANE_CONFIG = {
    "geometry": {"kind": "plane_constant_B", "B": 1.0},
    "E": 1.0,
    "w_shape": "path",
    "discretization": {"n_vertices": 128, "family_size": 33, "m_p": 8},
    "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5, "n_steps": 8},
    "solver": {},
    "output_dir": "runs/plane_larmor",
    "seed": 0,
}

# configs/torus_sine.json (N=512, cylinder of 8 x 33, 10 steps) takes about
# 45 s, too long to sample within one run.  This keeps N=512 and the family
# length of 33, uses 2 rows instead of 8, and runs only the last three steps
# of the shipped schedule (eps = tau = 1e-2 * 0.5**7 onwards).  Its final
# level equals the shipped run's within 1e-12 relative, and it ends
# ConvergedExtremal with a residual of 4.8e-3 (shipped: 4.6e-3).
TORUS_CONFIG = {
    "geometry": {"kind": "flat_torus_sine", "a": 3.0, "k": 1},
    "E": 0.02,
    "w_shape": "cylinder",
    "discretization": {"n_vertices": 512, "family_size": 33, "m_p": 2},
    "action": {"eps0": 7.8125e-05, "tau0": 7.8125e-05, "rho": 0.5,
               "n_steps": 3},
    "solver": {},
    "output_dir": "runs/torus_cylinder",
    "seed": 0,
}

# Criterion 12's tiny run and a one-seed shoot, for the smoke mode.
PLANE_SMOKE = {**PLANE_CONFIG,
               "discretization": {"n_vertices": 48, "family_size": 9,
                                  "m_p": 4},
               "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5,
                          "n_steps": 3},
               "seed": 7}
TORUS_SMOKE = {**TORUS_CONFIG,
               "discretization": {"n_vertices": 48, "family_size": 9,
                                  "m_p": 2}}

# The sine torus of criterion 10 and its shooting parameters.
SHOOT_A = 3.0
SHOOT_E_MECH = 0.01
SHOOT_PERIOD_CAP = 0.6
SHOOT_TOL = 1e-8
SHOOT_DT = 1e-3
SHOOT_SEEDS = 4
ORBIT_SAMPLES = 256

# Reference values on the a=3, k=1 sine torus at E = 2 * E_mech = 0.02.
# TORUS_LEVEL_REF is the final minimax level of configs/torus_sine.json at
# the seed commit.  ORBIT_PERIOD_REF and ORBIT_ACTION_REF are the period and
# the S_E action (sampled at 256 vertices) of the periodic orbit that
# shooting_periodic finds from criterion 10's seeds.  Seed states drawn the
# same way converge to the same orbit up to translation in y, with periods
# agreeing to 1e-8 relative and actions to 1e-15 relative.
TORUS_LEVEL_REF = 0.0033336500746932733
ORBIT_PERIOD_REF = 0.3335187507
ORBIT_ACTION_REF = 0.0033344274008439

# Gates.  RESIDUAL_MAX is the classification threshold of continuation;
# LEVEL_ERR_MAX is recorded here: the seed commit gives 1.5e-3 on the plane
# and 2.3e-4 on both torus workloads.
RESIDUAL_MAX = 1e-2
LEVEL_ERR_MAX = 5e-3
PERIOD_RTOL = 1e-6


@dataclass(frozen=True)
class Inputs:
    """One workload instance: either a run config or shooting arguments,
    with the outcome the gate expects and the reference level."""

    workload: str
    kind: str                      # "run" or "shoot"
    config: dict | None = None
    states: tuple = ()             # shoot: (x, y, angle) per seed state
    level_ref: float = math.nan
    expect_case: str = "ConvergedExtremal"
    expect_exit: int = 0
    residual_max: float = RESIDUAL_MAX
    level_err_max: float = LEVEL_ERR_MAX
    params: dict = field(default_factory=dict)


def criterion10_states(rng, count: int) -> tuple:
    """Seed states drawn as criterion 10 draws them: x near the field
    maximum, y anywhere, any direction."""
    out = []
    for _ in range(count):
        x = float(rng.uniform(-0.04, 0.04))
        y = float(rng.uniform(0.0, 1.0))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        out.append((x, y, angle))
    return tuple(out)


def make_inputs(workload: str, seed: int, rep: int = 0,
                smoke: bool = False) -> Inputs:
    """Inputs of solve number `rep` of a run with this seed.  Seed 0 gives
    the default inputs for every solve.  On plane_path another seed gives
    each solve its own draw, so a run's median covers several inputs; the
    torus workloads solve their default inputs for every seed."""
    if seed < 0 or rep < 0:
        raise ValueError("seed and rep must be nonnegative")
    rng = np.random.default_rng([seed, rep])
    if workload == "plane_path":
        cfg = copy.deepcopy(PLANE_SMOKE if smoke else PLANE_CONFIG)
        if seed:
            # About one draw in five makes the saddle refine take Newton
            # steps (a third more solve time); the median over a run's
            # solves is the common case.
            cfg["geometry"]["B"] = float(rng.uniform(0.97, 1.03))
            cfg["E"] = float(rng.uniform(0.97, 1.03))
        B, E = cfg["geometry"]["B"], cfg["E"]
        return _run_inputs(workload, cfg, math.pi * E / B, smoke,
                           {"B": B, "E": E})
    if workload == "torus_cylinder":
        # The number of finite-difference Hessians the saddle refine takes
        # jumps between 1 and 3-5 at scattered values of E (about half the
        # draws within 2% of 0.02, still one in five within 0.2%), doubling
        # the solve time and moving the final residual from 4.8e-3 to
        # 7.5e-3.  So every seed solves the default input; the refine's
        # count shows in minimax.refine.hessians.
        cfg = copy.deepcopy(TORUS_SMOKE if smoke else TORUS_CONFIG)
        return _run_inputs(workload, cfg, ORBIT_ACTION_REF, smoke,
                           {"E": cfg["E"], "a": cfg["geometry"]["a"]})
    if workload == "torus_shoot":
        # Criterion 10's seed states for every seed: other draws make the
        # Newton iteration stop early for some states, moving the RK4 work
        # by up to a fifth.
        states = criterion10_states(np.random.default_rng(7), SHOOT_SEEDS)
        if smoke:
            # Criterion 10's second seed state, which converges.
            states = states[1:2]
        return Inputs(workload=workload, kind="shoot", states=states,
                      level_ref=TORUS_LEVEL_REF,
                      residual_max=0.1 if smoke else RESIDUAL_MAX,
                      params={"states": [list(s) for s in states]})
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")


def _run_inputs(workload, cfg, level_ref, smoke, params) -> Inputs:
    if smoke:
        # The tiny meshes stop above the residual threshold, so
        # continuation classifies them Inconclusive (exit 3).
        return Inputs(workload=workload, kind="run", config=cfg,
                      level_ref=level_ref, expect_case="Inconclusive",
                      expect_exit=3, residual_max=0.1, level_err_max=0.1,
                      params=params)
    return Inputs(workload=workload, kind="run", config=cfg,
                  level_ref=level_ref, params=params)


# -- gates --------------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    final_residual: float
    level_err: float
    problems: list


def check_run(magloop, inputs: Inputs, out_dir, exit_code: int) -> Verdict:
    """Gate one `magloop run`: exit code and classification as expected, the
    final loop's residual recomputed from the written CSV below the
    threshold and equal to the reported one, and the final level within the
    recorded bound of its reference."""
    problems = []
    result = json.loads((out_dir / "result.json").read_text())
    case = result["classification"]["case"]
    if exit_code != inputs.expect_exit:
        problems.append(f"exit code {exit_code} != {inputs.expect_exit}")
    if case != inputs.expect_case:
        problems.append(f"classification {case} != {inputs.expect_case}")
    last = result["records"][-1]
    spec = magloop.GeometrySpec.from_json_dict(inputs.config["geometry"])
    loop = magloop.load_loop_csv(out_dir / last["loop_csv"])
    residual = magloop.el_residual_SE(spec, loop, inputs.config["E"]).max_res
    reported = last["residual"]["max_res"]
    if abs(residual - reported) > 1e-9 * abs(reported):
        problems.append(f"residual of the written loop {residual!r} != "
                        f"reported {reported!r}")
    if not residual < inputs.residual_max:
        problems.append(f"final residual {residual:.3e} >= "
                        f"{inputs.residual_max:.1e}")
    level_err = abs(last["level"] - inputs.level_ref) / abs(inputs.level_ref)
    if not level_err <= inputs.level_err_max:
        problems.append(f"level error {level_err:.3e} > "
                        f"{inputs.level_err_max:.1e}")
    return Verdict(not problems, residual, level_err, problems)


def check_shoot(magloop, inputs: Inputs, spec, candidates) -> Verdict:
    """Gate one shooting solve: at least one candidate, every candidate
    closed below tol with the reference period; the orbit loops solve the
    extremal equation, and the best action is within the recorded bound of
    the torus minimax level."""
    problems = []
    if not candidates:
        return Verdict(False, math.inf, math.inf, ["no candidate orbit"])
    for cand in candidates:
        if not cand.closure_residual < SHOOT_TOL:
            problems.append(f"closure {cand.closure_residual:.3e} >= tol")
        if abs(cand.period - ORBIT_PERIOD_REF) > \
                PERIOD_RTOL * ORBIT_PERIOD_REF:
            problems.append(f"period {cand.period!r} is not the reference")
    E = 2.0 * SHOOT_E_MECH
    loops = [magloop.orbit_to_loop(spec, c, ORBIT_SAMPLES)
             for c in candidates]
    residual = max(magloop.el_residual_SE(spec, lp, E).max_res
                   for lp in loops)
    level_err = min(abs(magloop.action_S(spec, lp, E) - inputs.level_ref)
                    for lp in loops) / inputs.level_ref
    if not residual < inputs.residual_max:
        problems.append(f"orbit residual {residual:.3e} >= "
                        f"{inputs.residual_max:.1e}")
    if not level_err <= inputs.level_err_max:
        problems.append(f"orbit action error {level_err:.3e} > "
                        f"{inputs.level_err_max:.1e}")
    return Verdict(not problems, residual, level_err, problems)
