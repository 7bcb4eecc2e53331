"""Input errors: every argument check of a public type or entry point
raises ConfigError, while the structural checks that solver-made data can
reach stay a plain ValueError."""

import math

import numpy as np
import pytest

from magloop import (ActionParams, ChartPoint, ConfigError, CutoffSpec,
                     DescentSettings, FlowState, GeometryKind, GeometrySpec,
                     InvalidOracleInput, Loop, LoopFamily, MagloopError,
                     Schedule, action_S, el_residual_SE, implied_energy, init_sweep_family, integrate_flow,
                     make_circle)
from magloop.geometry import _as_xy
from magloop.loops import interpolate, rms_distance

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
CIRCLE = make_circle((0.0, 0.0), 1.0, -1, 16)
STATE = FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))

BAD_ARGUMENTS = {
    "ActionParams.E": lambda: ActionParams(E=0.0),
    "ActionParams.eps": lambda: ActionParams(eps=math.nan),
    "ActionParams.tau": lambda: ActionParams(tau=1.0),
    "ActionParams.delta": lambda: ActionParams(delta=-1e-9),
    "CutoffSpec.c_ref": lambda: CutoffSpec(c_ref=math.inf),
    "action_S.E": lambda: action_S(PLANE, CIRCLE, math.nan),
    "Schedule.eps0": lambda: Schedule(eps0=0.0, tau0=0.0, rho=0.5,
                                      n_steps=3),
    "Schedule.tau0": lambda: Schedule(eps0=1e-2, tau0=-0.1, rho=0.5,
                                      n_steps=3),
    "Schedule.rho": lambda: Schedule(eps0=1e-2, tau0=0.0, rho=1.0,
                                     n_steps=3),
    "Schedule.n_steps": lambda: Schedule(eps0=1e-2, tau0=0.0, rho=0.5,
                                         n_steps=0),
    "implied_energy.nu": lambda: implied_energy(-1.0, 1.0),
    "implied_energy.E": lambda: implied_energy(0.1, 0.0),
    "implied_energy.nu_nan": lambda: implied_energy(math.nan, 1.0),
    "FlowState.shape": lambda: FlowState(ChartPoint(0.0, 0.0),
                                         np.zeros(3)),
    "FlowState.finite": lambda: FlowState(ChartPoint(0.0, 0.0),
                                          np.array([math.inf, 0.0])),
    "integrate_flow.steps": lambda: integrate_flow(PLANE, STATE, 1.0, 0),
    "integrate_flow.T": lambda: integrate_flow(PLANE, STATE, math.nan, 10),
    "el_residual_SE.E": lambda: el_residual_SE(PLANE, CIRCLE, 0.0),
    "ChartPoint": lambda: ChartPoint(math.nan, 0.0),
    "GeometrySpec.kind": lambda: GeometrySpec("plane_constant_B"),
    "GeometrySpec.B": lambda: GeometrySpec(GeometryKind.PLANE_CONSTANT_B,
                                           B=math.inf),
    "GeometrySpec.k": lambda: GeometrySpec(GeometryKind.FLAT_TORUS_SINE,
                                           k=1.5),
    "make_circle.orientation": lambda: make_circle((0.0, 0.0), 1.0, 0, 8),
    "make_circle.r": lambda: make_circle((0.0, 0.0), -1.0, 1, 8),
    "make_circle.r_inf": lambda: make_circle((0.0, 0.0), math.inf, 1, 8),
    "DescentSettings.max_iters": lambda: DescentSettings(max_iters=0),
    "DescentSettings.grad_tol": lambda: DescentSettings(grad_tol=math.nan),
    "init_sweep_family.shape": lambda: init_sweep_family(PLANE, 1.0, "disc",
                                                         9, 48),
    "init_sweep_family.M": lambda: init_sweep_family(PLANE, 1.0, "path", 2,
                                                     48),
    "init_sweep_family.m_p": lambda: init_sweep_family(
        PLANE, 1.0, "cylinder", 9, 48, m_p=0),
    "init_sweep_family.E_nan": lambda: init_sweep_family(PLANE, math.nan,
                                                         "path", 9, 48),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise_config_error(call):
    with pytest.raises(ConfigError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, MagloopError)


def test_invalid_oracle_input_is_a_config_error():
    assert issubclass(InvalidOracleInput, ConfigError)
    assert issubclass(ConfigError, ValueError)


STRUCTURAL = {
    "Loop.size": lambda: Loop(np.zeros((2, 2))),
    "Loop.finite": lambda: Loop(np.full((4, 2), math.nan)),
    "with_vertices": lambda: CIRCLE.with_vertices(np.zeros((3, 2))),
    "interpolate": lambda: interpolate(CIRCLE, make_circle((0, 0), 1, 1, 8),
                                       0.5),
    "rms_distance": lambda: rms_distance(CIRCLE,
                                         make_circle((0, 0), 1, 1, 8)),
    "LoopFamily": lambda: LoopFamily(shape="path", rows=((CIRCLE,) * 3,)),
    "integrate_flow.finite": lambda: integrate_flow(
        GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1e300),
        FlowState(ChartPoint(0.0, 0.0), np.array([1e300, 0.0])), 1.0, 10),
    "integrate_flow.position": lambda: integrate_flow(
        GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=0.0),
        FlowState(ChartPoint(0.0, 0.0), np.array([1e300, 0.0])), 1e10, 10),
    "geometry._as_xy": lambda: _as_xy(np.zeros(3)),
}


@pytest.mark.parametrize("call", STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_checks_are_not_config_errors(call):
    # solver-made data reaches these, so a numerical blow-up must not be
    # reported as bad input
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, MagloopError)
