"""Input errors: every argument check of a public type or entry point
raises ConfigError, while the structural checks that solver-made data can
reach stay a plain ValueError."""

import json
import math
import os

import numpy as np
import pytest

from magloop import cli
from magloop import (ActionParams, ChartPoint, ConfigError,
                     DescentSettings, FlowState, GeometryKind, GeometrySpec,
                     InvalidOracleInput, Loop, LoopFamily, MagloopError,
                     Schedule, action_S, el_residual_SE, implied_energy,
                     init_sweep_family, integrate_flow, make_circle,
                     make_point_loop)
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
    "action_S.E": lambda: action_S(PLANE, CIRCLE, math.nan),
    "action_S.E_inf": lambda: action_S(PLANE, make_point_loop((0, 0), 8),
                                       math.inf),
    "Schedule.eps0": lambda: Schedule(eps0=0.0, tau0=0.0, rho=0.5,
                                      n_steps=3),
    "Schedule.tau0": lambda: Schedule(eps0=1e-2, tau0=-0.1, rho=0.5,
                                      n_steps=3),
    "Schedule.rho": lambda: Schedule(eps0=1e-2, tau0=0.0, rho=1.0,
                                     n_steps=3),
    "Schedule.n_steps": lambda: Schedule(eps0=1e-2, tau0=0.0, rho=0.5,
                                         n_steps=0),
    "Schedule.n_steps_float": lambda: Schedule(eps0=1e-2, tau0=0.0,
                                               rho=0.5, n_steps=2.5),
    "implied_energy.nu": lambda: implied_energy(-1.0, 1.0),
    "implied_energy.E": lambda: implied_energy(0.1, 0.0),
    "implied_energy.nu_nan": lambda: implied_energy(math.nan, 1.0),
    "implied_energy.nu_inf": lambda: implied_energy(math.inf, 1.0),
    "implied_energy.E_inf": lambda: implied_energy(0.1, math.inf),
    "FlowState.shape": lambda: FlowState(ChartPoint(0.0, 0.0),
                                         np.zeros(3)),
    "FlowState.finite": lambda: FlowState(ChartPoint(0.0, 0.0),
                                          np.array([math.inf, 0.0])),
    "integrate_flow.steps": lambda: integrate_flow(PLANE, STATE, 1.0, 0),
    "integrate_flow.T": lambda: integrate_flow(PLANE, STATE, math.nan, 10),
    "el_residual_SE.E": lambda: el_residual_SE(PLANE, CIRCLE, 0.0),
    "el_residual_SE.E_inf": lambda: el_residual_SE(PLANE, CIRCLE, math.inf),
    "ChartPoint": lambda: ChartPoint(math.nan, 0.0),
    "GeometrySpec.kind": lambda: GeometrySpec("plane_constant_B"),
    "GeometrySpec.B": lambda: GeometrySpec(GeometryKind.PLANE_CONSTANT_B,
                                           B=math.inf),
    "GeometrySpec.k": lambda: GeometrySpec(GeometryKind.FLAT_TORUS_SINE,
                                           k=1.5),
    "GeometrySpec.B_flat_torus": lambda: GeometrySpec(
        GeometryKind.FLAT_TORUS_SINE, B=5.0, a=3.0),
    "GeometrySpec.B_conformal_torus": lambda: GeometrySpec(
        GeometryKind.CONFORMAL_TORUS, B=-1e-300, a=1.0, u_amp=0.3),
    "GeometrySpec.u_amp_flat_torus": lambda: GeometrySpec(
        GeometryKind.FLAT_TORUS_SINE, a=3.0, u_amp=0.5),
    "GeometrySpec.u_amp_plane": lambda: GeometrySpec(
        GeometryKind.PLANE_CONSTANT_B, B=1.0, u_amp=-1e-300),
    "GeometrySpec.a_plane": lambda: GeometrySpec(
        GeometryKind.PLANE_CONSTANT_B, B=1.0, a=3.0),
    "GeometrySpec.k_plane": lambda: GeometrySpec(
        GeometryKind.PLANE_CONSTANT_B, B=1.0, k=2),
    "make_circle.orientation": lambda: make_circle((0.0, 0.0), 1.0, 0, 8),
    "make_circle.r": lambda: make_circle((0.0, 0.0), -1.0, 1, 8),
    "make_circle.r_inf": lambda: make_circle((0.0, 0.0), math.inf, 1, 8),
    "DescentSettings.max_iters": lambda: DescentSettings(max_iters=0),
    "DescentSettings.grad_tol": lambda: DescentSettings(grad_tol=math.nan),
    "DescentSettings.grad_tol_inf": lambda: DescentSettings(
        grad_tol=math.inf),
    "DescentSettings.max_iters_float": lambda: DescentSettings(
        max_iters=2.5),
    "init_sweep_family.shape": lambda: init_sweep_family(PLANE, 1.0, "disc",
                                                         9, 48),
    "init_sweep_family.M": lambda: init_sweep_family(PLANE, 1.0, "path", 2,
                                                     48),
    "init_sweep_family.N": lambda: init_sweep_family(PLANE, 1.0, "path", 9,
                                                     2),
    "init_sweep_family.m_p": lambda: init_sweep_family(
        PLANE, 1.0, "cylinder", 9, 48, m_p=0),
    "init_sweep_family.E_nan": lambda: init_sweep_family(PLANE, math.nan,
                                                         "path", 9, 48),
    "init_sweep_family.M_float": lambda: init_sweep_family(PLANE, 1.0,
                                                           "path", 3.5, 48),
    "init_sweep_family.N_float": lambda: init_sweep_family(PLANE, 1.0,
                                                           "path", 9, 16.5),
    "init_sweep_family.m_p_float": lambda: init_sweep_family(
        PLANE, 1.0, "cylinder", 9, 48, m_p=1.5),
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


@pytest.mark.parametrize("kind", ["flat_torus_sine", "conformal_torus"])
def test_cli_refuses_B_on_the_torus_and_writes_nothing(kind, tmp_path,
                                                        monkeypatch, capsys):
    # the torus fields have zero mean, and B used to be accepted and
    # silently ignored there
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = {"geometry": {"kind": kind, "a": 3.0, "B": 5},
           "E": 0.02, "w_shape": "path", "output_dir": "run_out"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["flow", "--kind", kind, "--a", "3", "--B", "5",
                     "--speed", "1", "--T", "1"]) == cli.EXIT_CONFIG
    assert cli.main(["oracle", "shoot", "--kind", kind, "--a", "3", "--B",
                     "5", "--E-mech", "0.01", "--seeds", "1"]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("B must be 0 on the torus") == 3
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("kind, flags, message", [
    ("flat_torus_sine", ["--a", "3", "--u-amp", "0.5"],
     "u_amp must be 0 on the flat kinds"),
    ("plane_constant_B", ["--B", "1", "--u-amp", "0.5"],
     "u_amp must be 0 on the flat kinds"),
    ("plane_constant_B", ["--B", "1", "--a", "3"],
     "a must be 0 and k 1 on the plane"),
    ("plane_constant_B", ["--B", "1", "--k", "2"],
     "a must be 0 and k 1 on the plane"),
])
def test_cli_refuses_unread_geometry_parameters_and_writes_nothing(
        kind, flags, message, tmp_path, monkeypatch, capsys):
    # a parameter the kind does not read used to be accepted and ignored
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["flow", "--kind", kind, *flags, "--speed", "0.3",
                     "--T", "1", "--steps", "100"]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
