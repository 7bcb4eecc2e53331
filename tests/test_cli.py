"""Command-line interface: config validation, subcommands, exit codes,
and output layout.  Everything runs in-process through cli.main."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from magloop import cli, dynamics, oracle
from magloop.action import ActionParams
from magloop.continuation import (ConvergedExtremal, DivergingLengths,
                                  Inconclusive)
from magloop.dynamics import MAX_RETURN_STEPS, ResidualReport
from magloop.errors import ConfigError
from magloop.geometry import GeometryKind, GeometrySpec
from magloop.loops import load_loop_csv, make_circle
from magloop.minimax import family_minimax, init_sweep_family


def _base_config(n_steps=7, output_dir="run_out"):
    return {
        "geometry": {"kind": "plane_constant_B", "B": 1.0},
        "E": 1.0,
        "w_shape": "path",
        "discretization": {"n_vertices": 48, "family_size": 9, "m_p": 4},
        "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5,
                   "n_steps": n_steps},
        "solver": {},
        "output_dir": output_dir,
        "seed": 0,
    }


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _single_solve(cfg):
    """One minimax solve of the config's sweep family at (eps0, tau0)."""
    config = cli.parse_config_dict(cfg)
    family = init_sweep_family(config.geometry, config.E, config.w_shape,
                               config.family_size, config.n_vertices,
                               m_p=config.m_p)
    params = ActionParams(E=config.E, eps=config.schedule.eps0,
                          tau=config.schedule.tau0, delta=config.delta)
    return family_minimax(config.geometry, family, params, config.solver)


def test_config_round_trip():
    cfg = cli.parse_config_dict(_base_config())
    again = cli.parse_config_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert again == cfg


def test_bundled_configs_parse():
    # The example configs shipped in configs/ must stay valid as the
    # schema evolves.  Parse only; the full runs take seconds to minutes.
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    expected = {
        "plane_larmor.json": "plane_constant_B",
        "torus_sine.json": "flat_torus_sine",
    }
    for name, kind in expected.items():
        obj = json.loads((root / name).read_text())
        cfg = cli.parse_config_dict(obj)
        assert cfg.geometry.kind.value == kind
        assert cfg.schedule.n_steps >= 3


def test_config_defaults():
    obj = _base_config()
    del obj["discretization"]
    del obj["solver"]
    del obj["seed"]
    cfg = cli.parse_config_dict(obj)
    assert cfg.n_vertices == 128 and cfg.family_size == 33 and cfg.m_p == 8
    assert cfg.solver.max_iters == 400 and cfg.solver.grad_tol == 1e-6
    assert cfg.seed == 0 and cfg.delta == 1e-9


def _minimal_config():
    return {"geometry": {"kind": "plane_constant_B"}, "E": 1.0,
            "w_shape": "path",
            "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5, "n_steps": 3},
            "output_dir": "run_out"}


def _leaves(obj, prefix=""):
    out = {}
    for key, val in obj.items():
        if isinstance(val, dict):
            out.update(_leaves(val, f"{prefix}{key}."))
        else:
            out[prefix + key] = val
    return out


def test_readme_config_table_matches_the_parser():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Config schema")[1].split("\n## ")[0]
    table = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", section,
                            flags=re.M))
    parsed = _leaves(cli.parse_config_dict(_minimal_config()).to_json_dict())
    assert set(table) == set(parsed)
    numeric = 0
    for key, default in table.items():
        try:
            value = float(default)
        except ValueError:
            continue
        numeric += 1
        assert parsed[key] == value, key
    assert numeric == 11


@pytest.mark.parametrize("key", ["action.nested", "action.beta_frac",
                                 "solver.step0", "solver.backtrack"])
def test_config_rejects_removed_keys(key, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config(n_steps=3)
    section, name = key.split(".")
    cfg[section][name] = False if name == "nested" else 0.1
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    assert f"config.{section}: unknown keys ['{name}']" in \
        capsys.readouterr().err
    assert not (tmp_path / "run_out").exists()


def test_config_error_messages():
    with pytest.raises(ConfigError, match="unknown keys.*bogus"):
        cli.parse_config_dict({**_base_config(), "bogus": 1})
    with pytest.raises(ConfigError, match="config.action.*unknown keys"):
        bad = _base_config()
        bad["action"]["extra"] = 2
        cli.parse_config_dict(bad)
    with pytest.raises(ConfigError,
                       match="tau must satisfy 0 <= tau < 1"):
        bad = _base_config()
        bad["action"]["tau0"] = 1.5
        cli.parse_config_dict(bad)
    with pytest.raises(ConfigError, match="E must be positive"):
        cli.parse_config_dict({**_base_config(), "E": -1.0})
    with pytest.raises(ConfigError, match="w_shape"):
        cli.parse_config_dict({**_base_config(), "w_shape": "sphere"})
    with pytest.raises(ConfigError, match="missing required key 'action'"):
        bad = _base_config()
        del bad["action"]
        cli.parse_config_dict(bad)


@pytest.mark.parametrize("key, value", [
    ("discretization.n_vertices", math.inf),
    ("seed", math.inf),
    ("action.delta", math.nan),
    ("action.rho", math.inf),
    ("solver.max_iters", math.inf),
    ("solver.grad_tol", math.inf),
])
def test_config_rejects_non_finite_numbers(key, value, tmp_path, monkeypatch,
                                           capsys):
    # json reads NaN and Infinity as floats
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config(n_steps=3)
    *section, name = key.split(".")
    (cfg[section[0]] if section else cfg)[name] = value
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    assert f"config.{key}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run_out").exists()


@pytest.mark.parametrize("key, value", [("k", 2.9), ("k", 1.5), ("B", True),
                                        ("B", "2")])
def test_config_rejects_geometry_values_that_are_not_its_numbers(
        key, value, tmp_path, monkeypatch, capsys):
    # a non-integer k once ran the field of int(k), and a bool or string
    # field strength was coerced by float()
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config(n_steps=3)
    cfg["geometry"] = {"kind": "flat_torus_sine", "a": 3.0, key: value}
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    expected = "an integer" if key == "k" else "a number"
    assert f"geometry.{key}: expected {expected}" in capsys.readouterr().err
    assert not (tmp_path / "run_out").exists()


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "geometry": {,}\n}')
    with pytest.raises(ConfigError, match=r"line 2 column 16"):
        cli.load_config(path)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == cli.EXIT_CONFIG


def test_classification_exit_codes():
    loop = make_circle((0.0, 0.0), 1.0, -1, 8)
    rep = ResidualReport(max_res=0.0, mean_res=0.0, speed_cv=0.0)
    assert cli.classification_exit_code(
        ConvergedExtremal(loop, rep)) == cli.EXIT_OK
    assert cli.classification_exit_code(
        DivergingLengths((), ())) == cli.EXIT_OK
    assert cli.classification_exit_code(
        Inconclusive("nope")) == cli.EXIT_INCONCLUSIVE
    with pytest.raises(TypeError):
        cli.classification_exit_code("bogus")


def test_run_experiment_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cpath = _write_config(tmp_path, _base_config(n_steps=7))
    rc = cli.main(["run", "--config", cpath])
    assert rc == cli.EXIT_OK
    out = tmp_path / "run_out"
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"version", "config", "c_ref", "beta", "records",
                           "classification", "timings"}
    assert "seed" not in result["config"]
    assert result["classification"]["case"] == "ConvergedExtremal"
    assert len(result["records"]) == 7
    assert abs(result["beta"] - 0.1 * result["c_ref"]) < 1e-15
    for rec in result["records"]:
        csv_path = out / rec["loop_csv"]
        assert csv_path.exists()
        loop = load_loop_csv(csv_path)
        assert loop.n == 48
    summary = (out / "summary.txt").read_text()
    assert "classification: ConvergedExtremal" in summary
    assert "seed 0" in summary


def test_run_inconclusive_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cpath = _write_config(tmp_path, _base_config(n_steps=3))
    assert cli.main(["run", "--config", cpath]) == cli.EXIT_INCONCLUSIVE
    result = json.loads((tmp_path / "run_out" / "result.json").read_text())
    assert result["classification"]["case"] == "Inconclusive"


def test_point_loop_argmax_is_not_a_critical_maximum(tmp_path, monkeypatch):
    # a field so strong that every circle of the family has negative action:
    # the family maximum is the one-point loop at the speed-floor level,
    # whose zero gradient certifies nothing
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = {**_base_config(n_steps=3),
           "geometry": {"kind": "flat_torus_sine", "a": 1e8, "k": 1},
           "E": 0.02, "discretization": {"n_vertices": 32, "family_size": 9},
           "solver": {"max_iters": 20}}
    cpath = _write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", cpath]) == cli.EXIT_INCONCLUSIVE
    out = tmp_path / "run_out"
    result = json.loads((out / "result.json").read_text())
    assert result["records"] == []
    assert result["classification"]["reason"].startswith(
        "step 0: the argmax is the one-point loop")
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[2] == "classification: Inconclusive"
    assert summary[3] == f"reason: {result['classification']['reason']}"
    # the solve alone does not report the point loop as converged
    solve = _single_solve(cfg)
    assert solve.converged is False and solve.stop != "critical"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_infinite_bootstrap_level_stops_and_writes_null(tmp_path,
                                                        monkeypatch):
    # at E = 1e155 the squared speeds overflow, so step 0's level is +inf:
    # the run stops at the bootstrap, and result.json stays valid JSON
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = {**_base_config(n_steps=3), "E": 1e155,
           "discretization": {"n_vertices": 16, "family_size": 5}}
    cpath = _write_config(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", "--config", cpath]) == cli.EXIT_INCONCLUSIVE
    out = tmp_path / "run_out"
    result = json.loads((out / "result.json").read_text(),
                        parse_constant=_refuse_constant)
    assert result["c_ref"] is None and result["beta"] is None
    assert result["records"] == []
    assert result["classification"]["reason"] == (
        "bootstrap level inf is not positive and finite")
    assert "bootstrap level c_ref = inf" in (out / "summary.txt").read_text()


_OVERFLOWING_GEOMETRY = [
    {"kind": "flat_torus_sine", "a": 1e308},
    {"kind": "conformal_torus", "a": 3.0, "u_amp": 400.0},
    {"kind": "flat_torus_sine", "a": 3.0, "k": 10 ** 400},
]


@pytest.mark.parametrize("geometry", _OVERFLOWING_GEOMETRY,
                         ids=["a", "u_amp", "k"])
def test_geometry_whose_field_or_metric_overflows_is_rejected(
        geometry, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    params = {key: val for key, val in geometry.items() if key != "kind"}
    with pytest.raises(ConfigError):
        GeometrySpec(GeometryKind(geometry["kind"]), **params)
    flags = ["--kind", geometry["kind"]]
    for key, val in params.items():
        flags += ["--u-amp" if key == "u_amp" else f"--{key}", str(val)]
    assert cli.main(["oracle", "shoot", *flags, "--E-mech", "0.01",
                     "--seeds", "1", "--period-cap", "0.1"]) == \
        cli.EXIT_CONFIG
    assert cli.main(["flow", *flags, "--speed", "1.0", "--T", "1.0"]) == \
        cli.EXIT_CONFIG
    cfg = {**_base_config(n_steps=3), "geometry": geometry, "E": 0.02}
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("config error") == 3
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


# float.hex of each record's level and of the final max residual of
# criterion 12's run; a change to the algorithm that moves them on purpose
# records the new values here and says so.
_GOLDEN_LEVELS = ("0x1.df75d58de846ap+1", "0x1.b60dc4eb49cf3p+1",
                  "0x1.a3b363d2c636ep+1")
_GOLDEN_FINAL_RESIDUAL = "0x1.29b11e7fb0f41p-5"

# A conformal-torus cylinder whose two steps both stop on a plateau, so the
# relaxation sweep and re-interpolation shape these values: float.hex of
# c_ref and the levels.  Step 0's level is c_ref itself.
_CONFORMAL_CONFIG = {
    "geometry": {"kind": "conformal_torus", "a": 3.0, "k": 1, "u_amp": 0.2},
    "E": 0.02,
    "w_shape": "cylinder",
    "discretization": {"n_vertices": 64, "family_size": 9, "m_p": 2},
    "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5, "n_steps": 2},
    "solver": {},
    "output_dir": "conformal_out",
    "seed": 0,
}
_CONFORMAL_GOLDEN_C_REF = "0x1.29446039e0e39p-8"
_CONFORMAL_GOLDEN_LEVELS = ("0x1.29446039e0e39p-8", "0x1.37744d76b04dcp-8")

# The sine-potential value path: a small flat-torus path family whose three
# steps all stop on a plateau; float.hex of the levels and of the final max
# residual.
_TORUS_CONFIG = {**_base_config(n_steps=3), "E": 0.02,
                 "geometry": {"kind": "flat_torus_sine", "a": 3.0, "k": 1},
                 "output_dir": "torus_out"}
_TORUS_GOLDEN_LEVELS = ("0x1.8b9e77eac6f85p-9", "0x1.a0335c39a7530p-9",
                        "0x1.aad0fa6b5e73ap-9")
_TORUS_GOLDEN_FINAL_RESIDUAL = "0x1.e3689296ef380p-3"


def test_run_levels_match_recorded_values(tmp_path, monkeypatch):
    # speed work must leave the outputs bit-identical
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = {**_base_config(n_steps=3), "seed": 7}
    cli.main(["run", "--config", _write_config(tmp_path, cfg)])
    result = json.loads((tmp_path / "run_out" / "result.json").read_text())
    records = result["records"]
    assert tuple(r["level"].hex() for r in records) == _GOLDEN_LEVELS
    assert records[-1]["residual"]["max_res"].hex() == _GOLDEN_FINAL_RESIDUAL
    c_refs = [result["c_ref"]]

    cli.main(["run", "--config",
              _write_config(tmp_path, _CONFORMAL_CONFIG, "conformal.json")])
    result = json.loads(
        (tmp_path / "conformal_out" / "result.json").read_text())
    assert result["c_ref"].hex() == _CONFORMAL_GOLDEN_C_REF
    assert tuple(r["level"].hex() for r in result["records"]) == \
        _CONFORMAL_GOLDEN_LEVELS
    c_refs.append(result["c_ref"])

    cli.main(["run", "--config",
              _write_config(tmp_path, _TORUS_CONFIG, "torus.json")])
    result = json.loads((tmp_path / "torus_out" / "result.json").read_text())
    records = result["records"]
    assert [r["minimax"]["stop"] for r in records] == ["plateau"] * 3
    assert tuple(r["level"].hex() for r in records) == _TORUS_GOLDEN_LEVELS
    assert records[-1]["residual"]["max_res"].hex() == \
        _TORUS_GOLDEN_FINAL_RESIDUAL
    c_refs.append(result["c_ref"])

    # no level comes near c_ref/10, below which the existence argument's
    # cutoff of short loops would act; the solver has no cutoff, so a run
    # that gets there fails here
    levels = [_GOLDEN_LEVELS, _CONFORMAL_GOLDEN_LEVELS, _TORUS_GOLDEN_LEVELS]
    for c_ref, hexes in zip(c_refs, levels):
        assert all(float.fromhex(h) >= 0.5 * c_ref for h in hexes)


def test_run_reports_the_stop_reason(tmp_path, monkeypatch):
    # every step of criterion 12's run starts from a family whose polished
    # maximum is already critical, so no relaxation sweep runs
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = {**_base_config(n_steps=3), "seed": 7}
    cli.main(["run", "--config", _write_config(tmp_path, cfg)])
    out = tmp_path / "run_out"
    records = json.loads((out / "result.json").read_text())["records"]
    assert [r["minimax"]["stop"] for r in records] == ["critical"] * 3
    steps = [line for line in (out / "summary.txt").read_text().splitlines()
             if line.startswith("step ")]
    assert len(steps) == 3
    assert all(line.endswith(" stop=critical") for line in steps)


@pytest.mark.parametrize("shape, disc", [
    ("path", {"n_vertices": 1e300}),
    ("path", {"family_size": 1e300}),
    ("cylinder", {"n_vertices": 10_000, "family_size": 101, "m_p": 10}),
])
def test_config_rejects_oversized_families(shape, disc, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config(n_steps=3)
    cfg["w_shape"] = shape
    cfg["discretization"] = {**cfg["discretization"], **disc}
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    assert f"exceeds {cli.MAX_FAMILY_VERTICES}" in capsys.readouterr().err
    assert not (tmp_path / "run_out").exists()


def test_config_rejects_too_many_steps(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config()
    cfg["action"] = {**cfg["action"], "n_steps": 1e300}
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_CONFIG
    assert f"exceeds {cli.MAX_STEPS}" in capsys.readouterr().err
    assert not (tmp_path / "run_out").exists()
    cfg["action"]["n_steps"] = cli.MAX_STEPS
    assert cli.parse_config_dict(cfg).schedule.n_steps == cli.MAX_STEPS


def test_config_size_bound_counts_rows_only_for_cylinders():
    # the same sizes as a path family: one row of 1.01e6 vertices
    cfg = _base_config()
    cfg["discretization"] = {"n_vertices": 10_000, "family_size": 101,
                             "m_p": 10}
    assert cli.parse_config_dict(cfg).n_vertices == 10_000


def _run_python(*argv, env=None):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          env={**os.environ, **(env or {}),
                               "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, magloop, magloop.cli; "
                             "print(sorted(m for m in sys.modules "
                             "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_WITHOUT_SCIPY = """
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, _NoScipy())
from magloop import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_python_m_magloop_runs_the_cli():
    proc = _run_python("-m", "magloop", "oracle", "larmor", "--E", "1",
                       "--B", "1")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["level"] == math.pi


def test_run_needs_no_scipy(tmp_path):
    # criterion 12's run, in a process where any scipy import fails
    cfg = {**_base_config(n_steps=3), "seed": 7}
    proc = _run_python("-c", _WITHOUT_SCIPY, "run", "--config",
                       _write_config(tmp_path, cfg),
                       env={cli.OUTPUT_ROOT_ENV: str(tmp_path)})
    assert proc.returncode == cli.EXIT_INCONCLUSIVE, proc.stderr
    result = json.loads((tmp_path / "run_out" / "result.json").read_text())
    assert tuple(r["level"].hex() for r in result["records"]) == \
        _GOLDEN_LEVELS


def _refuse_parser():
    raise AssertionError("main must reuse the parser built at import")


def test_main_reuses_the_parser_built_at_import(tmp_path, monkeypatch):
    # two runs in one process, with another verb parsed between them, write
    # the same bytes apart from the measured time, so the shared parser
    # carries nothing from one call into the next
    monkeypatch.setattr(cli, "build_parser", _refuse_parser)
    cpath = _write_config(tmp_path, _base_config(n_steps=3))
    outs = []
    for name in ("first", "second"):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / name))
        assert cli.main(["run", "--config", cpath]) == cli.EXIT_INCONCLUSIVE
        assert cli.main(["oracle", "larmor", "--E", "1", "--B", "2"]) == \
            cli.EXIT_OK
        outs.append(tmp_path / name / "run_out")
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        a, b = (first / name).read_text(), (second / name).read_text()
        if name == "result.json":
            a, b = json.loads(a), json.loads(b)
            del a["timings"], b["timings"]
        elif name == "summary.txt":
            a, b = ([ln for ln in text.splitlines()
                     if not ln.startswith("elapsed ")] for text in (a, b))
        assert a == b, name


def test_run_output_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cpath = _write_config(tmp_path, _base_config(n_steps=3))
    rc = cli.main(["run", "--config", cpath, "--output-dir", "elsewhere"])
    assert rc == cli.EXIT_INCONCLUSIVE
    assert (tmp_path / "elsewhere" / "result.json").exists()
    assert not (tmp_path / "run_out").exists()


def test_run_zero_field_exits_4(tmp_path, monkeypatch):
    # the zero-field torus admits no loop of negative action, and
    # summary.txt says so
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config()
    cfg["geometry"] = {"kind": "flat_torus_sine", "a": 0.0, "k": 1}
    cpath = _write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", cpath]) == \
        cli.EXIT_NO_NEGATIVE_LOOP
    summary = (tmp_path / "run_out" / "summary.txt").read_text()
    assert summary.startswith("NoNegativeLoopFound: ")
    assert summary.endswith(f"exit code {cli.EXIT_NO_NEGATIVE_LOOP}\n")


def test_run_of_one_step_is_one_minimax_solve(tmp_path, monkeypatch):
    # "n_steps": 1 solves the config's sweep family once, at (eps0, tau0);
    # one record is too few to classify
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _base_config(n_steps=1)
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg)]) == \
        cli.EXIT_INCONCLUSIVE
    result = json.loads((tmp_path / "run_out" / "result.json").read_text())
    assert len(result["records"]) == 1
    assert result["records"][0]["level"] == _single_solve(cfg).level


def test_flow_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    rc = cli.main(["flow", "--kind", "plane_constant_B", "--B", "1.0",
                   "--speed", "1.0", "--T", str(2.0 * math.pi),
                   "--steps", "4000", "--output-dir", "flow_out"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["closure_residual"] < 1e-5
    assert payload["energy_drift"] < 1e-9
    assert (tmp_path / "flow_out" / "trajectory.csv").exists()


def test_oracle_shoot_writes_the_orbits(tmp_path, monkeypatch, capsys):
    # criterion 10's sine torus: the four seeds close on translates of one
    # orbit, which is written as a closed n-gon of total winding zero
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    rc = cli.main(["oracle", "shoot", "--kind", "flat_torus_sine", "--a", "3",
                   "--k", "1", "--E-mech", "0.01", "--period-cap", "0.6",
                   "--tol", "1e-8", "--dt", "1e-3", "--seeds", "4",
                   "--seed", "7", "--output-dir", "shoot_out"])
    assert rc == cli.EXIT_OK
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    out = tmp_path / "shoot_out"
    orbits = json.loads((out / "orbits.json").read_text())
    assert printed["n_candidates"] == len(orbits) >= 1
    for entry in orbits:
        assert abs(entry["period"] - 0.3335187507) <= 1e-6 * 0.3335187507
        loop = load_loop_csv(out / entry["loop_csv"])
        assert loop.n == 256  # the default of --n
        assert loop.total_winding().tolist() == [0, 0]


def test_flow_blow_up_is_not_a_config_error(tmp_path, monkeypatch):
    # a field that passes the amplitude check (2 pi a = 6.3e300) throws the
    # state to infinity within the first step: a numerical failure, not bad
    # input, so it is the plain ValueError of a non-finite step state
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    with pytest.raises(ValueError, match="v must be finite") as info:
        cli.main(["flow", "--kind", "flat_torus_sine", "--a", "1e300",
                  "--speed", "1", "--T", "1", "--steps", "100"])
    assert not isinstance(info.value, ConfigError)


@pytest.mark.parametrize("kind", ["plane_constant_B", "flat_torus_sine",
                                  "conformal_torus"])
def test_flow_rejects_a_launch_whose_energy_overflows(kind, tmp_path,
                                                      monkeypatch, capsys):
    # a finite speed whose kinetic energy overflows a float used to print
    # Infinity and NaN and exit 0; B is a plane parameter (the torus kinds
    # refuse it), so the torus launches run their own zero field
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    field = ["--B", "1"] if kind == "plane_constant_B" else []
    assert cli.main(["flow", "--kind", kind, *field, "--speed", "1e200",
                     "--T", "1", "--steps", "10"]) == cli.EXIT_CONFIG
    assert "kinetic energy" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_flow_rejects_bad_speed():
    assert cli.main(["flow", "--speed", "-1.0", "--T", "1.0"]) == \
        cli.EXIT_CONFIG


@pytest.mark.parametrize("flag", ["--speed", "--T", "--B"])
def test_flow_rejects_nan(flag, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    args = {"--speed": "1.0", "--T": "1.0", flag: "nan"}
    assert cli.main(["flow", *[t for kv in args.items() for t in kv]]) == \
        cli.EXIT_CONFIG
    assert not (tmp_path / "flow_out").exists()


@pytest.mark.parametrize("flag, value", [("--x0", "inf"), ("--angle", "inf"),
                                         ("--angle", "nan"), ("--T", "inf"),
                                         ("--steps", "0"), ("--k", "0")])
def test_flow_start_is_checked_by_the_types(flag, value, tmp_path,
                                            monkeypatch, capsys):
    # ChartPoint, integrate_flow and GeometrySpec own these checks; --speed
    # and --angle, which no type sees, are checked by the command
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    args = {"--kind": "flat_torus_sine", "--a": "1.0", "--speed": "1.0",
            "--T": "1.0", "--steps": "10", flag: value}
    assert cli.main(["flow", *[t for kv in args.items() for t in kv]]) == \
        cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert not (tmp_path / "flow_out").exists()


def test_oracle_shoot_bad_input_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["oracle", "shoot", "--E-mech", "nan"]) == \
        cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["--n", "2"],
    ["--seeds", "0"],
    ["--seeds", "-1"],
    ["--dt", "1e-320"],
])
def test_oracle_shoot_rejects_bad_sizes(argv, tmp_path, monkeypatch, capsys):
    # checked before the search runs, so nothing is written
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["oracle", "shoot", "--kind", "flat_torus_sine",
                     "--a", "3.0", "--E-mech", "0.01", "--seeds", "1",
                     "--period-cap", "0.6", *argv]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert not (tmp_path / "oracle_out").exists()


class _Integrated(Exception):
    pass


@pytest.mark.parametrize("argv, limit, out", [
    (["flow", "--speed", "1", "--T", "1", "--steps"], MAX_RETURN_STEPS,
     "flow_out"),
    # orbit_to_loop integrates 8 n steps; refused before the search runs
    (["oracle", "shoot", "--kind", "flat_torus_sine", "--a", "3.0",
      "--E-mech", "0.01", "--seeds", "1", "--period-cap", "0.6", "--n"],
     MAX_RETURN_STEPS // oracle._LOOP_OVERSAMPLE, "oracle_out"),
], ids=["flow_steps", "shoot_n"])
def test_sizes_over_the_step_bound_are_refused(argv, limit, out, tmp_path,
                                               monkeypatch, capsys):
    # every RK4 step raises, so a run past the bound never starts
    def no_step(*args):
        raise _Integrated

    monkeypatch.setattr(dynamics, "_build_step", lambda spec: no_step)
    monkeypatch.setattr(oracle, "_build_step", lambda spec: no_step)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main([*argv, str(limit + 1)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert not (tmp_path / out).exists()
    with pytest.raises(_Integrated):  # the bound itself is admitted
        cli.main([*argv, str(limit)])


@pytest.mark.parametrize("argv, limit, worker", [
    (["oracle", "shoot", "--kind", "flat_torus_sine", "--a", "3.0",
      "--E-mech", "0.01", "--seeds"], cli.MAX_SHOOT_SEEDS,
     "shooting_periodic"),
], ids=["shoot_seeds"])
def test_sizes_over_their_bound_are_refused(argv, limit, worker, tmp_path,
                                            monkeypatch, capsys):
    # the worker raises, so a run past the bound never starts its work
    def no_work(*args, **kwargs):
        raise _Integrated

    monkeypatch.setattr(cli, worker, no_work)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main([*argv, str(limit + 1)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert os.listdir(tmp_path) == []
    with pytest.raises(_Integrated):  # the bound itself is admitted
        cli.main([*argv, str(limit)])


_SHOOT = ["shoot", "--kind", "flat_torus_sine", "--a", "3.0", "--E-mech",
          "0.01", "--seeds", "1", "--period-cap", "0.6"]


@pytest.mark.parametrize("argv", [
    ["larmor", "--E", "inf", "--B", "1"],
    ["larmor", "--E", "1", "--B", "inf"],
    ["larmor", "--E", "nan", "--B", "1"],
    ["larmor", "--E", "0", "--B", "1"],
    ["larmor", "--E", "-1", "--B", "1"],
    ["larmor", "--E", "1", "--B", "nan"],
    ["larmor", "--E", "1", "--B", "0"],
    ["larmor", "--E", "1", "--B", "-1"],
    [*_SHOOT, "--tol", "nan"],
    [*_SHOOT, "--tol", "0"],
    [*_SHOOT, "--tol", "inf"],
    [*_SHOOT, "--period-cap", "nan"],
    [*_SHOOT, "--period-cap", "0"],
    [*_SHOOT, "--period-cap", "inf"],
    [*_SHOOT, "--dt", "nan"],
    [*_SHOOT, "--dt", "0"],
    [*_SHOOT, "--dt=-1e-3"],
    [*_SHOOT, "--E-mech", "0"],
    [*_SHOOT, "--E-mech", "inf"],
    [*_SHOOT, "--x0", "inf"],
])
def test_oracle_rejects_bad_numbers(argv, tmp_path, monkeypatch, capsys):
    # larmor_orbit, shooting_periodic and ChartPoint own these checks, which
    # run before shoot writes its output directory
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["oracle", *argv]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert not (tmp_path / "oracle_out").exists()


def test_oracle_larmor_subcommand(capsys):
    rc = cli.main(["oracle", "larmor", "--E", "4.0", "--B", "2.0"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["radius"] == 1.0
    assert abs(payload["level"] - 2.0 * math.pi) < 1e-15


@pytest.mark.parametrize("argv", [
    ["mpass", "--config", "cfg.json"],
    ["gradcheck"],
    ["oracle", "profile", "--E", "1", "--B", "1", "--r-max", "2"],
], ids=["mpass", "gradcheck", "oracle_profile"])
def test_removed_verbs_are_refused_by_the_parser(argv, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["run"],
    ["flow", "--T", "1"],
    ["flow", "--speed", "1"],
    ["oracle"],
    ["oracle", "larmor", "--E", "1"],
    ["oracle", "shoot"],
], ids=["run", "flow_speed", "flow_T", "oracle", "larmor_B", "shoot_E_mech"])
def test_missing_required_arguments_are_refused_by_the_parser(
        argv, tmp_path, monkeypatch, capsys):
    # the verbs that stay refuse an incomplete command line with argparse's
    # exit code 2, the config-error code, before any work or output
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "required" in captured.err
    assert os.listdir(tmp_path) == []
