"""Continuation schedule, outcome classifier, and whole-run invariants."""

import math

import pytest

from magloop import (ContinuationRecord, ConvergedExtremal, DescentSettings,
                     DivergingLengths, GeometryKind, GeometrySpec,
                     Inconclusive, MinimaxResult, Schedule, classify_outcome,
                     continuation_run, implied_energy, init_sweep_family,
                     make_circle)
from magloop import cli, continuation
from magloop.dynamics import ResidualReport


def _dummy_minimax(level):
    loop = make_circle((0.0, 0.0), 1.0, -1, 16)
    return MinimaxResult(level=level, argmax=loop, grad_norm=1e-9,
                         history=((0, level),), converged=True)


def _record(step, eps, l, max_res, E=1.0, tau=0.0):
    nu = eps * l
    e_lin, e_exact = implied_energy(nu, E)
    rep = ResidualReport(max_res=max_res, mean_res=max_res, speed_cv=1e-9)
    loop = make_circle((0.0, 0.0), l / (2.0 * math.pi), -1, 16)
    return ContinuationRecord(step=step, eps=eps, tau=tau, level=1.0,
                              loop=loop, l=l, nu=nu, E_lin=e_lin,
                              E_exact=e_exact, residual=rep,
                              minimax=_dummy_minimax(1.0))


def test_schedule_geometric_and_pairs():
    sch = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=4)
    assert sch.eps(0) == 1e-2 and sch.eps(3) == 1e-2 * 0.125
    assert sch.tau(2) == 1e-2 * 0.25
    plain = sch.pairs()
    assert plain == [(sch.eps(n), sch.tau(n)) for n in range(4)]


def test_schedule_validation_messages():
    with pytest.raises(ValueError, match="eps0 must be positive"):
        Schedule(eps0=0.0, tau0=0.0, rho=0.5, n_steps=2)
    with pytest.raises(ValueError, match="tau must satisfy 0 <= tau < 1"):
        Schedule(eps0=1e-2, tau0=1.0, rho=0.5, n_steps=2)
    with pytest.raises(ValueError, match="rho"):
        Schedule(eps0=1e-2, tau0=0.0, rho=1.0, n_steps=2)
    with pytest.raises(ValueError, match="n_steps"):
        Schedule(eps0=1e-2, tau0=0.0, rho=0.5, n_steps=0)
    # tau0 = 0 is a legal degenerate schedule
    assert Schedule(eps0=1e-2, tau0=0.0, rho=0.5, n_steps=2).tau(1) == 0.0


def test_implied_energy_closed_form():
    e1, e2 = implied_energy(0.25, 2.0)
    assert e1 == 2.0 * 1.5
    assert e2 == 2.0 * 1.5 * 1.5
    assert implied_energy(0.0, 3.0) == (3.0, 3.0)
    with pytest.raises(ValueError):
        implied_energy(-0.1, 1.0)
    with pytest.raises(ValueError, match="nu must be finite and nonneg"):
        implied_energy(math.inf, 1.0)
    with pytest.raises(ValueError):
        implied_energy(0.1, 0.0)


def test_classify_converged_pattern():
    recs = [_record(0, 1e-2, 6.30, 5e-3),
            _record(1, 5e-3, 6.29, 2e-3),
            _record(2, 2.5e-3, 6.293, 1e-3),
            _record(3, 1.25e-3, 6.292, 9e-4)]
    out = classify_outcome(recs)
    assert isinstance(out, ConvergedExtremal)
    assert out.residual.max_res == 9e-4
    assert out.loop is recs[-1].loop
    assert out.case == "ConvergedExtremal"


def test_classify_diverging_pattern_with_exact_ladder():
    E = 2.0
    eps = [1e-1, 5e-2, 2.5e-2]
    ls = [10.0, 15.0, 22.0]
    recs = [_record(i, e, l, 0.5, E=E) for i, (e, l) in
            enumerate(zip(eps, ls))]
    out = classify_outcome(recs)
    assert isinstance(out, DivergingLengths)
    assert out.ladder_lin == tuple(E * (1.0 + 2.0 * e * l)
                                     for e, l in zip(eps, ls))
    assert out.ladder_exact == tuple(E * (1.0 + 2.0 * e * l) ** 2
                                     for e, l in zip(eps, ls))
    assert out.case == "DivergingLengths"
    assert cli.json_fields(out) == {"case": "DivergingLengths",
                                    "ladder_lin": out.ladder_lin,
                                    "ladder_exact": out.ladder_exact}


def test_classify_inconclusive_patterns():
    # stabilized lengths but residual too large
    recs = [_record(i, 1e-2, 6.29, 0.5) for i in range(3)]
    out = classify_outcome(recs)
    assert isinstance(out, Inconclusive)
    assert "residual" in out.reason
    # non-monotone tail
    recs = [_record(0, 1e-2, 10.0, 0.5), _record(1, 5e-3, 30.0, 0.5),
            _record(2, 2.5e-3, 20.0, 0.5)]
    assert isinstance(classify_outcome(recs), Inconclusive)
    # diverging lengths require nu to shrink as well
    recs = [_record(0, 1e-1, 10.0, 0.5), _record(1, 1e-1, 20.0, 0.5),
            _record(2, 1e-1, 40.0, 0.5)]
    assert isinstance(classify_outcome(recs), Inconclusive)
    # too short
    out = classify_outcome([_record(0, 1e-2, 6.29, 1e-3)])
    assert isinstance(out, Inconclusive)
    assert "3 records" in out.reason


def test_classification_json_shapes():
    recs = [_record(i, 1e-2, 6.29, 0.5) for i in range(3)]
    out = classify_outcome(recs)
    assert cli.json_fields(out) == {"case": "Inconclusive",
                                    "reason": out.reason}
    # the loops are written as CSV, never into the JSON
    converged = ConvergedExtremal(recs[-1].loop, recs[-1].residual)
    assert cli.json_fields(converged) == {
        "case": "ConvergedExtremal",
        "residual": {"max_res": 0.5, "mean_res": 0.5, "speed_cv": 1e-9}}
    rec_obj = cli.json_fields(recs[0])
    assert set(rec_obj) == {"step", "eps", "tau", "level", "l", "nu",
                            "E_lin", "E_exact", "residual", "minimax"}
    assert set(rec_obj["residual"]) == {"max_res", "mean_res", "speed_cv"}
    assert rec_obj["minimax"] == {"level": 1.0, "grad_norm": 1e-9,
                                  "history": ((0, 1.0),), "converged": True,
                                  "stop": "max_iters"}


def test_benchmark_run_classifies_converged(plane_bench):
    assert isinstance(plane_bench["classification"], ConvergedExtremal)
    assert plane_bench["c_ref"] > 0.0
    records = plane_bench["records"]
    assert len(records) == 8
    assert all(rec.minimax.converged for rec in records)


def test_benchmark_levels_stay_in_window(plane_bench):
    # each step may drop by at most beta and rise by at most 1e-3
    beta = plane_bench["beta"]
    records = plane_bench["records"]
    for prev, cur in zip(records, records[1:]):
        assert cur.level >= prev.level - beta - 1e-12
        assert cur.level <= prev.level + 1e-3


def test_benchmark_length_bound(plane_bench):
    c_ref, beta = plane_bench["c_ref"], plane_bench["beta"]
    for rec in plane_bench["records"]:
        cap = math.sqrt((c_ref + beta) / rec.eps)
        assert rec.l <= cap * (1.0 + 1e-6)


def test_benchmark_nu_shrinks(plane_bench):
    records = plane_bench["records"]
    assert records[-1].nu < 1e-2
    assert records[-1].nu < records[0].nu


def test_benchmark_implied_energies_consistent(plane_bench):
    E = plane_bench["E"]
    for rec in plane_bench["records"]:
        assert rec.E_lin == E * (1.0 + 2.0 * rec.nu)
        assert rec.E_exact == E * (1.0 + 2.0 * rec.nu) ** 2
        assert rec.nu == rec.eps * rec.l


def test_run_makes_one_solve_per_step(monkeypatch):
    # step 0 is the bootstrap: its level is c_ref and no extra solve
    # precedes it
    calls = []
    engine = continuation._engine

    def counting(spec, rows, params, settings):
        calls.append(params)
        return engine(spec, rows, params, settings)

    monkeypatch.setattr(continuation, "_engine", counting)
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
    schedule = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=3)
    records, _, c_ref = continuation_run(
        spec, 1.0, init_sweep_family(spec, 1.0, "path", 9, 48), schedule,
        DescentSettings())
    assert len(calls) == schedule.n_steps == len(records)
    assert [(p.eps, p.tau) for p in calls] == schedule.pairs()
    assert records[0].level == c_ref
