"""Per-layer tracing of magloop from outside the package.

The tracer replaces functions of the magloop modules with timing wrappers
for the duration of one solve and restores them afterwards; nothing under
``src/`` is edited.  A module that did ``from .x import y`` holds its own
binding of ``y``, so every binding of the same function object in every
``magloop`` module namespace is replaced, not only the defining one.  A name
that the package no longer defines is recorded as absent, and the metrics
that depend on it are left out of the report rather than reported as zero.

Each wrapped call is a span.  A span whose caller is in another layer (or
that has no traced caller) crosses a layer boundary; layer self time is the
time inside boundary spans minus the time in the boundary spans of other
layers nested in them.  Call counts and inclusive times are kept for every
wrapped function; start and end times of the low-frequency stage spans are
kept in memory as (name, start, end, parent) so the continuation steps can be
timed after the solve.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("geometry", "loops", "action", "minimax", "continuation",
          "dynamics", "oracle", "cli")

# (layer, name) pairs to wrap.  "Class.method" names are wrapped on the class.
TARGETS = {
    "geometry": ("metric_eval", "metric_grad", "metric_inverse",
                 "christoffel", "potential_eval", "potential_jac", "field_F",
                 "field_strength", "wrap_point"),
    "loops": ("Loop.__post_init__", "interpolate", "resample_arclength",
              "edge_lengths", "length", "speeds", "speed_cv", "rms_distance",
              "make_circle", "make_point_loop", "save_loop_csv",
              "load_loop_csv"),
    "action": ("action_S", "action_S_eps_tau", "action_F_cutoff",
               "action_pair", "circulation", "grad_action", "grad_norm"),
    "minimax": ("_engine", "_segment_polish", "_descend", "_reinterp_row",
                "_saddle_refine", "_fd_hessian", "init_sweep_family"),
    "continuation": ("continuation_run", "classify_outcome"),
    "dynamics": ("_rhs", "integrate_flow", "el_residual_SE",
                 "el_residual_deq"),
    "oracle": ("shooting_periodic", "_first_return", "_dedup_candidates",
               "orbit_to_loop"),
    "cli": ("load_config", "_json_dump"),
}

# Action-layer entry points that evaluate a value, and the gradient.
VALUE_FUNCS = ("action_S", "action_S_eps_tau", "action_F_cutoff",
               "action_pair", "circulation")
GRAD_FUNCS = ("grad_action",)

# Minimax stages: a span of one of these, or any span nested in it, belongs
# to that stage.  _descend called by _reinterp_row (repair) counts as
# reinterp; called straight from the sweep loop it is the relax stage.
STAGES = {"_segment_polish": "polish", "_descend": "relax",
          "_reinterp_row": "reinterp", "_saddle_refine": "refine"}

# Spans whose start and end are kept.
KEPT = ("continuation_run", "_engine", "init_sweep_family")


def _points(p) -> int:
    """Number of chart points in a geometry argument: 1 for a ChartPoint or
    a 2-vector, the product of the leading dimensions of an (..., 2) array."""
    n = 1
    for d in getattr(p, "shape", (2,))[:-1]:
        n *= d
    return n


class Tracer:
    """Install wrappers, collect counts and times, restore on uninstall."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.bcalls: dict[str, int] = {}
        self.bincl: dict[str, float] = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.stage_s = {stage: 0.0 for stage in STAGES.values()}
        self.stage_value = {stage: 0 for stage in STAGES.values()}
        self.stage_grad = {stage: 0 for stage in STAGES.values()}
        self.points = 0
        self.top_level_s = 0.0
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.reinterp_rejected = 0
        self.relax_calls = 0
        self.relax_moved = 0
        self.shoot_seeds = 0
        self.shoot_candidates = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        # `import magloop` imports every layer but cli, which is traced when
        # the caller has imported it.  A layer that is gone is absent.
        importlib.import_module("magloop")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "magloop" or name.startswith("magloop.")]
        for layer, names in self.targets.items():
            home = sys.modules.get(f"magloop.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name \
                    else home
                orig = None if owner is None else vars(owner).get(attr)
                if orig is None:
                    self.absent.add(key)
                    continue
                wrapper = self._wrap(orig, key, layer, attr)
                if owner_name:
                    self._replace(owner, attr, orig, wrapper)
                else:
                    for mod in namespaces:
                        for alias, val in list(vars(mod).items()):
                            if val is orig:
                                self._replace(mod, alias, orig, wrapper)
                self.present.add(key)

    def _replace(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, orig, key, layer, name):
        self.calls[key] = 0
        self.incl[key] = 0.0
        self.bcalls[key] = 0
        self.bincl[key] = 0.0
        stack = self._stack
        perf = time.perf_counter
        calls, incl = self.calls, self.incl
        bcalls, bincl = self.bcalls, self.bincl
        layer_self = self.layer_self
        own_stage = STAGES.get(name) if layer == "minimax" else None
        is_value = layer == "action" and name in VALUE_FUNCS
        is_grad = layer == "action" and name in GRAD_FUNCS
        is_geometry = layer == "geometry"
        kept = name in KEPT
        hook = self._hooks().get(name)
        needs_frame = own_stage is not None or kept or hook is not None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer and not needs_frame:
                # Inside its own layer: count and time it, no new span.
                t0 = perf()
                try:
                    return orig(*args, **kwargs)
                finally:
                    calls[key] += 1
                    incl[key] += perf() - t0
            stage = parent[2] if parent is not None else None
            if stage is None:
                stage = own_stage
            # frame: [layer, foreign time, stage, name]
            frame = [layer, 0.0, stage, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                incl[key] += dur
                if parent is None or parent[0] != layer:
                    bcalls[key] += 1
                    bincl[key] += dur
                    layer_self[layer] += dur - frame[1]
                    if parent is None:
                        tracer.top_level_s += dur
                    else:
                        parent[1] += dur
                    if is_geometry and len(args) > 1:
                        tracer.points += _points(args[1])
                    if stage is not None:
                        if is_value:
                            tracer.stage_value[stage] += 1
                        elif is_grad:
                            tracer.stage_grad[stage] += 1
                else:
                    parent[1] += frame[1]
                if own_stage is not None and (parent is None
                                              or parent[2] is None):
                    tracer.stage_s[own_stage] += dur
                if kept:
                    tracer.spans.append((name, t0, t1,
                                         None if parent is None
                                         else parent[3]))
            if hook is not None:
                hook(args, result, stage)
            return result

        return functools.wraps(orig)(wrapper)

    def _hooks(self):
        """Post-call observers of return values, by function name."""

        def reinterp(args, result, stage):
            # _reinterp_row hands back its input row when it rejects.
            if result is args[1]:
                self.reinterp_rejected += 1

        def descend(args, result, stage):
            # _descend hands back its input loop when no step was accepted.
            if stage == "relax":
                self.relax_calls += 1
                self.relax_moved += result[0] is not args[1]

        def shoot(args, result, stage):
            self.shoot_seeds += len(args[2])
            self.shoot_candidates += len(result)

        return {"_reinterp_row": reinterp, "_descend": descend,
                "shooting_periodic": shoot}

    # -- derived metrics --------------------------------------------------

    def metrics(self, solve_s: float, extra: dict | None = None) -> dict:
        """Per-layer metrics of the traced solve(s) since construction.

        A metric whose inputs include an absent name is left out.
        """
        out = {}
        have = self.present

        def put(name, unit, deps, value):
            if all(d in have for d in deps):
                out[name] = {"value": value() if callable(value) else value,
                             "unit": unit}

        def keys(layer, names):
            return [f"{layer}.{n}" for n in names]

        def bsum(table, layer, names):
            return sum(table[k] for k in keys(layer, names) if k in have)

        geo = TARGETS["geometry"]
        put("geometry.calls", "count", [],
            lambda: bsum(self.bcalls, "geometry", geo))
        put("geometry.points", "count", [], self.points)
        put("geometry.points_per_call", "points/call", [],
            lambda: self.points / max(1, bsum(self.bcalls, "geometry", geo)))
        for layer in LAYERS:
            put(f"{layer}.self_s", "s", [], self.layer_self[layer])

        post = "loops.Loop.__post_init__"
        put("loops.loop_new", "count", [post], lambda: self.calls[post])
        put("loops.loop_new_s", "s", [post], lambda: self.incl[post])
        put("loops.interpolate_calls", "count", ["loops.interpolate"],
            lambda: self.calls["loops.interpolate"])
        put("loops.resample_s", "s", ["loops.resample_arclength"],
            lambda: self.incl["loops.resample_arclength"])

        put("action.value_calls", "count", [],
            lambda: bsum(self.bcalls, "action", VALUE_FUNCS))
        put("action.value_s", "s", [],
            lambda: bsum(self.bincl, "action", VALUE_FUNCS))
        grad = "action.grad_action"
        put("action.grad_calls", "count", [grad], lambda: self.bcalls[grad])
        put("action.grad_s", "s", [grad], lambda: self.bincl[grad])

        for fname, stage in STAGES.items():
            dep = [f"minimax.{fname}"]
            put(f"minimax.{stage}.s", "s", dep, self.stage_s[stage])
            put(f"minimax.{stage}.value_calls", "count", dep,
                self.stage_value[stage])
            put(f"minimax.{stage}.grad_calls", "count", dep + [grad],
                self.stage_grad[stage])
        hess = "minimax._fd_hessian"
        put("minimax.refine.hessians", "count", [hess],
            lambda: self.calls[hess])
        put("minimax.refine.hessian_s", "s", [hess], lambda: self.incl[hess])
        rein = "minimax._reinterp_row"
        put("minimax.reinterp.accept_ratio", "ratio", [rein],
            lambda: _ratio(self.calls[rein] - self.reinterp_rejected,
                           self.calls[rein]))
        put("minimax.relax.moved_ratio", "ratio", ["minimax._descend"],
            lambda: _ratio(self.relax_moved, self.relax_calls))

        steps = self._continuation_steps()
        put("continuation.steps", "count",
            ["continuation.continuation_run", "minimax._engine"],
            lambda: len(steps) - 1 if steps else 0)
        put("continuation.bootstrap_s", "s",
            ["continuation.continuation_run", "minimax._engine"],
            lambda: steps[0] if steps else 0.0)
        put("continuation.step_s.median", "s",
            ["continuation.continuation_run", "minimax._engine"],
            lambda: statistics.median(steps[1:]) if len(steps) > 1 else 0.0)
        put("continuation.step_s.max", "s",
            ["continuation.continuation_run", "minimax._engine"],
            lambda: max(steps[1:]) if len(steps) > 1 else 0.0)
        put("continuation.init_s", "s", ["minimax.init_sweep_family"],
            lambda: self.incl["minimax.init_sweep_family"])

        put("dynamics.rhs_calls", "count", ["dynamics._rhs"],
            lambda: self.calls["dynamics._rhs"])
        put("dynamics.rhs_s", "s", ["dynamics._rhs"],
            lambda: self.incl["dynamics._rhs"])
        res = "dynamics.el_residual_SE"
        put("dynamics.residual_calls", "count", [res],
            lambda: self.calls[res])
        put("dynamics.residual_s", "s", [res], lambda: self.incl[res])

        fr = "oracle._first_return"
        put("oracle.first_return_calls", "count", [fr],
            lambda: self.calls[fr])
        put("oracle.first_return_s", "s", [fr], lambda: self.incl[fr])
        put("oracle.seed_yield", "ratio", ["oracle.shooting_periodic"],
            lambda: _ratio(self.shoot_candidates, self.shoot_seeds))
        dd = "oracle._dedup_candidates"
        put("oracle.dedup_s", "s", [dd], lambda: self.incl[dd])

        put("cli.load_config_s", "s", ["cli.load_config"],
            lambda: self.incl["cli.load_config"])
        put("cli.write_s", "s", ["cli._json_dump", "loops.save_loop_csv"],
            lambda: self.incl["cli._json_dump"]
            + self.incl["loops.save_loop_csv"])

        put("trace.coverage", "ratio", [],
            lambda: _ratio(self.top_level_s, solve_s))
        for name, (value, unit) in (extra or {}).items():
            out[name] = {"value": value, "unit": unit}
        return out

    def _continuation_steps(self) -> list[float]:
        """Durations of the bootstrap and each continuation step: from one
        engine call's start to the next one's (the last step ends with
        continuation_run)."""
        runs = [s for s in self.spans if s[0] == "continuation_run"]
        if not runs:
            return []
        _, r0, r1, _ = runs[0]
        starts = [s[1] for s in self.spans
                  if s[0] == "_engine" and s[3] == "continuation_run"
                  and r0 <= s[1] <= r1]
        marks = sorted(starts) + [r1]
        return [b - a for a, b in zip(marks, marks[1:])]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
