"""Time one fresh-process set-up: what a user waits for before the first solve.

    python3 setup_probe.py <src dir> <job.json>

For a run job this is `import magloop`, parsing the config and building the
sweep family; for a shoot job it is `import magloop` and building the seed
states.  Prints {"setup_s": ...} as its last line.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


def main(src: str, job_path: str) -> float:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, src)
    import magloop
    if job["kind"] == "run":
        from magloop.cli import load_config
        cfg = load_config(job["config_path"])
        magloop.init_sweep_family(cfg.geometry, cfg.E, cfg.w_shape,
                                  cfg.family_size, cfg.n_vertices, cfg.seed,
                                  m_p=cfg.m_p)
    else:
        import numpy as np
        [magloop.FlowState(magloop.ChartPoint(x, y),
                           np.array([math.cos(a), math.sin(a)]))
         for x, y, a in job["states"]]
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1], sys.argv[2])}))
