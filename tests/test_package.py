"""The package's public name list matches what it binds, and runs of any size
need no scipy."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
from scipy.spatial.distance import pdist

import flocksim
from flocksim import SimConfig, engine, graph


def test_all_names_resolve():
    assert len(flocksim.__all__) == len(set(flocksim.__all__))
    for name in flocksim.__all__:
        assert hasattr(flocksim, name), name


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(flocksim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(flocksim.__all__) == bound


# scipy is importable here, so the fresh interpreter blocks it: an import of
# any scipy module raises ImportError.
_WITHOUT_SCIPY = """
import dataclasses, json, sys
sys.modules["scipy"] = None

import flocksim
from flocksim import SimConfig, cli, engine, graph, lab
engine.run(SimConfig(n=101, duration=0.2))
engine.run(SimConfig(n=300, duration=0.2))
engine.run(dataclasses.replace(lab.preset("cucker-smale-baseline").config, duration=1.0))
lab.sweep(lab.SweepSpec(etas=(3.0, 13.0), ns=(2, 5, 10), seeds=2, duration=2.0))
traj = engine.run(SimConfig(n=40, duration=0.5))
graph.lyapunov_monitor(traj.positions[-1], traj.velocities[-1], traj.config.params)
lab.save_config(SimConfig(n=150, duration=0.2), sys.argv[1])
codes = [cli.main(["validate", sys.argv[1]]), cli.main(["simulate", sys.argv[1]])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_runs_need_no_scipy(tmp_path):
    # A fresh interpreter in which scipy cannot be imported: runs of 101 and
    # 300 agents, the Cucker-Smale preset, a sweep, the monitor, and the CLI's
    # validate and simulate on a 150-agent config all succeed.
    src = os.path.dirname(os.path.dirname(flocksim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "n150.json")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[0, 0], ["scipy"]]


def test_run_above_100_agents_keeps_pdists_bits():
    # Every run snapshot carries the condensed distances, pdist's bits, and
    # every metric row their mean and minimum.
    traj = engine.run(SimConfig(n=101, duration=0.5))
    for k, sample in enumerate(traj.metrics):
        pos = traj.positions[k]
        snap = graph.snapshot_of(pos, traj.velocities[k], traj.config.params)
        d = pdist(pos)
        assert snap.distances.tobytes() == d.tobytes()
        assert (sample.d_avg, sample.d_min) == (float(np.add.reduce(d) / d.shape[0]),
                                                float(np.minimum.reduce(d)))
