"""The package's public name list matches what it binds, and scipy stays
unloaded until a run needs distances of more than graph.NUMPY_DISTANCE_NODES agents."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
from scipy.spatial.distance import cdist, pdist

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


_STAGES = """
import dataclasses, json, sys

def stage(name):
    print(json.dumps([name, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))

import flocksim
from flocksim import SimConfig, engine, graph, lab
stage("import flocksim")
engine.run(dataclasses.replace(lab.preset("flocking-fig2a").config, duration=2.0))
stage("preset run")
lab.sweep(lab.SweepSpec(etas=(3.0, 13.0), ns=(2, 5, 10), seeds=2, duration=2.0))
stage("sweep")
traj = engine.run(SimConfig(n=40, duration=0.5))
graph.lyapunov_monitor(traj.positions[-1], traj.velocities[-1], traj.config.params)
stage("monitor n=40")
engine.run(SimConfig(n=101, duration=0.2))
stage("run n=101")
"""


def test_scipy_is_loaded_only_above_the_numpy_distance_limit():
    # A fresh interpreter: small runs, sweeps and the monitor never import
    # scipy; the first dense distances of more than 100 agents do.
    src = os.path.dirname(os.path.dirname(flocksim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _STAGES], env=env, capture_output=True,
                         text=True, check=True).stdout
    stages = dict(json.loads(line) for line in out.splitlines())
    assert list(stages) == ["import flocksim", "preset run", "sweep", "monitor n=40",
                            "run n=101"]
    for name in ("import flocksim", "preset run", "sweep", "monitor n=40"):
        assert stages[name] == [], name
    assert "scipy.spatial.distance" in stages["run n=101"]


def test_run_above_the_limit_keeps_scipys_bits():
    # n = 101 takes cdist's matrix: the run's snapshots carry its distances
    # and every metric row pdist's mean and minimum.
    assert graph.NUMPY_DISTANCE_NODES == 100
    traj = engine.run(SimConfig(n=101, duration=0.5))
    for k, sample in enumerate(traj.metrics):
        pos = traj.positions[k]
        snap = graph.snapshot_of(pos, traj.velocities[k], traj.config.params)
        assert snap.distances.tobytes() == cdist(pos, pos).tobytes()
        d = pdist(pos)
        assert (sample.d_avg, sample.d_min) == (float(np.add.reduce(d) / d.shape[0]),
                                                float(np.minimum.reduce(d)))
