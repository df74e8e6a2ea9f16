"""The four benchmark workloads: seeded inputs, configs and output checks.

Each workload is a config file plus one seeded order-parameter field handed
to the program as an ``initial.chi = snapshot`` ``.pfld`` file, so the
program receives only generated inputs.  The seed draws the amplitudes of
low cosine modes; the overall size of the perturbation is fixed, so every
seed costs about the same amount of work and only the shape changes.
"""

import math
import os

import numpy as np

DEFAULT_SEED = 1

#: Maximum of |chi(x, 0)| for the non-relax workloads.
PERTURBATION = 0.2

#: The two library workloads run ``dynamics.run`` directly; the other two
#: run the CLI pipeline (``cli.run_experiment`` and friends).
LIBRARY = ("line1d", "plate2d")
CLI = ("robin_wall", "relax")
NAMES = LIBRARY + CLI

_COMMON = {
    "initial.chi": "snapshot",
    "run.dt": "1e-3",
    "run.newton_tol": "1e-8",
}

# Full-size and toy-size (self-test) settings of each workload.  The toy
# sizes keep every stage of the pipeline but shrink the grid or the horizon.
_CONFIGS = {
    "line1d": {
        "model.j": "mixed_j", "model.j.tau_c": "1.0", "model.w": "quartic_W",
        "model.lambda": "tanh_lambda",
        "grid.dimension": "1", "grid.extents": "1.0",
        "bc.kind": "dirichlet",
        "initial.theta": "constant", "initial.theta.value": "0.0",
    },
    "plate2d": {
        "model.j": "mixed_j", "model.j.tau_c": "1.0", "model.w": "quartic_W",
        "model.lambda": "tanh_lambda",
        "grid.dimension": "2", "grid.extents": "1.0 1.0",
        "bc.kind": "dirichlet",
        "initial.theta": "constant", "initial.theta.value": "0.0",
    },
    "robin_wall": {
        "model.j": "mixed_j", "model.j.tau_c": "1.0", "model.w": "quartic_W",
        "model.lambda": "tanh_lambda",
        "grid.dimension": "1", "grid.extents": "1.0",
        "bc.kind": "robin", "bc.eta": "0.5",
        "bc.theta_gamma.amplitude": "0.2", "bc.theta_gamma.envelope": "exp",
        "bc.theta_gamma.rate": "2.0",
        "source.profile": "bump", "source.amplitude": "0.5",
        "source.envelope": "exp", "source.rate": "1.0",
        "source.delta_src": "1.0",
        # min theta = -0.5 - 0.47 = -0.97: within 0.03 of the wall at -1
        "initial.theta": "cosine", "initial.theta.offset": "-0.5",
        "initial.theta.amplitude": "0.47", "initial.theta.mode": "2",
        "run.dt": "2e-3", "run.t_end": "2.0", "run.trace_every": "1",
        "run.snapshot_every": "10",
        "diagnostics.dissipation": "true", "diagnostics.monitors": "true",
        "diagnostics.s": "0.0", "diagnostics.validate_model": "true",
    },
    "relax": {
        "model.j": "caginalp_j", "model.w": "quartic_W",
        "model.lambda": "linear_lambda", "model.lambda.ell": "1.0",
        "grid.dimension": "1", "grid.extents": "1.0", "grid.nodes": "128",
        "bc.kind": "dirichlet",
        "initial.theta": "constant", "initial.theta.value": "0.0",
        "run.t_end": "20.0", "run.stop_on_converged": "true",
        "run.snapshot_every": "50",
        "diagnostics.dissipation": "true", "diagnostics.omega": "true",
        "diagnostics.assert_converged": "true",
    },
}

_SIZES = {
    # workload: (full, toy) overrides
    "line1d": ({"grid.nodes": "2048", "run.t_end": "0.2"},
               {"grid.nodes": "64", "run.t_end": "0.01"}),
    "plate2d": ({"grid.nodes": "64 64", "run.t_end": "0.02"},
                {"grid.nodes": "8 8", "run.t_end": "0.005"}),
    "robin_wall": ({"grid.nodes": "128"},
                   {"grid.nodes": "16", "run.dt": "1e-2"}),
    "relax": ({}, {"grid.nodes": "32", "run.dt": "1e-2",
                   "run.snapshot_every": "5"}),
}


def _modes_1d(x, length, amps, modes):
    return sum(a * np.cos(k * math.pi * x / length)
               for a, k in zip(amps, modes))


def initial_chi(name, seed, nodes, extents):
    """Seeded initial order parameter of a workload on a given grid.

    ``relax`` uses odd cosine modes only: chi is then antisymmetric about
    the midpoint and every seed relaxes to chi = 0.  Its first mode, which
    sets the time to convergence, stays within 10% of a fixed amplitude.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    axes = [np.linspace(0.0, e, n) for e, n in zip(extents, nodes)]
    if name == "relax":
        modes = (1, 3, 5, 7)
        amps = [0.1 * rng.uniform(0.9, 1.1)] + [
            0.1 * rng.uniform(-1.0, 1.0) / k for k in modes[1:]]
        return _modes_1d(axes[0], extents[0], amps, modes)
    if len(nodes) == 1:
        modes = (1, 2, 3, 4)
        amps = rng.normal(size=len(modes)) / np.asarray(modes)
        chi = _modes_1d(axes[0], extents[0], amps, modes)
    else:
        x, y = np.meshgrid(*axes, indexing="ij")
        chi = np.zeros(x.shape)
        for k in range(3):
            for m in range(3):
                if k or m:
                    chi += rng.normal() / (1 + k + m) * (
                        np.cos(k * math.pi * x / extents[0])
                        * np.cos(m * math.pi * y / extents[1]))
    return PERTURBATION * chi / np.max(np.abs(chi))


def raw_config(name, toy=False):
    """The key/value config of a workload, without its snapshot path."""
    raw = dict(_COMMON)
    raw.update(_CONFIGS[name])
    raw.update(_SIZES[name][1 if toy else 0])
    if name in LIBRARY:
        # one trace row at the start and one at the end
        n_steps = round(float(raw["run.t_end"]) / float(raw["run.dt"]))
        raw["run.trace_every"] = str(n_steps)
    return raw


def write_inputs(name, seed, work_dir, toy=False):
    """Write the workload's config and seeded snapshot; returns the config
    path.  The snapshot is written with the program's own writer."""
    from phaseflow.grids import Field, Grid, write_records

    os.makedirs(work_dir, exist_ok=True)
    raw = raw_config(name, toy)
    extents = tuple(float(v) for v in raw["grid.extents"].split())
    nodes = tuple(int(v) for v in raw["grid.nodes"].split())
    grid = Grid(extents, nodes)
    chi = Field(grid, initial_chi(name, seed, nodes, extents))
    snap = os.path.join(work_dir, "initial_chi.pfld")
    write_records(snap, [(chi, 0.0)])
    raw["initial.chi.path"] = snap
    cfg_path = os.path.join(work_dir, "workload.cfg")
    with open(cfg_path, "w") as fh:
        for key in sorted(raw):
            fh.write(f"{key} = {raw[key]}\n")
    return cfg_path
