import numpy as np
import pytest

from phaseflow import (BoundarySpec, Field, Grid, ModelSpec, State,
                       builtin)


@pytest.fixture
def caginalp_model():
    return ModelSpec(builtin("caginalp_j"), builtin("quartic_W"),
                     builtin("linear_lambda", ell=1.0))


@pytest.fixture
def mixed_model():
    return ModelSpec(builtin("mixed_j", tau_c=1.0), builtin("quartic_W"),
                     builtin("linear_lambda", ell=1.0))


@pytest.fixture
def unit_grid():
    return Grid((1.0,), (65,))


@pytest.fixture
def dirichlet_bc():
    return BoundarySpec("dirichlet")


def cosine_state(grid, model, amp=0.1, theta_value=0.0, mode=1):
    x = grid.axes()[0]
    length = grid.extents[0]
    chi = Field(grid, amp * np.cos(mode * np.pi * x / length))
    theta = Field.full(grid, theta_value)
    return State.make(0.0, theta, chi, model)


__all__ = ["cosine_state"]
