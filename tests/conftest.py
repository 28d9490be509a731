"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from eigenprod.manifolds import Sphere2, build_basis


def _grid_values(basis) -> np.ndarray:
    """Every mode of ``basis`` on its flattened quadrature grid, one row per
    mode (first axis slowest, the order of ``grid_weights``), from the
    model's ``axis_factor_rows``."""
    rows = basis.model.axis_factor_rows(basis, np.arange(basis.size),
                                        tuple(ax.nodes for ax in basis.axes))
    if len(rows) == 1:
        return rows[0]
    return (rows[0][:, :, None] * rows[1][:, None, :]).reshape(basis.size, -1)


@pytest.fixture(scope="session")
def grid_values():
    """The function that puts every mode of a basis on its flattened grid."""
    return _grid_values


@pytest.fixture(scope="session")
def sphere12_basis():
    return build_basis(Sphere2(), math.sqrt(12.0 * 13.0) + 1e-9)  # l <= 12
