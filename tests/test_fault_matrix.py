"""The fault matrix: each row fakes one fault in what a criterion certifies, by a monkeypatch,
and runs only the criteria that read the faulted function.

A row whose fault is caught asserts that its criterion fails.  A row whose fault passes is
xfail(strict=True) and names the ROADMAP item that closes the gap, so the row fails as soon as
the criterion catches the fault, until its mark is removed.

Criterion 4's rows run cli._criterion_4 alone on a fresh B = 32 grid, built while the fault is in
place, so the grid basis and the circle harmonics both carry it.
"""

import numpy as np
import pytest

from circleops import cli, sphere

_SCALE_CANCELS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 29: a scale that the harmonic kernel applies to the grid basis and the "
    "circle points alike cancels in criterion 4's comparison",
)


def _b_point_circle_rule(monkeypatch):
    """The circle rule with B points instead of B + 1: the frequency-B terms alias onto the mean."""
    geometry = vars(sphere.SphereGrid)["_ring_geometry"]

    def b_points(grid, exact=geometry.func):
        first, frame, *rest = exact(grid)
        e_phi, B = frame[0], grid.band_limit  # psi = 0
        psi = 2.0 * np.pi * np.arange(B)[:, None, None] / B
        return (first, np.cos(psi) * e_phi + np.sin(psi) * np.cross(e_phi, first), *rest)

    monkeypatch.setattr(geometry, "func", b_points)


def _scaled_rows(monkeypatch, degree_rows):
    """Every _basis_block output's rows degree_rows (degree order) times 1.01, in either row order."""

    def scaled(z, rho, cphi, sphi, band_limit, out, row_map=None, exact=sphere._basis_block):
        exact(z, rho, cphi, sphi, band_limit, out, row_map)
        rows = np.arange(out.shape[0])[degree_rows]
        out[rows if row_map is None else sphere._band_tables(band_limit).ring_to_degree[rows]] *= 1.01

    monkeypatch.setattr(sphere, "_basis_block", scaled)


@pytest.mark.parametrize(
    "fault",
    [
        pytest.param(_b_point_circle_rule, id="b-point-circle-rule"),
        pytest.param(lambda monkeypatch: _scaled_rows(monkeypatch, slice(None)), id="every-harmonic-x1.01",
                     marks=_SCALE_CANCELS),
        pytest.param(lambda monkeypatch: _scaled_rows(monkeypatch, slice(25, 36)), id="degree-5-x1.01",
                     marks=_SCALE_CANCELS),
    ],
)
def test_criterion_4_fails_on_the_fault(monkeypatch, fault):
    monkeypatch.setattr(sphere, "_built_grid", sphere._built_grid.__wrapped__)  # a fresh grid per call
    fault(monkeypatch)
    passed, detail = cli._criterion_4()
    assert not passed, detail
