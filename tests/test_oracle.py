"""Each route against 40-digit mpmath on one fixed, seeded draw of cells.

The draw (seeded_cells.seeded_draw) reaches the regimes no fixed grid
lists: chi down to 0.02, gamma/chi from 1e-3 to 10 and delta/chi from
-60 to 3.  A failing cell is a defect to mend, not a reason to re-draw.
"""

import functools

import numpy as np

from duffspec.closedform import _response
from duffspec.lindblad import _start_dims, _steady_state_outcomes
from duffspec.sweep import _mean_a
from seeded_cells import seeded_draw

CELLS = np.array(seeded_draw())


@functools.cache
def mp_response():
    """<a> of every cell as the 40-digit ratio -(epsilon / (chi b)) 0F2(; b+1, c; z) / 0F2(; b, c; z).

    b = (delta - i gamma/2) / chi, c = (delta + i gamma/2) / chi and
    z = 2 epsilon^2 / chi^2 are formed in mpmath from the cell's doubles.
    """
    import mpmath

    out = []
    with mpmath.workdps(40):
        for cell in CELLS.tolist():
            delta, chi, epsilon, gamma = (mpmath.mpf(v) for v in cell)
            z = 2 * epsilon**2 / chi**2
            b = mpmath.mpc(delta, -gamma / 2) / chi
            c = mpmath.mpc(delta, gamma / 2) / chi
            ratio = mpmath.hyper([], [b + 1, c], z) / mpmath.hyper([], [b, c], z)
            out.append(complex(-(epsilon / (chi * b)) * ratio))
    return np.array(out)


def _off_cells(got, ref, cells, rtol):
    """(delta, chi, epsilon, gamma, relative error) of each cell more than rtol from ref, worst first."""
    rel = np.abs(got - ref) / np.abs(ref)
    return [(*cells[i].tolist(), float(rel[i])) for i in np.argsort(-rel) if not rel[i] <= rtol]


def test_seeded_closed_form_matches_mpmath():
    # every cell within 1e-12 relative (1.7e-13 at worst today); without
    # the series' guard against stopping before k > -Re b, 23 cells fail
    got, _ = _response(*CELLS.T)
    bad = _off_cells(got, mp_response(), CELLS, 1e-12)
    assert not bad, f"{len(bad)} cells (delta, chi, epsilon, gamma, rel. error) off the closed form: {bad[:5]}"


def test_seeded_numeric_route_matches_mpmath():
    # the cells whose start truncation is at most 70 levels (326 of 600),
    # solved as the sweep solves them, within 1e-6 relative (1.1e-8 at
    # worst today)
    starts, errors = _start_dims(CELLS)
    assert not errors
    cells = CELLS[starts <= 70]
    assert len(cells) == 326
    outcomes = _steady_state_outcomes(cells, None, summary=_mean_a)
    raised = [(*cells[i].tolist(), repr(out)) for i, out in enumerate(outcomes) if isinstance(out, Exception)]
    assert not raised, f"{len(raised)} cells (delta, chi, epsilon, gamma) raised: {raised[:5]}"
    got = np.array([out[0] for out in outcomes])
    bad = _off_cells(got, mp_response()[starts <= 70], cells, 1e-6)
    assert not bad, f"{len(bad)} cells (delta, chi, epsilon, gamma, rel. error) off the numeric route: {bad[:5]}"
