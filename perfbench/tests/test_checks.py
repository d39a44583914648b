"""Each check catches a wrong output, and a caught one counts as failed.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import refs
import run
import speed
import tracing
import workloads
from duffspec import lindblad
from duffspec.perturbation import FanoFitError

ROOT = Path(__file__).resolve().parents[2]


def _counted_failed(problems, known_fault=False):
    """Run a check's problems through the run's tally: (failed, correct)."""
    result = run.Pass({}, {}, [workloads.Op("op", problems, known_fault)], {})
    _, failed, correct = run.tally([result])
    return len(failed), correct


def test_tally_counts_known_and_unknown_faults():
    assert _counted_failed([]) == (0, True)
    assert _counted_failed(["wrong"]) == (1, False)
    assert _counted_failed(["wrong"], known_fault=True) == (1, True)


def test_mean_a_shifted_by_1e5_fails():
    bench = workloads.LargeTruncation()
    bench.prepare(np.random.default_rng(0))
    rho = lindblad.steady_state(lindblad.build_superoperator(bench.POINT_C, 20))
    gaps = []
    assert bench._state_op("point C", rho, bench.point_c, gaps).ok
    op = bench._state_op("point C", rho, bench.point_c + 1e-5, gaps)
    assert not op.ok and not op.known_fault
    assert _counted_failed(op.problems) == (1, False)


def test_density_matrix_properties():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert checks.density_matrix(rho) == []
    assert checks.density_matrix(np.diag([0.8, 0.3]))  # trace 1.1
    assert checks.density_matrix(np.diag([1.1, -0.1]))  # not PSD
    skew = rho.copy()
    skew[0, 1] = 1e-3
    assert checks.density_matrix(skew)  # not Hermitian


def test_wigner_integral_of_0_9_fails(tmp_path):
    assert checks.wigner_integral(1.0 + 1e-9) == []
    assert _counted_failed(checks.wigner_integral(0.9)) == (1, False)

    bench = workloads.ReadmeCli()
    bench.prepare(np.random.default_rng(0))
    out = str(tmp_path / "point")
    code, err = workloads._run_cli(bench.ANALYZE + ["--out-dir", out])
    assert code == 0, err
    problems, _, integral_err = bench._check_analysis(out)
    assert problems == [] and integral_err < checks.WIGNER_INTEGRAL_ATOL
    path = os.path.join(out, "wigner_rho0.csv")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    table[:, 2] *= 0.9
    np.savetxt(path, table, delimiter=",", header="x,y,w", comments="", fmt="%.16e")
    problems, _, _ = bench._check_analysis(out)
    assert any("wigner_rho0" in p for p in problems)


def test_parallel_csv_differing_in_one_byte_fails():
    serial = b"delta,epsilon\n-8.0000000000000000e+00,5.0000000000000000e-01\n"
    assert checks.identical_files(serial, serial, "sweep.csv") == []
    flipped = serial.replace(b"-8.0", b"-9.0")
    assert len(flipped) == len(serial) and sum(a != b for a, b in zip(serial, flipped)) == 1
    assert _counted_failed(checks.identical_files(serial, flipped, "sweep.csv")) == (1, False)


def test_manifests_compared_apart_from_run_names():
    doc = {"config": {"out_dir": "a", "workers": 1, "gamma": 2.0}, "stats": {"max_dim": 24}}
    other = {"config": {"out_dir": "b", "workers": 2, "gamma": 2.0}, "stats": {"max_dim": 24}}
    assert checks.identical_manifests(json.dumps(doc), json.dumps(other)) == []
    other["stats"]["max_dim"] = 25
    assert checks.identical_manifests(json.dumps(doc), json.dumps(other))


@pytest.mark.parametrize("n", [1, 2])
def test_onset_slope_off_by_0_2_fails(n):
    gammas = (0.003, 0.01, 0.03)
    exact = [(g, 0.7 * g ** refs.ONSET_EXPONENTS[n]) for g in gammas]
    assert checks.onset_slope(exact, n)[1] == []
    off = [(g, 0.7 * g ** (refs.ONSET_EXPONENTS[n] + 0.2)) for g in gammas]
    slope, problems = checks.onset_slope(off, n)
    assert slope == pytest.approx(refs.ONSET_EXPONENTS[n] + 0.2)
    assert _counted_failed(problems) == (1, False)


def test_lorentzian_peak_fit_that_does_not_raise_fails():
    assert checks.raised(FanoFitError("degenerate"), FanoFitError) == []
    assert checks.raised(ValueError("other"), FanoFitError)
    assert _counted_failed(checks.raised(None, FanoFitError)) == (1, False)


def test_lorentzian_dip_fit_expectations():
    class Fit:
        q, amplitude = 0.0, 0.4

    assert checks.lorentzian_dip_fit(Fit, 0.4) == []
    Fit.q = 0.1
    assert checks.lorentzian_dip_fit(Fit, 0.4)


def test_closed_form_cells_against_50_digit_reference():
    deltas, epsilons = np.array([-1.0, -0.5]), np.array([0.3, 1.2])
    cells = [(0, 1), (1, 0)]
    reference = refs.grid_references(deltas, epsilons, 0.5, 1.0, cells)
    values = np.zeros((2, 2), dtype=complex)
    for cell, exact in reference.items():
        values[cell] = exact
    assert checks.closed_form_cells(values, reference) == []
    values[0, 1] *= 1 + 1e-8
    assert checks.closed_form_cells(values, reference)


def test_reference_meets_the_weak_drive_limit():
    exact = refs.exact_response(-1.3, 1e-6, 0.5, 1.0)
    assert abs(exact / refs.lorentzian_response(-1.3, 1e-6, 0.5) - 1.0) < 1e-9


def test_decay_spectrum_properties():
    good = [0.0, -0.2, -1.5 + 4j, -1.5 - 4j]
    assert checks.decay_spectrum(good) == []
    assert checks.decay_spectrum([1e-3, -0.2])  # no zero mode
    assert checks.decay_spectrum([0.0, 0.1])  # growing mode
    assert checks.decay_spectrum([0.0, -1.5 + 4j, -2.0])  # unpaired
    assert checks.same_slow_eigenvalues(good, good[::-1], "reordered") == []
    assert checks.same_slow_eigenvalues(good, [0.0, -0.2, -1.5 + 4j, -1.5 - 4.1j], "moved")


def test_metastable_pair_expectations():
    assert checks.metastable_pair(-0.4, 0.7, 0.34) == []
    assert checks.metastable_pair(0.1, 0.7, 0.34)
    assert checks.metastable_pair(-0.4, 0.7, 1.2)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    jobs = {j: "s" for j in run.JOB_METRICS}
    assert e2e == {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", **jobs}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.LAYER_METRICS)


def test_clock_takes_probe_time_out_of_the_call():
    def work():
        deadline = time.perf_counter() + 0.6
        while time.perf_counter() < deadline:
            pass
        return "done"

    clock = speed.Clock()
    with clock.sampling():
        start = time.perf_counter()
        result, exc, seconds = clock.call(work)
        wall = time.perf_counter() - start
    assert result == "done" and exc is None
    assert len(clock.samples) >= 2
    assert seconds < wall
    _, exc, _ = clock.call(lambda: 1 / 0)
    assert isinstance(exc, ZeroDivisionError)
