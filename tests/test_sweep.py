"""Tests for the sweep engine, analysis tasks, artifact files, and CLI."""

import csv
import json
import math
import os
import re
from dataclasses import replace
from itertools import chain, islice

import numpy as np
import pytest

import duffspec.lindblad as lindblad_mod
import duffspec.sweep as sweep_mod
from duffspec.cli import build_parser, main
from duffspec.closedform import dw_response
from duffspec.fock import ModelParams
from duffspec.perturbation import fano_q, onset_scan, onset_slope
from duffspec.phasespace import WignerGrid
from duffspec.sweep import (
    ConfigError,
    SweepConfig,
    SweepResult,
    _write_wigner,
    analyze,
    config_from_dict,
    resolve_circuit,
    run_sweep_to_dir,
    sweep,
    write_sweep_csv,
)

TINY_GRID = dict(
    gamma=2.0,
    chi=1.0,
    delta_range=(-5.5, -5.0, 3),
    epsilon_range=(3.0, 3.4, 2),
)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"method": "magic"})
    with pytest.raises(ConfigError):
        config_from_dict({"gamma": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"delta_range": (0.0, 1.0)})
    with pytest.raises(ConfigError):
        config_from_dict({"delta_range": (2.0, -2.0, 10)})
    with pytest.raises(ConfigError):
        config_from_dict({"epsilon_range": (0.1, 1.0, 0)})
    with pytest.raises(ConfigError):
        config_from_dict({"workers": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"dim": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"point": {"delta": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"analyze": ("entropy", "nonsense")})
    # a scan is a one-value range and the Wigner grid is fixed: neither is a key
    for raw in ({"scan": {"epsilon": 1.0}}, {"wigner_grid": {"nx": 41}}):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(raw)
    # a drive amplitude is >= 0, in a range (one-value ranges included) or a point
    for raw in (
        {"epsilon_range": (-1.0, 1.0, 3)},
        {"epsilon_range": (-1.0, -1.0, 1)},
        {"point": {"delta": -5.2, "epsilon": -3.2}},
    ):
        with pytest.raises(ConfigError, match="epsilon"):
            config_from_dict(raw)
    # range endpoints are finite, or a closed-form sweep writes rows of nan
    for raw in (
        {"delta_range": (-np.inf, 2.0, 5)},
        {"epsilon_range": (0.5, np.inf, 2)},
        {"epsilon_range": (np.inf, np.inf, 1)},
        {"delta_range": (np.nan, np.nan, 1)},
    ):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(raw)


@pytest.mark.parametrize(
    "raw", [{"circuit": 0}, {"circuit": True}, {"circuit": ["c.json"]}, {"out_dir": 3}, {"out_dir": None}]
)
def test_config_path_fields_must_be_strings(raw):
    # an integer or bool would open a file descriptor (0 is stdin, True is 1)
    with pytest.raises(ConfigError, match=next(iter(raw))):
        config_from_dict(raw)


def test_cli_non_string_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": 3, "point": {"delta": -5.2, "epsilon": 3.2}, "analyze": ["entropy"]}))
    assert main(["--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_sweep_both_methods_agree():
    config = SweepConfig(method="both", **TINY_GRID)
    result = sweep(config)
    assert set(result.values) == {"numeric", "closed-form"}
    assert result.discrepancy is not None
    assert np.max(result.discrepancy) < 1e-6
    assert np.all(np.isfinite(result.values["numeric"]))
    assert np.all(result.dims >= 10)
    assert np.max(result.residuals["numeric"]) < 1e-10
    # the closed-form layer is the scalar evaluator applied cellwise
    for i, d in enumerate(result.deltas):
        for j, e in enumerate(result.epsilons):
            params = ModelParams(float(d), config.chi, float(e), config.gamma)
            assert abs(result.values["closed-form"][i, j] - dw_response(params)) < 1e-12


def test_sweep_series_method():
    config = SweepConfig(method="series", gamma=0.3, chi=1.0,
                         delta_range=(-2.0, 0.0, 5), epsilon_range=(0.001, 0.01, 3))
    result = sweep(config)
    from duffspec.perturbation import response_series

    for i, d in enumerate(result.deltas):
        for j, e in enumerate(result.epsilons):
            expected = response_series(ModelParams(float(d), 1.0, float(e), 0.3))
            assert abs(result.values["series"][i, j] - expected) < 1e-15


def test_line_scan_linear_regime_is_lorentzian():
    config = SweepConfig(
        method="closed-form",
        gamma=0.3,
        chi=1.0,
        delta_range=(-3.0, 1.0, 101),
        epsilon_range=(1e-4, 1e-4, 1),
    )
    result = sweep(config)
    assert result.epsilons.size == 1
    eps = result.epsilons[0]
    mags = np.abs(result.values["closed-form"][:, 0])
    lorentz = 2.0 * eps / np.abs(2.0 * result.deltas - 0.3j)
    assert np.max(np.abs(mags - lorentz) / lorentz) < 1e-4


def test_line_scan_step_ordering_and_trough():
    config = SweepConfig(
        method="closed-form",
        gamma=2.0,
        chi=1.0,
        delta_range=(-8.0, -2.0, 241),
        epsilon_range=(3.2, 3.2, 1),
    )
    result = sweep(config)
    deltas = result.deltas
    mags = np.abs(result.values["closed-form"][:, 0])

    def mag_at(delta):
        return mags[np.argmin(np.abs(deltas - delta))]

    assert mag_at(-7.8) < mag_at(-5.2) < mag_at(-3.0)
    # interior dip between the low- and mid-response points
    d = np.diff(mags)
    idx = np.nonzero((d[:-1] < 0) & (d[1:] >= 0))[0] + 1
    troughs = deltas[idx]
    assert any(-6.5 < t < -5.7 for t in troughs)


def test_run_sweep_artifacts_and_determinism(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    cfg_a = SweepConfig(method="both", out_dir=out_a, **TINY_GRID)
    cfg_b = SweepConfig(method="both", out_dir=out_b, workers=2, **TINY_GRID)
    run_sweep_to_dir(cfg_a)
    run_sweep_to_dir(cfg_b)

    raw = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == (
        "delta,epsilon,re_numeric,im_numeric,abs_numeric,residual_numeric,"
        "re_closed_form,im_closed_form,abs_closed_form,residual_closed_form,"
        "dim,discrepancy"
    )
    assert len(lines) == 1 + 3 * 2
    # every float field uses fixed 17-significant-digit scientific notation
    float_field = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 12
        for k, field in enumerate(fields):
            if k != 10:  # dim column is an integer
                assert float_field.match(field), field

    # byte-identical across runs and worker counts
    assert raw == (tmp_path / "b" / "sweep.csv").read_bytes()

    # manifest carries stats but no wall-clock state; timing lives in run.log
    man_a, man_b = read_manifest(out_a), read_manifest(out_b)
    text = (tmp_path / "a" / "manifest.json").read_text()
    assert "started" not in text and "time" not in text
    assert man_a["stats"]["max_discrepancy"] < 1e-6
    assert man_a["outputs"] == ["sweep.csv"]
    for man in (man_a, man_b):
        man["config"].pop("out_dir")
        man["config"].pop("workers")
    assert man_a == man_b
    log = json.loads((tmp_path / "a" / "run.log").read_text())
    assert set(log) == {"started_unix", "elapsed_s", "phase_s"}
    assert set(log["phase_s"]) == {"numeric", "closed_form", "write"}


@pytest.fixture
def recording_pool(monkeypatch):
    """The pool sizes asked for.  No process starts: the pool is an
    in-process stand-in whose map solves the shares in turn."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return asked


@pytest.mark.parametrize(
    "grid, shares",
    [
        (dict(delta_range=(-5.5, -5.0, 3), epsilon_range=(3.0, 3.0, 1)), 3),
        (dict(delta_range=(-5.2, -5.2, 1), epsilon_range=(3.2, 3.2, 1)), None),
    ],
)
def test_numeric_sweep_starts_no_more_workers_than_cells(recording_pool, grid, shares):
    # eight workers asked for: three cells make three shares, the parent
    # solves one and a pool of two the others; one cell starts no pool
    config = SweepConfig(method="numeric", gamma=2.0, chi=1.0, workers=8, **grid)
    pooled = sweep(config)
    assert recording_pool == ([] if shares is None else [shares - 1])
    serial = sweep(replace(config, workers=1))
    assert np.array_equal(pooled.values["numeric"], serial.values["numeric"])
    assert np.array_equal(pooled.dims, serial.dims)


def test_parallel_sweep_raises_the_serial_error(recording_pool, monkeypatch):
    # Two shares deal five cells: the parent's share holds cells 0, 2, 4
    # and the pool's cells 1 and 3.  Cells 1 and 2 fail, each with its own
    # error; both runs raise cell 1's, the first failing cell in grid order.
    failing = {-5.25: (lindblad_mod.TruncationLimitError, "cell 1"), -5.0: (ValueError, "cell 2")}
    start_dims = lindblad_mod._start_dims

    def failing_start_dims(table):
        starts, errors = start_dims(table)
        for i, delta in enumerate(table[:, 0]):
            if delta in failing:
                kind, message = failing[delta]
                errors[i] = kind(message)
        return starts, errors

    monkeypatch.setattr(lindblad_mod, "_start_dims", failing_start_dims)
    config = SweepConfig(
        method="numeric", gamma=2.0, chi=1.0, delta_range=(-5.5, -4.5, 5), epsilon_range=(3.0, 3.0, 1)
    )
    for workers in (1, 2):
        with pytest.raises(lindblad_mod.TruncationLimitError, match="cell 1"):
            sweep(replace(config, workers=workers))
    assert recording_pool == [1]


def test_sweep_mean_a_is_the_expectation_of_each_state():
    # the README grid: each cell's <a>, summed once per block, is
    # fock.expectation of its state to the bit, and so is the block sum on
    # a stack of one state and of all the states at one truncation
    from duffspec.fock import annihilation, expectation

    config = SweepConfig(
        method="numeric", gamma=2.0, chi=1.0, delta_range=(-8.0, -2.0, 61), epsilon_range=(0.5, 4.0, 8)
    )
    result = sweep(config)
    table = lindblad_mod._param_table(result.deltas[:, None], 1.0, result.epsilons, 2.0)
    solved = lindblad_mod._steady_state_outcomes(table, None)
    expected = np.array([expectation(annihilation(dim), rho) for rho, dim, _ in solved])
    assert result.values["numeric"].tobytes() == expected.tobytes()
    assert result.dims.ravel().tolist() == [dim for _, dim, _ in solved]
    dims = np.array([dim for _, dim, _ in solved])
    for d in np.unique(dims):
        stack = np.stack([rho for rho, dim, _ in solved if dim == d])
        assert sweep_mod._mean_a(stack).tobytes() == expected[dims == d].tobytes()
        assert sweep_mod._mean_a(stack[:1]).tobytes() == expected[dims == d][:1].tobytes()


def test_param_table_is_the_hand_built_grid_table():
    # the sweep's parameter table, one row (delta, chi, epsilon, gamma) per
    # cell in grid order, equals the table it once filled column by column
    deltas, epsilons = np.linspace(-8.0, -2.0, 61), np.linspace(0.5, 4.0, 8)
    for d, e, chi, gamma in (
        (deltas, epsilons, 1.0, 2.0),
        (deltas, epsilons[:1], 1, np.float64(0.1)),
        (deltas[:1], epsilons[:1], 0.05, 1e-8),
    ):
        table = np.empty((d.size, e.size, 4))
        table[..., 0] = d[:, None]
        table[..., 1] = chi
        table[..., 2] = e
        table[..., 3] = gamma
        got = lindblad_mod._param_table(d[:, None], chi, e, gamma)
        assert got.shape == (d.size * e.size, 4) and got.dtype == np.float64
        assert got.tobytes() == table.reshape(-1, 4).tobytes()


def _oracle_sweep_csv(result):
    # one row at a time, each float through f"{x:.16e}" and |z| through
    # abs() of the numpy complex scalar: the writer must match this byte
    # for byte
    methods = [m for m in ("numeric", "closed-form", "series") if m in result.values]
    header = ["delta", "epsilon"]
    for m in methods:
        tag = m.replace("-", "_")
        header += [f"re_{tag}", f"im_{tag}", f"abs_{tag}", f"residual_{tag}"]
    header.append("dim")
    if result.discrepancy is not None:
        header.append("discrepancy")
    lines = [",".join(header)]
    for i, d in enumerate(result.deltas):
        for j, e in enumerate(result.epsilons):
            row = [f"{d:.16e}", f"{e:.16e}"]
            for m in methods:
                v = result.values[m][i, j]
                r = result.residuals[m][i, j]
                row += [f"{v.real:.16e}", f"{v.imag:.16e}", f"{abs(v):.16e}", f"{r:.16e}"]
            row.append(str(int(result.dims[i, j])))
            if result.discrepancy is not None:
                row.append(f"{result.discrepancy[i, j]:.16e}")
            lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def test_write_sweep_csv_matches_row_oracle(tmp_path):
    inf, nan = np.inf, np.nan
    # np.abs and Python abs round |z| of this value differently
    z = -0.1321048632913019 - 0.5022445517110371j
    numeric = np.array(
        [[z, complex(-0.0, 5e-324)], [complex(nan, 1.0), complex(inf, -inf)],
         [complex(1e300, -1e300), complex(-inf, -0.0)]]
    )
    closed = np.array(
        [[complex(5e-324, -5e-324), z], [complex(-0.0, -0.0), complex(1e300, nan)],
         [complex(0.5, -inf), complex(-1e300, 2.0)]]
    )
    result = SweepResult(
        deltas=np.array([-0.0, 5e-324, 1e300]),
        epsilons=np.array([-inf, 0.25]),
        values={"numeric": numeric, "closed-form": closed},
        residuals={
            "numeric": np.array([[0.0, 5e-324], [nan, 1e-16], [inf, -0.0]]),
            "closed-form": np.array([[1e300, -inf], [3e-17, nan], [0.0, 5e-324]]),
        },
        dims=np.array([[12, 13], [14, 15], [160, 2]]),
        discrepancy=np.abs(numeric - closed),
        metadata={},
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    assert path.read_bytes() == _oracle_sweep_csv(result)


def test_sweep_csv_moduli_are_python_abs(tmp_path):
    # np.hypot of the parts calls libm's hypot as Python's abs of a complex
    # does, on this numpy's SIMD kernels too: random values over the whole
    # exponent range, and every abs_* field of the README sweep's CSV
    rng = np.random.default_rng(17)
    parts = rng.standard_normal((2, 100_000)) * 10.0 ** rng.uniform(-300, 300, (2, 100_000))
    expected = np.array([abs(complex(x, y)) for x, y in parts.T.tolist()])
    assert np.hypot(*parts).tobytes() == expected.tobytes()
    main(
        [
            "--method", "both", "--gamma", "2", "--chi", "1", "--delta-range=-8:-2:61",
            "--epsilon-range=0.5:4:8", "--out-dir", str(tmp_path),
        ]
    )
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 488
    for tag in ("numeric", "closed_form"):
        for row in rows:
            z = complex(float(row[f"re_{tag}"]), float(row[f"im_{tag}"]))
            assert row[f"abs_{tag}"] == "%.16e" % abs(z), (tag, row["delta"], row["epsilon"])


def test_write_wigner_matches_row_oracle(tmp_path):
    # a non-square grid, so that swapping the x and y columns shows
    values = np.random.default_rng(3).standard_normal((7, 5))
    values[0, 0], values[3, 2], values[6, 4] = -0.0, 5e-324, -1e300
    grid = WignerGrid((-1.5, 2.0), (-0.5, 0.7), 7, 5, values)
    files = _write_wigner(grid, str(tmp_path), "w", ModelParams(-5.2, 1.0, 3.2, 2.0), 18)
    assert files == ["w.csv", "w.json"]
    lines = ["x,y,w"]
    for i, x in enumerate(grid.re_points):
        for j, y in enumerate(grid.im_points):
            lines.append(f"{x:.16e},{y:.16e},{values[i, j]:.16e}")
    assert (tmp_path / "w.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_chunks_match_per_value_format(tmp_path):
    # more rows than one formatting chunk, so that a chunk seam shows
    rows = 2 * sweep_mod._CSV_CHUNK + 3
    special = [-0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf, 0.1, 1.0]
    values = np.random.default_rng(5).standard_normal((2, rows)) * np.logspace(-300, 300, rows)
    values[0, : len(special)] = special
    values[1, sweep_mod._CSV_CHUNK - 5 : sweep_mod._CSV_CHUNK + 5] = special
    labels = [str(k) for k in range(rows)]
    words = [f"w{k % 7}" for k in range(rows)]
    path = tmp_path / "t.csv"
    sweep_mod._write_csv(path, "k,a,s,b", [labels, values[0], words, values[1]])
    lines = ["k,a,s,b"]
    for k in range(rows):
        a, b = ("{:.16e}".format(float(v)) for v in values[:, k])
        lines.append(",".join([labels[k], a, words[k], b]))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_float_records_match_percent_format_bit_for_bit():
    rng = np.random.default_rng(17)
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    structured = np.concatenate(
        [
            [0.0, np.nan, np.inf],
            pow10,
            np.nextafter(pow10, 0.0),
            np.nextafter(pow10, np.inf),
            pow2,
            3.0 * pow2[:-1],
            # an exact tie at the 18th digit, and decade carries
            [2.0**-25, 9.99999999999999999e22, 9.99999999999999999e-3, 99999999999999999.5],
            [1e16, 1e17, np.nextafter(1e16, 0.0), np.nextafter(1e17, np.inf)],
        ]
    )
    structured = np.concatenate([structured, -structured])
    # NaN payloads, infinities and subnormals among them
    random_bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    for values, sep in ((np.concatenate([structured, random_bits]), ","), (structured, "\n")):
        records = sweep_mod._float_records(values, sep)
        assert records.shape == (values.size, 32)
        text = records.ravel()[records.ravel() != 0].tobytes().decode()
        assert text == ("%.16e" + sep) * values.size % tuple(values.tolist())


@pytest.mark.parametrize("toward", [-np.inf, np.inf])
def test_float_records_stay_exact_when_log10_is_an_ulp_off(monkeypatch, toward):
    # the decade estimate then misses at powers of ten: below, x passes 10^17
    # (the carry to 1.0000000000000000e+k); above, x falls short of 10^16
    log10 = np.log10
    monkeypatch.setattr(sweep_mod.np, "log10", lambda a: np.nextafter(log10(a), toward))
    pow10 = np.array([float(f"1e{k}") for k in range(-280, 281)])
    values = np.concatenate([pow10, np.nextafter(pow10, 0.0), np.nextafter(pow10, np.inf)])
    records = sweep_mod._float_records(values, ",").ravel()
    assert records[records != 0].tobytes().decode() == "%.16e," * values.size % tuple(values.tolist())


def _percent_writer(path, header, columns):
    # the writer before the record formatter: every float through Python's
    # %.16e, one % operation per chunk of _CSV_CHUNK rows
    row = ",".join("%s" if isinstance(c, list) else "%.16e" for c in columns) + "\n"
    cells = [c if isinstance(c, list) else np.asarray(c, float).ravel().tolist() for c in columns]
    rows = zip(*cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        while chunk := list(islice(rows, sweep_mod._CSV_CHUNK)):
            fh.write(row * len(chunk) % tuple(chain.from_iterable(chunk)))


@pytest.mark.parametrize("nx, ny", [(1, 1), (65, 63), (64, 64), (17, 241), (3, 2731)])
def test_write_csv_matches_percent_writer(tmp_path, nx, ny):
    # 1, 4095, 4096, 4097 and 8193 rows: no, one and two chunk seams
    rows = nx * ny
    rng = np.random.default_rng(rows)
    xs = np.linspace(-5.0, 5.0, nx) * (1 + 1e-9 * rng.standard_normal(nx))
    ys = np.concatenate([[-0.0], np.logspace(-300, 300, ny - 1)])[:ny]
    w = rng.standard_normal(rows) * np.exp(rng.uniform(-700.0, 700.0, rows))
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1.0]
    for edge in (0, sweep_mod._CSV_CHUNK - 4, 2 * sweep_mod._CSV_CHUNK - 4, rows - len(special)):
        w[max(edge, 0) : edge + len(special)] = special[: rows - max(edge, 0)]
    n = [str(k % 161) for k in range(rows)]
    header = "x,y,w,n,v"
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    sweep_mod._write_csv(got, header, [*sweep_mod._grid_columns(xs, ys), w, n, -3.0 * w[::-1]])
    _percent_writer(want, header, [np.repeat(xs, ny), np.tile(ys, nx), w, n, -3.0 * w[::-1]])
    assert got.read_bytes() == want.read_bytes()


def test_analyze_point_c_task_suite(tmp_path):
    out_dir = str(tmp_path / "pointC")
    config = config_from_dict(
        {
            "gamma": 2.0,
            "chi": 1.0,
            "point": {"delta": -5.2, "epsilon": 3.2},
            "analyze": ["entropy", "spectrum", "wigner", "metastable", "mixing-curve"],
            "out_dir": out_dir,
        }
    )
    manifest = analyze(config)
    assert manifest["failed_tasks"] == 0

    ent = manifest["tasks"]["entropy"]["summary"]
    assert np.isclose(ent["entropy_bits"], 1.7361038308587509, atol=1e-9)
    assert np.isclose(ent["mean_photons"], 2.5570620527683987, atol=1e-9)
    assert np.isclose(ent["purity"], 0.3436704552511578, atol=1e-9)
    assert ent["dim"] == 18
    assert np.isclose(
        ent["a_abs"],
        abs(-0.49906939788382434 - 0.7990818914901188j),
        atol=1e-6,
    )

    spec_summary = manifest["tasks"]["spectrum"]["summary"]
    lam = [complex(re_, im_) for re_, im_ in spec_summary["eigenvalues"]]
    assert abs(lam[0]) < 1e-8
    assert np.isclose(lam[1].real, -0.21497024418792782, atol=1e-9)

    wig = manifest["tasks"]["wigner"]["summary"]
    assert np.isclose(wig["integral"], 1.0, atol=1e-6)
    assert np.isclose(wig["purity_estimate"], ent["purity"], atol=1e-6)
    assert wig["n_local_maxima"] == 2

    meta = manifest["tasks"]["metastable"]["summary"]
    assert np.isclose(meta["beta_plus"], 0.7338485201565229, atol=1e-7)
    assert np.isclose(meta["beta_minus"], -0.3767992619342183, atol=1e-7)
    assert np.isclose(meta["mixing_fraction"], 0.33926080618007604, atol=1e-7)
    assert np.isclose(meta["entropy_plus_bits"], 0.4768643169789665, atol=1e-7)
    assert np.isclose(meta["entropy_minus_bits"], 1.3621168462050575, atol=1e-7)

    mix = manifest["tasks"]["mixing-curve"]["summary"]
    assert np.isclose(mix["peak_excess_bits"], 0.7431101016069307, atol=1e-7)
    assert np.isclose(mix["x_at_peak"], 0.51, atol=1e-12)
    assert np.isclose(mix["commutator_norm"], 0.06612002749772955, atol=1e-7)
    assert np.isclose(mix["max_deviation_from_binary"], 0.25820542858701356, atol=1e-7)

    for name in (
        "manifest.json",
        "run.log",
        "spectrum.csv",
        "wigner_rho0.csv",
        "wigner_rho0.json",
        "wigner_rho_plus.csv",
        "wigner_rho_minus.csv",
        "mixing_curve.csv",
    ):
        assert os.path.exists(os.path.join(out_dir, name)), name

    header = json.load(open(os.path.join(out_dir, "wigner_rho0.json")))
    assert header["columns"] == ["x", "y", "w"]
    assert header["nx"] == 201 and header["ny"] == 201
    assert header["dim"] == 18
    assert np.isclose(header["integral"], 1.0, atol=1e-6)
    first = open(os.path.join(out_dir, "wigner_rho0.csv")).readline().strip()
    assert first == "x,y,w"


def test_analyze_fano_task(tmp_path):
    out_dir = str(tmp_path / "fano")
    config = config_from_dict(
        {
            "gamma": 0.01,
            "chi": 1.0,
            "point": {"delta": -1.0, "epsilon": 0.012},
            "analyze": ["fano"],
            "out_dir": out_dir,
        }
    )
    manifest = analyze(config)
    assert manifest["failed_tasks"] == 0
    summary = manifest["tasks"]["fano"]["summary"]
    fitted = summary["fitted"]
    assert np.isclose(fitted["q"], 0.9676920402949539, atol=1e-6)
    assert np.isclose(fitted["center"], -0.9999292588659691, atol=1e-6)
    assert np.isclose(fitted["width"], 0.005023620115886942, atol=1e-6)
    assert np.isclose(fitted["background"], 0.9697119755969972, atol=1e-6)
    assert fitted["residual_rms"] < 1e-4
    formula = fano_q(ModelParams(-1.0, 1.0, 0.012, 0.01))
    assert np.isclose(summary["formula_q"], formula, atol=1e-12)
    assert np.isclose(
        summary["q_relative_error"],
        abs(fitted["q"] - formula) / abs(formula),
        atol=1e-12,
    )
    # both the raw and the background-normalized dips sit above -chi
    # (on the low drive-frequency side of the two-photon line)
    assert -1.0 < summary["raw_trough_delta"] < -0.99
    assert -1.0 < summary["normalized_trough_delta"] < -0.99
    line = open(os.path.join(out_dir, "fano_line.csv")).readline().strip()
    assert line == "delta,abs_a,abs_a_normalized"


def check_onset_task(out_dir, gamma, chi, point):
    config = config_from_dict(
        {"gamma": gamma, "chi": chi, "point": point, "analyze": ["onset"], "out_dir": out_dir}
    )
    manifest = analyze(config)
    assert manifest["failed_tasks"] == 0
    # the damping rates scale with chi
    gammas = (0.003 * chi, 0.01 * chi, 0.03 * chi)
    slopes = manifest["tasks"]["onset"]["summary"]["slopes"]
    assert slopes == {str(n): onset_slope(onset_scan(n, gammas, chi)) for n in (1, 2)}
    assert abs(slopes["1"] - 1.0) < 0.1 and abs(slopes["2"] - 0.5) < 0.1
    # the prefactors c_n = epsilon_onset / (chi^(1 - 1/n) gamma^(1/n)); the
    # drive series gives c_1 = 1 / sqrt(8) as gamma / chi -> 0
    summary = manifest["tasks"]["onset"]["summary"]
    assert summary["series_prefactors"] == {"1": 1.0 / math.sqrt(8.0)}
    assert summary["prefactors"] == {
        str(n): [e / (chi ** (1.0 - 1.0 / n) * g ** (1.0 / n)) for g, e in onset_scan(n, gammas, chi)]
        for n in (1, 2)
    }
    assert all(abs(c - 1.0 / math.sqrt(8.0)) < 1e-4 for c in summary["prefactors"]["1"])
    rows = np.loadtxt(os.path.join(out_dir, "onset.csv"), delimiter=",", skiprows=1)
    assert rows[:, 1].tolist() == list(gammas) * 2
    line = open(os.path.join(out_dir, "onset.csv")).readline().strip()
    assert line == "n,gamma,epsilon_onset"


def test_analyze_onset_task(tmp_path):
    check_onset_task(str(tmp_path / "onset"), 0.01, 1.0, {"delta": -1.0, "epsilon": 0.012})


def test_analyze_onset_task_at_small_chi(tmp_path):
    # the hard-regime point: an absolute gamma = 0.03 would break the
    # scan's gamma < 0.3 chi at chi = 0.05
    check_onset_task(str(tmp_path / "onset"), 0.1, 0.05, {"delta": -2.0, "epsilon": 1.5})


def test_analyze_isolates_task_failures(tmp_path):
    out_dir = str(tmp_path / "zero-drive")
    config = config_from_dict(
        {
            "gamma": 2.0,
            "chi": 1.0,
            "point": {"delta": -5.2, "epsilon": 0.0},
            "analyze": ["entropy", "metastable"],
            "out_dir": out_dir,
        }
    )
    manifest = analyze(config)
    assert manifest["failed_tasks"] == 1
    assert manifest["tasks"]["entropy"]["status"] == "ok"
    failure = manifest["tasks"]["metastable"]
    assert failure["status"] == "error"
    assert failure["error_type"] == "AnalysisError"
    assert "epsilon" in failure["message"]
    # run.log times every task, the failed one included
    log = json.loads(open(os.path.join(out_dir, "run.log")).read())
    assert set(log["phase_s"]) == {"entropy", "metastable"}


def _point_analysis(out_dir, epsilon, tasks):
    return analyze(
        config_from_dict(
            {
                "gamma": 2.0,
                "chi": 1.0,
                "point": {"delta": -5.2, "epsilon": epsilon},
                "analyze": tasks,
                "out_dir": str(out_dir),
            }
        )
    )


WIGNER_FILES = ("wigner_rho0.csv", "wigner_rho0.json")
PAIR_FILES = ("wigner_rho_plus.csv", "wigner_rho_plus.json", "wigner_rho_minus.csv", "wigner_rho_minus.json")


def test_analyze_evaluates_wigner_and_pair_in_one_pass(tmp_path, monkeypatch):
    calls = []
    wigner_many = sweep_mod.wigner_many

    def counting_wigner_many(rhos, **kwargs):
        calls.append(len(rhos))
        return wigner_many(rhos, **kwargs)

    monkeypatch.setattr(sweep_mod, "wigner_many", counting_wigner_many)
    both = _point_analysis(tmp_path / "both", 3.2, ["metastable", "wigner"])
    assert both["failed_tasks"] == 0
    assert calls == [3]
    calls.clear()
    _point_analysis(tmp_path / "wigner", 3.2, ["wigner"])
    _point_analysis(tmp_path / "pair", 3.2, ["metastable"])
    assert calls == [1, 2]
    # one shared pass gives the same bytes as separate passes
    for sub, names in (("wigner", WIGNER_FILES), ("pair", PAIR_FILES)):
        for name in names:
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / sub / name).read_bytes()


def test_analyze_wigner_alone_computes_no_spectrum(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the wigner task must not need the decay spectrum")

    # sweep imports the lindblad names when it calls them, so patch them there
    monkeypatch.setattr(lindblad_mod, "low_lying_spectrum", forbidden)
    monkeypatch.setattr(lindblad_mod, "metastable_extremes", forbidden)
    manifest = _point_analysis(tmp_path, 3.2, ["wigner"])
    assert manifest["tasks"]["wigner"]["status"] == "ok"


def test_metastable_direction_is_real_when_its_eigenmatrix_is_hermitian(tmp_path, monkeypatch):
    # at point C (max|w| 4.6) a second eigenvalue -0.215 + 3e-8i is real by
    # low_lying_spectrum's tolerance, 1e-8 max|w|, though not by one scaled
    # by |lambda_1|; the task follows the spectrum's Hermitian eigenmatrix
    true = _point_analysis(tmp_path / "true", 3.2, ["metastable"])
    low_lying_spectrum = lindblad_mod.low_lying_spectrum

    def patched(swap):
        def spectrum(S, count=6):
            spec = low_lying_spectrum(S, count)
            w, m = spec.eigenvalues.copy(), list(spec.eigenmatrices)
            if swap:
                # a real value with the complex mode's non-Hermitian matrix
                w[1], m[1] = w[1].real, m[2]
            else:
                w[1] += 3e-8j
            return replace(spec, eigenvalues=w, eigenmatrices=tuple(m))

        return spectrum

    monkeypatch.setattr(lindblad_mod, "low_lying_spectrum", patched(swap=False))
    nearly = _point_analysis(tmp_path / "nearly", 3.2, ["metastable"])
    assert nearly["tasks"] == true["tasks"]
    for name in PAIR_FILES:
        assert (tmp_path / "nearly" / name).read_bytes() == (tmp_path / "true" / name).read_bytes()
    monkeypatch.setattr(lindblad_mod, "low_lying_spectrum", patched(swap=True))
    failure = _point_analysis(tmp_path / "swapped", 3.2, ["metastable"])["tasks"]["metastable"]
    assert failure["error_type"] == "AnalysisError"
    assert "is complex; no Hermitian slow direction" in failure["message"]


@pytest.mark.parametrize("tasks", [["wigner", "metastable"], ["metastable", "wigner"]])
def test_failing_metastable_task_leaves_wigner_unchanged(tmp_path, tasks):
    # at epsilon = 0 the metastable pair raises AnalysisError
    alone = _point_analysis(tmp_path / "alone", 0.0, ["wigner"])
    both = _point_analysis(tmp_path / "both", 0.0, tasks)
    assert both["failed_tasks"] == 1
    assert both["tasks"]["metastable"]["error_type"] == "AnalysisError"
    assert both["tasks"]["wigner"] == alone["tasks"]["wigner"]
    assert both["outputs"] == list(WIGNER_FILES)
    for name in WIGNER_FILES:
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_analyze_requires_point_and_tasks():
    with pytest.raises(ConfigError):
        analyze(config_from_dict({"analyze": ["entropy"]}))
    with pytest.raises(ConfigError):
        analyze(config_from_dict({"point": {"delta": -1.0, "epsilon": 0.1}}))


CIRCUIT = {
    "L": 1e-9,
    "L4": 4e-37,
    "C": 99e-15,
    "Cc": 1e-15,
    "Z0": 50.0,
    "R": 1e6,
    "Vs": 4.6e-10,
    "omega_p": 1.0000514e11,
}
SHIPPED_CIRCUIT = os.path.join(os.path.dirname(__file__), os.pardir, "data", "circuit.json")


def test_resolve_circuit_scales_rates(tmp_path):
    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(json.dumps(CIRCUIT))
    config = config_from_dict({"circuit": str(circuit_file)})
    resolved, circuit = resolve_circuit(config)
    assert circuit is not None
    assert resolved.chi == 1.0
    assert resolved.gamma > 0
    assert set(resolved.point) == {"delta", "epsilon"}
    # explicit values win over derived ones
    explicit = config_from_dict(
        {"circuit": str(circuit_file), "gamma": 0.5, "chi": 2.0, "point": {"delta": -1, "epsilon": 1}}
    )
    resolved2, _ = resolve_circuit(explicit)
    assert resolved2.gamma == 0.5
    assert resolved2.chi == 2.0
    assert resolved2.point == {"delta": -1, "epsilon": 1}


def test_shipped_circuit_example(tmp_path):
    # the file the README's --circuit example names
    with open(SHIPPED_CIRCUIT, encoding="utf-8") as fh:
        assert json.load(fh) == CIRCUIT
    config = config_from_dict({"circuit": SHIPPED_CIRCUIT, "out_dir": str(tmp_path)})
    resolved, circuit = resolve_circuit(config)
    assert circuit is not None and resolved.chi == 1.0
    point = resolved.point
    assert point["delta"] == pytest.approx(-5.199, abs=1e-3)
    assert point["epsilon"] == pytest.approx(3.204, abs=1e-3)


def test_entropy_task_reports_the_circuit_line_signal(tmp_path):
    # with a circuit the entropy task adds the line output quadratures of
    # its own <a>, also in manifest.json
    from duffspec.circuit import load_circuit, v2_signal

    manifest = analyze(SweepConfig(circuit=SHIPPED_CIRCUIT, analyze=("entropy",), out_dir=str(tmp_path)))
    summary = manifest["tasks"]["entropy"]["summary"]
    quads = v2_signal(summary["a_re"] + 1j * summary["a_im"], load_circuit(SHIPPED_CIRCUIT))
    assert (summary["v2_cos_volts"], summary["v2_sin_volts"]) == (quads.cos_amplitude, quads.sin_amplitude)
    assert summary["dim"] == 10
    assert summary["v2_cos_volts"] == pytest.approx(9.048e-9, rel=1e-3)
    assert summary["v2_sin_volts"] == pytest.approx(-1.156e-8, rel=1e-3)
    assert read_manifest(str(tmp_path))["tasks"]["entropy"]["summary"] == summary


def test_api_circuit_sweep_matches_cli(tmp_path):
    # the Python API honours config.circuit as the CLI does
    grid = dict(method="closed-form", delta_range=(-8.0, -2.0, 13), epsilon_range=(1.0, 4.0, 4))
    run_sweep_to_dir(SweepConfig(circuit=SHIPPED_CIRCUIT, out_dir=str(tmp_path / "api"), **grid))
    code = main(
        [
            "--method", "closed-form", "--circuit", SHIPPED_CIRCUIT,
            "--delta-range=-8:-2:13", "--epsilon-range=1:4:4", "--out-dir", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    api = (tmp_path / "api" / "sweep.csv").read_bytes()
    assert api == (tmp_path / "cli" / "sweep.csv").read_bytes()
    assert read_manifest(tmp_path / "api")["config"]["gamma"] == pytest.approx(12.64, abs=0.01)


def test_circuit_keeps_an_explicit_gamma_of_two(tmp_path):
    # gamma = 2 is the no-circuit default, yet given explicitly it wins over
    # the circuit's derived gamma (12.64) from a flag, a file or the API
    flags = ["--method", "closed-form", "--delta-range=-8:-2:13", "--epsilon-range=1:4:4"]
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"circuit": SHIPPED_CIRCUIT, "gamma": 2}))
    runs = {
        "flag": ["--circuit", SHIPPED_CIRCUIT, "--gamma", "2"],
        "file": ["--config", str(config_file)],
    }
    for name, extra in runs.items():
        assert main(flags + extra + ["--out-dir", str(tmp_path / name)]) == 0
    grid = dict(method="closed-form", delta_range=(-8.0, -2.0, 13), epsilon_range=(1.0, 4.0, 4))
    config = SweepConfig(gamma=2.0, circuit=SHIPPED_CIRCUIT, out_dir=str(tmp_path / "api"), **grid)
    run_sweep_to_dir(config)
    for name in ("flag", "file", "api"):
        assert read_manifest(tmp_path / name)["config"]["gamma"] == 2.0, name


def test_cli_sweep_success(tmp_path, capsys):
    out_dir = str(tmp_path / "cli-sweep")
    code = main(
        [
            "--method", "closed-form",
            "--gamma", "2.0",
            "--delta-range=-6:-5:3",
            "--epsilon-range", "3:3.4:2",
            "--out-dir", out_dir,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "sweep:" in captured.out
    assert captured.err == ""
    assert os.path.exists(os.path.join(out_dir, "sweep.csv"))
    assert read_manifest(out_dir)["kind"] == "sweep"


def test_cli_scan_success(tmp_path, capsys):
    out_dir = str(tmp_path / "cli-scan")
    code = main(
        [
            "--method", "closed-form",
            "--gamma", "2.0",
            "--delta-range=-8:0:41",
            "--scan", "epsilon=3.2",
            "--out-dir", out_dir,
        ]
    )
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "scan.csv"))
    assert read_manifest(out_dir)["kind"] == "scan"
    assert "scan:" in capsys.readouterr().out


def test_cli_readme_line_scan(tmp_path, monkeypatch):
    # the README's line scan, verbatim: the fixed drive lies outside the
    # default epsilon range, which the scan never uses
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "--method", "closed-form", "--gamma", "0.01", "--chi", "1",
            "--delta-range=-1.08:-0.92:801", "--scan", "epsilon=0.012", "--out-dir", "out/line",
        ]
    )
    assert code == 0
    lines = (tmp_path / "out" / "line" / "scan.csv").read_text().splitlines()
    assert len(lines) == 1 + 801


def test_api_scan_matches_cli_readme_line_scan(tmp_path):
    # --scan epsilon=v is the one-value range (v, v, 1), which run_sweep_to_dir
    # writes as a scan
    config = SweepConfig(
        method="closed-form", gamma=0.01, chi=1, delta_range=(-1.08, -0.92, 801),
        epsilon_range=(0.012, 0.012, 1), out_dir=str(tmp_path / "api"),
    )
    run_sweep_to_dir(config)
    code = main(
        [
            "--method", "closed-form", "--gamma", "0.01", "--chi", "1",
            "--delta-range=-1.08:-0.92:801", "--scan", "epsilon=0.012",
            "--out-dir", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    assert not (tmp_path / "api" / "sweep.csv").exists()
    api = (tmp_path / "api" / "scan.csv").read_bytes()
    assert api == (tmp_path / "cli" / "scan.csv").read_bytes()
    manifests = [read_manifest(tmp_path / name) for name in ("api", "cli")]
    for m in manifests:
        m["config"].pop("out_dir")
    assert manifests[0] == manifests[1]
    assert manifests[0]["kind"] == "scan"
    assert manifests[0]["outputs"] == ["scan.csv"]


def test_sweep_applies_the_scan(tmp_path):
    # a grid with one value on either axis is a scan, and the other grids sweeps
    grid = dict(method="closed-form", gamma=0.01, chi=1.0)
    for rng, kind, shape in (
        (dict(delta_range=(-1.08, -0.92, 5), epsilon_range=(0.012, 0.012, 1)), "scan", (5, 1)),
        (dict(delta_range=(-1.0, -1.0, 1), epsilon_range=(0.01, 0.02, 3)), "scan", (1, 3)),
        (dict(delta_range=(-1.08, -0.92, 5), epsilon_range=(0.01, 0.02, 3)), "sweep", (5, 3)),
    ):
        out = tmp_path / f"{kind}{shape[0]}"
        manifest = run_sweep_to_dir(SweepConfig(out_dir=str(out), **grid, **rng))
        assert manifest["kind"] == kind
        assert manifest["grid"] == {"deltas": shape[0], "epsilons": shape[1]}
        assert manifest["outputs"] == [f"{kind}.csv"]
        assert sorted(os.listdir(out)) == sorted(["manifest.json", "run.log", f"{kind}.csv"])


def test_config_file_scan_matches_library(tmp_path, capsys):
    # one JSON config gives the same scan through the CLI and the library,
    # at a drive outside the default epsilon range too
    raw = {
        "method": "closed-form", "gamma": 0.01, "delta_range": [-1.08, -0.92, 5],
        "epsilon_range": [7.0, 7.0, 1],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "cli")}))
    assert main(["--config", str(cfg)]) == 0
    assert "scan:" in capsys.readouterr().out
    run_sweep_to_dir(config_from_dict({**raw, "out_dir": str(tmp_path / "api")}))
    cli, api = (read_manifest(tmp_path / name) for name in ("cli", "api"))
    assert cli["kind"] == api["kind"] == "scan"
    assert (tmp_path / "cli" / "scan.csv").read_bytes() == (tmp_path / "api" / "scan.csv").read_bytes()
    for m in (cli, api):
        m["config"].pop("out_dir")
    assert cli == api


def test_cli_config_error_emits_json(tmp_path, capsys):
    code = main(["--delta-range=5:1:10", "--out-dir", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.err)
    assert report["error"]["kind"] == "config"
    assert report["error"]["type"] == "ConfigError"
    assert "delta_range" in report["error"]["message"]


def test_cli_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"method": "closed-form", "mystery": 1}))
    code = main(["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"]["kind"] == "config"


@pytest.mark.parametrize(
    "raw",
    [
        {"dim": 20.5},
        {"workers": 2.5},
        {"gamma": "abc"},
        {"delta_range": ["abc", -5.0, 3]},
        {"scan": {"epsilon": "abc"}},
        {"point": {"delta": -5.2, "epsilon": "abc"}, "analyze": ["entropy"]},
        {"delta_range": [-2, -1, 2.7]},
        {"scan": 5},
        {"point": 5, "analyze": ["entropy"]},
        {"analyze": 5},
        5,
        # scan and wigner_grid are unknown keys, whatever their values
        {"wigner_grid": {"nx": "a"}},
        {"wigner_grid": {"nz": 41}},
        {"wigner_grid": {"nx": 1}},
        {"wigner_grid": {"ny": 40.0}},
        {"wigner_grid": {"re": [5.0, -5.0]}},
        {"wigner_grid": {"im": [-5.0, 1e999]}},
        {"wigner_grid": {"re": [-5.0, 0.0, 5.0]}},
        {"wigner_grid": {"im": "wide"}},
        {"wigner_grid": [201, 201]},
    ],
)
def test_cli_malformed_config_values_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    code = main(
        [
            "--config", str(cfg), "--method", "both",
            "--delta-range=-5.5:-5:3", "--epsilon-range=3:3.4:2", "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--analyze", "bogus", "--point", "delta=-1,epsilon=1"],
        ["--scan", "epsilon=1,delta=2"],
        ["--method", "magic"],
        ["--point", "delta=-1,gamma=1", "--analyze", "entropy"],
        ["--delta-range", "1:2"],
        ["--point", "delta=-5.2,epsilon=-3.2", "--analyze", "entropy"],
        ["--method", "both", "--epsilon-range=-1:1:3"],
        ["--method", "closed-form", "--epsilon-range=-1:1:3"],
        ["--method", "closed-form", "--delta-range=-inf:2:5", "--epsilon-range=0.5:1:2"],
        ["--method", "closed-form", "--epsilon-range=0.5:inf:2"],
        ["--method", "numeric", "--delta-range=-inf:2:3", "--epsilon-range=0.5:1:2"],
        ["--scan", "epsilon=inf"],
        ["--scan", "gamma=1"],
        ["--scan", "epsilon=3.2", "--epsilon-range=0:5:11"],
        # a repeated key used to keep its last value silently
        ["--point", "delta=-5.2,epsilon=9,epsilon=3.2", "--gamma", "2", "--analyze", "entropy"],
        ["--scan", "epsilon=1,epsilon=0.5"],
    ],
)
def test_cli_flag_errors_exit_2_with_json(tmp_path, capsys, flags):
    # flag values go through validate_config, flag syntax through the parser;
    # either way the error is one JSON object on stderr
    code = main([*flags, "--out-dir", str(tmp_path / "x")])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["kind"] == "config"
    assert not (tmp_path / "x").exists()


def test_repeated_analyze_task_is_a_config_error(tmp_path, capsys):
    # a task named twice would run twice and list its files twice
    with pytest.raises(ConfigError, match="analyze task 'wigner' is repeated"):
        config_from_dict({"point": {"delta": -5.2, "epsilon": 3.2}, "analyze": ["wigner", "entropy", "wigner"]})
    cfg = tmp_path / "repeated.json"
    cfg.write_text(json.dumps({"point": {"delta": -5.2, "epsilon": 3.2}, "analyze": ["entropy", "entropy"]}))
    flags = ["--point", "delta=-5.2,epsilon=3.2", "--gamma", "2", "--chi", "1", "--analyze", "wigner,wigner"]
    for args, task in ((flags, "wigner"), (["--config", str(cfg)], "entropy")):
        assert main([*args, "--out-dir", str(tmp_path / "x")]) == 2
        report = json.loads(capsys.readouterr().err)["error"]
        assert (report["kind"], report["type"]) == ("config", "ConfigError")
        assert f"analyze task {task!r} is repeated" in report["message"]
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content", [None, {"L": 1e-9}, "{not json"])
def test_cli_bad_circuit_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "circuit.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main(["--circuit", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["kind"] == "config"
    assert report["error"]["type"] == "ConfigError"
    # the sweep creates its out_dir only once the circuit file has resolved
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["L", "R", "Vs"])
def test_cli_boolean_circuit_field_exits_2(tmp_path, capsys, field):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(dict(CIRCUIT, **{field: True})))
    assert main(["--circuit", str(path), "--out-dir", str(tmp_path / "x")]) == 2
    report = json.loads(capsys.readouterr().err)["error"]
    assert (report["kind"], report["type"]) == ("config", "ConfigError")
    assert f"{field} must be" in report["message"] and "got True" in report["message"]
    assert not (tmp_path / "x").exists()


def test_cli_runtime_failure_exit_code(tmp_path, capsys):
    out_dir = str(tmp_path / "cli-fail")
    code = main(
        [
            "--gamma", "2.0",
            "--point", "delta=-5.2,epsilon=0",
            "--analyze", "metastable",
            "--out-dir", out_dir,
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.err)
    assert report["error"]["kind"] == "analysis"
    assert "metastable" in report["error"]["message"]
    # the manifest still records the failure details
    assert read_manifest(out_dir)["tasks"]["metastable"]["status"] == "error"


def test_cli_flags_are_the_config_fields():
    # every config key has a flag, and every flag but --config and --scan
    # (a one-value range) sets its own key: none is missing or silently ignored
    flags = set(vars(build_parser().parse_args([]))) - {"config", "scan"}
    assert flags == set(SweepConfig.__dataclass_fields__)


def test_cli_flags_override_config_file(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "method": "closed-form",
                "gamma": 2.0,
                "delta_range": [-6.0, -5.0, 3],
                "epsilon_range": [3.0, 3.4, 2],
                "out_dir": out_a,
            }
        )
    )
    code = main(["--config", str(cfg), "--out-dir", out_b])
    assert code == 0
    assert not os.path.exists(os.path.join(out_a, "sweep.csv"))
    assert os.path.exists(os.path.join(out_b, "sweep.csv"))
    assert read_manifest(out_b)["config"]["method"] == "closed-form"


def test_numeric_route_starts_at_a_weak_damping_fold_cell(tmp_path):
    # the classical roots next to the fold at gamma = 1e-8 pass the residual
    # check, so the numeric run exits 0, at the closed form's value
    out = tmp_path / "weak-fold"
    code = main(
        ["--method", "numeric", "--gamma", "1e-8", "--chi", "1", "--delta-range=-6:-6:1",
         "--epsilon-range=4:4:1", "--out-dir", str(out)]
    )
    assert code == 0
    with open(out / "scan.csv", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    numeric = complex(float(row["re_numeric"]), float(row["im_numeric"]))
    exact = dw_response(ModelParams(-6.0, 1.0, 4.0, 1e-8))
    assert abs(numeric - exact) <= 1e-12 * abs(exact)
