"""Deterministic parameter sweeps, line scans, and point analyses.

No cell's result depends on another cell (the numeric route solves cells
in blocks, but no step mixes them), so a sweep is reproducible
bit-for-bit regardless of worker count: results keep the grid's cell
order and JSON is emitted with sorted keys.  Every CSV goes through
one writer, which writes each float as Python's ``%.16e`` does (17
significant digits, the conversion ``{:.16e}`` makes too): numpy forms
the correctly rounded digits of a chunk of up to 4096 rows at once, and
the few values where that is in doubt go through ``%.16e`` itself.  A
grid axis is formatted once per coordinate.  The chunks are streamed
with LF line endings.  Moduli |z| come from Python's ``abs`` on each
complex value, because ``np.abs`` rounds some of them one ulp
differently.  Wall-clock time per phase goes to the JSON side log
run.log, never into the manifest.  The ``lindblad`` names are imported in
the functions that call them, and only a point analysis's decay spectrum
loads scipy's sparse and dense linear algebra.
"""

import functools
import json
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .circuit import load_circuit, to_model, v2_signal
from .closedform import dw_response_grid
from .fock import ModelParams, annihilation, expectation, von_neumann_entropy, binary_entropy
from .perturbation import fano_fit, fano_q, onset_scan, onset_slope, response_series
from .phasespace import local_maxima, wigner_integral, wigner_many, wigner_purity

METHODS = ("numeric", "closed-form", "series", "both")
ANALYZE_TASKS = ("entropy", "spectrum", "wigner", "metastable", "mixing-curve", "fano", "onset")
_WIGNER_GRID = {"re": (-5.0, 5.0), "im": (-5.0, 5.0), "nx": 201, "ny": 201}


class ConfigError(ValueError):
    """The sweep configuration is malformed."""


class AnalysisError(RuntimeError):
    """A point-analysis task cannot run at the requested parameters."""


@dataclass(frozen=True)
class SweepConfig:
    """Run configuration; JSON keys mirror the field names.

    delta_range / epsilon_range are (start, stop, count) with inclusive
    endpoints.  ``scan`` holds {"epsilon": value} or {"delta": value} for a
    line scan, which ``sweep()`` applies: that axis becomes the one value,
    which must lie inside its range.  ``point`` holds {"delta": ...,
    "epsilon": ...} for analyses.
    ``circuit`` names a circuit-parameter JSON file whose derived rates
    (scaled by chi) fill gamma, chi, and the analysis point unless they are
    given explicitly; an unset gamma (None) is 2.0 without a circuit.
    ``wigner_grid`` holds the "re" and "im" ranges and the "nx" x "ny" size
    of the Wigner grid; a key left out keeps its default (-5 to 5, 201
    points).  The other analysis grids are fixed: 6 decay eigenvalues, 201
    mixing-curve samples, 801 Fano samples over -chi +- 8 gamma, and onset
    scans of the lines n = 1, 2 at gamma = 0.003, 0.01, 0.03.
    """

    method: str = "both"
    gamma: float = None
    chi: float = 1.0
    delta_range: tuple = (-10.0, 2.0, 241)
    epsilon_range: tuple = (0.05, 5.0, 100)
    dim: int = None
    workers: int = 1
    out_dir: str = "duffspec-out"
    scan: dict = None
    point: dict = None
    analyze: tuple = ()
    wigner_grid: dict = field(default_factory=lambda: dict(_WIGNER_GRID))
    circuit: str = None


def _check_range(name, rng):
    try:
        start, stop, count = rng
        start, stop = float(start), float(stop)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be (start, stop, count), got {rng!r}") from None
    if not (_is_int(count) and count >= 1) or (count > 1 and not stop > start):
        raise ConfigError(f"{name} needs stop > start and an integer count >= 1, got {rng!r}")
    return (start, stop, int(count))


def _check_wigner_grid(grid):
    """The Wigner grid with its unset keys at their defaults, or ConfigError."""
    if not isinstance(grid, dict) or not set(grid) <= set(_WIGNER_GRID):
        raise ConfigError(f"wigner_grid must be an object with keys re, im, nx, ny, got {grid!r}")
    grid = {**_WIGNER_GRID, **grid}
    for key in ("re", "im"):
        pair = grid[key]
        ok = isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_real, pair))
        if not (ok and pair[0] < pair[1]):
            raise ConfigError(f"wigner_grid {key} must be finite reals lo < hi, got {pair!r}")
    for key in ("nx", "ny"):
        if not (_is_int(grid[key]) and grid[key] >= 2):
            raise ConfigError(f"wigner_grid {key} must be an integer >= 2, got {grid[key]!r}")
    return grid


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def validate_config(config):
    if config.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {config.method!r}")
    if config.gamma is not None and not (_is_real(config.gamma) and config.gamma > 0):
        raise ConfigError(f"gamma must be positive, got {config.gamma!r}")
    if not (_is_real(config.chi) and config.chi > 0):
        raise ConfigError(f"chi must be positive, got {config.chi!r}")
    if not (_is_int(config.workers) and config.workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {config.workers!r}")
    if config.dim is not None and not (_is_int(config.dim) and config.dim >= 2):
        raise ConfigError(f"dim must be an integer >= 2, got {config.dim!r}")
    if not isinstance(config.analyze, (list, tuple)):
        raise ConfigError(f"analyze must be a list of tasks, got {config.analyze!r}")
    for task in config.analyze:
        if task not in ANALYZE_TASKS:
            raise ConfigError(f"unknown analyze task {task!r}; choose from {ANALYZE_TASKS}")
    config = replace(
        config,
        delta_range=_check_range("delta_range", config.delta_range),
        epsilon_range=_check_range("epsilon_range", config.epsilon_range),
        analyze=tuple(config.analyze),
        wigner_grid=_check_wigner_grid(config.wigner_grid),
    )
    if config.scan is not None:
        if not isinstance(config.scan, dict) or set(config.scan) not in ({"epsilon"}, {"delta"}):
            raise ConfigError(f"scan must set exactly one of epsilon/delta, got {config.scan!r}")
    if config.point is not None:
        if not isinstance(config.point, dict) or set(config.point) != {"delta", "epsilon"}:
            raise ConfigError(f"point must set delta and epsilon, got {config.point!r}")
    for name in ("scan", "point"):
        for key, value in (getattr(config, name) or {}).items():
            if not _is_real(value):
                raise ConfigError(f"{name} {key} must be a finite real number, got {value!r}")
    return config


def config_from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")
    known = set(SweepConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = SweepConfig(**raw)
    return validate_config(cfg)


def resolve_circuit(config):
    """Fold a circuit file's derived rates into the config.

    The circuit rates are rescaled by chi (the engine is dimensionless),
    so gamma, delta, epsilon are expressed in units of the physical chi
    and chi itself is 1 unless given.  Explicit config values win over
    derived ones; an unset gamma (None) is the circuit's, or 2.0 without
    a circuit, and an unset point is the circuit's operating point.
    Returns (config, circuit_params), circuit_params None without a
    circuit.
    """
    if config.circuit is None:
        gamma = 2.0 if config.gamma is None else config.gamma
        return replace(config, gamma=gamma), None
    try:
        circuit = load_circuit(config.circuit)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"circuit file {config.circuit!r}: {exc}") from None
    params, _omega0 = to_model(circuit)
    scale = params.chi
    updates = {}
    if config.gamma is None:
        updates["gamma"] = params.gamma / scale
    if config.point is None:
        updates["point"] = {"delta": params.delta / scale, "epsilon": params.epsilon / scale}
    return replace(config, **updates), circuit


def _grid_points(rng):
    start, stop, count = rng
    return np.linspace(start, stop, int(count))


@dataclass
class SweepResult:
    """In-memory sweep output.

    values maps method -> complex array (len(deltas) x len(epsilons));
    residuals likewise; dims holds per-cell truncation for the numeric
    method.  metadata carries the config echo and timestamps (timestamps
    stay in memory; files omit them for reproducibility).
    """

    deltas: np.ndarray
    epsilons: np.ndarray
    values: dict
    residuals: dict
    dims: np.ndarray
    discrepancy: np.ndarray
    metadata: dict


def _numeric_values(cells, dim):
    """(<a>, truncation, residual) of each cell, solved as one solve_steady_states call."""
    from .lindblad import solve_steady_states

    out = []
    for rho, used_dim, residual in solve_steady_states(cells, dim=dim):
        out.append((expectation(annihilation(used_dim), rho), used_dim, residual))
    return out


def _numeric_grid(deltas, epsilons, gamma, chi, dim, workers):
    cells = [
        ModelParams(delta=float(d), chi=chi, epsilon=float(e), gamma=gamma)
        for d in deltas
        for e in epsilons
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one contiguous run of cells per worker; a cell's result does not
        # depend on which cells share its call
        bounds = np.linspace(0, len(cells), workers + 1).round().astype(int)
        runs = [cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for run in pool.map(_numeric_values, runs, [dim] * workers) for r in run]
    else:
        results = _numeric_values(cells, dim)
    shape = (deltas.size, epsilons.size)
    values = np.array([r[0] for r in results], dtype=complex).reshape(shape)
    dims = np.array([r[1] for r in results], dtype=int).reshape(shape)
    residuals = np.array([r[2] for r in results], dtype=float).reshape(shape)
    return values, dims, residuals


def sweep(config):
    """Evaluate the response over the configured (delta, epsilon) grid.

    A configured scan {axis: value} fixes that axis at the value, which
    must lie inside the axis's configured range: the grid is then the
    1-D line along the other axis.  A configured circuit file sets an
    unset gamma, as in ``analyze``.
    """
    config = validate_config(config)
    for axis, value in (config.scan or {}).items():
        value = float(value)
        lo, hi, _ = getattr(config, f"{axis}_range")
        if not lo <= value <= hi:
            raise ConfigError(f"fixed {axis} {value} outside range [{lo}, {hi}]")
        config = replace(config, **{f"{axis}_range": (value, value, 1)})
    config, _ = resolve_circuit(config)
    deltas = _grid_points(config.delta_range)
    epsilons = _grid_points(config.epsilon_range)
    started = time.time()
    phase_s = {}
    values, residuals, dims, discrepancy = {}, {}, None, None
    if config.method in ("numeric", "both"):
        with _timed(phase_s, "numeric"):
            values["numeric"], dims, residuals["numeric"] = _numeric_grid(
                deltas, epsilons, config.gamma, config.chi, config.dim, config.workers
            )
    if config.method in ("closed-form", "both"):
        with _timed(phase_s, "closed_form"):
            values["closed-form"], residuals["closed-form"] = dw_response_grid(
                deltas, epsilons, config.gamma, config.chi
            )
    if config.method == "series":
        with _timed(phase_s, "series"):
            values["series"] = response_series(
                ModelParams(deltas[:, None], config.chi, epsilons[None, :], config.gamma)
            )
        residuals["series"] = np.zeros_like(values["series"], dtype=float)
    if config.method == "both":
        discrepancy = np.abs(values["numeric"] - values["closed-form"])
    if dims is None:
        dims = np.zeros((deltas.size, epsilons.size), dtype=int)
    return SweepResult(
        deltas=deltas,
        epsilons=epsilons,
        values=values,
        residuals=residuals,
        dims=dims,
        discrepancy=discrepancy,
        metadata={
            "config": asdict(config),
            "started_at": started,
            "finished_at": time.time(),
            "phase_s": phase_s,
        },
    )


_CSV_CHUNK = 4096
# A float field with its separator fits in 25 bytes ("-1.2345678901234567e-308,").
_RECORD = 32
# Decimal exponents of the fast path's tables: |v| in [1e-280, 1e280] has
# e in [-281, 280].  The 10^(16 - e) table reaches 10^299; the Veltkamp
# split overflows from 10^301 on.
_E_LIM = 283


@functools.cache
def _csv_tables():
    """Lookup tables of ``_float_records``, built on the first CSV write.

    For e = -_E_LIM .. _E_LIM (row e + _E_LIM): 10^(16 - e) as a
    double-double (hi, lo), hi's Veltkamp halves, and, per separator,
    "e" with the signed two- or three-digit exponent and the separator,
    NUL-padded to 8 bytes.  ``digits4`` holds the four ASCII digits of
    0..9999, one uint32 word each.
    """
    hi, lo = [], []
    for e in range(-_E_LIM, _E_LIM + 1):
        # 10^(16 - e) = num / den exactly; int division rounds correctly
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    hi1 = _split(hi)
    exps = range(-_E_LIM, _E_LIM + 1)
    exponent = {
        sep: np.array([b"e%+03d%s" % (e, sep.encode()) for e in exps], "S8").view(np.uint8).reshape(-1, 8)
        for sep in (",", "\n")
    }
    digits4 = np.array([b"%04d" % k for k in range(10000)], "S4").view(np.uint32)
    return hi, np.array(lo), hi1, hi - hi1, exponent, digits4


def _split(x):
    """Veltkamp's high half of x: 26 leading bits, with x - high exact in 26 more."""
    c = 134217729.0 * x  # 2^27 + 1
    return c - (c - x)


def _text_records(texts):
    """Byte records of ASCII strings, NUL-padded to the longest."""
    return np.array([t.encode() for t in texts], bytes).view(np.uint8).reshape(len(texts), -1)


def _float_records(values, sep):
    """Each value's ``"%.16e" % value`` followed by sep, as NUL-padded 32-byte records.

    |v| in [1e-280, 1e280] is scaled to x = |v| 10^(16 - e), with
    e = floor(log10 |v|), as the double-double p + err: Dekker's exact
    product of |v| and the double nearest 10^(16 - e), plus |v| times the
    rest of that power (Dekker, Numer. Math. 18, 224 (1971)).  Above 2^53
    p is an integer, and |p + err - x| < 1e-14, so N = p + rint(err) is
    x rounded to 17 digits, the correctly rounded digits Python prints
    (Gay's dtoa), unless x lies within 1e-4 of a half-integer.  The exact
    carry x -> 10^17 moves to the next decade.  Zeros are formatted here
    too.  Non-finite values, |v| outside that range, near-ties and a
    decade estimate that is off (x below 1e16, or N above 10^17) go
    through ``"%.16e"`` itself.
    """
    hi, lo, hi1, hi2, exponent, digits4 = _csv_tables()
    v = np.asarray(values, float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    row = e + _E_LIM
    p = a * hi[row]
    a1 = _split(a)
    a2 = a - a1
    q = ((a1 * hi1[row] - p) + a1 * hi2[row] + a2 * hi1[row]) + a2 * hi2[row]
    err = q + a * lo[row]
    r = np.rint(err)
    n = p.astype(np.int64) + r.astype(np.int64)
    fast &= np.abs(err - r) < 0.4999
    fast &= ((p - 1e16) + err > 1e-9) & (n <= 10**17)
    carry = n == 10**17
    n[carry] //= 10
    e[carry] += 1
    zero = v == 0.0
    n[zero] = 0
    e[zero] = 0
    lead, rest = np.divmod(n, 10**16)
    rec = np.zeros((v.size, _RECORD), np.uint8)
    rec[:, 0] = np.signbit(v) * ord("-")
    rec[:, 1] = lead + ord("0")
    rec[:, 2] = ord(".")
    # the 16 digits after the point as four 4-digit groups, most significant first
    halves = np.stack(np.divmod(rest, 10**8), axis=1).astype(np.int32)
    groups = np.stack(np.divmod(halves, 10**4), axis=2)
    rec[:, 3:19] = np.take(digits4, groups).view(np.uint8).reshape(-1, 16)
    rec[:, 19:27] = np.take(exponent[sep], e + _E_LIM, axis=0)
    slow = ~(fast | zero)
    if slow.any():
        texts = _text_records(["%.16e%s" % (x, sep) for x in v[slow].tolist()])
        rec[slow] = 0
        rec[slow, : texts.shape[1]] = texts
    return rec


@dataclass(frozen=True)
class _GridAxis:
    """A grid coordinate column, ``np.tile(np.repeat(values, repeat), tile)``.

    The writer formats each value once and repeats its record.
    """

    values: np.ndarray
    repeat: int
    tile: int


def _grid_columns(xs, ys):
    """Row-major x and y columns of a len(xs) x len(ys) grid."""
    xs, ys = np.asarray(xs, float).ravel(), np.asarray(ys, float).ravel()
    return _GridAxis(xs, ys.size, 1), _GridAxis(ys, 1, xs.size)


def _column_records(column, sep):
    """(rows, records): records(a, b) gives the column's rows a..b-1 as
    NUL-padded byte records, each the field's text followed by sep."""
    if isinstance(column, _GridAxis):
        recs = _float_records(column.values, sep)
        rows = recs.shape[0] * column.repeat * column.tile
        return rows, lambda a, b: np.take(recs, np.arange(a, b) // column.repeat % recs.shape[0], axis=0)
    if isinstance(column, list):
        return len(column), lambda a, b: _text_records([s + sep for s in column[a:b]])
    values = np.asarray(column, float).ravel()
    return values.size, lambda a, b: _float_records(values[a:b], sep)


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV.

    A list column holds strings, written as they are; a ``_GridAxis`` or
    any other column is read as floats, each written as ``"%.16e" % v``
    would write it (``_float_records``).  Rows are formatted a chunk of
    at most _CSV_CHUNK at a time: the columns' records side by side, NUL
    bytes dropped, streamed to the file.
    """
    seps = [","] * (len(columns) - 1) + ["\n"]
    parts = [_column_records(c, s) for c, s in zip(columns, seps)]
    rows = parts[0][0]
    if any(n != rows for n, _ in parts):
        raise ValueError(f"CSV columns differ in length: {[n for n, _ in parts]}")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for a in range(0, rows, _CSV_CHUNK):
            b = min(a + _CSV_CHUNK, rows)
            block = np.hstack([records(a, b) for _, records in parts]).ravel()
            fh.write(block[block != 0].tobytes())


def write_sweep_csv(result, path):
    """Write a sweep grid as CSV with fixed formatting (17 significant digits)."""
    methods = [m for m in ("numeric", "closed-form", "series") if m in result.values]
    header = ["delta", "epsilon"]
    columns = list(_grid_columns(result.deltas, result.epsilons))
    for m in methods:
        tag = m.replace("-", "_")
        header += [f"re_{tag}", f"im_{tag}", f"abs_{tag}", f"residual_{tag}"]
        v = result.values[m]
        abs_v = np.array([abs(z) for z in v.ravel().tolist()])
        columns += [v.real, v.imag, abs_v, result.residuals[m]]
    header.append("dim")
    columns.append(list(map(str, result.dims.ravel().tolist())))
    if result.discrepancy is not None:
        header.append("discrepancy")
        columns.append(result.discrepancy)
    _write_csv(path, ",".join(header), columns)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tool_block():
    import numpy
    import scipy

    return {
        "name": "duffspec",
        "version": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_sweep_to_dir(config):
    """Run ``sweep`` and write sweep.csv (scan.csv for a scan) plus manifest.json."""
    result = sweep(config)
    # made only now, so that a configuration error leaves no directory
    os.makedirs(config.out_dir, exist_ok=True)
    kind = "sweep" if config.scan is None else "scan"
    csv_name = f"{kind}.csv"
    phase_s = result.metadata["phase_s"]
    with _timed(phase_s, "write"):
        write_sweep_csv(result, os.path.join(config.out_dir, csv_name))
    stats = {}
    for m, res in result.residuals.items():
        stats[f"max_residual_{m.replace('-', '_')}"] = float(np.max(res)) if res.size else 0.0
    if result.discrepancy is not None:
        stats["max_discrepancy"] = float(np.max(result.discrepancy))
    if "numeric" in result.values:
        stats["max_dim"] = int(np.max(result.dims))
    manifest = {
        "kind": kind,
        "tool": _tool_block(),
        "config": result.metadata["config"],
        "outputs": [csv_name],
        "grid": {"deltas": int(result.deltas.size), "epsilons": int(result.epsilons.size)},
        "stats": stats,
    }
    _write_json(os.path.join(config.out_dir, "manifest.json"), manifest)
    _write_run_log(config.out_dir, result.metadata["started_at"], phase_s)
    return manifest


@contextmanager
def _timed(phase_s, name):
    """Record the wall seconds of the enclosed block as phase_s[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phase_s[name] = time.perf_counter() - start


def _write_run_log(out_dir, started, phase_s):
    # Wall-clock time stays out of the deterministic manifest; run.log is
    # one JSON object: start time, seconds elapsed since, seconds per phase.
    log = {"started_unix": started, "elapsed_s": time.time() - started, "phase_s": phase_s}
    _write_json(os.path.join(out_dir, "run.log"), log)


class _PointContext:
    """Lazily shared state between analysis tasks at one parameter point."""

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self._rho0 = None
        self._spectrum = None
        self._pair = None
        self._wigner = None

    def rho0(self):
        if self._rho0 is None:
            from .lindblad import solve_steady_state_adaptive

            self._rho0 = solve_steady_state_adaptive(self.params, dim=self.config.dim)
        return self._rho0

    def spectrum(self):
        if self._spectrum is None:
            from .lindblad import build_superoperator, low_lying_spectrum

            _, dim, _ = self.rho0()
            S = build_superoperator(self.params, dim)
            self._spectrum = low_lying_spectrum(S)
        return self._spectrum

    def metastable_pair(self):
        if self._pair is None:
            from .lindblad import metastable_extremes

            if self.params.epsilon == 0:
                raise AnalysisError(
                    "metastable analysis requires epsilon > 0: without a drive the "
                    "slowest decaying mode is not a bimodality direction"
                )
            spec = self.spectrum()
            if len(spec.eigenvalues) < 2:
                raise AnalysisError("spectrum does not include a second eigenvalue")
            # low_lying_spectrum gives exactly the modes it calls real an
            # exactly Hermitian eigenmatrix, so that is the test of realness
            drho1 = spec.eigenmatrices[1]
            if not np.array_equal(drho1, drho1.conj().T):
                raise AnalysisError(
                    f"second eigenvalue {spec.eigenvalues[1]} is complex; no Hermitian slow "
                    "direction exists at this point"
                )
            rho0, _, _ = self.rho0()
            self._pair = metastable_extremes(rho0, drho1)
        return self._pair

    def wigner_grids(self):
        """Wigner grids of the requested states, evaluated in one pass.

        Keys are "rho0" when the wigner task is requested and "rho_plus",
        "rho_minus" when the metastable task is.  A pair that cannot be
        formed is left out, so the wigner task's grid and status never
        depend on the metastable task; that task raises the error itself.
        """
        if self._wigner is None:
            states = {}
            if "wigner" in self.config.analyze:
                states["rho0"] = self.rho0()[0]
            if "metastable" in self.config.analyze:
                try:
                    pair = self.metastable_pair()
                except Exception:
                    pass
                else:
                    states["rho_plus"], states["rho_minus"] = pair.rho_plus, pair.rho_minus
            g = self.config.wigner_grid
            grids = wigner_many(
                list(states.values()), re_range=g["re"], im_range=g["im"], nx=g["nx"], ny=g["ny"]
            )
            self._wigner = dict(zip(states, grids))
        return self._wigner


def _write_wigner(grid, out_dir, stem, params, dim):
    columns = [*_grid_columns(grid.re_points, grid.im_points), grid.values]
    _write_csv(os.path.join(out_dir, f"{stem}.csv"), "x,y,w", columns)
    header = {
        "columns": ["x", "y", "w"],
        "re_range": list(grid.re_range),
        "im_range": list(grid.im_range),
        "nx": grid.nx,
        "ny": grid.ny,
        "dim": dim,
        "params": {k: getattr(params, k) for k in ("delta", "chi", "epsilon", "gamma")},
        "integral": wigner_integral(grid),
    }
    _write_json(os.path.join(out_dir, f"{stem}.json"), header)
    return [f"{stem}.csv", f"{stem}.json"]


def _task_entropy(ctx, out_dir, circuit):
    rho0, dim, residual = ctx.rho0()
    a_val = expectation(annihilation(dim), rho0)
    n_val = expectation(annihilation(dim).conj().T @ annihilation(dim), rho0)
    summary = {
        "entropy_bits": von_neumann_entropy(rho0),
        "mean_photons": float(n_val.real),
        "a_re": a_val.real,
        "a_im": a_val.imag,
        "a_abs": abs(a_val),
        "purity": float(np.trace(rho0 @ rho0).real),
        "dim": dim,
        "residual": residual,
    }
    if circuit is not None:
        quads = v2_signal(a_val, circuit)
        summary["v2_cos_volts"] = quads.cos_amplitude
        summary["v2_sin_volts"] = quads.sin_amplitude
    return summary, []


def _task_spectrum(ctx, out_dir, circuit):
    spec = ctx.spectrum()
    lams = spec.eigenvalues
    columns = [list(map(str, range(len(lams)))), lams.real, lams.imag]
    _write_csv(os.path.join(out_dir, "spectrum.csv"), "index,re,im", columns)
    summary = {
        "eigenvalues": [[lam.real, lam.imag] for lam in spec.eigenvalues],
        "dim": spec.dim,
    }
    return summary, ["spectrum.csv"]


def _task_wigner(ctx, out_dir, circuit):
    _, dim, _ = ctx.rho0()
    grid = ctx.wigner_grids()["rho0"]
    files = _write_wigner(grid, out_dir, "wigner_rho0", ctx.params, dim)
    maxima = local_maxima(grid)
    summary = {
        "integral": wigner_integral(grid),
        "purity_estimate": wigner_purity(grid),
        "n_local_maxima": len(maxima),
        "maxima": [[x, y, w] for x, y, w in maxima],
    }
    return summary, files


def _task_metastable(ctx, out_dir, circuit):
    pair = ctx.metastable_pair()
    rho0, dim, _ = ctx.rho0()
    grids = ctx.wigner_grids()
    files = _write_wigner(grids["rho_plus"], out_dir, "wigner_rho_plus", ctx.params, dim)
    files += _write_wigner(grids["rho_minus"], out_dir, "wigner_rho_minus", ctx.params, dim)
    summary = {
        "beta_plus": pair.beta_plus,
        "beta_minus": pair.beta_minus,
        "mixing_fraction": pair.mixing_fraction,
        "entropy_plus_bits": von_neumann_entropy(pair.rho_plus),
        "entropy_minus_bits": von_neumann_entropy(pair.rho_minus),
        "entropy_rho0_bits": von_neumann_entropy(rho0),
    }
    return summary, files


def mixing_curve(pair, samples=201):
    """Entropy along x rho_plus + (1-x) rho_minus against the linear mix.

    Returns (x, entropy, linear, excess, binary) arrays; ``excess`` is the
    entropy above the linear interpolation and ``binary`` the two-outcome
    entropy H(x) it approximates when the extremes are distinguishable.
    """
    s_plus = von_neumann_entropy(pair.rho_plus)
    s_minus = von_neumann_entropy(pair.rho_minus)
    xs = np.linspace(0.0, 1.0, samples)
    w = xs[:, None, None]
    entropy = von_neumann_entropy(w * pair.rho_plus + (1.0 - w) * pair.rho_minus)
    linear = xs * s_plus + (1.0 - xs) * s_minus
    excess = entropy - linear
    binary = np.array([binary_entropy(float(x)) for x in xs])
    return xs, entropy, linear, excess, binary


def _task_mixing_curve(ctx, out_dir, circuit):
    pair = ctx.metastable_pair()
    xs, entropy, linear, excess, binary = mixing_curve(pair)
    columns = [xs, entropy, linear, excess, binary]
    header = "x,entropy_bits,linear_bits,excess_bits,binary_bits"
    _write_csv(os.path.join(out_dir, "mixing_curve.csv"), header, columns)
    commutator = pair.rho_minus @ pair.rho_plus - pair.rho_plus @ pair.rho_minus
    peak = int(np.argmax(excess))
    summary = {
        "peak_excess_bits": float(excess[peak]),
        "x_at_peak": float(xs[peak]),
        "max_deviation_from_binary": float(np.max(np.abs(excess - binary))),
        "commutator_norm": float(np.linalg.norm(commutator)),
    }
    return summary, ["mixing_curve.csv"]


def _interior_trough(deltas, mags, center):
    """Detuning of the interior local minimum nearest ``center``.

    Returns None when the magnitudes are monotonic through the window
    (global argmin would just report a window edge then).
    """
    d = np.diff(mags)
    idx = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0] + 1
    if idx.size == 0:
        return None
    best = idx[np.argmin(np.abs(deltas[idx] - center))]
    return float(deltas[best])


def _task_fano(ctx, out_dir, circuit):
    p = ctx.params
    center, samples = -p.chi, 801
    window = (center - 8.0 * p.gamma, center + 8.0 * p.gamma)
    deltas = np.linspace(window[0], window[1], samples)
    values, _ = dw_response_grid(deltas, np.array([p.epsilon]), p.gamma, p.chi)
    mags = np.abs(values[:, 0])
    # The resonance rides on the off-resonant linear response, whose
    # magnitude varies across the window by as much as the feature itself;
    # dividing it out leaves a locally flat background the Fano model fits.
    linear_bg = 2.0 * p.epsilon / np.abs(2.0 * deltas - 1j * p.gamma)
    normalized = mags / linear_bg
    fit = fano_fit(deltas, normalized)
    formula_q = fano_q(p)
    columns = [deltas, mags, normalized]
    _write_csv(os.path.join(out_dir, "fano_line.csv"), "delta,abs_a,abs_a_normalized", columns)
    summary = {
        "fitted": {
            "background": fit.background,
            "amplitude": fit.amplitude,
            "center": fit.center,
            "width": fit.width,
            "q": fit.q,
            "residual_rms": fit.residual_rms,
        },
        "formula_q": formula_q,
        "q_relative_error": abs(fit.q - formula_q) / abs(formula_q),
        "raw_trough_delta": _interior_trough(deltas, mags, center),
        "normalized_trough_delta": _interior_trough(deltas, normalized, center),
        "window": [float(window[0]), float(window[1])],
        "samples": samples,
    }
    return summary, ["fano_line.csv"]


def _task_onset(ctx, out_dir, circuit):
    n_column, all_pairs = [], []
    summary = {"slopes": {}}
    for order in (1, 2):
        pairs = onset_scan(order, (0.003, 0.01, 0.03), chi=ctx.params.chi)
        n_column += [str(order)] * len(pairs)
        all_pairs += pairs
        summary["slopes"][str(order)] = onset_slope(pairs)
    columns = [n_column, *np.reshape(all_pairs, (-1, 2)).T]
    _write_csv(os.path.join(out_dir, "onset.csv"), "n,gamma,epsilon_onset", columns)
    return summary, ["onset.csv"]


_TASKS = {
    "entropy": _task_entropy,
    "spectrum": _task_spectrum,
    "wigner": _task_wigner,
    "metastable": _task_metastable,
    "mixing-curve": _task_mixing_curve,
    "fano": _task_fano,
    "onset": _task_onset,
}


def analyze(config):
    """Run the configured analysis tasks at the configured point.

    Each task writes its artifacts under out_dir and contributes a block
    to manifest.json; task failures are recorded per task (with the
    offending task labelled) and reported through the returned manifest
    rather than aborting the remaining tasks.
    """
    config, circuit = resolve_circuit(validate_config(config))
    if config.point is None:
        raise ConfigError("analyze requires a point {delta, epsilon} or a circuit file")
    if not config.analyze:
        raise ConfigError("no analyze tasks requested")
    params = ModelParams(
        delta=float(config.point["delta"]),
        chi=config.chi,
        epsilon=float(config.point["epsilon"]),
        gamma=config.gamma,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    started = time.time()
    phase_s = {}
    ctx = _PointContext(params, config)
    tasks = {}
    outputs = []
    failed = 0
    for name in config.analyze:
        try:
            with _timed(phase_s, name):
                summary, files = _TASKS[name](ctx, config.out_dir, circuit)
        except Exception as exc:
            failed += 1
            tasks[name] = {
                "status": "error",
                "error_type": type(exc).__name__,
                "message": str(exc),
            }
            continue
        tasks[name] = {"status": "ok", "summary": summary}
        outputs.extend(files)
    manifest = {
        "kind": "analyze",
        "tool": _tool_block(),
        "config": asdict(config),
        "point": {"delta": params.delta, "epsilon": params.epsilon},
        "tasks": tasks,
        "outputs": outputs,
        "failed_tasks": failed,
    }
    _write_json(os.path.join(config.out_dir, "manifest.json"), manifest)
    _write_run_log(config.out_dir, started, phase_s)
    return manifest
