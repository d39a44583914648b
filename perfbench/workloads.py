"""The three workloads: fixed inputs, timed calls into duffspec, checks.

Every input grid is fixed.  The seed only picks which grid cells are
checked against 50-digit references.  A workload is a fixed sequence of
steps; one pass runs every step once, in order.  A step times its calls
into the program (never its checks) with ``ctx.clock`` and returns one
record per operation it attempted.  ``ctx.workdir`` is a scratch
directory and ``ctx.pause()`` a context under which nothing is traced or
probed.

An operation fails when the program raises or its output fails a check.
The operations listed in a workload's ``KNOWN_FAULTS`` fail today because
of faults named in this directory's README; they count as failed but do
not make the run incorrect.  Any other failure does.
"""

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import checks
import refs
from duffspec import cli, closedform, lindblad, perturbation
from duffspec.fock import ModelParams

# Cells of each closed-form grid checked against the 50-digit ratio.
SAMPLED_CELLS = 24


@dataclass
class Op:
    name: str
    problems: list = field(default_factory=list)
    known_fault: bool = False

    @property
    def ok(self):
        return not self.problems


@dataclass
class Step:
    job: str  # name of the timed job
    seconds: float  # time spent in program calls
    ops: list
    accuracy: dict = field(default_factory=dict)  # per-layer metrics measured here


def _raised(exc):
    return [f"raised {type(exc).__name__}: {exc}"]


def mean_a(rho):
    """<a> = Tr(a rho) = sum_n sqrt(n + 1) rho[n + 1, n]."""
    rho = np.asarray(rho)
    return complex(np.sum(np.sqrt(np.arange(1, rho.shape[0])) * np.diagonal(rho, -1)))


def _rel_errs(values, references):
    return [abs(values[c] - r) / abs(r) for c, r in references.items()]


class Lineshape:
    """Closed-form grids, onset scans and Fano fits: closedform and perturbation."""

    name = "lineshape"
    JOBS = ("closedform_grids_s", "onset_scan_s", "fano_fit_s")
    KNOWN_FAULTS = frozenset()
    WARMUP = (
        "import numpy as np\n"
        "from duffspec import closedform, perturbation\n"
        "from duffspec.fock import ModelParams\n"
        "closedform.dw_response_grid(np.array([-1.0, 0.0]), np.array([0.1, 0.2]), 1.0, 1.0)\n"
        "perturbation.response_series(ModelParams(-1.0, 1.0, 0.1, 0.1))\n"
    )

    CHI = 1.0
    GAMMAS = (2.0, 0.01)
    DELTAS = np.linspace(-10.0, 2.0, 241)
    EPSILONS = np.linspace(0.05, 5.0, 100)
    ONSET_GAMMAS = (0.003, 0.01, 0.03)
    LINE_GAMMA, LINE_EPSILON = 0.01, 0.012
    LINE_DELTAS = np.linspace(-1.08, -0.92, 801)
    DIP_X = np.linspace(-1.0, 1.0, 301)
    DIP_WIDTH, DIP_AMPLITUDE = 0.05, 0.4
    # The weak-drive column at gamma = 2 may depart from the Lorentzian by
    # the cubic term, at most 16 chi eps^2 / gamma^3 = 0.005 here.
    LORENTZIAN_RTOL = 0.01

    def prepare(self, rng):
        shape = (self.DELTAS.size, self.EPSILONS.size)
        self.grid_refs = {}
        for g in self.GAMMAS:
            cells = refs.sample_cells(rng, shape, SAMPLED_CELLS)
            self.grid_refs[g] = refs.grid_references(self.DELTAS, self.EPSILONS, g, self.CHI, cells)
        line_cells = refs.sample_cells(rng, (self.LINE_DELTAS.size, 1), SAMPLED_CELLS)
        self.line_refs = refs.grid_references(
            self.LINE_DELTAS, [self.LINE_EPSILON], self.LINE_GAMMA, self.CHI, line_cells
        )
        self.lorentz = refs.lorentzian_response(self.DELTAS, self.EPSILONS[0], self.GAMMAS[0])

    def steps(self):
        return [self.closedform_grids, self.onset_scans, self.fano_fits]

    def closedform_grids(self, ctx):
        ops, seconds, errs = [], 0.0, []
        for g in self.GAMMAS:
            out, exc, dt = ctx.clock.call(
                closedform.dw_response_grid, self.DELTAS, self.EPSILONS, g, self.CHI
            )
            seconds += dt
            op = Op(f"closedform grid gamma={g}")
            if exc is not None:
                op.problems = _raised(exc)
            else:
                values = out[0]
                op.problems = checks.closed_form_cells(values, self.grid_refs[g])
                errs += _rel_errs(values, self.grid_refs[g])
                if g == self.GAMMAS[0]:
                    op.problems += checks.lorentzian_limit(
                        values[:, 0], self.lorentz, self.LORENTZIAN_RTOL
                    )
            ops.append(op)
        accuracy = {"closedform.max_rel_err": max(errs)} if errs else {}
        return Step("closedform_grids_s", seconds, ops, accuracy)

    def onset_scans(self, ctx):
        ops, seconds, errs = [], 0.0, []
        for n in (1, 2):
            pairs, exc, dt = ctx.clock.call(
                perturbation.onset_scan, n, self.ONSET_GAMMAS, chi=self.CHI
            )
            seconds += dt
            op = Op(f"onset_scan n={n}")
            if exc is not None:
                op.problems = _raised(exc)
            else:
                slope, op.problems = checks.onset_slope(pairs, n)
                errs.append(abs(slope - refs.ONSET_EXPONENTS[n]))
            ops.append(op)
        accuracy = {"perturbation.onset_slope_err": max(errs)} if errs else {}
        return Step("onset_scan_s", seconds, ops, accuracy)

    def _line_fit(self):
        # The two-photon line, divided by the linear background as the CLI
        # fano task does.
        values, _ = closedform.dw_response_grid(
            self.LINE_DELTAS, np.array([self.LINE_EPSILON]), self.LINE_GAMMA, self.CHI
        )
        background = 2.0 * self.LINE_EPSILON / np.abs(2.0 * self.LINE_DELTAS - 1j * self.LINE_GAMMA)
        return values, perturbation.fano_fit(self.LINE_DELTAS, np.abs(values[:, 0]) / background)

    def fano_fits(self, ctx):
        ops, accuracy = [], {}
        out, exc, seconds = ctx.clock.call(self._line_fit)
        op = Op("fano_fit two-photon line")
        if exc is not None:
            op.problems = _raised(exc)
        else:
            values, fit = out
            op.problems = checks.closed_form_cells(values, self.line_refs)
            accuracy["closedform.max_rel_err"] = max(_rel_errs(values, self.line_refs))
            if not (self.LINE_DELTAS[0] < fit.center < self.LINE_DELTAS[-1] and fit.width > 0):
                op.problems.append(f"line fit lies outside its window: {fit}")
        ops.append(op)

        lorentzian = self.DIP_AMPLITUDE / (1.0 + (self.DIP_X / self.DIP_WIDTH) ** 2)
        fit, exc, dt = ctx.clock.call(perturbation.fano_fit, self.DIP_X, 1.0 - lorentzian)
        seconds += dt
        op = Op("fano_fit Lorentzian dip")
        if exc is not None:
            op.problems = _raised(exc)
        else:
            op.problems = checks.lorentzian_dip_fit(fit, self.DIP_AMPLITUDE)
        ops.append(op)

        _, exc, dt = ctx.clock.call(perturbation.fano_fit, self.DIP_X, 1.0 + lorentzian)
        seconds += dt
        ops.append(Op("fano_fit Lorentzian peak", checks.raised(exc, perturbation.FanoFitError)))
        return Step("fano_fit_s", seconds, ops, accuracy)


def _run_cli(argv):
    """Exit code and captured stderr of one in-process ``duffspec`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _timed_cli(ctx, argv):
    """(exit code, stderr, seconds); an exception escaping main counts as exit 1."""
    out, exc, seconds = ctx.clock.call(_run_cli, argv)
    if exc is not None:
        return 1, f"{type(exc).__name__}: {exc}", seconds
    return (*out, seconds)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return dict(zip(header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T))


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class ReadmeCli:
    """The README's CLI commands in-process: sweep, parallel sweep, analysis, line scan."""

    name = "readme-cli"
    JOBS = ("sweep_s", "sweep_parallel_s", "analyze_s")
    LINE_SCAN = "README line scan"
    KNOWN_FAULTS = frozenset({LINE_SCAN})
    WARMUP = (
        "import numpy as np\n"
        "from duffspec import cli, closedform, lindblad, phasespace\n"
        "from duffspec.fock import ModelParams, von_neumann_entropy\n"
        "cli.build_parser().parse_args(['--method', 'both', '--gamma', '2'])\n"
        "p = ModelParams(-1.0, 1.0, 0.3, 1.0)\n"
        "rho, dim, _ = lindblad.solve_steady_state_adaptive(p)\n"
        "lindblad.low_lying_spectrum(lindblad.build_superoperator(p, 6), count=2)\n"
        "phasespace.wigner_many([rho], nx=5, ny=5)\n"
        "von_neumann_entropy(rho)\n"
        "closedform.dw_response_grid(np.array([-1.0, 0.0]), np.array([0.1, 0.2]), 1.0, 1.0)\n"
    )

    SWEEP = [
        "--method", "both", "--gamma", "2", "--chi", "1",
        "--delta-range=-8:-2:61", "--epsilon-range=0.5:4:8",
    ]
    ANALYZE = [
        "--point", "delta=-5.2,epsilon=3.2", "--gamma", "2", "--chi", "1",
        "--analyze", "entropy,spectrum,metastable,mixing-curve,wigner",
    ]
    SCAN = [
        "--method", "closed-form", "--gamma", "0.01", "--chi", "1",
        "--delta-range=-1.08:-0.92:801", "--scan", "epsilon=0.012",
    ]
    SWEEP_GAMMA, SCAN_GAMMA, CHI = 2.0, 0.01, 1.0
    POINT_C = (-5.2, 3.2)
    WIGNER_STEMS = ("wigner_rho0", "wigner_rho_plus", "wigner_rho_minus")

    def prepare(self, rng):
        self.sweep_rows = sorted(int(k) for k in rng.choice(61 * 8, SAMPLED_CELLS, replace=False))
        self.scan_rows = sorted(int(k) for k in rng.choice(801, SAMPLED_CELLS, replace=False))
        self.point_c = refs.exact_response(*self.POINT_C, self.SWEEP_GAMMA, self.CHI)

    def steps(self):
        return [self.sweep, self.sweep_parallel, self.analyze, self.line_scan]

    def _out(self, workdir, name):
        path = os.path.join(workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _closed_form_rows(self, table, rows, gamma):
        got = table["re_closed_form"] + 1j * table["im_closed_form"]
        exact = {
            r: refs.exact_response(table["delta"][r], table["epsilon"][r], gamma, self.CHI)
            for r in rows
        }
        return checks.closed_form_cells(got, exact), max(_rel_errs(got, exact))

    def sweep(self, ctx):
        out = self._out(ctx.workdir, "serial")
        code, err, seconds = _timed_cli(ctx, self.SWEEP + ["--out-dir", out])
        op = Op("README sweep, serial")
        if code != 0:
            op.problems = [f"exit {code}: {err}"]
            return Step("sweep_s", seconds, [op])
        table = _read_csv(os.path.join(out, "sweep.csv"))
        numeric = table["re_numeric"] + 1j * table["im_numeric"]
        closed = table["re_closed_form"] + 1j * table["im_closed_form"]
        gap = float(np.max(np.abs(numeric - closed)))
        if not gap <= checks.CROSS_METHOD_ATOL:
            op.problems.append(f"numeric and closed form differ by up to {gap:.2e}")
        problems, err = self._closed_form_rows(table, self.sweep_rows, self.SWEEP_GAMMA)
        op.problems += problems
        accuracy = {
            "closedform.max_rel_err": err,
            "lindblad.max_gap_vs_closedform": gap,
            "sweep.bytes_written": _dir_bytes(out),
        }
        return Step("sweep_s", seconds, [op], accuracy)

    def sweep_parallel(self, ctx):
        out = self._out(ctx.workdir, "parallel")
        # Spans would live in the worker processes, and a probe would
        # compete with the workers for the cores: neither runs here.
        with ctx.pause():
            code, err, seconds = _timed_cli(ctx, self.SWEEP + ["--out-dir", out, "--workers", "2"])
        op = Op("README sweep, --workers 2")
        serial = os.path.join(ctx.workdir, "serial")
        if code != 0:
            op.problems = [f"exit {code}: {err}"]
        elif not os.path.isfile(os.path.join(serial, "manifest.json")):
            op.problems = ["the serial sweep wrote nothing to compare with"]
        else:
            texts = {}
            for name in ("sweep.csv", "manifest.json"):
                texts[name] = []
                for d in (serial, out):
                    with open(os.path.join(d, name), "rb") as fh:
                        texts[name].append(fh.read())
            op.problems = checks.identical_files(*texts["sweep.csv"], "sweep.csv")
            op.problems += checks.identical_manifests(*texts["manifest.json"])
        return Step("sweep_parallel_s", seconds, [op])

    def analyze(self, ctx):
        out = self._out(ctx.workdir, "point")
        code, err, seconds = _timed_cli(ctx, self.ANALYZE + ["--out-dir", out])
        op = Op("point-C analysis")
        if code != 0:
            op.problems = [f"exit {code}: {err}"]
            return Step("analyze_s", seconds, [op])
        op.problems, gap, integral_err = self._check_analysis(out)
        accuracy = {
            "lindblad.max_gap_vs_closedform": gap,
            "phasespace.max_integral_err": integral_err,
            "sweep.bytes_written": _dir_bytes(out),
        }
        return Step("analyze_s", seconds, [op], accuracy)

    def line_scan(self, ctx):
        out = self._out(ctx.workdir, "line")
        code, err, seconds = _timed_cli(ctx, self.SCAN + ["--out-dir", out])
        op = Op(self.LINE_SCAN, known_fault=True)
        if code != 0:
            op.problems = [f"exit {code}: {err}"]
            return Step("line_scan_s", seconds, [op])
        table = _read_csv(os.path.join(out, "scan.csv"))
        op.problems, rel_err = self._closed_form_rows(table, self.scan_rows, self.SCAN_GAMMA)
        accuracy = {"closedform.max_rel_err": rel_err, "sweep.bytes_written": _dir_bytes(out)}
        return Step("line_scan_s", seconds, [op], accuracy)

    def _check_analysis(self, out):
        """(problems, |<a> - exact|, worst |Wigner integral - 1|) of a point-C run."""
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            tasks = json.load(fh)["tasks"]
        problems = [
            f"task {k}: {v.get('message')}" for k, v in tasks.items() if v["status"] != "ok"
        ]
        if problems:
            return problems, 0.0, 0.0
        entropy = tasks["entropy"]["summary"]
        a = complex(entropy["a_re"], entropy["a_im"])
        problems += checks.response_gap(a, self.point_c, label="point-C <a>")

        spectrum = _read_csv(os.path.join(out, "spectrum.csv"))
        problems += checks.decay_spectrum(spectrum["re"] + 1j * spectrum["im"])

        meta = tasks["metastable"]["summary"]
        problems += checks.metastable_pair(
            meta["beta_minus"], meta["beta_plus"], meta["mixing_fraction"]
        )

        integral_err = 0.0
        for stem in self.WIGNER_STEMS:
            with open(os.path.join(out, stem + ".json"), encoding="utf-8") as fh:
                header = json.load(fh)
            w = np.loadtxt(os.path.join(out, stem + ".csv"), delimiter=",", skiprows=1, usecols=2)
            if w.size != header["nx"] * header["ny"]:
                problems.append(f"{stem}.csv holds {w.size} samples")
                continue
            dx = (header["re_range"][1] - header["re_range"][0]) / (header["nx"] - 1)
            dy = (header["im_range"][1] - header["im_range"][0]) / (header["ny"] - 1)
            integral = float(np.sum(w) * dx * dy)
            problems += checks.wigner_integral(integral, label=stem)
            integral_err = max(integral_err, abs(integral - 1.0))
        return problems, abs(a - self.point_c), integral_err


def _gap(gaps):
    return {"lindblad.max_gap_vs_closedform": max(gaps)} if gaps else {}


def _hard_name(delta, epsilon):
    return f"hard regime delta={delta:.4f} eps={epsilon}"


class LargeTruncation:
    """Point C at fixed dims, both spectrum paths, and the hard regime: lindblad."""

    name = "large-truncation"
    JOBS = ("truncation_ladder_s", "spectrum_s", "hard_regime_s")
    WARMUP = (
        "from duffspec import lindblad\n"
        "from duffspec.fock import ModelParams\n"
        "p = ModelParams(-1.0, 1.0, 0.3, 1.0)\n"
        "lindblad.solve_steady_state_adaptive(p)\n"
        "lindblad.low_lying_spectrum(lindblad.build_superoperator(p, 6), count=2)\n"
    )

    POINT_C = ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0)
    LADDER_DIMS = (20, 40, 80, 160)
    SPECTRUM_DIMS = (18, 40, 80)
    HARD_GAMMA, HARD_CHI = 0.1, 0.05
    HARD_DELTAS = np.linspace(-2.5, -1.5, 7)
    HARD_EPSILONS = (0.5, 1.0, 1.5)
    # At eps = 1.5 the six cells with delta < -1.5 fail today (README,
    # "Known faults"): three raise DegenerateKernelError, three are 1.5e-5
    # to 2.9e-5 from the exact <a>.
    KNOWN_FAULTS = frozenset(_hard_name(d, 1.5) for d in HARD_DELTAS[:6])

    def prepare(self, rng):
        p = self.POINT_C
        self.point_c = refs.exact_response(p.delta, p.epsilon, p.gamma, p.chi)
        self.hard = []
        for e in self.HARD_EPSILONS:
            for d in self.HARD_DELTAS:
                params = ModelParams(float(d), self.HARD_CHI, e, self.HARD_GAMMA)
                exact = refs.exact_response(d, e, self.HARD_GAMMA, self.HARD_CHI)
                self.hard.append((_hard_name(d, e), params, exact))

    def steps(self):
        return [self.truncation_ladder, self.spectra, self.hard_regime]

    def _state_op(self, name, rho, exact, gaps):
        op = Op(name, checks.density_matrix(rho, label=name), known_fault=name in self.KNOWN_FAULTS)
        a = mean_a(rho)
        op.problems += checks.response_gap(a, exact, label=f"{name} <a>")
        gaps.append(abs(a - exact))
        return op

    def _solve(self, dim):
        return lindblad.steady_state(lindblad.build_superoperator(self.POINT_C, dim))

    def _spectrum(self, dim):
        spec = lindblad.low_lying_spectrum(lindblad.build_superoperator(self.POINT_C, dim))
        return spec, lindblad.metastable_extremes(spec.eigenmatrices[0], spec.eigenmatrices[1])

    def truncation_ladder(self, ctx):
        ops, seconds, gaps = [], 0.0, []
        for dim in self.LADDER_DIMS:
            name = f"point C dim={dim}"
            rho, exc, dt = ctx.clock.call(self._solve, dim)
            seconds += dt
            if exc is not None:
                ops.append(Op(name, _raised(exc)))
            else:
                ops.append(self._state_op(name, rho, self.point_c, gaps))
        return Step("truncation_ladder_s", seconds, ops, _gap(gaps))

    def spectra(self, ctx):
        ops, seconds, first = [], 0.0, None
        for dim in self.SPECTRUM_DIMS:
            op = Op(f"spectrum dim={dim}")
            out, exc, dt = ctx.clock.call(self._spectrum, dim)
            seconds += dt
            if exc is not None:
                op.problems = _raised(exc)
            else:
                spec, pair = out
                op.problems = checks.decay_spectrum(spec.eigenvalues)
                op.problems += checks.density_matrix(spec.eigenmatrices[0], "stationary mode")
                op.problems += checks.metastable_pair(
                    pair.beta_minus, pair.beta_plus, pair.mixing_fraction
                )
                for label, rho in (("rho+", pair.rho_plus), ("rho-", pair.rho_minus)):
                    op.problems += checks.density_matrix(rho, label, checks.BOUNDARY_PSD_FLOOR)
                if first is None:
                    first = (dim, spec.eigenvalues)
                else:
                    op.problems += checks.same_slow_eigenvalues(
                        first[1], spec.eigenvalues, f"dim {dim} vs dim {first[0]}"
                    )
            ops.append(op)
        return Step("spectrum_s", seconds, ops)

    def hard_regime(self, ctx):
        ops, seconds, gaps = [], 0.0, []
        for name, params, exact in self.hard:
            out, exc, dt = ctx.clock.call(lindblad.solve_steady_state_adaptive, params)
            seconds += dt
            if exc is not None:
                ops.append(Op(name, _raised(exc), known_fault=name in self.KNOWN_FAULTS))
            else:
                ops.append(self._state_op(name, out[0], exact, gaps))
        return Step("hard_regime_s", seconds, ops, _gap(gaps))


WORKLOADS = {w.name: w for w in (Lineshape, ReadmeCli, LargeTruncation)}
