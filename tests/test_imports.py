"""Which scipy modules each route loads, each case in a fresh interpreter.

``import duffspec`` imports no submodule; a public name loads its
submodule on first use.  The closed-form and series routes need numpy
alone, and so does the Fano fit, whose Levenberg-Marquardt search is
numpy code.  The Lindblad steady states and the undriven eigenpair check
are numpy code too, so the numeric sweep loads no scipy.sparse; only the
decay spectrum loads scipy's sparse and dense linear algebra, and no
route loads scipy.optimize.  The process pool loads only for a sweep with more than
one worker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

README_LINE_SCAN = (
    "--method closed-form --gamma 0.01 --chi 1 --delta-range=-1.08:-0.92:801 --scan epsilon=0.012"
)
README_SWEEP = "--method both --gamma 2 --chi 1 --delta-range=-8:-2:61 --epsilon-range=0.5:4:8"
README_POINT_C = (
    "--point delta=-5.2,epsilon=3.2 --gamma 2 --chi 1 "
    "--analyze entropy,spectrum,metastable,mixing-curve,wigner"
)
README_FANO = "--point delta=-1,epsilon=0.012 --gamma 0.01 --chi 1 --analyze fano"


def modules_after(code, cwd, package="scipy"):
    """The modules of ``package`` loaded once ``code`` has run in a fresh interpreter."""
    probe = (
        code
        + "\nimport json, sys\n"
        + f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def cli_runs(*commands):
    """Code that runs each README command line through cli.main, in order."""
    lines = ["from duffspec.cli import main"]
    for k, command in enumerate(commands):
        argv = command.split() + ["--out-dir", f"run{k}"]
        lines.append(f"assert main({argv!r}) == 0")
    return "\n".join(lines)


def under(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_import_duffspec_loads_no_scipy(tmp_path):
    assert modules_after("import duffspec", tmp_path) == []


def test_closed_form_and_series_routes_load_no_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from duffspec import ModelParams, dw_response_grid, onset_scan, response_series\n"
        "dw_response_grid(np.array([-1.0, 0.0]), np.array([0.1, 0.2]), 1.0, 1.0)\n"
        "response_series(ModelParams(-1.0, 1.0, 0.1, 0.1))\n"
        "onset_scan(1, [0.01])\n"
    )
    assert modules_after(code, tmp_path) == []


def test_adaptive_steady_state_loads_no_scipy(tmp_path):
    code = (
        "from duffspec import ModelParams, solve_steady_state_adaptive\n"
        "rho, dim, residual = solve_steady_state_adaptive(ModelParams(-5.2, 1.0, 3.2, 2.0))\n"
        "assert dim == 18 and residual < 1e-10, (dim, residual)\n"
    )
    assert modules_after(code, tmp_path) == []


def test_verify_s0_eigenpair_loads_no_scipy(tmp_path):
    code = (
        "from duffspec import ModelParams, s0_eigenpair, verify_s0_eigenpair\n"
        "p = ModelParams(-5.2, 1.0, 0.0, 2.0)\n"
        "assert verify_s0_eigenpair(s0_eigenpair(2, 1, p, dim=20), p) < 1e-9\n"
    )
    assert modules_after(code, tmp_path) == []


def test_readme_line_scan_loads_no_scipy_linear_algebra(tmp_path):
    loaded = modules_after(cli_runs(README_LINE_SCAN), tmp_path)
    assert under(loaded, "scipy.sparse", "scipy.linalg", "scipy.optimize") == []
    assert (tmp_path / "run0" / "scan.csv").is_file()


def test_readme_sweep_loads_no_linear_algebra(tmp_path):
    loaded = modules_after(cli_runs(README_SWEEP), tmp_path)
    assert under(loaded, "scipy.sparse", "scipy.linalg", "scipy.optimize") == []
    assert (tmp_path / "run0" / "sweep.csv").is_file()


def test_readme_numeric_runs_load_no_optimizer(tmp_path):
    loaded = modules_after(cli_runs(README_SWEEP, README_POINT_C), tmp_path)
    assert under(loaded, "scipy.sparse")
    assert under(loaded, "scipy.optimize") == []


def test_serial_runs_load_no_process_pool(tmp_path):
    code = cli_runs(README_LINE_SCAN, README_SWEEP, README_POINT_C)
    assert "concurrent.futures.process" not in modules_after(code, tmp_path, "concurrent")


def test_parallel_sweep_loads_process_pool_and_matches_serial(tmp_path):
    code = cli_runs(README_SWEEP, README_SWEEP + " --workers 2")
    assert "concurrent.futures.process" in modules_after(code, tmp_path, "concurrent")
    serial, parallel = (tmp_path / f"run{k}" / "sweep.csv" for k in (0, 1))
    assert serial.read_bytes() == parallel.read_bytes()


def test_fano_fit_as_first_call(tmp_path):
    code = (
        "import numpy as np\n"
        "from duffspec import fano_fit\n"
        "x = np.linspace(-10.0, 10.0, 201)\n"
        "fit = fano_fit(-1.0 + 0.005 * x, 1.0 + 0.03 * (x - 0.97) ** 2 / (x**2 + 1.0))\n"
        "assert abs(fit.q - 0.97) < 1e-6 and abs(fit.width - 0.005) < 1e-8, fit\n"
    )
    loaded = modules_after(code, tmp_path)
    assert under(loaded, "scipy.optimize", "scipy.sparse", "scipy.linalg") == []


def test_readme_fano_point_loads_no_scipy_linear_algebra(tmp_path):
    loaded = modules_after(cli_runs(README_FANO), tmp_path)
    assert under(loaded, "scipy.optimize", "scipy.sparse", "scipy.linalg") == []
    manifest = json.loads((tmp_path / "run0" / "manifest.json").read_text())
    assert manifest["tasks"]["fano"]["status"] == "ok"
    assert (tmp_path / "run0" / "fano_line.csv").is_file()


def test_star_import_binds_the_submodule_objects(tmp_path):
    code = (
        "import sys\n"
        "import duffspec\n"
        "assert len(duffspec.__all__) == 46 and duffspec.__version__ == '0.1.0'\n"
        "assert set(duffspec.__all__) <= set(dir(duffspec))\n"
        "namespace = {}\n"
        "exec('from duffspec import *', namespace)\n"
        "for name in set(duffspec.__all__) - {'__version__'}:\n"
        "    value = namespace[name]\n"
        "    assert value.__module__.startswith('duffspec.'), name\n"
        "    assert vars(sys.modules[value.__module__])[name] is value, name\n"
        "    assert getattr(duffspec, name) is value, name\n"
        "try:\n"
        "    duffspec.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise AttributeError')\n"
    )
    modules_after(code, tmp_path)
