"""Every exported name resolves, so a deletion leaves no stale export behind."""

import importlib
import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "name", ["mcvar", "mcvar.closure", "mcvar.estimation", "mcvar.linalg", "mcvar.margins",
             "mcvar.varprocess"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_import_mcvar_loads_neither_scipy_optimize_nor_scipy_stats():
    # every fit runs the package's own optimiser, so neither importing the
    # package and its commands nor fitting a skew-t margin loads either module
    code = ("import sys, numpy as np, mcvar, mcvar.cli; "
            "from mcvar.margins import fit_margin; "
            "from mcvar.varprocess import seeded_normals; "
            "fit = fit_margin(np.sinh(seeded_normals(3, 500)), 'skewt'); "
            "assert fit.converged; "
            "print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
