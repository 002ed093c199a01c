import os
import subprocess
import sys
from pathlib import Path

import dqc1

# A fresh interpreter in which `import scipy` fails: the package, one command of
# each CLI subcommand and the separable decomposition must run on numpy alone.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import numpy as np
import dqc1
from dqc1.cli import main
from dqc1.state import build_state, separable_decomposition
for argv in (["negativity", "--family", "--n", "3"],
             ["sweep", "--nplus1", "4", "--samples", "2"],
             ["bounds", "--kind", "s12", "--two-n", "8"],
             ["trace", "--random", "--n", "3", "--epsilon", "0.3"],
             ["family-verify", "--n", "3"]):
    assert main(argv) == 0, argv
st = build_state(np.diag([1, 1j, -1, 1j]), 0.5)
rho = sum(w * np.outer(np.kron(a, e), np.kron(a, e).conj())
          for w, a, e in separable_decomposition(st))
assert np.max(np.abs(rho - st.rho)) <= 1e-12
"""


def test_runs_without_scipy():
    src = str(Path(dqc1.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
