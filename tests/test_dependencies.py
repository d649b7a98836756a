"""numpy is the only runtime dependency: importing every regtail module and
running a small large-n scan loads no third-party module that importing
numpy alone does not load.

A third-party module here is a top-level module loaded from a file outside
the standard library. The Cython runtime modules that numpy's compiled
extensions register (cython_runtime, _cython_*) have no file and are part
of numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

THIRD_PARTY = """
import json, sys
def third_party():
    return sorted({name.partition(".")[0] for name, mod in sys.modules.items()
                   if getattr(mod, "__file__", None)}
                  - set(sys.stdlib_module_names) - {"__main__"})
"""

NUMPY_ONLY = THIRD_PARTY + """
import numpy
print(json.dumps(third_party()))
"""

REGTAIL_RUN = THIRD_PARTY + """
import contextlib, importlib, io, pkgutil
import regtail
for info in pkgutil.iter_modules(regtail.__path__):
    importlib.import_module("regtail." + info.name)
from regtail.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(["scan", "--pattern", "k3", "--n", "400", "--kmax", "3",
               "--samples", "300", "--format", "csv"])
assert rc == 0 and out.getvalue().startswith("k,n,p,")
print(json.dumps(third_party()))
"""


def _loaded(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(run.stdout))


def test_numpy_is_the_only_runtime_dependency():
    numpy_only = _loaded(NUMPY_ONLY)
    assert "numpy" in numpy_only
    assert _loaded(REGTAIL_RUN) - numpy_only == {"regtail"}
