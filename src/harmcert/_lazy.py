"""numpy, executed on first use.

Where numpy is already imported, ``np`` is that module.  Otherwise ``np``
is registered as ``sys.modules["numpy"]`` through importlib's LazyLoader:
the first attribute access executes numpy once and turns ``np`` into the
plain module, so later accesses cost nothing extra.  The calls that never
touch ``np.<anything>`` (catalog files, the z = 1 exit, rejected input)
finish without loading numpy.  Nothing in harmcert may use ``np`` at
import time.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
