"""What the timing scripts share: their set-up, a patch-and-restore probe and its timer.

Importing this module pins BLAS to one thread, as the benchmark runs, and
puts the checkout's ``src/`` and ``bench/`` on ``sys.path``, so a script run
from the checkout's root finds ``dqseq`` and the benchmark's workloads with no
PYTHONPATH. A script imports it before numpy.

A ``Probe`` is a with-block. Inside it, ``patch`` replaces a module-level name
(or a class attribute) with a wrapper of it, and every patch is put back when
the block exits, an exception included. A name that does not exist is added
to ``missing`` and left alone, so a rename in ``src/`` shows in a script's
JSON instead of stopping it. ``timed`` keeps, per (table, name), the
inclusive ns, the self ns (less the timed calls made inside) and the calls.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]

from dqseq import tensor  # noqa: E402

NOT_OPS = {"active_tape", "backward", "no_grad", "set_nan_checks"}  # public, not tape ops

now = time.perf_counter_ns


class Probe:
    def __init__(self):
        self.rows = defaultdict(lambda: [0, 0, 0])  # (table, name) -> [incl ns, self ns, calls]
        self.missing: list[str] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patch(self, owner, attr: str, wrap) -> None:
        """Set owner.attr to wrap(owner.attr) until the block exits."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def before(self, owner, attr: str, hook) -> None:
        """Call hook(*args, **kwargs) ahead of each call of owner.attr."""
        def wrap(fn):
            def wrapper(*args, **kwargs):
                hook(*args, **kwargs)
                return fn(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, wrap)

    def time(self, owner, attr: str, table: str, name: str | None = None) -> None:
        self.patch(owner, attr, lambda fn: self.timed(table, name or attr, fn))

    def patch_ops(self, modules, wrap) -> None:
        """Set each tensor op, as each module resolves it, to wrap(op name, op)."""
        ops = {fn: name for name, fn in vars(tensor).items()
               if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
               and not name.startswith("_") and name not in NOT_OPS}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in ops:
                    self.patch(mod, attr, lambda f, op=ops[fn]: wrap(op, f))

    def timed(self, table: str, name: str, fn):
        """fn, timed into the row (table, name); call it from one thread, since the
        self times of nested calls share one stack."""
        row = self.rows[(table, name)]
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = now() - t0
                inner = stack.pop()
                row[0] += ns
                row[1] += ns - inner
                row[2] += 1
                if stack:
                    stack[-1] += ns

        return wrapper

    def table(self, name: str, per: int) -> dict[str, dict[str, float]]:
        """The table's ms, self ms and calls per step (per = steps run)."""
        return {op: {"ms": round(incl / 1e6 / per, 4), "self_ms": round(own / 1e6 / per, 4),
                     "calls": calls / per}
                for (tab, op), (incl, own, calls) in sorted(self.rows.items())
                if tab == name and calls}

    def reset(self) -> None:
        for row in self.rows.values():
            row[:] = [0, 0, 0]
