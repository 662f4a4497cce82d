"""dqseq benchmark: closed-loop training, decoding and checkpoint workloads.

    python3 bench/run.py --workload ladder-train --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run from the root of a dqseq checkout; the package is imported from its
``src/``. One process runs one workload, so ``ru_maxrss`` is that workload's
peak. ``--trace 1`` records spans around the calls into each layer, writes
them under ``.bench_out/`` and prints the per-layer metrics instead of the
end-to-end ones. ``--workload all`` runs every workload, each in a child
process, and prints a summary.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it give the machine, each figure by name with its
unit and sample count, and the output checks.
"""

import os

# One BLAS thread in every workload process, set before numpy loads:
# single-threaded OpenBLAS was 5-10% faster at these shapes on a 2-CPU
# machine, and one client on one thread keeps the load within the cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ladder-train", "decode-2-2-8", "ckpt-2-2-8")


def _import_dqseq():
    """Import dqseq from this checkout's src/, never from anywhere else."""
    if not (SRC / "dqseq" / "__init__.py").is_file():
        sys.exit(f"error: no dqseq sources at {SRC}; run from a dqseq checkout")
    sys.path.insert(0, str(SRC))
    import dqseq

    if Path(dqseq.__file__).resolve().parent != (SRC / "dqseq").resolve():
        sys.exit(f"error: imported dqseq from {dqseq.__file__}, not {SRC}")


def _blas_threads() -> str:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return str(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def machine_block() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "blas_threads_why": "pinned to 1: 5-10% faster than the default at these "
                            "shapes, and keeps one client within the CPUs",
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import workloads as W
    from tracing import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        res = W.WORKLOADS[workload](seed, seconds, W.SIZES[size], tracer, trace, str(OUT_DIR))
    finally:
        tracer.uninstall()
    figs = W.figures(res)
    units = W.FIGURE_UNITS
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}  size {size}")
    for name, (value, n) in figs.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<9} n={n}")
    for name, ok in res.checks.items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    print(f"  failed/attempted: {res.failed}/{res.attempted}")
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "figures": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in figs.items()},
        "op_slots": dict(zip(("op1", "op2"), W.OP_SLOTS[workload])),
        "checks": res.checks,
        "notes": res.notes,
    }
    if trace:
        layer = W.layer_metrics(res, tracer)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        for name, value in layer.items():
            print(f"  {name:<44} {value:>14.6g}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in W.layer_units().items()}
    else:
        e2e = W.end_to_end(res, figs)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in W.E2E_UNITS.items()}
    print("report " + json.dumps(report))
    return {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own child process, so each peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        report = json.loads(next(x for x in lines if x.startswith("report "))[7:])
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = m
        for name, f in report["figures"].items():
            total["metrics"].setdefault(f"{workload}/{name}", {"value": f["value"], "unit": f["unit"]})
    print("summary")
    for name, m in total["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  correct {total['correct']}  failed/attempted {total['failed']}/{total['attempted']}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every model for the self-test")
    args = ap.parse_args(argv)
    _import_dqseq()
    print("machine " + json.dumps(machine_block()))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
