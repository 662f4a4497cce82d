"""Self-test of the benchmark at tiny model sizes (about a minute).

    python3 bench/selftest.py

Runs every workload untraced at two seeds and traced at one, plus
``--workload all``, and asserts that each run prints every metric of
BENCHMARK.json with its unit, that the workloads together print every
end-to-end figure by name, and that a second seed gives the same names and
checks. It then flips one packed code byte in a saved checkpoint and asserts
that the checkpoint check catches it, and that the benchmark refuses to run
without the dqseq sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads as W  # noqa: E402
from dqseq import checkpoint, quantizer  # noqa: E402
from dqseq.model import init_model, param_specs  # noqa: E402
from dqseq.trainer import CheckpointMeta, TrainConfig  # noqa: E402


def run(*args: str) -> tuple[dict, list[str]]:
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, f"{args} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def report_of(lines: list[str]) -> dict:
    return json.loads(next(line for line in lines if line.startswith("report "))[7:])


def check_result(result: dict, expected: dict[str, str], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert set(result["metrics"]) == set(expected), (
        f"{what}: metric names differ: {set(result['metrics']) ^ set(expected)}")
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name], f"{what}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)), f"{what}: {name}"


def test_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == W.E2E_UNITS and layer == W.layer_units(), "BENCHMARK.json is out of date"
    figures: dict[str, str] = {}
    for w in spec["workloads"]:
        name = w["name"]
        checks = None
        for seed in ("3", "4"):
            result, lines = run("--workload", name, "--seed", seed, "--seconds", "0.5",
                                "--trace", "0", "--size", "tiny")
            check_result(result, e2e, f"{name} seed {seed}")
            rep = report_of(lines)
            assert checks is None or set(rep["checks"]) == checks, f"{name}: checks differ by seed"
            checks = set(rep["checks"])
            figures.update({k: f["unit"] for k, f in rep["figures"].items()})
        result, lines = run("--workload", name, "--seed", "3", "--seconds", "0.5",
                            "--trace", "1", "--size", "tiny")
        check_result(result, layer, f"{name} traced")
        assert (ROOT / report_of(lines)["spans_file"]).is_file(), f"{name}: no spans file"
        print(f"ok  {name}")
    missing = {k: u for k, u in W.FIGURE_UNITS.items() if figures.get(k) != u}
    assert not missing, f"figures not printed with their units: {missing}"
    result, _ = run("--workload", "all", "--seed", "5", "--seconds", "0.5",
                    "--trace", "0", "--size", "tiny")
    assert result["correct"] and result["failed"] == 0, result
    printed = {k.split("/", 1)[1]: m["unit"] for k, m in result["metrics"].items()}
    missing = {k: u for k, u in W.FIGURE_UNITS.items() if printed.get(k) != u}
    assert not missing, f"--workload all does not print: {missing}"
    print("ok  all")


def _code_offset(blob: bytes, name: str) -> int:
    """Offset of the first packed code byte of quantized tensor ``name``."""
    encoded = name.encode()
    pos = blob.index(len(encoded).to_bytes(8, "little") + encoded) + 8 + len(encoded)
    rank = int.from_bytes(blob[pos : pos + 8], "little")
    pos += 8 + 8 * rank
    assert blob[pos] == checkpoint.TAG_QUANTIZED
    n_scales = int.from_bytes(blob[pos + 3 : pos + 11], "little")
    return pos + 11 + 4 * n_scales


def test_flipped_code_byte() -> None:
    cfg = W.SIZES["tiny"].ckpt
    master = init_model(cfg, 0)
    categories = {n: c for n, _, c in param_specs(cfg)}
    saved = quantizer.quantize_params(master.params, categories, W.Q228)
    meta = CheckpointMeta(cfg, W.Q228, None, TrainConfig("dq"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "model.dqs")
        checkpoint.save_checkpoint(path, saved, meta)
        loaded, _ = checkpoint.load_model(path)
        assert W.check_loaded(saved, loaded.params) == []
        assert W.check_codes(saved, checkpoint.load_checkpoint(path)[0]) == []
        blob = bytearray(Path(path).read_bytes())
        blob[_code_offset(bytes(blob), "enc.0.ffn.w1")] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        loaded, _ = checkpoint.load_model(path)
        assert W.check_loaded(saved, loaded.params) == ["enc.0.ffn.w1"]
        assert W.check_codes(saved, checkpoint.load_checkpoint(path)[0]) == ["enc.0.ffn.w1"]
    print("ok  flipped code byte is caught")


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                               "ladder-train", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=tmp, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_flipped_code_byte()
    test_refuses_without_sources()
    test_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
