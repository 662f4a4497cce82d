"""The scripts under scripts/ run from a plain checkout, the probe the timing
scripts share restores what it patches, run_ladder.py writes every rung, and
step_hashes.py's digests stay frozen."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from dqseq import model
from dqseq.harness import RunManifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(*args: str) -> str:
    """A script's stdout, run from the checkout's root with no PYTHONPATH, as a user
    runs it; the script must find the package in the checkout's src/ on its own."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_footprint_table_runs_from_a_plain_checkout():
    out = _run_script("scripts/footprint_table.py")
    rows = [line.split() for line in out.splitlines()]
    assert ["2-2-8", "6-3", "32.50", "MiB", "16.37x"] in rows  # README's 16.5x point


def test_run_ladder_writes_every_rung(tmp_path):
    _run_script("scripts/run_ladder.py", "--out-dir", str(tmp_path),
                "--teacher-epochs", "1", "--student-epochs", "1")
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert len(lines) == 1 + 5
    rungs = sorted(p.stem for p in tmp_path.glob("*.json"))
    assert rungs == ["direct-2-2-8", "dq-2-2-8", "dq-2-2-8-half-depth", "dq-8-8-8", "teacher"]
    for rung in rungs:
        assert RunManifest.load(str(tmp_path / f"{rung}.json")).result
        assert (tmp_path / f"{rung}.log").stat().st_size > 0


# each timing script at a tiny size, and a table its JSON must fill
TIMING_SCRIPTS = {
    "op_times.py --warmup 1 --steps 2":
        lambda out: all("linear" in out[kind]["forward"] for kind in ("teacher", "dq 2-2-8")),
    "decode_times.py --batches 2": lambda out: {"encode", "decode_step"} <= set(out["phase"]),
    "ckpt_times.py --warmup 1 --reps 2": lambda out: out["phases_ms_median"]["pack"] > 0,
    "step_memory.py --warmup 1":
        lambda out: all(out[kind]["heap_peak_kb"] > 0 for kind in ("teacher", "dq 2-2-8")),
}


@pytest.mark.parametrize("command", TIMING_SCRIPTS)
def test_timing_script_runs_and_finds_every_name(command):
    script, *flags = command.split()
    out = json.loads(_run_script(f"scripts/{script}", *flags).splitlines()[-1])
    assert out["missing"] == [], f"names the probe no longer finds in dqseq: {out['missing']}"
    assert TIMING_SCRIPTS[command](out), out


def test_probe_reports_a_missing_name_and_restores_every_patch_on_an_exception(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe puts src/ and bench/ first
    spec = importlib.util.spec_from_file_location("probe", os.path.join(ROOT, "scripts/probe.py"))
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    before = dict(vars(model)), dict(vars(model.DecodeState))
    with pytest.raises(RuntimeError, match="inside the block"):
        with probe.Probe() as p:
            p.patch_ops((model,), lambda op, fn: p.timed("forward", op, fn))
            p.time(model, "decode_step", "phase")
            p.time(model, "no_such_name", "phase")
            p.time(model.DecodeState, "keep", "phase")
            assert model.decode_step is not before[0]["decode_step"]
            assert model.DecodeState.keep is not before[1]["keep"]
            raise RuntimeError("inside the block")
    assert p.missing == ["dqseq.model.no_such_name"]
    assert (dict(vars(model)), dict(vars(model.DecodeState))) == before


# scripts/step_hashes.py's digests: the parameters, per-step losses, decodes, saved file
# bytes and loaded weights of a fixed run at the acceptance ladder's shape
FROZEN_STEP_HASHES = {
    "dq 2-2-8/dropout=0.0": {
        "checkpoint": "502c40c73516c863538ebab1ccf15164be16fc9d672a78acbd9d0d0bafc9af1e",
        "decode": "56af85e8fb7916a6c8f2196246093171701636d945a3662ea52e39b8b6a6200b",
        "load": "b0339e03700d6df17eea493b957a17d598d0c19dc3208114cd6c4b4ae62814c5",
        "losses": "c0785f5d376cada8b5a9def6f1deb75287a155043b32e087ad2ddc2811e70255",
        "params": "e75148758cdc41b7cd477ead0f2543713df47b4635049963bfb37599a992dd2d",
    },
    "dq 2-2-8/dropout=0.1": {
        "checkpoint": "f2f494326faaf587e6343419d21c258b94fcc19a61952c664bdb3dc5e20458c9",
        "decode": "9b450b7b3ca0c6106095dde34d06ccf7545856439c5a267867903a4cb77ec641",
        "load": "b0afaad485a32bf458946e42ddd4d4259681422706d8aa95de7169b8543b63a9",
        "losses": "1c3ee1570c84529c8aa2d3cc95b4ba8ceb4423a6efb7c4677ba73a8dbf23cc24",
        "params": "c8e9a4f0ced22940574d45203e8797d9b8ed74b51dfc63af78bf4fc1722ff609",
    },
    "dq 8-8-8/dropout=0.0": {
        "checkpoint": "d2343959b82693e6f5cce8a6b53bd5ce9a18278d4fc3b3c68d66c3ae9eee753c",
        "decode": "6f84ddd8e60eb21359b14ab361bbdea0633fbef821520b04a0fe23ff3c612ca9",
        "load": "5b6079ea84b01d136562d0acd4abe8e3850fedb9193da2d44ab487c59cb9025a",
        "losses": "891c3fdb00f7d0d2be7af5931b68ee82358c177ad622f2dfee0e5963306186df",
        "params": "33f6f43de7e29ebcd95b88a579b18b121633e49a942bd19f8d4e155cf7d48d44",
    },
    "dq 8-8-8/dropout=0.1": {
        "checkpoint": "73a22a8d419f12dbe7d59094de81f32ba58a0cba6f2fe18b21bd6765d2885ab3",
        "decode": "4c190bc7f5c34110f91798891bc810c5f91d06a25087f6e63bcf3020735fb850",
        "load": "c25580a4d6243bf1c16111005cc1a4b9f9c9f6048f542089d49cee543a8f3ad8",
        "losses": "95b58138480fca7e0f931795b74a768717418fd1ba96fc474031345ec36b4218",
        "params": "4869ec91bdbc4299a668cb3364e40e5e8f5f4ad492fc5423c758cd57385a1296",
    },
    "teacher/dropout=0.0": {
        "checkpoint": "84243b0f694f5c69e3ee9aa639ecf3ec811be21c6f91291ee96b989398f3ea8a",
        "decode": "8b2b12edbef2472a0f3c303c0a91ef0149e087282871201c53f96973c22b5155",
        "load": "8983b3b5fa76455970e25356fe6c398a527312d2a732a500ec1d475c03ebe4bb",
        "losses": "d112995a7f5b8c790b8c7846951b3213cada1ce733bddf6fd5cd2c34971bd656",
        "params": "8983b3b5fa76455970e25356fe6c398a527312d2a732a500ec1d475c03ebe4bb",
    },
    "teacher/dropout=0.1": {
        "checkpoint": "aff747962c33cc50bb3f35bae8665a627605e8682b348bd5da4d4f25f8d3a269",
        "decode": "f11a73ef6865b1ffc7837b4ce6e94859557c4bf942245ebc387b8332944e1b54",
        "load": "2ee3770f405a08bdfd4cb492ac042a1128766eb9d0012631b879933ef8d8c6b5",
        "losses": "4505881940952b716671571d99f80cd6d7c9326331b54c934260eda8e3b2bd43",
        "params": "2ee3770f405a08bdfd4cb492ac042a1128766eb9d0012631b879933ef8d8c6b5",
    },
}


def test_step_hashes_are_frozen():
    got = json.loads(_run_script("scripts/step_hashes.py").splitlines()[-1])
    moved = sorted(f"{run} {field}" for run, row in FROZEN_STEP_HASHES.items()
                   for field, digest in row.items() if got.get(run, {}).get(field) != digest)
    assert not moved, (
        f"scripts/step_hashes.py digests moved: {moved}. They depend on the host's BLAS "
        "kernels (numpy's OpenBLAS build and CPU), so a host with another BLAS can differ "
        "with no change to dqseq; on the host they were recorded on, a moved digest means "
        "a change altered training, decoding or saved bytes. A deliberate bit change "
        "re-records them here and names each one in CHANGES.md."
    )
    assert set(got) == set(FROZEN_STEP_HASHES)
