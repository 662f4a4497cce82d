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
    "decode_times.py --batches 2": lambda out: "decode_step" in out["phase"],
    "ckpt_times.py --warmup 1 --reps 2": lambda out: out["phases_ms_median"]["pack"] > 0,
    "step_memory.py --warmup 1":
        lambda out: all(out[kind]["heap_peak_bytes"] > 0 for kind in ("teacher", "dq 2-2-8")),
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
        "checkpoint": "442137140ecef18836bb0786458f92df4b6d768d9782df769a23e66a79a0378c",
        "decode": "09af3be0e88f07181d95a8dd8e46be2ece28275ef78fa1be1a1e6f24ab6b00df",
        "load": "cb1daceb0cb5d608804d24f021851e86aae3cdb22118710a72df69bde8c7b5b5",
        "losses": "26e618a33debd67355d5066812dde112f44d0acafc01b5d34a82f91c831d20dc",
        "params": "aa9681efcbfeb5ff5d6aa65a636b0a79e3ca5f9ee322b03391f6316e86d8b452",
    },
    "dq 2-2-8/dropout=0.1": {
        "checkpoint": "1f8a8d08b8a4afc78ae153dac2c201979a45b7fc8dd3d4eeeac252dee9afaf41",
        "decode": "a41db33d3dafe88dbd724d2bdd1eeab89daad00494482e1f85034fd537a20613",
        "load": "9ec190bbd913c63304a0b47c9462af1546cd8f35aef3d4702e30274ac3213789",
        "losses": "02b408e8daebb01547c08333726ec51e3833f380efad5dc3d3d3f07ecb46d2ac",
        "params": "6ebda1b51d8638dca224ad5759e505ce400bb71b85c2261a23ca7e02ecedd692",
    },
    "dq 8-8-8/dropout=0.0": {
        "checkpoint": "3e684904b799209949e7b8dc2842fb65a72592b46a4756434e90fa92590f34c7",
        "decode": "6f84ddd8e60eb21359b14ab361bbdea0633fbef821520b04a0fe23ff3c612ca9",
        "load": "a162d1559ae188302cb815c9c55d7658c32455728e6f9f0c6bc187ea0264c2c2",
        "losses": "fc64af81ba395816fafa90ceedb26781454f78a23954896e8c33add13f200182",
        "params": "0c82468a7e68966c40794ec575e88ff06d52af028d9662dc68593206758ac18e",
    },
    "dq 8-8-8/dropout=0.1": {
        "checkpoint": "8b309a409d783a80b52b3ba6c2795df948d90151143651e0b6ecde2370c68eff",
        "decode": "0cf814049187345c07f2e8fb9eab77e3f871a7db30f4fc0a937fba8028d5e1a4",
        "load": "09fec14d1e13876762b9c43e7677c6c721d67e83bd41a2ee172ea49c7d57eaab",
        "losses": "299af83a13e03cced3a0496845833597bb58651e0bb2a75273e2d2ed68c0ea56",
        "params": "30731dae54c6bd4b4e27fc5a447c90d9effa61a3f1c592d157e49ad4bd2d477c",
    },
    "teacher/dropout=0.0": {
        "checkpoint": "5eb3d4788a89374fdf07190a2479310f5bc51777fbb802ee08ea4e925169ad2b",
        "decode": "8b2b12edbef2472a0f3c303c0a91ef0149e087282871201c53f96973c22b5155",
        "load": "83dfced427a8a218818ccee21d823ba5b09d68eda2f30f12ecc90952fe0a61a9",
        "losses": "8cf5dc91e85173c94e25c667db1aaeafb3ee56e5d47f902dbc3550b25da57f8b",
        "params": "83dfced427a8a218818ccee21d823ba5b09d68eda2f30f12ecc90952fe0a61a9",
    },
    "teacher/dropout=0.1": {
        "checkpoint": "c3b24f887b42694cd8bfa355dfa9db5b8456672bff1d4f2ac1625ce841d4acdf",
        "decode": "f11a73ef6865b1ffc7837b4ce6e94859557c4bf942245ebc387b8332944e1b54",
        "load": "6f1650acf6fb39d54e29dcbc1b9e7e6e1915f7968fc627f0c8dce89ea5ca8244",
        "losses": "dc2aa0cecd0f89c63346085c9277930446d7427d9cbcc2377c403207d3857a20",
        "params": "6f1650acf6fb39d54e29dcbc1b9e7e6e1915f7968fc627f0c8dce89ea5ca8244",
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
