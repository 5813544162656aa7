"""Golden outputs: sha256 digests of transcripts and Monte Carlo results.

The digests pin the exact bytes of ``Transcript.to_json()``, of
``json.dumps(monte_carlo(...), sort_keys=True)`` and of CLI stdout, so a
refactor of the hashing, protocol or solver layers that changes any drawn
value, any decision or any printed float shows up here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdckit
from pdckit.cli import main
from pdckit.dists import convolve, depolarizing
from pdckit.gf import FieldVec
from pdckit.protocol import (AdversaryMode, ProtocolConfig, monte_carlo,
                             run_protocol1, run_protocol3)
from pdckit.wiretap import identity_code, repetition_code


def _config(name: str, master_seed: int) -> ProtocolConfig:
    if name == "p2-repetition":
        P = depolarizing(0.05, 2)
        return ProtocolConfig(p=2, n=8, n1=4, n2=1, n3=2, P=P, P_tilde=P,
                              code=repetition_code(2, 4, 4, convolve(P, P)),
                              master_seed=master_seed)
    if name == "p3-identity":
        P = depolarizing(0.1, 3)
        return ProtocolConfig(p=3, n=3, n1=6, n2=2, n3=2, P=P, P_tilde=P,
                              code=identity_code(3, 3), master_seed=master_seed)
    if name == "readme-simulate":
        # the simulate config from the README
        P = depolarizing(0.05, 2)
        return ProtocolConfig(p=2, n=8, n1=4, n2=1, n3=2, P=P, P_tilde=P,
                              code=repetition_code(2, 4, 4, convolve(P, P)),
                              master_seed=7)
    if name == "p2-identity":
        P = depolarizing(0.02, 2)
        return ProtocolConfig(p=2, n=6, n1=12, n2=3, n3=4, P=P, P_tilde=P,
                              code=identity_code(2, 6), master_seed=master_seed)
    if name == "p2-identity-n256":
        # the mc_hash benchmark shape: long Toeplitz hashes (192 x 320, 64 x 128)
        P = depolarizing(1e-3, 2)
        return ProtocolConfig(p=2, n=256, n1=512, n2=128, n3=64, P=P, P_tilde=P,
                              code=identity_code(2, 256), master_seed=master_seed)
    raise KeyError(name)


def _adversary(kind: str, p: int) -> AdversaryMode:
    def shift_some(x_hat, rng):
        # a custom rule, called once per received word
        return (x_hat + (rng.random(x_hat.shape) < 0.3)) % p

    return {"none": AdversaryMode.none(), "tamper": AdversaryMode.tamper(),
            "tamper_fn": AdversaryMode.tamper(shift_some),
            "intercept": AdversaryMode.intercept()}[kind]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the ten transcripts (master seeds 0..9) joined by newlines
TRANSCRIPT_DIGESTS = {
    "p2-repetition/run_protocol1/none":
        "0cf05754fa76a173dd59069fc67587adeb14a673fd64bb4a2bcbbb80bef84741",
    "p2-repetition/run_protocol1/tamper":
        "e3d207edf05aae1841b576b36eb6b40cbb9fcbb7d8e03980dc4c39753c2d4265",
    "p2-repetition/run_protocol1/tamper_fn":
        "1f9d3140c8b47f58de770f0858918b921e723dd1ae6f0407517861af3ff5aff9",
    "p2-repetition/run_protocol1/intercept":
        "f50e06fcce9407e67032f19825ceb94c2c9f8fd927e9e83101bbb6d7e05dd20d",
    "p2-repetition/run_protocol3/none":
        "5aa6a21f3fba80832eeefdc5b835a35bab12a47337b1c815a17e884fe559ccae",
    "p2-repetition/run_protocol3/tamper":
        "85e78a4e2ea865b47758a3a0f510d48218aa33d46921e1bc834535d9691561ff",
    "p2-repetition/run_protocol3/tamper_fn":
        "3d98234e305e6a00823c8c6658bd6124e020f2c2a7fc387f9c52a757bbb239ad",
    "p2-repetition/run_protocol3/intercept":
        "f373c742423d7f834fcf900acb1b008818fcc557888a81c3bb4561192c389b4a",
    "p2-identity-n256/run_protocol1/none":
        "a6f6431ea264ca357fd8e32de05dd99a1df54693fa6356851a6d48a457401283",
    "p3-identity/run_protocol1/none":
        "b1f681903990d6ac2e9b98248c99244dd03744d438991c18382623794489b909",
    "p3-identity/run_protocol1/tamper":
        "255eb6d2d7d4e06a54bca904cf4a365012fc830eb70fc4830c11f10ab8c141ab",
    "p3-identity/run_protocol1/tamper_fn":
        "a6604b3e4ea89f38ae7d875bb1bfc0074652ce8bc12e09cdc6b8f6473271829e",
    "p3-identity/run_protocol1/intercept":
        "6b786d2debc390806adafb01f71b6d10ee48d57c39ecfdc1654690905e41d795",
    "p3-identity/run_protocol3/none":
        "59398f38de84e5bb624bcc2ec2559e3bac26766a253b2e50317c47eb59f0a64f",
    "p3-identity/run_protocol3/tamper":
        "e47508cca83aebf9af9ea4e36b85a07467972e72a9f10e68333ed55d8c0371b6",
    "p3-identity/run_protocol3/tamper_fn":
        "eca9c5156a797e32adbb56d78f57d21506ead0bf6dff6cc91f5f5d50e26261fd",
    "p3-identity/run_protocol3/intercept":
        "e1d2d08264146820dd9e2a2c16ac2edbe9c3928a2175025f0010287774a8d83b",
}

# sha256 of json.dumps(monte_carlo(config, trials, adversary), sort_keys=True)
MC_DIGESTS = {
    "readme-simulate/10000/none":
        "9b95b7f94416c9b5c27d159549ed92ff0907e5fc455124c35088cdb669d5bd7b",
    "readme-simulate/10000/tamper":
        "b4006c851af113601853741072273b6064a10e3adf3aef8ae8cc051374836084",
    "readme-simulate/10000/tamper_fn":
        "454b1e1df1aeefc7dde9f1e8d91c8e5b1062bc5176e64fc39aac93fba2aa6553",
    "p2-identity-n256/250/none":
        "97390981a52bc098f463bfa21d12b17865885e24bd9da89e6a3d22e7313c726c",
    "p2-identity-n256/250/tamper":
        "b28ef23dfec97ad65ee38e4b9911adda3b1516cd93e400060535919e2b2ca2ec",
    "p2-identity/2000/none":
        "de83f824e4d76a389e7325570a4248f845a1d0e4077b0a32e73a9cb677ca07a4",
    "p2-identity/2000/tamper":
        "0da24608604b4f634e59e1f4a12913a10c2f87ad6c43de49574bea9c565864b6",
    "p2-identity/2000/tamper_fn":
        "dcb725c609c4eafada29dbfe06c7c95f8a7f529f2f1218c8804da5af5b1b5d2a",
}


@pytest.mark.parametrize("key", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_bytes_pinned(key):
    name, runner, kind = key.split("/")
    run = {"run_protocol1": run_protocol1, "run_protocol3": run_protocol3}[runner]
    lines = []
    for master_seed in range(10):
        cfg = _config(name, master_seed)
        msg = FieldVec([(master_seed + j) % cfg.p for j in range(cfg.n2)], cfg.p)
        lines.append(run(cfg, msg, _adversary(kind, cfg.p)).to_json())
    assert _digest("\n".join(lines)) == TRANSCRIPT_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(MC_DIGESTS))
def test_monte_carlo_bytes_pinned(key):
    name, trials, kind = key.split("/")
    cfg = _config(name, 11)
    stats = monte_carlo(cfg, int(trials), _adversary(kind, cfg.p))
    assert _digest(json.dumps(stats, sort_keys=True)) == MC_DIGESTS[key]


def test_pinned_cases_cover_every_mode():
    kinds = {key.split("/")[2] for key in TRANSCRIPT_DIGESTS}
    runners = {key.split("/")[1] for key in TRANSCRIPT_DIGESTS}
    assert kinds == {"none", "tamper", "tamper_fn", "intercept"}
    assert runners == {"run_protocol1", "run_protocol3"}
    assert {key.split("/")[2] for key in MC_DIGESTS} == {"none", "tamper", "tamper_fn"}


# sha256 of the stdout of ``pdckit <argv>``
CLI_DIGESTS = {
    # quantum-Eve leakage: exact enumeration and the closed-form bound
    "leakage --n 1 --n2 1 --n3 0 --code identity --eve quantum:0.25":
        "c5b0ae775152968190f0aa368c1e532ca37aaa79a0ed98eeb8026f47c74de43c",
    # the F_p x F_p kernels (convolve, reconstruct) and the bound inversions
    "finite --p 2 --mix 0.05 --n-grid 1000,10000,100000,1000000 "
    "--eps-c 0.2 --eps-e 1e-9 --eps-b 1e-9":
        "b564be3be58acaa72251d156ea1ac2bd271ac29edccf13823f5b891183c2658b",
    "estimate --p 2 --mix 0.05 --shots 10000 --seed 1":
        "8b985ef15c4a58c91667fed5a1264267453f2af913efc4953add6b3960f77fba",
    "rates --p 31 --mix-grid 0:0.25:0.0125":
        "32718cc25984befd0a7904ff936012c11d0a55064e947cf999e838b7f9a56fe3",
    "finite --p 31 --mix 0.05 --n-grid 1000,10000,100000,1000000":
        "449f56735f721feed069580b9e5b9eddd341ccd3f8e2d23dd3a46dd386a0085b",
    "estimate --p 31 --mix 0.05 --shots 10000 --seed 1":
        "f63c1ec31c724e3c6997b41cb9648aeacbc6de89301ef5cb9a628f9b2523841a",
    # classical Eve: the Sibson closed form of theorem1_bound
    "leakage --n 1 --n2 1 --n3 0 --code identity --eve additive:0.1":
        "0976b81c5c8871eff4c5c6449ad2d03b002f2207135c23bc3701704df9359a24",
    # the CSV and JSON table writers, with one infeasible (NaN) row at n = 10
    "finite --p 2 --mix 0.05 --n-grid 10,1000 --format json":
        "0ff0e5ce596ffb953de2b641285a0fb30416fa5c1468baf175160b48c721fe3a",
    "finite --p 2 --mix 0.05 --n-grid 10,1000":
        "9ce6f489137d64e22df75bf457b91e716e3f0241a415d1e55880796a88893bfa",
    "rates --p 2 --mix-grid 0:0.25:0.0025 --format json":
        "13ebb984b45f45d97907ef6dc94070f460643a0e4fd4da4de885de71f99602f8",
    "rates --p 2 --mix-grid 0:0.25:0.0025":
        "77bddd1cd879b670d54bfada6ea2b0b8bb247a8d208aacc4fcec8e4417188cea",
}

# Outputs whose printed residuals sit at rounding level (1e-14), so their
# low digits follow the BLAS summation order, which changes with the BLAS
# thread count.  They are pinned in a child process with one BLAS thread.
CLI_DIGESTS_ONE_THREAD = {
    # the digest the benchmark's short_calls workload checks
    "verify-identities --p 2 --count 5 --seed 0":
        "03669c288d8d256b34c5184649cdc82eee718b97f0a0c757c88936be19119715",
    # the 27-dim trace_first (conditional-entropy) solve at p = 3
    "verify-identities --p 3 --count 2 --seed 0":
        "df59243d14ba2b7e231578bc8dc049f3d7bce01b237797e5a0438e2d48a9ccdc",
}


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_stdout_pinned(argv, capsys):
    assert main(argv.split()) == 0
    assert _digest(capsys.readouterr().out) == CLI_DIGESTS[argv]


def _one_blas_thread_env() -> dict:
    src = str(Path(pdckit.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS_ONE_THREAD))
def test_cli_stdout_pinned_one_blas_thread(argv):
    run = subprocess.run([sys.executable, "-m", "pdckit.cli", *argv.split()],
                         env=_one_blas_thread_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    assert _digest(run.stdout) == CLI_DIGESTS_ONE_THREAD[argv]


def test_verify_identities_refuses_p101_before_allocating():
    # each per-label Bell state was a 1.55 GiB Kronecker product made before
    # the dimension check: under a 1.5 GB address-space limit that ended in a
    # memory-error traceback with exit 1, the failed-identity code
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    run = subprocess.run([sys.executable, "-m", "pdckit.cli", "verify-identities",
                          "--p", "101", "--count", "1"], env=_one_blas_thread_env(),
                         preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert run.returncode == 4
    assert run.stdout == ""
    assert run.stderr.startswith("size cap exceeded:") and run.stderr.count("\n") == 1


# Commands that load no scipy module: every command but verify-identities,
# whose solver needs scipy's optimizers and dense linear algebra.
NO_SCIPY_ARGV = [
    "rates --p 2 --mix-grid 0:0.25:0.0025",
    "estimate --p 2 --mix 0.05 --shots 10000 --seed 1",
    "leakage --n 1 --n2 1 --n3 0 --code identity --eve quantum:0.25",
    "finite --p 2 --mix 0.05 --n-grid 1000,10000,100000,1000000 "
    "--eps-c 0.2 --eps-e 1e-9 --eps-b 1e-9",
    "finite --p 31 --mix 0.05 --n-grid 1000,10000,100000,1000000",
]

# the README simulate invocation and the sha256 of its stdout
README_SIMULATE_CONFIG = {"p": 2, "n": 8, "n1": 4, "n2": 1, "n3": 2,
                          "mix_bob_to_alice": 0.05, "mix_alice_to_bob": 0.05,
                          "code": "repetition:4", "seed": 7}
README_SIMULATE = ("simulate --config {config} --trials 10000 --adversary tamper",
                   "89bcc4aa9b91a289f2c29f636a40b6f10259e6a44850d075056635d40513f4ff")

# sha256 of the stdout of the README simulate invocation with --format csv,
# by adversary; intercept leaves the ecc_block_error_rate column empty
README_SIMULATE_CSV = {
    "tamper": "5aee02e423cea2d8241b34d8601a5fa8edca9808bc4446842aa1cd92b6b27cf0",
    "none": "b8f2eb19692c9c28256d846547fc1c4d9cf11b3810413a5e10b27b002de3d4cb",
    "intercept": "8c763bda0139f9dff853c5ebed9255b6525a10903c2e9aa112456c17d0f6b219",
}


@pytest.mark.parametrize("mode", sorted(README_SIMULATE_CSV))
def test_simulate_csv_stdout_pinned(mode, tmp_path, capsys):
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps(README_SIMULATE_CONFIG))
    argv = f"simulate --config {config} --trials 10000 --adversary {mode} --format csv"
    assert main(argv.split()) == 0
    assert _digest(capsys.readouterr().out) == README_SIMULATE_CSV[mode]

# Imports every pdckit module, runs the given commands and the
# verification-variable comparison, and prints which scipy modules were
# loaded before and after.
_FOOTPRINT_SCRIPT = """
import contextlib, hashlib, importlib, io, json, pkgutil, sys
import numpy
import pdckit
for info in pkgutil.iter_modules(pdckit.__path__):
    importlib.import_module("pdckit." + info.name)
from pdckit.cli import main
from pdckit.protocol import lnm_check

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    return [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]

report = {"after_import": scipy_modules()}
report["runs"] = {argv: run(argv) for argv in json.loads(sys.argv[1])}
lnm_check(2, 1, 1, numpy.eye(4))
report["after_runs"] = scipy_modules()
print(json.dumps(report))
"""


def test_cold_start_defers_scipy(tmp_path):
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps(README_SIMULATE_CONFIG))
    want = {argv: [0, CLI_DIGESTS[argv]] for argv in NO_SCIPY_ARGV}
    want[README_SIMULATE[0].format(config=config)] = [0, README_SIMULATE[1]]
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, json.dumps(list(want))],
                         env=_one_blas_thread_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    report = json.loads(run.stdout)
    assert report["after_import"] == []
    assert report["runs"] == want
    # the bound refinement runs scipy's bounded Brent steps without scipy
    assert report["after_runs"] == []
