import csv
import io
import json

import pytest

from pdckit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------
# rates
# ---------------------------------------------------------------

def test_rates_csv(capsys):
    code, out = run_cli(capsys, "rates", "--p", "2", "--mix-grid", "0:0.25:0.0025")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["mix_p"] == "0"
    assert float(rows[0]["R"]) == 2.0
    # the rate curve crosses zero inside the expected window
    signs = [(float(r["mix_p"]), float(r["R"])) for r in rows]
    crossing = [m for (m, v), (m2, v2) in zip(signs, signs[1:]) if v > 0 >= v2]
    assert len(crossing) == 1
    assert 0.17 <= crossing[0] <= 0.19


def test_rates_deterministic(capsys):
    _, out1 = run_cli(capsys, "rates", "--mix-grid", "0:0.2:0.02")
    _, out2 = run_cli(capsys, "rates", "--mix-grid", "0:0.2:0.02")
    assert out1 == out2


def test_rates_json(capsys):
    code, out = run_cli(capsys, "rates", "--mix-grid", "0:0.1:0.05",
                        "--format", "json")
    payload = json.loads(out)
    assert payload[0]["R"] == 2.0
    assert code == 0


def test_rates_bad_grid(capsys):
    code, _ = run_cli(capsys, "rates", "--mix-grid", "nonsense")
    assert code == 2


def test_rates_mix_tilde_override(capsys):
    _, out = run_cli(capsys, "rates", "--mix-grid", "0:0.1:0.1",
                     "--mix-tilde", "0.0")
    rows = list(csv.DictReader(io.StringIO(out)))
    # forward leg noiseless: R1 = 2 - H(P * delta) = 2 - H(P)
    r1 = float(rows[1]["R1"])
    r2 = float(rows[1]["R2"])
    assert abs(r1 - (2.0 - r2)) < 1e-9


# ---------------------------------------------------------------
# finite
# ---------------------------------------------------------------

def test_finite_rows(capsys):
    code, out = run_cli(capsys, "finite", "--mix", "0.05",
                        "--n-grid", "1000,10000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    r3 = [float(r["R3"]) for r in rows]
    assert r3[0] > r3[1]  # m3 constant, so R3 = m3/n decreases


def test_finite_long_block_is_silent(capsys):
    # eps_C's exponent far above capacity at n = 10^7 overflowed exp2 with a
    # RuntimeWarning on stderr
    code = main(["finite", "--mix", "0.05", "--n-grid", "10000000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",ok")


@pytest.mark.parametrize("mix,n,column,value", [
    # masses of 1e-15 / 4 and of their convolution, which a 1e-15 floor used
    # to drop, still count: R1 = 1.995 and R2 = 6e-05 missed their targets
    ("1e-15", "1000", "R1", "1.993"),
    ("3e-15", "1000000", "R2", "6.1e-05"),
])
def test_finite_counts_every_mass(capsys, mix, n, column, value):
    code, out = run_cli(capsys, "finite", "--p", "2", "--mix", mix, "--n-grid", n)
    assert code == 0
    assert next(csv.DictReader(io.StringIO(out)))[column] == value


def test_finite_infeasible_exit(capsys):
    code, out = run_cli(capsys, "finite", "--mix", "1.0", "--n-grid", "100")
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "infeasible"


# ---------------------------------------------------------------
# simulate
# ---------------------------------------------------------------

@pytest.fixture()
def config_file(tmp_path):
    cfg = {"p": 2, "n": 8, "n1": 4, "n2": 1, "n3": 2,
           "mix_bob_to_alice": 0.05, "mix_alice_to_bob": 0.05,
           "code": "repetition:4", "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_none(capsys, config_file, tmp_path):
    tr_path = str(tmp_path / "tr.json")
    code, out = run_cli(capsys, "simulate", "--config", config_file,
                        "--trials", "400", "--transcript", tr_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["trials"] == 400
    assert 0 <= payload["stats"]["abort_rate"] <= 1
    with open(tr_path) as fh:
        tr = json.load(fh)
    assert tr["verdict"] in ("accept", "abort")
    assert set(tr) >= {"s", "s_prime", "c", "x_bar", "x", "x_hat",
                       "m_hat", "y_hat", "verdict"}


def test_simulate_masked_transcript(capsys, config_file, tmp_path):
    tr_path = str(tmp_path / "tr3.json")
    code, _ = run_cli(capsys, "simulate", "--config", config_file,
                      "--trials", "10", "--transcript", tr_path, "--masked",
                      "--message", "1")
    assert code == 0
    with open(tr_path) as fh:
        tr = json.load(fh)
    assert tr["x_bar"] is not None and len(tr["x_bar"]) == 16


def test_simulate_intercept_reports_bound(capsys, config_file):
    code, out = run_cli(capsys, "simulate", "--config", config_file,
                        "--trials", "10", "--adversary", "intercept")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["abort_rate"] == 1.0
    assert payload["stats"]["eps_E_bound"] is not None
    assert payload["stats"]["wrong_trials"] == 0


def test_simulate_csv_stats(capsys, config_file):
    code, out = run_cli(capsys, "simulate", "--config", config_file,
                        "--trials", "100", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["trials"] == "100"
    assert float(rows[0]["abort_lo"]) <= float(rows[0]["abort_rate"]) \
        <= float(rows[0]["abort_hi"])


def test_simulate_deterministic(capsys, config_file):
    _, out1 = run_cli(capsys, "simulate", "--config", config_file,
                      "--trials", "200")
    _, out2 = run_cli(capsys, "simulate", "--config", config_file,
                      "--trials", "200")
    assert out1 == out2


# ---------------------------------------------------------------
# estimate / leakage / verify-identities
# ---------------------------------------------------------------

def test_estimate_exact_sentinel(capsys):
    code, out = run_cli(capsys, "estimate", "--mix", "0.05", "--shots", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["tv_to_truth"] < 1e-12


def test_estimate_deterministic(capsys):
    _, a = run_cli(capsys, "estimate", "--mix", "0.05", "--shots", "500",
                   "--seed", "3")
    _, b = run_cli(capsys, "estimate", "--mix", "0.05", "--shots", "500",
                   "--seed", "3")
    assert a == b


def test_leakage_dominated(capsys):
    code, out = run_cli(capsys, "leakage", "--n", "1", "--n2", "1", "--n3", "0",
                        "--eve", "additive:0.3", "--code", "identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["dominated"] is True
    assert payload["exact_leakage"] <= payload["theorem_bound"]


def test_leakage_size_cap_exit(capsys):
    code, _ = run_cli(capsys, "leakage", "--n", "12", "--n2", "1", "--n3", "0",
                      "--eve", "noiseless", "--code", "identity")
    assert code == 4


@pytest.mark.parametrize("argv", [
    # 4 codewords x 2^28 dense noiseless-Eve outputs
    ("--n", "14", "--n1", "2", "--code", "repetition:14", "--eve", "noiseless"),
    # quantum Eve at n = 3 runs; at n = 6, 2^11 seeds x 2^12 words exceed 10^6
    ("--n", "3", "--n2", "1", "--n3", "0", "--code", "identity", "--eve", "quantum:0.1"),
])
def test_leakage_eve_size_cap_exit(capsys, argv):
    if argv[-1].startswith("quantum"):
        code = main(["leakage", *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["dominated"] is True
        assert 0.0 < payload["exact_leakage"] <= payload["theorem_bound"]
        argv = ("--n", "6", *argv[2:])
    code = main(["leakage", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("size cap exceeded:") and err.count("\n") == 1


def test_leakage_quantum_coset_blocks(capsys):
    # p^{n1} = 1024 syndromes in 512 cosets of 2: exited 4 while the leakage
    # took p^{n1} x p^{n1} matrices
    code, out = run_cli(capsys, "leakage", "--n", "5", "--n2", "1", "--n3", "0",
                        "--code", "identity", "--eve", "quantum:0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dominated"] is True
    assert (payload["exact_leakage"], payload["theorem_bound"]) == (0.0250285927696, 0.17991343453)


@pytest.mark.parametrize("argv", [
    # n = 3 runs; --n 6 makes 2^11 seeds x 2^12 words > 10^6: size cap, exit 4
    ("--n", "3", "--eve", "quantum:0.25"),
    ("--p", "3", "--eve", "quantum:0.25"),  # p^{n1} = 9: runs
    ("--eve", "quantum:abc"),  # not a mix: exit 2
])
def test_leakage_bad_eve_exit(capsys, argv):
    code = main(["leakage", "--n2", "1", "--n3", "0", *argv])
    out, err = capsys.readouterr()
    if argv[0] in ("--n", "--p"):
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["dominated"] is True
        assert 0.0 < payload["exact_leakage"] <= payload["theorem_bound"]
        if argv[0] == "--p":
            return
        # the same Eve at n = 6
        code = main(["leakage", "--n2", "1", "--n3", "0", "--n", "6", *argv[2:]])
        out, err = capsys.readouterr()
    assert code == (4 if argv[0] == "--n" else 2)
    assert out == ""
    prefix = "size cap exceeded:" if code == 4 else "invalid arguments:"
    assert err.startswith(prefix) and err.count("\n") == 1


# random_linear with n1 > 2n: no full-rank generator exists
INFEASIBLE_CONFIG = {"p": 2, "n": 2, "n1": 5, "n2": 1, "n3": 1, "mix_bob_to_alice": 0.05,
                     "mix_alice_to_bob": 0.05, "code": "random_linear", "seed": 1}
# the README simulate config, and invalid variants of it
README_CONFIG = {"p": 2, "n": 8, "n1": 4, "n2": 1, "n3": 2, "mix_bob_to_alice": 0.05,
                 "mix_alice_to_bob": 0.05, "code": "repetition:4", "seed": 7}
CONFIG_CHANGES = {"readme": {}, "neg_n2": {"n2": -1, "n3": 2}, "big_n2": {"n2": 3, "n3": 1},
                  "zero_n3": {"n3": 0}, "str_p": {"p": "x"}, "str_seed": {"seed": "abc"},
                  "float_n1": {"n1": 4.7, "seed": 7.9}, "null_mix": {"mix_bob_to_alice": None}}


@pytest.mark.parametrize("argv,exit_code,prefix", [
    (("leakage", "--mix", "2"), 2, "invalid arguments:"),
    (("leakage", "--n", "2", "--n1", "2", "--code", "repetition:x"), 2, "invalid arguments:"),
    (("rates", "--mix-grid", "0:1.5:0.5"), 2, "invalid arguments:"),
    (("rates", "--p", "4", "--mix-grid", "0:0.5:0.25"), 2, "invalid arguments:"),
    (("estimate", "--mix", "0.05", "--shots", "-5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{config}"), 3, "infeasible parameters:"),
    (("verify-identities", "--p", "4"), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", "-5"), 2, "invalid arguments:"),
    (("leakage", "--n2", "0"), 2, "invalid arguments:"),
    (("simulate", "--config", "{missing}"), 2, "invalid arguments:"),
    (("simulate", "--config", "{not_json}"), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", ""), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", ","), 2, "invalid arguments:"),
    (("leakage", "--code", "identityfoo"), 2, "invalid arguments:"),
    (("leakage", "--code", "identity", "--n", "1", "--n1", "3"), 3, "infeasible parameters:"),
    (("simulate", "--config", "{config}", "--trials", "0"), 2, "invalid arguments:"),
    (("simulate", "--config", "{config}", "--trials", "-3"), 2, "invalid arguments:"),
    (("simulate", "--config", "{config}", "--seed", "-1"), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", "1000", "--eps-c", "0"), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", "1000", "--eps-e", "0"), 2, "invalid arguments:"),
    (("finite", "--mix", "0.05", "--n-grid", "1000", "--eps-b", "1.5"), 2, "invalid arguments:"),
    (("estimate", "--mix", "0.05", "--seed", "-1"), 2, "invalid arguments:"),
    (("verify-identities", "--count", "-1"), 2, "invalid arguments:"),
    (("verify-identities", "--count", "0"), 2, "invalid arguments:"),
    (("verify-identities", "--seed", "-1"), 2, "invalid arguments:"),
    (("simulate", "--config", "{neg_n2}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{big_n2}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{zero_n3}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{str_p}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{str_seed}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{float_n1}", "--trials", "5"), 2, "invalid arguments:"),
    (("leakage", "--code", "random_linear", "--n", "5"), 4, "size cap exceeded:"),
    (("simulate", "--config", "{readme}", "--trials", "5", "--message", "1,0,1",
      "--transcript", "{transcript}"), 2, "invalid arguments:"),
    (("simulate", "--config", "{readme}", "--trials", "5", "--message", "5",
      "--transcript", "{transcript}"), 2, "invalid arguments:"),
    (("simulate", "--config", "{readme}", "--trials", "5", "--message=-1",
      "--transcript", "{transcript}"), 2, "invalid arguments:"),
    (("simulate", "--config", "{readme}", "--trials", "5", "--transcript", "{no_dir}"),
     2, "invalid arguments:"),
    (("rates", "--mix-grid", "0:0.1:0.1", "--out", "{no_dir}"), 2, "invalid arguments:"),
    (("simulate", "--config", "{null_mix}", "--trials", "5"), 2, "invalid arguments:"),
    (("simulate", "--config", "{number}", "--trials", "5"), 2, "invalid arguments:"),
    # 1e13 points ended in a MemoryError traceback; 1e8 took 800 MB and hours
    (("rates", "--mix-grid", "0:1:1e-13"), 4, "size cap exceeded:"),
    (("rates", "--mix-grid", "0:0.1:1e-9"), 4, "size cap exceeded:"),
    # a Pauli law over F_1009^2 holds more than 10^6 cells; near p = 10^6
    # these ended in a memory-error traceback with exit 1
    (("rates", "--p", "1009", "--mix-grid", "0:0:1"), 4, "size cap exceeded:"),
    (("finite", "--p", "1009", "--mix", "0.05", "--n-grid", "1000"), 4, "size cap exceeded:"),
    (("estimate", "--p", "1009", "--mix", "0.05"), 4, "size cap exceeded:"),
    (("verify-identities", "--p", "1009"), 4, "size cap exceeded:"),
    # no code has n < 1; these exited 3 for want of a sacrificed symbol
    (("leakage", "--n", "0"), 2, "invalid arguments:"),
    (("leakage", "--n", "-1"), 2, "invalid arguments:"),
])
def test_bad_input_exit(capsys, tmp_path, argv, exit_code, prefix):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(INFEASIBLE_CONFIG))
    not_json = tmp_path / "not.json"
    not_json.write_text("p = 2\n")
    paths = {"config": config, "missing": tmp_path / "missing.json", "not_json": not_json}
    (tmp_path / "number.json").write_text("5\n")
    paths.update(transcript=tmp_path / "t.json", no_dir=tmp_path / "no_dir" / "out",
                 number=tmp_path / "number.json")
    for name, change in CONFIG_CHANGES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**README_CONFIG, **change}))
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code == exit_code
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


def test_verify_identities_passes(capsys):
    code, out = run_cli(capsys, "verify-identities", "--p", "2", "--count", "2",
                        "--seed", "0")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(entry["ok"] for entry in lines)
    assert all(entry["petz_down_ab"] < 1e-8 for entry in lines)
