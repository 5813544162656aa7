"""Command-line front end emitting plot-ready CSV/JSON.

Subcommands: rates, finite, simulate, estimate, leakage, verify-identities.
No plotting: the figures are reproduced as data files renderable by any
plotting tool.  All numeric output uses 12 significant digits and is
byte-identical for identical flags and master seed; for verify-identities
only with one BLAS thread, since its residuals sit near 1e-14 and their
printed low digits follow the BLAS summation order.

Exit codes: 0 success, 2 invalid arguments, 3 infeasible parameters,
4 size cap exceeded (1 for a failed identity check).  Any other
``ValueError`` (a library parameter check, a non-integer config value, an
unwritable output path) is exit 2, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds, estimation, identities, protocol, wiretap
from .bounds import InfeasibleTargets, SecurityTargets
from .dists import convolve, depolarizing
from .gf import FieldVec
from .qexact import SizeCapError


def _fmt(x) -> str:
    return f"{float(x) + 0.0:.12g}"


def _round12(x):
    return float(_fmt(x))


def _emit(text: str, out: str | None) -> None:
    """The one writer: stdout, or the file ``out`` (unopenable is exit 2)."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc.strerror}") from exc
    with fh:
        fh.write(text)


def _table(header: list[str], rows: list[list], args) -> None:
    """Rows as CSV, or with --format json as a list of objects keyed by header."""
    if args.format == "json":
        payload = [_roundtree(dict(zip(header, row))) for row in rows]
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)


def _roundtree(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _roundtree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_roundtree(v) for v in obj]
    return obj


# grid points one --mix-grid may ask for, about 1,000 times the README's 101
_GRID_CAP = 10**5


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from None
    if not np.isfinite([start, stop, step]).all() or step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    # np.arange's own point count, taken before it allocates them
    points = np.ceil((stop + step / 2 - start) / step)
    if points > _GRID_CAP:
        raise SizeCapError(f"grid {spec!r} has {points:.0f} points, above {_GRID_CAP}")
    return np.arange(start, stop + step / 2, step)


def _seed(seed: int) -> int:
    """A master seed from user input: numpy seeds must be >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_int_list(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",") if v]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {spec!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    rows = []
    for mix in _parse_grid(args.mix_grid):
        P = depolarizing(float(mix), args.p)
        Pt = depolarizing(float(args.mix_tilde) if args.mix_tilde is not None else float(mix),
                          args.p)
        rt = bounds.asymptotic_rates(P, Pt)
        rows.append([float(mix), rt.R1_star, rt.R2_star, 0.0, rt.R_star])
    _table(["mix_p", "R1", "R2", "R3", "R"], rows, args)
    return 0


def cmd_finite(args) -> int:
    targets = SecurityTargets(args.eps_c, args.eps_e, args.eps_b)
    P = depolarizing(args.mix, args.p)
    n_grid = _parse_int_list(args.n_grid)
    if not n_grid:
        raise ValueError(f"block lengths must be a nonempty list, got {args.n_grid!r}")
    reports = bounds.finite_length_reports(targets, n_grid, P, P)
    nan = float("nan")
    rows = [[n, rep.R1, rep.R2, rep.R3, rep.R, "ok"] if rep is not None
            else [n, nan, nan, nan, nan, "infeasible"]
            for n, rep in zip(n_grid, reports)]
    _table(["n", "R1", "R2", "R3", "R", "status"], rows, args)
    return 0 if any(rep is not None for rep in reports) else 3


def _build_code(spec: str, p: int, n: int, n1: int, noise, seed: int):
    kind, _, param = spec.partition(":")
    if kind == "identity":
        if n1 != 2 * n:
            raise InfeasibleTargets("identity code requires n1 = 2n")
        return wiretap.identity_code(p, n)
    if kind == "repetition":
        try:
            r = int(param or 0)
        except ValueError:
            raise ValueError(f"repetition code needs an integer r, got {param!r}") from None
        if r < 1 or r * n1 != 2 * n:
            raise InfeasibleTargets(f"repetition code needs r*n1 = 2n, got r={r}")
        return wiretap.repetition_code(p, n1, r, noise)
    if kind == "random_linear":
        if n1 > 2 * n:
            raise InfeasibleTargets(f"random linear code needs n1 <= 2n, got n1={n1}, n={n}")
        return wiretap.random_linear_code(p, n, n1, noise,
                                          np.random.default_rng(seed))
    raise ValueError(f"unknown code {spec!r}")


def _load_config(path: str, seed_override: int | None) -> protocol.ProtocolConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path!r} is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path!r} is not a JSON object")
    ints = ["p", "n", "n1", "n2", "n3", "seed"]
    mixes = ["mix_bob_to_alice", "mix_alice_to_bob"]
    missing = [k for k in ints + mixes + ["code"] if k not in raw]
    if missing:
        raise ValueError(f"config missing keys {missing}")
    wrong = [k for k in ints if type(raw[k]) is not int] + \
        [k for k in mixes if type(raw[k]) not in (int, float)]
    if wrong:
        raise ValueError(f"config {path!r}: {wrong} must be JSON numbers, "
                         "integers except the mixes")
    p = raw["p"]
    P = depolarizing(float(raw["mix_bob_to_alice"]), p)
    Pt = depolarizing(float(raw["mix_alice_to_bob"]), p)
    seed = _seed(raw["seed"] if seed_override is None else seed_override)
    code = _build_code(str(raw["code"]), p, raw["n"], raw["n1"], convolve(Pt, P), seed)
    return protocol.ProtocolConfig(
        p=p, n=raw["n"], n1=raw["n1"], n2=raw["n2"], n3=raw["n3"],
        P=P, P_tilde=Pt, code=code, master_seed=seed)


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    config = _load_config(args.config, args.seed)
    adversary = {
        "none": protocol.AdversaryMode.none(),
        "intercept": protocol.AdversaryMode.intercept(),
        "tamper": protocol.AdversaryMode.tamper(),
    }[args.adversary]
    if args.transcript:
        symbols = [0] * config.n2 if args.message is None else _parse_int_list(args.message)
        msg = FieldVec(symbols, config.p)
        tr = protocol.run_protocol3(config, msg, adversary) if args.masked \
            else protocol.run_protocol1(config, msg, adversary)
        _emit(tr.to_json() + "\n", args.transcript)
    stats = protocol.monte_carlo(config, args.trials, adversary)
    p_eff = config.effective_noise()
    analytic = {
        "eps_B_bound": bounds.eps_B_bound(config.n3, config.p),
        "eps_E_bound": bounds.eps_E_bound(
            config.n, config.n1 - config.n2 - config.n3, config.P),
        "eps_C_bound_random_coding": bounds.eps_C_bound(config.n, config.n1, p_eff),
    }
    if args.format == "csv":
        _emit(protocol.stats_csv(stats), args.out)
    else:
        payload = {"stats": _roundtree(stats),
                   "analytic_bounds": _roundtree(analytic)}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_estimate(args) -> int:
    P = depolarizing(args.mix, args.p)
    rng = np.random.default_rng(_seed(args.seed))
    report = estimation.estimate(P, args.shots, rng)
    _emit(json.dumps(_roundtree(report.to_json_dict()), sort_keys=True) + "\n",
          args.out)
    return 0


def _build_eve(spec: str, p: int, n: int):
    kind, _, param = spec.partition(":")
    if kind == "noiseless":
        return wiretap.eve_noiseless(p, n)
    if kind == "constant":
        return wiretap.eve_constant(p, n)
    if kind == "additive":
        return wiretap.eve_additive(depolarizing(float(param), p), n)
    if kind == "first-symbol":
        return wiretap.eve_first_symbol(p, n)
    if kind == "quantum":
        return wiretap.QuantumEveChannel(depolarizing(float(param), p), n)
    raise ValueError(f"unknown eve model {spec!r}")


def cmd_leakage(args) -> int:
    if args.n2 < 0 or args.n3 < 0 or args.n2 + args.n3 < 1:
        raise ValueError(f"need n2, n3 >= 0 and n2 + n3 >= 1, got n2={args.n2}, n3={args.n3}")
    p = args.p
    noise = depolarizing(args.mix, p)
    n1 = 2 * args.n if args.n1 is None else args.n1
    code = _build_code(args.code, p, args.n, n1, noise, _seed(args.seed))
    eve = _build_eve(args.eve, p, args.n)
    sacrifice = n1 - args.n2 - args.n3
    if sacrifice < 1:
        raise InfeasibleTargets("need at least one sacrificed symbol")
    exact = wiretap.exact_leakage(code, args.n2, args.n3, eve)
    bound = wiretap.theorem1_bound(p**sacrifice, eve, code)
    payload = {
        "exact_leakage": _round12(exact),
        "theorem_bound": _round12(bound),
        "dominated": bool(exact <= bound + 1e-12),
        "eve": args.eve, "code": args.code,
        "n": args.n, "n1": n1, "n2": args.n2, "n3": args.n3,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify_identities(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    rng = np.random.default_rng(_seed(args.seed))
    tol = 1e-8
    lines = []
    all_ok = True
    for i in range(args.count):
        P = identities.random_pauli_dist(args.p, rng)
        Pt = identities.random_pauli_dist(args.p, rng)
        res = identities.check_identities(P, Pt)
        ok = res.within(tol)
        all_ok = all_ok and ok
        lines.append(json.dumps({
            "case": i, "ok": ok,
            "shannon_ab": _round12(res.shannon_ab),
            "shannon_ae": _round12(res.shannon_ae),
            "petz_down_ab": _round12(res.petz_down_ab),
            "sandwich_ae_min_slack": _round12(res.sandwich_ae_min_slack),
            "lemma_petz_mi": _round12(res.lemma_petz_mi),
            "lemma_sandwich_mi": _round12(res.lemma_sandwich_mi),
        }, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pdckit",
                                 description="private dense coding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    r = sub.add_parser("rates", help="asymptotic rate curve over a mixing grid")
    r.add_argument("--p", type=int, default=2)
    r.add_argument("--mix-grid", required=True, help="start:stop:step")
    r.add_argument("--mix-tilde", type=float, default=None,
                   help="fixed forward-leg mixing (defaults to the grid value)")
    r.add_argument("--out", default=None)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(fn=cmd_rates)

    f = sub.add_parser("finite", help="finite-length rates at target epsilons")
    f.add_argument("--p", type=int, default=2)
    f.add_argument("--mix", type=float, required=True)
    f.add_argument("--n-grid", required=True, help="comma-separated block lengths")
    f.add_argument("--eps-c", type=float, default=0.2)
    f.add_argument("--eps-e", type=float, default=1e-9)
    f.add_argument("--eps-b", type=float, default=1e-9)
    f.add_argument("--out", default=None)
    f.add_argument("--format", choices=("csv", "json"), default="csv")
    f.set_defaults(fn=cmd_finite)

    s = sub.add_parser("simulate", help="Monte Carlo protocol runs")
    s.add_argument("--config", required=True, help="JSON config file")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--adversary", choices=("none", "intercept", "tamper"),
                   default="none")
    s.add_argument("--seed", type=int, default=None, help="override config seed")
    s.add_argument("--transcript", default=None,
                   help="also dump one full transcript to this path")
    s.add_argument("--masked", action="store_true",
                   help="transcript uses the masked protocol variant")
    s.add_argument("--message", default=None,
                   help="comma-separated message symbols for the transcript")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("estimate", help="state estimation from local settings")
    e.add_argument("--p", type=int, default=2)
    e.add_argument("--mix", type=float, required=True)
    e.add_argument("--shots", type=int, default=10000,
                   help="shots per setting (0 = exact marginals)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_estimate)

    lk = sub.add_parser("leakage", help="exact leakage vs the finite-length bound")
    lk.add_argument("--p", type=int, default=2)
    lk.add_argument("--n", type=int, default=1)
    lk.add_argument("--n1", type=int, default=None)
    lk.add_argument("--n2", type=int, default=1)
    lk.add_argument("--n3", type=int, default=0)
    lk.add_argument("--mix", type=float, default=0.25)
    lk.add_argument("--code", default="identity")
    lk.add_argument("--eve", default="quantum:0.25",
                    help="noiseless | constant | additive:mix | first-symbol | quantum:mix")
    lk.add_argument("--seed", type=int, default=0)
    lk.add_argument("--out", default=None)
    lk.set_defaults(fn=cmd_leakage)

    v = sub.add_parser("verify-identities", help="entropy identity suite")
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--count", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify_identities)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 4
    except InfeasibleTargets as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
