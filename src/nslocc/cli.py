"""Experiment runner and verification harness.

Subcommands:

* verify         -- run the built-in invariant suite, emit a JSON report
* risk-gap       -- collective vs measure-then-apply risk over a range of n (CSV)
* definetti      -- de Finetti approximation error for a product family (CSV)
* classical-demo -- classifier-mixture pipeline on a random protocol (JSON)
* gen-channel    -- sample a random non-signalling Choi state (JSON)

Exit codes: 0 success, 1 a verification check failed, 2 bad configuration.
Identical configurations produce byte-identical outputs; randomness only
enters through explicit seeds (numpy's seeded default generator, PCG64).
When numpy's BLAS is OpenBLAS this holds across BLAS thread counts: the one
output that depended on them, gen-channel's sampler, runs on one thread.
Under another BLAS it holds at a fixed thread count.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

import numpy as np

from . import __version__
from .channels import (
    NS_TOL,
    TP_TOL,
    MeasurePrepareChannel,
    apply_channel,
    choi_of_global_kraus,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    random_nonsignalling_choi,
)
from .classical import (
    classical_expected_risk,
    classical_task,
    is_nonsignalling_classical,
    lemma1_pipeline,
    random_nonsignalling_protocol,
)
from .definetti import (
    approx_error,
    branch_extension,
    build_grid,
    definetti_bound,
    extract_measure,
    extract_measures,
    parse_grid_name,
)
from .locc import build_locc_protocol, repair_distance_bound
from .risk import classification_task, protocol_risk, risk_gap_experiment
from .tensor_core import PSD_TOL, kron_power, op, operator_to_json, permutation_matrix


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_config(args) -> dict:
    # the subcommand's flags, by destination; the config may set only these
    flags = {key: val for key, val in vars(args).items()
             if key not in ("command", "config")}
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config} must hold a JSON object, "
                             f"got {type(cfg).__name__}")
        unknown = sorted(set(cfg) - set(flags))
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))} "
                             f"for {args.command}")
        for key, val in cfg.items():
            # true/false only for the store_true flag, lists of ints only for
            # --n/--k, strings only for the paths and grid names (open(2)
            # would write to a file descriptor), fractions only for
            # --overlap: int() would truncate them
            if key == "inject_signalling":
                ok = isinstance(val, bool)
            elif isinstance(val, list):
                ok = key in ("n", "k") and all(type(v) is int for v in val)
            elif key in ("out", "grid"):
                ok = type(val) is str
            else:
                ok = type(val) in (int, str) or (key == "overlap" and type(val) is float)
            if not ok:
                raise ValueError(f"{key!r} cannot be {json.dumps(val)}")
    # every explicitly given flag overrides the file's value
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    if cfg.get("out") == "":
        raise ValueError("--out names no file")
    return cfg


def _parse_n_range(flag: str, spec) -> list[int]:
    """The values a flag names: an int, a list, `LO..HI` or `A,B,..`; a value
    named twice is refused."""
    if isinstance(spec, int):
        values = [spec]
    elif isinstance(spec, list):
        values = [int(v) for v in spec]
    elif ".." in str(spec):
        bounds = str(spec).split("..")
        if len(bounds) != 2:
            raise ValueError(f"{flag} range must read LO..HI, got {spec!r}")
        values = list(range(int(bounds[0]), int(bounds[1]) + 1))
    else:
        values = [int(v) for v in str(spec).split(",")]
    if len(set(values)) != len(values):
        repeated = next(v for i, v in enumerate(values) if v in values[:i])
        raise ValueError(f"{flag} names {repeated} more than once")
    return values


def _require_at_least(flag: str, values: list[int], low: int) -> None:
    if not values:
        raise ValueError(f"{flag} names no values")
    if min(values) < low:
        raise ValueError(f"{flag} must be at least {low}, got {min(values)}")


def _seed(cfg: dict) -> int:
    seed = int(cfg.get("seed", 0))
    _require_at_least("--seed", [seed], 0)
    return seed


def _write(out_path: str | None, text: str):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name: str, lhs: float, rhs: float, ok: bool | None = None) -> dict:
    if ok is None:
        ok = bool(lhs <= rhs)
    return {"name": name, "ok": bool(ok), "lhs": float(lhs), "rhs": float(rhs)}


def _crossing_channel():
    """Two-round qubit channel that swaps the rounds: maximally signalling."""
    return choi_of_global_kraus([permutation_matrix((1, 0), 2)], 2, 2, n=2)


# tolerances of the verify checks below, in the order they run
CHOI_KRAUS_TOL = 1e-10
MP_NS_TOL = 1e-10
REPAIR_BOUND_SLACK = 1e-9
LEMMA1_RISK_TOL = 1e-12
K0_IDENTITY_SLACK = 1e-8


def _verify_checks(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Choi action equals the Kraus sum
    g = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    norm = sum(k.conj().T @ k for k in g)
    w, v = np.linalg.eigh(norm)
    fix = (v * (1 / np.sqrt(w))) @ v.conj().T
    kraus = [k @ fix for k in g]
    ch = choi_of_kraus(kraus, 2, 2)
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    out = apply_channel(ch, op(rho, ("A", 1), ("X1", 2)))
    expect = sum(k @ rho @ k.conj().T for k in kraus)
    checks.append(_check("choi_matches_kraus",
                         float(np.abs(out.matrix - expect).max()), CHOI_KRAUS_TOL))

    # non-signalling detection: the reduction's input below, and a negative control
    _, _, povm, preps = _classification_family(0.6)
    q = MeasurePrepareChannel.of(povm, preps, 2)
    checks.append(_check("measure_prepare_nonsignalling",
                         is_nonsignalling(q.dense()).max_residual, MP_NS_TOL))
    res = is_nonsignalling(_crossing_channel()).max_residual
    checks.append(_check("output_crossing_detected", res, 0.5, ok=res >= 0.5))

    # trace-preserving repair distance guarantee, reported at the sample
    # with the smallest margin rhs - lhs
    samples = []
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m @ m.conj().T
        m /= np.trace(m).real
        samples.append(repair_distance_bound(m, 2, 2))
    lhs, rhs = max(samples, key=lambda s: s[0] - s[1])
    checks.append(_check("repair_distance_bound", lhs, rhs + REPAIR_BOUND_SLACK))

    # the protocol reduced from that input is CPTP and non-signalling
    proto = build_locc_protocol(q, f"haar:{seed}:300").dense()
    cptp = is_cptp(proto)
    checks.append(_check("protocol_cptp", max(cptp.psd_violation, cptp.tp_violation),
                         min(PSD_TOL, TP_TOL)))
    checks.append(_check("protocol_nonsignalling",
                         is_nonsignalling(proto).max_residual, NS_TOL))

    # Lemma 1's rebuilt channel keeps the original table's risk exactly
    dist = np.array([[0.3, 0.2], [0.1, 0.4]])
    worst_gap = 0.0
    for s in range(5):
        p = random_nonsignalling_protocol(2, 2, 2, 2, seed=seed + s)
        rebuilt = lemma1_pipeline(p)
        for a in range(2):
            worst_gap = max(worst_gap, abs(
                classical_expected_risk(p, dist, a)
                - protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n))))
    checks.append(_check("classical_mixture_risk_equality", worst_gap, LEMMA1_RISK_TOL))

    # de Finetti k=0 identity on a small branch extension
    sigma = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    site = np.outer([1.0, 0.0], [1.0, 0.0]).astype(complex)
    ext = branch_extension(sigma[None], site[None], n=4)
    grid = build_grid(4, 4, f"haar:{seed}:1200")
    ap = extract_measure(ext, grid)
    checks.append(_check("definetti_k0_identity", ap.povm_deficit,
                         ap.grid_residual + K0_IDENTITY_SLACK))

    return checks


def cmd_verify(cfg: dict) -> int:
    seed = _seed(cfg)
    checks = _verify_checks(seed)
    if cfg.get("inject_signalling"):
        # negative-control fixture: a signalling channel must fail the gate
        res = is_nonsignalling(_crossing_channel()).max_residual
        checks.append(_check("injected_signalling_passes_gate", res, NS_TOL))
    report = {"version": __version__, "seed": seed,
              "passed": all(c["ok"] for c in checks), "checks": checks}
    _write(cfg.get("out"), json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# risk-gap
# ---------------------------------------------------------------------------

def _classification_family(overlap: float):
    """Fixed measure-then-classify family used by the risk-gap experiment."""
    v0 = np.array([1.0, 0.0])
    v1 = np.array([overlap, np.sqrt(1 - overlap ** 2)])
    rho0, rho1 = np.outer(v0, v0), np.outer(v1, v1)
    d, v = np.linalg.eigh(rho0 / 2 - rho1 / 2)
    # starts from a matrix: with identical class states no eigenvalue is positive
    p_plus = sum((np.outer(v[:, i], v[:, i].conj()) for i in range(2) if d[i] > 0),
                 np.zeros((2, 2)))
    povm = [op(np.einsum("ab,cd->acbd", e, np.eye(2)).reshape(4, 4), ("A", 4))
            for e in (p_plus, np.eye(2) - p_plus)]             # E ⊗ 1 on A

    def classifier(basis):
        # Choi state of: measure in `basis`, output the outcome y, which is
        # sum_y (b̄_y b_yᵀ ⊗ |y><y|)/2 on (X1, Y1)
        choi = np.zeros((2, 2, 2, 2), complex)
        for y in range(2):
            choi[:, y, :, y] = np.outer(basis[:, y].conj(), basis[:, y]) / 2
        return op(choi.reshape(4, 4), ("X1", 2), ("Y1", 2))

    preps = [classifier(v[:, ::-1]), classifier(v)]
    return rho0, rho1, povm, preps


def cmd_risk_gap(cfg: dict) -> int:
    overlap = float(cfg.get("overlap", 0.6))
    if not 0.0 <= overlap <= 1.0:
        return _fail(f"--overlap must lie in [0, 1], got {overlap}")
    seed = _seed(cfg)
    ns = _parse_n_range("--n", cfg.get("n", "1..4"))
    _require_at_least("--n", ns, 1)
    grid = cfg.get("grid", f"haar:{seed}:2000")
    rho0, rho1, povm, preps = _classification_family(overlap)
    # every n purifies onto sites of dimension (d_X·d_Y)²: refuse a grid
    # that none of them takes before the first purification
    parse_grid_name(preps[0].dim ** 2, grid)
    rows = []
    for n in sorted(ns):
        q = MeasurePrepareChannel.of(povm, preps, n)
        task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
        rep = risk_gap_experiment(task, q, grid_spec=grid)
        rows.append((n, rep.risk_collective, rep.risk_locc, rep.gap,
                     rep.bound, rep.grid_residual, seed))
    buf = io.StringIO()
    buf.write("n,risk_collective,risk_locc,gap,bound,grid_residual,seed\n")
    for row in rows:
        buf.write("{},{:.12g},{:.12g},{:.12g},{:.12g},{:.12g},{}\n".format(*row))
    _write(cfg.get("out"), buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# definetti
# ---------------------------------------------------------------------------

def cmd_definetti(cfg: dict) -> int:
    seed = _seed(cfg)
    ns = _parse_n_range("--n", cfg.get("n", [4, 8, 16, 32]))
    count = int(cfg.get("count", 5000))
    _require_at_least("--n", ns, 1)
    _require_at_least("--count", [count], 1)
    ks = _parse_n_range("--k", cfg.get("k", [0, 1]))
    _require_at_least("--k", ks, 0)
    sigma = np.array([[1.0]], dtype=complex)
    site = np.outer([1.0, 0.0], [1.0, 0.0]).astype(complex)
    ns = sorted(ns)
    # one grid serves every n, so one Gram pass certifies them all
    approxes = extract_measures([branch_extension(sigma[None], site[None], n=n) for n in ns],
                                build_grid(4, max(ns), f"haar:{seed}:{count}"))
    buf = io.StringIO()
    buf.write("n,k,delta_k,bound,grid_residual\n")
    for n, ap in zip(ns, approxes):
        for k in sorted(ks):
            if k == 0:
                delta_k = ap.povm_deficit
            else:
                delta_k = approx_error(kron_power(site[None], k)[0], ap, k)
            buf.write("{},{},{:.12g},{:.12g},{:.12g}\n".format(
                n, k, delta_k, definetti_bound(2, k, n), ap.grid_residual))
    _write(cfg.get("out"), buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# classical-demo / gen-channel
# ---------------------------------------------------------------------------

def cmd_classical_demo(cfg: dict) -> int:
    seed = _seed(cfg)
    p = random_nonsignalling_protocol(2, 2, 2, 2, seed=seed)
    rebuilt = lemma1_pipeline(p)
    dist = np.array([[0.3, 0.2], [0.1, 0.4]])
    report = {
        "seed": seed,
        "ns_deviation": is_nonsignalling_classical(p).max_deviation,
        "per_a": [],
    }
    for a in range(p.na):
        report["per_a"].append({
            "a": a,
            "risk_original": classical_expected_risk(p, dist, a),
            "risk_reconstructed": protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n)),
            "mixture_weights": {"".join(map(str, f)): float(w) for f, w in zip(
                np.ndindex((p.ny,) * p.nx), rebuilt.povm[:, a, a].real)},
        })
    _write(cfg.get("out"), json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_gen_channel(cfg: dict) -> int:
    seed = _seed(cfg)
    ns = _parse_n_range("--n", cfg.get("n", 2))
    _require_at_least("--n", ns, 1)
    if len(ns) != 1:
        raise ValueError(f"--n must name exactly one value for gen-channel, got {ns}")
    n = ns[0]
    d_a = int(cfg.get("d_a", 2))
    d_x = int(cfg.get("d_x", 2))
    d_y = int(cfg.get("d_y", 2))
    ch = random_nonsignalling_choi(d_a, d_x, d_y, n, seed=seed)
    # the reports that accepted the channel, not a second eigensolve
    cptp = ch.cptp_report
    payload = {
        "seed": seed, "d_a": d_a, "d_x": d_x, "d_y": d_y, "n": n,
        "cptp": {"psd_violation": cptp.psd_violation,
                 "tp_violation": cptp.tp_violation},
        "ns_residual": ch.ns_report.max_residual,
        "omega": operator_to_json(ch.omega),
    }
    _write(cfg.get("out"), json.dumps(payload, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "verify": cmd_verify,
    "risk-gap": cmd_risk_gap,
    "definetti": cmd_definetti,
    "classical-demo": cmd_classical_demo,
    "gen-channel": cmd_gen_channel,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once on first use, not at import."""
    parser = argparse.ArgumentParser(
        prog="nslocc",
        description="non-signalling to measure-then-apply reduction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--config")
        sp.add_argument("--out")
        if name in ("risk-gap", "definetti", "gen-channel"):
            sp.add_argument("--n")
        if name == "risk-gap":
            sp.add_argument("--grid")
            sp.add_argument("--overlap", type=float)
        if name == "definetti":
            sp.add_argument("--count", type=int)
            sp.add_argument("--k")
        if name == "gen-channel":
            sp.add_argument("--d-a", dest="d_a", type=int)
            sp.add_argument("--d-x", dest="d_x", type=int)
            sp.add_argument("--d-y", dest="d_y", type=int)
        if name == "verify":
            sp.add_argument("--inject-signalling", dest="inject_signalling",
                            action="store_true", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not args.command:
        _parser().print_help()
        return 2
    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        return _fail(f"bad config: {exc}")
    try:
        return _HANDLERS[args.command](cfg)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
