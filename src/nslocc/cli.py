"""Experiment runner and verification harness.

Subcommands:

* verify         -- run the built-in invariant suite, emit a JSON report
* risk-gap       -- collective vs measure-then-apply risk over a range of n (CSV)
* definetti      -- de Finetti approximation error for a product family (CSV)
* classical-demo -- classifier-mixture pipeline on a random protocol (JSON)
* gen-channel    -- sample a random non-signalling Choi state (JSON), written
                    ENCODE_BLOCK elements of ω at a time: the bytes of
                    json.dumps(payload, sort_keys=True) at the sampler's own
                    peak RSS, 80.8 MB at side 512 and 204.0 MB at side 1,024
                    (x86-64, OpenBLAS)

gen-channel's float encoder (_float_rows) gives json.dumps's text for ω's
floats, byte for byte.  An element with 1e-7 <= |x| < 1 whose shortest
round-trip digits number 13 or more, with a mantissa other than 2^52 and no
exact tie between two candidates, gets those digits from fixed-width integer
arithmetic, a block of elements at a time; every other element, and every
element unless sys.float_repr_style is "short", is encoded by json.dumps.

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
import itertools
import json
import sys
from typing import Iterable, Iterator

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
    branch_extensions,
    build_grid,
    definetti_bound,
    extract_measure,
    extract_measures,
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
            # would write to a file descriptor) and number text that parses,
            # fractions only for --overlap: int() would truncate them
            if key == "inject_signalling":
                ok = isinstance(val, bool)
            elif isinstance(val, list):
                ok = key in ("n", "k") and all(type(v) is int for v in val)
            elif key in ("out", "grid"):
                ok = type(val) is str
            elif type(val) is str:
                # --n/--k text is parsed, and refused naming the flag, by _parse_n_range
                ok = key in ("n", "k") or _parses(float if key == "overlap" else int, val)
            else:
                ok = type(val) is int or (key == "overlap" and type(val) is float)
            if not ok:
                raise ValueError(f"{key!r} cannot be {json.dumps(val)}")
    # every explicitly given flag overrides the file's value
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    if cfg.get("out") == "":
        raise ValueError("--out names no file")
    return cfg


def _parses(kind, text: str) -> bool:
    """Whether kind(text), int or float, takes the text."""
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _parse_n_range(flag: str, spec) -> list[int]:
    """The values a flag names: an int, a list, `LO..HI` or `A,B,..`; a value
    named twice is refused."""
    if isinstance(spec, int):
        values = [spec]
    elif isinstance(spec, list):
        values = [int(v) for v in spec]
    else:
        bounds = str(spec).split("..")
        if len(bounds) > 2:
            raise ValueError(f"{flag} range must read LO..HI, got {spec!r}")
        parts = bounds if len(bounds) == 2 else str(spec).split(",")
        if not all(_parses(int, v) for v in parts):
            raise ValueError(f"{flag} must name integers, got {spec!r}")
        values = [int(v) for v in parts]
        if len(bounds) == 2:
            values = list(range(values[0], values[1] + 1))
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


def _write(out_path: str | None, chunks: Iterable[str]):
    """Write the chunks in order to out_path, or to stdout without one."""
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _json_chunks(value) -> Iterator[str]:
    """The text of json.dumps(value, sort_keys=True) in pieces: a 2-D float
    array is encoded ENCODE_BLOCK elements at a time, in whole rows."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_chunks(value[key])
        yield "}"
    elif isinstance(value, np.ndarray):
        step = max(1, ENCODE_BLOCK // value.shape[1])
        yield "["
        for i in range(0, len(value), step):
            if i:
                yield ", "
            yield _float_rows(value[i:i + step])
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True)


# elements per block of the float encoder, in whole rows; its arrays take
# about 130 bytes per element, so a block holds about 0.27 MB
ENCODE_BLOCK = 2048
_SLOT = 32   # bytes of one element's text in the encoder's buffer


@functools.cache
def _float_tables():
    """The float encoder's tables, built on first use: the smallest double
    >= 10^e for e = -7..0, 5^s for s < 24, the four ASCII digits of
    0..9999 as one word each, the exponent tails e-07..e-05, and for each
    start*(_SLOT + 1) + end the mask of a slot's bytes start..end-1."""
    lower = []
    for e in range(-7, 1):
        t = float(f"1e{e}")
        num, den = t.as_integer_ratio()
        lower.append(t if num * 10 ** -e >= den else np.nextafter(t, 1.0))
    pow5 = np.array([5 ** s for s in range(24)], np.uint64)
    digits = np.arange(10 ** 4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    digits %= 10
    digits += ord("0")
    words = digits.astype(np.uint8).view(np.uint32).ravel()
    tails = np.frombuffer(b"e-07e-06e-05\0\0\0\0", np.uint32)
    col = np.arange(_SLOT)
    spans = (col >= np.arange(_SLOT + 1)[:, None, None]) & (col < np.arange(_SLOT + 1)[:, None])
    return np.array(lower), pow5, words, tails, spans.reshape(-1, _SLOT)


def _scaled(m: np.ndarray, f: np.ndarray, t: np.ndarray):
    """(a, r) with m*f = a*2^t + r and r < 2^t, for m < 2^53, f < 2^54 and
    t < 64, from the product held in two uint64 words."""
    low32, w = np.uint64(2 ** 32 - 1), np.uint64(32)
    mid = (m & low32) * (f >> w) + (m >> w) * (f & low32)    # < 2^55
    hi = (m >> w) * (f >> w) + (mid >> w)
    mid <<= w
    lo = (m & low32) * (f & low32) + mid
    hi += lo < mid                             # the carry out of the low word
    return (hi << (np.uint64(64) - t)) | (lo >> t), lo & ((np.uint64(1) << t) - np.uint64(1))


def _shortest(x: np.ndarray):
    """The elements of a float64 vector that the fast path encodes: their
    indices, shortest round-trip digits D, digit counts L and decimal
    exponents e10, so that repr(|x|) spells D * 10^(e10 + 1 - L).

    Fast are the x with 10^-7 <= |x| < 1 whose mantissa is not 2^52 (its
    rounding interval is lopsided) and whose shortest digits number 13 or
    more without an exact tie between two candidates.  With |x| = m*2^-q,
    s = 16 - e10 and t = q - s, scaling by 10^s * 2^t makes |x| the integer
    m*5^s = a*2^t + r, a its 17-digit floor, a 17-digit unit 2^t and the
    rounding interval's half-width 5^s / 2.  A candidate round-trips iff its
    distance from m*5^s is at most that; 5^s is odd, so no candidate of 17
    digits or fewer lies on the interval's ends, and whether the ends
    belong to it never matters."""
    lower, pow5 = _float_tables()[:2]
    ax = np.abs(x)
    at = np.flatnonzero((ax >= lower[0]) & (ax < 1.0))
    ax = ax[at]
    e10 = np.searchsorted(lower, ax, side="right") - 8
    f = pow5[16 - e10]
    m = ax.view(np.uint64)
    t = np.uint64(1075) - (m >> np.uint64(52)) - (16 - e10).astype(np.uint64)
    m &= np.uint64(2 ** 52 - 1)
    lopsided = m == 0
    m |= np.uint64(2 ** 52)
    a, r = _scaled(m, f, t)
    del ax, m   # arrays go once spent: the block's peak sets ENCODE_BLOCK
    f >>= np.uint64(1)                         # the interval's half-width
    half = np.uint64(1) << (t - np.uint64(1))
    d, tie, digits = a + (r > half), r == half, np.full(a.size, 17, np.int8)
    del half
    # 17 digits always fit; each shorter length is tried where the last fit,
    # down to 12, which sends the element to the fallback.  Its candidates
    # below and above lie c and p - c units from a; a distance of 16 units
    # never fits (the half-width is under 12), so it is capped there
    sub = np.arange(a.size)
    for k in range(1, 6):
        p = np.uint64(10 ** k)
        q = a[sub] // p
        c = a[sub] - q * p
        ts, rs = t[sub], r[sub]
        down = (np.minimum(c, np.uint64(16)) << ts) + rs
        up = (np.minimum(p - c, np.uint64(16)) << ts) - rs
        fit = np.minimum(down, up) <= f[sub]
        sub = sub[fit]
        if not sub.size:
            break
        d[sub] = q[fit] + (up < down)[fit]
        tie[sub] = (up == down)[fit]
        digits[sub] = 17 - k
    keep = np.flatnonzero((digits >= 13) & ~tie & ~lopsided)
    return at[keep], d[keep].view(np.int64), digits[keep], e10[keep]


def _float_rows(block: np.ndarray) -> str:
    """The text ", ".join(json.dumps(row.tolist()) for row in block) of a
    2-D float64 array.

    Each element's text is laid out in a _SLOT-byte row of one buffer: the
    fast path writes the 20 zero-padded digits of D to bytes 4..23 and the
    exponent tail to 24..27, and marks the point, lead digit and sign; every
    other element takes json.dumps's own text, as does every element unless
    sys.float_repr_style is "short".  One mask then picks each slot's text
    and separator."""
    _, _, words, tails, spans = _float_tables()
    ncols = block.shape[1]
    x = block.ravel()
    n = x.size
    short = sys.float_repr_style == "short"
    at, d, digits, e10 = _shortest(x) if short else (np.zeros(0, np.intp),) * 4
    buf = np.zeros((n, _SLOT), np.uint8)
    flat, b32 = buf.reshape(-1), buf.view(np.uint32)
    rest = np.zeros(n, np.int64)
    rest[at] = d
    for col in range(5, 0, -1):
        group = rest % 10 ** 4
        rest //= 10 ** 4
        b32[:, col] = words[group]
    del rest, group
    fixed = e10 >= -4                          # repr's 0.000ddd down to 1e-4
    dot = at * _SLOT + 24 - digits + np.where(fixed, e10, 0)
    b32[at, 6] = tails[np.where(fixed, 3, e10 + 7)]
    lead = flat[dot]
    lead[fixed] = ord("0")
    flat[dot - 1] = lead
    flat[dot] = ord(".")
    flat[dot - 2] = ord("-")
    start, end = np.ones(n, np.intp), np.full(n, 28, np.intp)
    start[at] = dot - at * _SLOT - 1 - (x[at] < 0)
    end[at[fixed]] = 24
    del dot, lead, fixed
    slow = np.ones(n, bool)
    slow[at] = False
    slow = np.flatnonzero(slow)
    for i in range(0, slow.size, 256):   # a few Python strings at a time
        part = slow[i:i + 256]
        text = json.dumps(x[part].tolist())[1:-1].split(", ")
        text = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
        buf[part, 1:25] = text
        end[part] = 1 + np.count_nonzero(text, axis=1)
    # brackets around each row, a separator after each element
    row = np.arange(0, n * _SLOT, _SLOT)
    start[::ncols] -= 1
    flat[row[::ncols] + start[::ncols]] = ord("[")
    flat[row[ncols - 1::ncols] + end[ncols - 1::ncols]] = ord("]")
    end[ncols - 1::ncols] += 1
    row += end
    flat[row] = ord(",")
    flat[row + 1] = ord(" ")
    start *= _SLOT + 1
    start += end + 2
    del row, end
    text = buf[np.take(spans, start, axis=0)]
    del buf, start
    return str(text, "ascii")[:-2]


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
    grid = build_grid((q.d_x * q.d_y) ** 2, f"haar:{seed}:300")
    proto = build_locc_protocol(q, grid).dense()
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
    grid = build_grid(4, f"haar:{seed}:1200")
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
    _write(cfg.get("out"), [json.dumps(report, indent=2, sort_keys=True) + "\n"])
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
    rho0, rho1, povm, preps = _classification_family(overlap)
    # every n purifies onto sites of dimension (d_X·d_Y)², so one grid,
    # drawn (or refused) before the first purification, serves them all
    grid = build_grid(len(preps[0].matrix) ** 2, cfg.get("grid", f"haar:{seed}:2000"))
    rows = []
    for n in sorted(ns):
        q = MeasurePrepareChannel.of(povm, preps, n)
        task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
        rep = risk_gap_experiment(task, q, grid)
        rows.append((n, rep.risk_collective, rep.risk_locc, rep.gap,
                     rep.bound, rep.grid_residual, seed))
    buf = io.StringIO()
    buf.write("n,risk_collective,risk_locc,gap,bound,grid_residual,seed\n")
    for row in rows:
        buf.write("{},{:.12g},{:.12g},{:.12g},{:.12g},{:.12g},{}\n".format(*row))
    _write(cfg.get("out"), [buf.getvalue()])
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
    # one set of branch states and one grid serve every n, so one Gram pass
    # certifies them all
    approxes = extract_measures(branch_extensions(sigma[None], site[None], ns),
                                build_grid(4, f"haar:{seed}:{count}"))
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
    _write(cfg.get("out"), [buf.getvalue()])
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
    _write(cfg.get("out"), [json.dumps(report, indent=2, sort_keys=True) + "\n"])
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
    _write(cfg.get("out"), itertools.chain(_json_chunks(payload), ["\n"]))
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
