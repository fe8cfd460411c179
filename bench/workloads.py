"""The benchmark's workloads: the CLI calls one iteration makes, and the checks
every iteration's outputs must pass.

Each workload is driven through ``nslocc.cli.main`` exactly as a user would
invoke ``nslocc <subcommand> ...``; the seed is the only input that varies.
Checks hold for any seed; for the inputs of a DEFAULT_SEED run they also
compare against values recorded in reference.json (regenerate with
``run.py --record-reference``).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from nslocc.channels import (
    ChoiChannel,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    measure_and_prepare_choi,
)
from nslocc.risk import classification_task, expected_risk
from nslocc.tensor_core import op, operator_from_json, partial_trace

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
CSV_TOL = 1e-9        # the CLI writes 12 significant digits
ORACLE_TOL = 1e-8     # the tolerance expected_risk(path="both") itself enforces
CHANNEL_TOL = 1e-8    # channels.PSD_TOL / TP_TOL / NS_TOL
REF_RTOL = 1e-6       # BLAS thread count may move the last digits
REF_ATOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def _parse_csv(text: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def _compare_rows(rows: list[dict], ref: list[dict]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    return [f"row {i} {key}: {row[key]!r} vs reference {want[key]!r}"
            for i, (row, want) in enumerate(zip(rows, ref))
            for key in want if not _close(row[key], want[key])]


class _CsvWorkload:
    """A workload of one CLI call whose stdout is CSV, compared row by row."""

    symmetrize_calls = 0

    def parse(self, argv: list[str], stdout: str):
        return _parse_csv(stdout)

    def oracle(self):
        return None

    def summary(self, outputs: list):
        return outputs[0]

    def compare(self, outputs: list, ref) -> list[str]:
        return _compare_rows(outputs[0], ref)


class RiskGap(_CsvWorkload):
    """``risk-gap`` over an n range on a seeded Haar grid."""

    overlap = 0.6

    def __init__(self, name: str, ns: tuple[int, ...], grid_count: int):
        self.name, self.ns, self.grid_count = name, ns, grid_count
        # build_locc_protocol symmetrizes once per n, the marginal risk path
        # once more for every n > 1
        self.symmetrize_calls = len(ns) + sum(n > 1 for n in ns)

    def calls(self, seed: int, out_dir: Path) -> list[list[str]]:
        n_spec = ",".join(map(str, self.ns))
        return [["risk-gap", "--overlap", str(self.overlap), "--n", n_spec,
                 "--grid", f"haar:{seed}:{self.grid_count}",
                 "--seed", str(seed)]]

    def oracle(self) -> dict[int, float]:
        """Collective risk through both evaluation paths, for every n <= 3.

        The CLI's classification family, rebuilt from public functions: two
        pure states at the given overlap, measured in the Helstrom basis.
        """
        v0 = np.array([1.0, 0.0])
        v1 = np.array([self.overlap, np.sqrt(1 - self.overlap ** 2)])
        rho0, rho1 = np.outer(v0, v0), np.outer(v1, v1)
        d, v = np.linalg.eigh(rho0 / 2 - rho1 / 2)
        p_plus = sum(np.outer(v[:, i], v[:, i].conj())
                     for i in range(2) if d[i] > 0)
        povm = [op(np.kron(p_plus, np.eye(2)), ("A", 4)),
                op(np.kron(np.eye(2) - p_plus, np.eye(2)), ("A", 4))]

        def classifier(basis):
            kraus = [np.outer(np.eye(2)[y], basis[:, y].conj()) for y in range(2)]
            return partial_trace(choi_of_kraus(kraus, 2, 2).omega, ["X1", "Y1"])

        preps = [classifier(v[:, ::-1]), classifier(v)]
        out = {}
        for n in self.ns:
            if n <= 3:
                q = measure_and_prepare_choi(povm, preps, n)
                task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
                out[n] = expected_risk(q, task, path="both")
        return out

    def check(self, seed: int, outputs: list, oracle: dict[int, float]) -> list[str]:
        (rows,) = outputs
        problems = []
        if [int(r["n"]) for r in rows] != sorted(self.ns):
            problems.append(f"n column {[r['n'] for r in rows]} != {sorted(self.ns)}")
        for r in rows:
            n = int(r["n"])
            rc, rl = r["risk_collective"], r["risk_locc"]
            if int(r["seed"]) != seed:
                problems.append(f"n={n}: seed column {r['seed']} != {seed}")
            for key, val in (("risk_collective", rc), ("risk_locc", rl)):
                if not -CSV_TOL <= val <= 1 + CSV_TOL:
                    problems.append(f"n={n}: {key}={val} outside [0, 1]")
            if abs(r["gap"] - abs(rc - rl)) > CSV_TOL:
                problems.append(f"n={n}: gap {r['gap']} != |{rc} - {rl}|")
            if n in oracle and abs(rc - oracle[n]) > ORACLE_TOL:
                problems.append(f"n={n}: risk_collective {rc} != direct/marginal "
                                f"oracle {oracle[n]}")
        return problems

    def plant(self, outputs: list) -> None:
        outputs[0][0]["risk_locc"] += 0.25


class Definetti(_CsvWorkload):
    """``definetti`` on the structured branch path."""

    def __init__(self, name: str, ns: tuple[int, ...], count: int,
                 ks: tuple[int, ...]):
        self.name, self.ns, self.count, self.ks = name, ns, count, ks

    def calls(self, seed: int, out_dir: Path) -> list[list[str]]:
        return [["definetti", "--n", ",".join(map(str, self.ns)),
                 "--count", str(self.count), "--k", ",".join(map(str, self.ks)),
                 "--seed", str(seed)]]

    def check(self, seed: int, outputs: list, oracle) -> list[str]:
        (rows,) = outputs
        want = [(n, k) for n in sorted(self.ns) for k in sorted(self.ks)]
        got = [(int(r["n"]), int(r["k"])) for r in rows]
        if got != want:
            return [f"(n, k) rows {got} != {want}"]
        problems = []
        for r in rows:
            n, k = int(r["n"]), int(r["k"])
            if r["delta_k"] < 0:
                problems.append(f"n={n} k={k}: negative delta_k {r['delta_k']}")
            if abs(r["bound"] - 16.0 * k / n) > CSV_TOL * max(1.0, r["bound"]):
                problems.append(f"n={n} k={k}: bound {r['bound']} != 4*2^2*k/n")
            if k == 0 and r["delta_k"] > r["grid_residual"] + 1e-8:
                problems.append(f"n={n}: k=0 delta {r['delta_k']} exceeds "
                                f"grid_residual {r['grid_residual']}")
        return problems

    def plant(self, outputs: list) -> None:
        row = outputs[0][0]
        row["delta_k"] = row["grid_residual"] + 1.0


class ChannelGen:
    """``gen-channel`` for `seeds` consecutive channel seeds per input seed
    (input s generates channels s*seeds .. s*seeds + seeds - 1), JSON to a
    file."""

    symmetrize_calls = 0

    def __init__(self, name: str, n: int, d_a: int, seeds: int):
        self.name, self.n, self.d_a, self.seeds = name, n, d_a, seeds

    def calls(self, seed: int, out_dir: Path) -> list[list[str]]:
        # files are named by position, so every iteration overwrites the same few
        return [["gen-channel", "--n", str(self.n), "--d-a", str(self.d_a),
                 "--seed", str(s), "--out", str(out_dir / f"channel-{k}.json")]
                for k, s in enumerate(self._channel_seeds(seed))]

    def _channel_seeds(self, seed: int) -> range:
        return range(seed * self.seeds, (seed + 1) * self.seeds)

    def parse(self, argv: list[str], stdout: str):
        with open(argv[argv.index("--out") + 1]) as fh:
            return json.load(fh)

    def oracle(self):
        return None

    def check(self, seed: int, outputs: list, oracle) -> list[str]:
        problems = []
        for s, payload in zip(self._channel_seeds(seed), outputs):
            dims = (payload["d_a"], payload["d_x"], payload["d_y"], payload["n"])
            if payload["seed"] != s or dims != (self.d_a, 2, 2, self.n):
                problems.append(f"seed {s}: header {payload['seed']}, {dims}")
                continue
            reported = {"psd": payload["cptp"]["psd_violation"],
                        "tp": payload["cptp"]["tp_violation"],
                        "ns": payload["ns_residual"]}
            try:
                ch = ChoiChannel(operator_from_json(payload["omega"]), *dims)
            except ValueError as exc:
                problems.append(f"seed {s}: omega does not parse: {exc}")
                continue
            cptp = is_cptp(ch)
            again = {"psd": cptp.psd_violation, "tp": cptp.tp_violation,
                     "ns": is_nonsignalling(ch).max_residual}
            for key in reported:
                if reported[key] > CHANNEL_TOL or again[key] > CHANNEL_TOL:
                    problems.append(f"seed {s}: {key} residual reported "
                                    f"{reported[key]:.3e}, rechecked "
                                    f"{again[key]:.3e} > {CHANNEL_TOL}")
        return problems

    def plant(self, outputs: list) -> None:
        outputs[0]["omega"]["re"][0][0] += 0.1

    def summary(self, outputs: list):
        """Per seed: Frobenius norm of omega and its overlap with a fixed
        random Hermitian matrix, enough to tell two channels apart."""
        out = []
        for payload in outputs:
            m = np.asarray(payload["omega"]["re"]) + 1j * np.asarray(payload["omega"]["im"])
            rng = np.random.default_rng(1605)
            h = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            out.append({"fro": float(np.linalg.norm(m)),
                        "probe": float(np.vdot(h + h.conj().T, m).real)})
        return out

    def compare(self, outputs: list, ref) -> list[str]:
        return _compare_rows(self.summary(outputs), ref)


WORKLOADS = {w.name: w for w in (
    RiskGap("risk_gap_dense", ns=(3,), grid_count=200),
    RiskGap("risk_gap_wide_grid", ns=(2, 3), grid_count=300),
    Definetti("definetti_branch", ns=(16, 64, 256), count=400, ks=(0, 1)),
    ChannelGen("channel_gen", n=3, d_a=2, seeds=3),
)}


def load_reference(name: str):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][name]
