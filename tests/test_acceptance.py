"""End-to-end acceptance criteria.

Each test prints one pass/fail line with the measured quantity next to its
tolerance, then asserts.  Runtimes are bounded per criterion; the whole file
is sized to finish comfortably inside those budgets on a laptop-class CPU.
"""

import time

import numpy as np

from nslocc.channels import (
    MeasurePrepareChannel,
    choi_of_global_kraus,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    measure_and_prepare_choi,
    random_nonsignalling_choi,
)
from nslocc.classical import (
    classical_expected_risk,
    classical_task,
    lemma1_pipeline,
    random_nonsignalling_protocol,
)
from nslocc.cli import main as cli_main
from nslocc.definetti import branch_extension, build_grid, extract_measure
from nslocc.locc import (
    build_locc_protocol,
    concentration_report,
    repair_distance_bound,
    marginal_input,
)
from nslocc.risk import (
    LearningTask,
    classification_task,
    expected_risk,
    protocol_risk,
)
from nslocc.tensor_core import op, partial_trace

from conftest import product_channel, random_density, random_kraus, repair_one


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Choi action matches the Kraus-sum oracle
# ---------------------------------------------------------------------------

def test_criterion_1_choi_matches_kraus():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        d_x = int(rng.integers(2, 4))
        d_y = int(rng.integers(2, 4))
        # count*d_y >= d_x keeps the normalized family trace-preserving
        kraus = random_kraus(rng, d_x, d_y, count=int(rng.integers(2, 4)))
        ch = choi_of_kraus(kraus, d_x, d_y)
        from nslocc.channels import apply_channel
        for _ in range(20):
            rho = random_density(rng, d_x)
            got = apply_channel(ch, op(np.kron(np.eye(1), rho),
                                       ("A", 1), ("X1", d_x)))
            oracle = sum(k @ rho @ k.conj().T for k in kraus)
            worst = max(worst, float(np.abs(got.matrix - oracle).max()))
    elapsed = time.time() - t0
    _report(1, "choi vs kraus oracle", worst <= 1e-10 and elapsed < 10,
            f"max deviation {worst:.3e} <= 1e-10, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. Non-signalling detection with a hard counterexample
# ---------------------------------------------------------------------------

def test_criterion_2_nonsignalling_detection():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst_ok = 0.0
    for n in (1, 2, 3):
        single = choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2)
        worst_ok = max(worst_ok,
                       is_nonsignalling(product_channel(single, n)).max_residual)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        povm = [op(np.outer(v, v.conj()), ("A", 2)),
                op(np.eye(2) - np.outer(v, v.conj()), ("A", 2))]
        preps = [choi_of_kraus(random_kraus(rng, 2, 2, count=1), 2, 2).omega
                 for _ in range(2)]
        mp = measure_and_prepare_choi(povm, preps, n)
        worst_ok = max(worst_ok, is_nonsignalling(mp).max_residual)
    # outputs crossed between rounds: Y1 carries X2 and vice versa
    d = 2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3) \
        .reshape(d * d, d * d)
    counter = is_nonsignalling(choi_of_global_kraus([swap], 2, 2, n=2))
    elapsed = time.time() - t0
    ok = worst_ok <= 1e-10 and counter.max_residual >= 0.5 and elapsed < 30
    _report(2, "non-signalling detection", ok,
            f"valid channels residual {worst_ok:.3e} <= 1e-10, "
            f"counterexample {counter.max_residual:.3f} >= 0.5, "
            f"{elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. classical mixture pipeline preserves per-context risk exactly
# ---------------------------------------------------------------------------

def test_criterion_3_classical_pipeline():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst_risk = 0.0
    worst_ns = 0.0
    for seed in range(100):
        p = random_nonsignalling_protocol(2, 2, 2, 2, seed=seed)
        rebuilt = lemma1_pipeline(p)
        # the trace-norm signalling residual of the rebuilt Choi state
        worst_ns = max(worst_ns, is_nonsignalling(rebuilt.dense()).max_residual)
        dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
        for a in range(2):
            worst_risk = max(worst_risk, abs(
                classical_expected_risk(p, dist, a)
                - protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n))))
    elapsed = time.time() - t0
    ok = worst_risk <= 1e-12 and worst_ns <= 1e-10 and elapsed < 10
    _report(3, "classical mixture pipeline", ok,
            f"max risk change {worst_risk:.3e} <= 1e-12, "
            f"rebuilt signalling {worst_ns:.3e}, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 4. trace-preserving repair moves the state no further than its guarantee
# ---------------------------------------------------------------------------

def test_criterion_4_repair_distance():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_excess = -np.inf
    worst_tp = 0.0
    done = 0
    while done < 500:
        d_x = int(rng.integers(2, 4))
        d_y = int(rng.integers(2, 4))
        phi = random_density(rng, d_x * d_y)
        tau = marginal_input(phi, d_x, d_y)
        if float(np.linalg.eigvalsh(tau).min()) <= 1e-8:
            continue
        lhs, rhs = repair_distance_bound(phi, d_x, d_y)
        worst_excess = max(worst_excess, lhs - rhs)
        fixed = repair_one(phi, d_x, d_y)
        worst_tp = max(worst_tp, float(np.abs(
            marginal_input(fixed, d_x, d_y) - np.eye(d_x) / d_x).max()))
        done += 1
    elapsed = time.time() - t0
    ok = worst_excess <= 1e-9 and worst_tp <= 1e-9 and elapsed < 60
    _report(4, "repair distance guarantee", ok,
            f"max lhs-rhs {worst_excess:.3e} <= 1e-9, "
            f"repaired marginal off by {worst_tp:.3e} <= 1e-9, "
            f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 6. de Finetti input-marginal residual at n in {8, 16, 32}
# ---------------------------------------------------------------------------

def test_criterion_6_definetti_residual():
    t0 = time.time()
    rng = np.random.default_rng(6)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    povm = [np.outer(v, v.conj()), np.eye(2) - np.outer(v, v.conj())]
    preps = [choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2).omega
             for _ in range(2)]
    q = MeasurePrepareChannel.of([op(m, ("A", 2)) for m in povm], preps, 1)
    details = []
    ok = True
    for n in (8, 16, 32):
        ext = branch_extension(q.povm.transpose(0, 2, 1) / q.d_a, q.chois, n)
        grid = build_grid(ext.site_dim, "haar:6:5000")
        approx = extract_measure(ext, grid)
        delta = 4.0 * (2 * 2) ** 2 / n
        rep = concentration_report(approx, epsilon=0.2, delta=delta,
                                   d_x=2, d_y=2)
        _, e1_res, e1_budget = rep.ek_residuals[0]
        k0_ok = approx.povm_deficit <= approx.grid_residual + 1e-8
        e1_ok = e1_res <= delta + approx.grid_residual
        ok = ok and k0_ok and e1_ok
        details.append(f"n={n}: E1 {e1_res:.3f} <= {delta + approx.grid_residual:.3f}, "
                       f"k=0 {approx.povm_deficit:.2e} <= "
                       f"{approx.grid_residual + 1e-8:.3f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(6, "de Finetti residual", ok,
            "; ".join(details) + f", {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 7. full reduction on a measure-and-prepare channel
# ---------------------------------------------------------------------------

def _weak_classifier_instance(overlap=0.6, lam=0.08):
    """Measure-then-classify channel: Helstrom POVM on the training register,
    then an outcome-dependent weakly-coherent classifier on each test round."""
    v0 = np.array([1.0, 0.0])
    v1 = np.array([overlap, np.sqrt(1 - overlap ** 2)])
    rho0, rho1 = np.outer(v0, v0), np.outer(v1, v1)
    w, vecs = np.linalg.eigh(rho0 / 2 - rho1 / 2)
    p_plus = sum(np.outer(vecs[:, i], vecs[:, i].conj())
                 for i in range(2) if w[i] > 0)
    povm = [op(np.kron(p_plus, np.eye(2)), ("A", 4)),
            op(np.kron(np.eye(2) - p_plus, np.eye(2)), ("A", 4))]

    def classifier(basis):
        kr = [np.outer(np.eye(2)[y], basis[:, y].conj()) for y in range(2)]
        return partial_trace(choi_of_kraus(kr, 2, 2).omega, ["X1", "Y1"])

    preps = []
    for basis in (vecs[:, ::-1], vecs):
        pure = classifier(basis).matrix
        mixed = lam * pure + (1 - lam) * np.eye(4) / 4
        preps.append(op(mixed, ("X1", 2), ("Y1", 2)))
    return rho0, rho1, povm, preps


def test_criterion_7_locc_reconstruction():
    t0 = time.time()
    rho0, rho1, povm, preps = _weak_classifier_instance()
    n = 2
    q = measure_and_prepare_choi(povm, preps, n)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    risk_q = expected_risk(q, task, path="marginal")
    proto = build_locc_protocol(q, grid_spec="haar:3:1500")
    risk_p = protocol_risk(proto, task)
    gap = abs(risk_q - risk_p)
    rebuilt = proto.dense()
    cptp = is_cptp(rebuilt)
    cptp_dev = max(cptp.psd_violation, cptp.tp_violation)
    ns_dev = is_nonsignalling(rebuilt).max_residual
    elapsed = time.time() - t0
    ok = gap <= 0.05 and cptp_dev <= 1e-8 and ns_dev <= 1e-8 and elapsed < 300
    _report(7, "protocol reconstruction", ok,
            f"risk gap {gap:.4f} <= 0.05, rebuilt cptp dev {cptp_dev:.2e}, "
            f"ns residual {ns_dev:.2e} <= 1e-8, {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 8. the two risk-evaluation paths agree on random instances
# ---------------------------------------------------------------------------

def test_criterion_8_dual_path_risk():
    t0 = time.time()
    rng = np.random.default_rng(8)
    base = classification_task(
        [0.5, 0.5],
        [np.outer([1.0, 0.0], [1.0, 0.0]),
         np.outer([0.6, 0.8], [0.6, 0.8])], n=1)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(1, 4))
        q = random_nonsignalling_choi(2, 2, 2, n, seed=1000 + i)
        task = LearningTask(rho_a=random_density(rng, 2), rho_xr=base.rho_xr, s=base.s, n=n)
        a = expected_risk(q, task, path="marginal")
        b = expected_risk(q, task, path="direct")
        worst = max(worst, abs(a - b))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 120
    _report(8, "dual-path risk evaluation", ok,
            f"max disagreement {worst:.3e} <= 1e-8, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 9. risk-gap experiment reports a dominated gap and a deterministic CSV
# ---------------------------------------------------------------------------

def test_criterion_9_bound_reporting(tmp_path):
    t0 = time.time()
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["risk-gap", "--seed", "0", "--overlap", "0.6", "--n", "1..4"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    deterministic = out_a.read_bytes() == out_b.read_bytes()
    rows = [line.split(",") for line in
            out_a.read_text().splitlines()[1:]]
    dominated = True
    gaps = []
    for row in rows:
        n, gap, bound = int(row[0]), float(row[3]), float(row[4])
        gaps.append(f"n={n}: gap {gap:.3f} <= min(2, {bound:.2f})")
        dominated = dominated and gap <= min(2.0, bound) + 1e-12
    elapsed = time.time() - t0
    ok = deterministic and dominated and len(rows) == 4 and elapsed < 600
    _report(9, "bound reporting", ok,
            "; ".join(gaps) + f", deterministic={deterministic}, "
            f"{elapsed:.1f}s < 600s")
