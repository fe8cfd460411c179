import argparse
import json
import warnings

import numpy as np
import pytest

from nslocc import channels, cli, locc, tensor_core
from nslocc.channels import NS_TOL, TP_TOL
from nslocc.cli import main
from nslocc.tensor_core import PSD_TOL


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    tops = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        tops.append(kwargs.get("prog") == "nslocc")    # subparsers have their own prog
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert main(["classical-demo", "--seed", "4"]) == 0
    assert main([]) == 2
    assert sum(tops) <= 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert all(c["ok"] for c in report["checks"])


def test_verify_reports_measured_repair_margin(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "3", "--out", str(out)]) == 0
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["name"] == "repair_distance_bound"]
    assert 0.0 < check["lhs"] <= check["rhs"]


def test_verify_negative_control_fails(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--seed", "3", "--inject-signalling",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["passed"]


def test_risk_gap_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["risk-gap", "--seed", "0", "--n", "1..2", "--overlap", "0.6",
            "--grid", "haar:0:400"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["n", "risk_collective", "risk_locc"]


def test_definetti_rows(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["definetti", "--n", "8", "--seed", "1",
                 "--count", "500", "--k", "0,1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,k,")
    assert len(lines) == 3  # header + k=0 + k=1


def test_classical_demo_runs(tmp_path):
    out = tmp_path / "c.json"
    code = main(["classical-demo", "--seed", "4", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert "risks" in blob or len(blob) > 0


def test_classical_demo_seed_4_is_pinned(capsys):
    """The mixture weights, read off the rebuilt channel's POVM diagonal, are
    the per-function products bit for bit; the original table's risk and the
    rebuilt channel's agree to 1e-15."""
    assert main(["classical-demo", "--seed", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [row["mixture_weights"] for row in blob["per_a"]] == [
        {"00": 0.4094804534033604, "01": 0.31284771708343656,
         "10": 0.15740932071053038, "11": 0.12026250880267245},
        {"00": 0.21382120878427058, "01": 0.3800139359511055,
         "10": 0.14624708740852768, "11": 0.25991776785609644}]
    for row in blob["per_a"]:
        assert abs(row["risk_original"] - row["risk_reconstructed"]) <= 1e-15


def test_gen_channel_emits_valid_choi(tmp_path):
    out = tmp_path / "q.json"
    code = main(["gen-channel", "--seed", "9", "--n", "2",
                 "--d-a", "2", "--d-x", "2", "--d-y", "2",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["cptp"]["psd_violation"] <= PSD_TOL
    assert blob["cptp"]["tp_violation"] <= TP_TOL
    assert blob["ns_residual"] <= NS_TOL
    assert blob["omega"]["labels"][0] == "A"


def test_gen_channel_deterministic_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-channel", "--seed", "3", "--n", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("d_a, d_x, d_y, n", [(1, 2, 2, 1), (2, 3, 2, 2), (2, 2, 2, 3),
                                               (1, 1, 1, 1), (4, 2, 2, 2)])
def test_gen_channel_streams_the_one_shot_json_bytes(monkeypatch, tmp_path, capsys,
                                                     d_a, d_x, d_y, n):
    # the file and stdout both read json.dumps(payload, sort_keys=True) + "\n"
    # of the channel the command sampled, encoded in one piece; ω = [[1.0]] at
    # (1, 1, 1, 1) takes the float encoder's fallback only, side 64 its blocks
    sampled = []

    def sampler(*args, **kwargs):
        sampled.append(channels.random_nonsignalling_choi(*args, **kwargs))
        return sampled[-1]
    monkeypatch.setattr(cli, "random_nonsignalling_choi", sampler)
    argv = ["gen-channel", "--seed", "2", "--d-a", str(d_a), "--d-x", str(d_x),
            "--d-y", str(d_y), "--n", str(n)]
    out = tmp_path / "q.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    ch = sampled[0]
    payload = {
        "seed": 2, "d_a": d_a, "d_x": d_x, "d_y": d_y, "n": n,
        "cptp": {"psd_violation": ch.cptp_report.psd_violation,
                 "tp_violation": ch.cptp_report.tp_violation},
        "ns_residual": ch.ns_report.max_residual,
        "omega": {"labels": list(ch.omega.labels), "dims": list(ch.omega.dims),
                  "re": ch.omega.matrix.real.tolist(), "im": ch.omega.matrix.imag.tolist()},
    }
    want = json.dumps(payload, sort_keys=True) + "\n"
    for where, got in (("--out", out.read_text()), ("stdout", capsys.readouterr().out)):
        if got != want:   # a plain == would make pytest diff the whole document
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            pytest.fail(f"{where} differs from the one-shot bytes at offset {at}: "
                        f"{got[at - 20:at + 20]!r} vs {want[at - 20:at + 20]!r}")


def test_gen_channel_writes_a_block_of_rows_at_a_time(monkeypatch, tmp_path):
    # a side-512 channel's write holds far less than one float list of its
    # matrix: the float encoder takes cli.ENCODE_BLOCK elements at a time
    import sys
    import tracemalloc
    from types import SimpleNamespace
    rng = np.random.default_rng(0)
    side = 512
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    ch = SimpleNamespace(
        omega=tensor_core.op(m, ("A", 2), *[(f"{r}{i}", 2) for i in range(1, 5) for r in "XY"]),
        cptp_report=SimpleNamespace(psd_violation=0.0, tp_violation=0.0),
        ns_report=SimpleNamespace(max_residual=0.0))
    monkeypatch.setattr(cli, "random_nonsignalling_choi", lambda *args, **kwargs: ch)
    float_list = side * side * (sys.getsizeof(0.5) + 8)       # floats and pointers
    out = tmp_path / "q.json"
    tracemalloc.start()
    try:
        assert main(["gen-channel", "--n", "4", "--d-a", "2", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < float_list / 16, (peak, float_list)
    with open(out) as fh:
        head = fh.read(side * 40)
    assert head.startswith('{"cptp": {"psd_violation": 0.0, "tp_violation": 0.0}, "d_a": 2')
    assert json.dumps(m.imag[0].tolist())[1:-1] in head


@pytest.mark.parametrize("seed", ["1", "21"])
def test_gen_channel_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, seed):
    # both seeds wrote different files at one and two threads when the
    # sampler ran on the caller's thread count
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"q{threads}.json"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "nslocc.cli", "gen-channel", "--seed", seed,
             "--n", "3", "--d-a", "2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_gen_channel_checks_each_channel_once(monkeypatch, tmp_path):
    calls = []   # (check, channel); holding the channel keeps its id unique
    for name in ("is_cptp", "is_nonsignalling"):
        def counted(ch, fn=getattr(channels, name), name=name):
            calls.append((name, ch))
            return fn(ch)
        for module in (channels, cli):
            monkeypatch.setattr(module, name, counted)
    # seed 5's first converged sweep fails the signalling check, so two
    # channels are checked; only the emitted one gets the eigensolve
    assert main(["gen-channel", "--seed", "5", "--n", "2",
                 "--out", str(tmp_path / "q.json")]) == 0
    assert len({(name, id(ch)) for name, ch in calls}) == len(calls)
    assert [name for name, _ in calls].count("is_cptp") == 1


def test_gen_channel_exits_2_when_the_sampler_does_not_converge(monkeypatch, tmp_path,
                                                                capsys):
    monkeypatch.setattr(channels, "SAMPLER_MAX_ITER", 1)
    out = tmp_path / "q.json"
    assert main(["gen-channel", "--seed", "3", "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alternating projections did not converge: tp=")
    assert " psd=" in err and " ns=" in err
    assert not out.exists()


def test_config_file_merges_with_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "n": "1..2", "overlap": 0.6,
                               "grid": "haar:0:300"}))
    out = tmp_path / "r.csv"
    code = main(["risk-gap", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3
    # an explicit flag beats the file: the run matches the same flags without it
    over, flags = tmp_path / "over.csv", tmp_path / "flags.csv"
    assert main(["risk-gap", "--config", str(cfg), "--overlap", "0.3",
                 "--seed", "2", "--out", str(over)]) == 0
    assert main(["risk-gap", "--n", "1..2", "--overlap", "0.3", "--seed", "2",
                 "--grid", "haar:0:300", "--out", str(flags)]) == 0
    assert over.read_bytes() == flags.read_bytes()
    assert over.read_bytes() != out.read_bytes()


def test_risk_gap_rejects_overlap_outside_unit_interval(tmp_path, capsys):
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["risk-gap", "--n", "1", "--overlap", "1.5", "--out", str(out)])
    assert code == 2
    assert "--overlap" in capsys.readouterr().err
    assert not out.exists()


def test_gen_channel_rejects_zero_rounds(tmp_path, capsys):
    out = tmp_path / "q.json"
    code = main(["gen-channel", "--n", "0", "--out", str(out)])
    assert code == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1]")
    assert main(["verify", "--config", str(bad)]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["definetti", "--n", "4", "--count", "0"], "--count"),
    (["definetti", "--n", "0", "--count", "10"], "--n"),
    (["risk-gap", "--n", "0"], "--n"),
])
def test_zero_counts_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reports_measured_crossing_residual(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "3", "--out", str(out)]) == 0
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["name"] == "output_crossing_detected"]
    assert check["ok"]
    assert abs(check["lhs"] - 1.5) <= 1e-12   # the swap channel's residual
    assert check["rhs"] == 0.5


@pytest.mark.parametrize("grid", ["haar:0:0", "haarfoo", "haar:0:50:junk"])
def test_bad_grid_name_exits_2_naming_the_grammar(tmp_path, capsys, grid):
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--n", "1", "--grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("; grid names are haar:SEED:COUNT\n")
    assert not out.exists()


def test_design_grid_is_refused_before_any_purification(monkeypatch, tmp_path, capsys):
    # `design` names no grid: it is refused as a name, before any reduction
    def refuse(q):
        raise AssertionError("purified before the grid name was checked")

    monkeypatch.setattr(locc, "purify_channel", refuse)
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--n", "1..4", "--grid", "design", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bad grid name 'design'; grid names are haar:SEED:COUNT\n")
    assert not out.exists()


def test_risk_gap_draws_one_grid_for_its_whole_sweep(monkeypatch, tmp_path):
    # the grid is drawn once, before the n loop, and every n is reduced on it
    drawn, used = [], []
    build, reduce_on = cli.build_grid, locc.extract_measure

    def counted(d_eff, name):
        drawn.append(build(d_eff, name))
        return drawn[-1]

    def recorded(ext, grid):
        used.append(grid)
        return reduce_on(ext, grid)

    monkeypatch.setattr(cli, "build_grid", counted)
    monkeypatch.setattr(locc, "extract_measure", recorded)
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--n", "1,2,3", "--grid", "haar:0:200", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert len(drawn) == 1 and len(used) == 3
    assert all(grid is drawn[0] for grid in used)


def test_empty_n_range_exits_2_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--n", "3..1", "--out", str(out)]) == 2
    assert "error: --n " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "tol": 1}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bad config: unknown key 'tol'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [cmd, "--tol", "5"] for cmd in
    ("verify", "risk-gap", "definetti", "classical-demo", "gen-channel")] + [
    [cmd, "--grid", "haar:0:10"] for cmd in
    ("verify", "definetti", "classical-demo", "gen-channel")] + [
    [cmd, "--n", "7"] for cmd in ("verify", "classical-demo")],
    ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_flags_a_subcommand_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_risk_gap_identical_class_states_runs(tmp_path):
    # overlap 1.0: the Helstrom projector is empty and the best guess is a coin
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--overlap", "1.0", "--n", "1,2",
                 "--grid", "haar:0:200", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row.split(",")[1]) - 0.5) <= 1e-12


def test_gen_channel_rejects_several_rounds_values(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["gen-channel", "--n", "1,3", "--out", str(out)]) == 2
    assert "error: --n must name exactly one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k, message", [("3..1", "--k names no values"),
                                        ("-1", "--k must be at least 0")])
def test_definetti_bad_k_exits_2_naming_the_flag(tmp_path, capsys, k, message):
    out = tmp_path / "d.csv"
    assert main(["definetti", "--n", "4", "--k", k, "--count", "10",
                 "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["verify", "risk-gap", "definetti",
                                 "classical-demo", "gen-channel"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, cmd):
    out = tmp_path / "out"
    assert main([cmd, "--seed", "-1", "--out", str(out)]) == 2
    assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_from_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2}))
    assert main(["classical-demo", "--config", str(cfg)]) == 2
    assert "error: --seed must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["risk-gap", "--n", "1,1", "--grid", "haar:0:100"], "--n names 1 more than once"),
    (["definetti", "--n", "4,8", "--k", "0,0", "--count", "10"],
     "--k names 0 more than once"),
], ids=["n", "k"])
def test_repeated_value_exits_2_naming_flag_and_value(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_dense_work_exits_2_before_it_is_built(monkeypatch, tmp_path, capsys):
    # a budget just below the n = 2 purification core (side E·d_A = 8·4 = 32):
    # n = 1 runs, n = 2 is refused
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 32 * 32 - 1)
    out = tmp_path / "gap.csv"
    assert main(["risk-gap", "--n", "1,2", "--grid", "haar:0:10", "--out", str(out)]) == 2
    assert ("error: purify_product_mixture needs a dense 32 x 32 operator"
            in capsys.readouterr().err)
    assert not out.exists()


def test_risk_gap_builds_nothing_of_the_choi_side(monkeypatch, tmp_path):
    # a budget below side 256: the n = 4 Choi state (side 1024), √ω and ψ
    # could not be built, but the purification core (side 128) and the Gram
    # matrix (side 64) fit
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 256 * 256 - 1)
    out = tmp_path / "gap.csv"
    assert main(["risk-gap", "--n", "4", "--grid", "haar:0:50", "--out", str(out)]) == 0
    assert out.read_text().startswith("n,risk_collective")


def test_risk_gap_runs_past_the_old_dense_cap(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["risk-gap", "--n", "6", "--grid", "haar:0:50", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    assert header == "n,risk_collective,risk_locc,gap,bound,grid_residual,seed"
    assert [line.split(",")[0] for line in lines] == ["6"]
    for line in lines:
        rc, rl, gap = (float(x) for x in line.split(",")[1:4])
        assert 0.0 <= rc <= 1.0 and 0.0 <= rl <= 1.0
        assert gap == pytest.approx(abs(rc - rl), abs=1e-9)


@pytest.mark.parametrize("argv, config, message", [
    (["definetti"], {"count": None}, "bad config: 'count' cannot be null"),
    (["definetti"], {"seed": [1]}, "bad config: 'seed' cannot be [1]"),
    (["risk-gap"], {"overlap": None}, "bad config: 'overlap' cannot be null"),
    (["definetti"], {"n": True}, "bad config: 'n' cannot be true"),
    (["definetti"], {"n": [4, None]}, "bad config: 'n' cannot be [4, null]"),
    (["definetti"], {"count": 2.5}, "bad config: 'count' cannot be 2.5"),
    (["verify"], {"inject_signalling": 1}, "bad config: 'inject_signalling' cannot be 1"),
    (["risk-gap", "--n", "1..2..3"], None, "error: --n range must read LO..HI"),
    (["verify"], {"out": 2}, "bad config: 'out' cannot be 2"),
    # a value that is not a number is refused naming its flag or key
    (["risk-gap", "--n", "1.."], None, "error: --n must name integers, got '1..'"),
    (["risk-gap", "--n", "1,,2"], None, "error: --n must name integers, got '1,,2'"),
    (["definetti", "--k", "a"], None, "error: --k must name integers, got 'a'"),
    (["risk-gap"], {"overlap": "x"}, "error: bad config: 'overlap' cannot be \"x\""),
    (["definetti"], {"count": "x"}, "error: bad config: 'count' cannot be \"x\""),
    (["definetti"], {"seed": "x"}, "error: bad config: 'seed' cannot be \"x\""),
    (["definetti"], {"n": "1..x"}, "error: --n must name integers, got '1..x'"),
], ids=["count-null", "seed-list", "overlap-null", "n-bool", "n-list-null",
        "count-fraction", "inject-signalling-number", "n-range-of-three", "out-int",
        "n-open-range", "n-empty-item", "k-letter", "overlap-text", "count-text",
        "seed-text", "n-range-text"])
def test_bad_config_value_exits_2(tmp_path, capsys, argv, config, message):
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-channel", "--n", "2", "--d-a", "2"],
     "error: random_nonsignalling_choi needs a dense 32 x 32 operator"),
    (["definetti", "--n", "16", "--count", "16", "--k", "5"],
     "error: kron_power needs 1 dense 32 x 32 matrices, over the"),
], ids=["gen-channel", "definetti-k"])
def test_oversized_sampler_and_kron_power_exit_2(monkeypatch, tmp_path, capsys,
                                                 argv, message):
    # a budget of side 8: the n = 2, d_A = 2 Choi state (side 32) and the
    # k = 5 product of qubit states (side 32) are refused before they are built
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def record_gram_blocks(monkeypatch):
    """The sizes of the (square + accumulators, rows, G − lo) buffer stacks
    the Gram pass fills, one entry per filled block."""
    from nslocc import definetti
    sizes = []
    gram_rows = definetti._gram_rows

    def recording(vectors, lo, stack):
        sizes.append(stack.size)
        return gram_rows(vectors, lo, stack)

    monkeypatch.setattr(definetti, "_gram_rows", recording)
    return sizes


def test_subspace_residual_gram_blocks_fit_the_budget(monkeypatch, tmp_path):
    # a budget of side 8 holds 64 complex entries: a 16-point grid takes its
    # Gram matrix four rows at a time, not as a 16 x 16 block.  In the sweep,
    # the square and the accumulators of n = 5 and 6 (n = 1 has a dense
    # residual, whose 16 x 4 coordinates fill the budget) fit 64 entries
    # together, so its blocks hold one row each
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    out = tmp_path / "out.csv"
    sizes = record_gram_blocks(monkeypatch)
    for n, blocks in (("16", 4), ("1,5,6,16", 16)):
        sizes.clear()
        assert main(["definetti", "--n", n, "--count", "16", "--k", "0",
                     "--out", str(out)]) == 0
        assert sizes and max(sizes) <= 64
        assert len(sizes) == blocks


def test_definetti_sweep_fills_each_gram_block_once(monkeypatch, tmp_path):
    # three n share one pass over the four 4-row blocks: 4 fills, not 12.
    # Each block covers only the columns at and right of its first row, the
    # upper triangle of the Hermitian Gram matrix: 4 x 16, 4 x 12, 4 x 8, 4 x 4
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    sizes = record_gram_blocks(monkeypatch)
    out = tmp_path / "out.csv"
    assert main(["definetti", "--n", "16,64,256", "--count", "16", "--k", "0",
                 "--out", str(out)]) == 0
    assert sizes == [64, 48, 32, 16]


def test_definetti_sweep_rows_are_the_single_n_rows(tmp_path):
    argv = ["definetti", "--count", "200", "--seed", "3"]
    sweep = tmp_path / "sweep.csv"
    assert main(argv + ["--n", "5,8,13", "--out", str(sweep)]) == 0
    rows = []
    for n in ("5", "8", "13"):
        single = tmp_path / f"n{n}.csv"
        assert main(argv + ["--n", n, "--out", str(single)]) == 0
        header, *body = single.read_text().splitlines()
        rows += body
    assert sweep.read_text().splitlines() == [header] + rows


def test_grid_too_large_for_the_dense_residual_exits_2_before_the_overlaps(monkeypatch,
                                                                           capsys):
    # at n = 2 the residual's Dicke coordinates on C^16 are (count, 136): the
    # budget holds 123,361 points, and parse_grid_name admits up to 2^20
    from nslocc import definetti

    def unreachable(*args):
        raise AssertionError("overlaps computed for a refused grid")

    monkeypatch.setattr(definetti, "_block_overlaps", unreachable)
    assert main(["risk-gap", "--n", "2", "--grid", "haar:0:200000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the dense grid residual at n = 2 needs a dense "
                            "200000 x 136 array (415 MiB), over the 256 MiB budget\n")
    assert tensor_core.dense_budget_rows(136) == 123361


def test_definetti_sweep_eigensolves_its_branch_states_once(monkeypatch, tmp_path):
    # one K_j and one phi_j (J = 1): two eigensolves for the whole sweep
    from nslocc import definetti
    calls = []

    def counting(m):
        calls.append(m.shape)
        return tensor_core._psd_eigs(m)

    monkeypatch.setattr(definetti, "_psd_eigs", counting)
    out = tmp_path / "out.csv"
    for ns in ("16", "16,64,256", "1,3,5,8,13"):
        calls.clear()
        assert main(["definetti", "--n", ns, "--count", "50", "--out", str(out)]) == 0
        assert calls == [(1, 1), (2, 2)], ns


def test_haar_grid_over_the_budget_exits_2_before_it_is_drawn(monkeypatch, tmp_path,
                                                             capsys):
    # a budget of side 8 holds 16 grid vectors on C^4
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    out = tmp_path / "out.csv"
    argv = ["definetti", "--n", "16", "--k", "0", "--out", str(out)]
    assert main(argv + ["--count", "17"]) == 2
    assert ("error: a haar grid of 17 points on C^4 is over the dense budget of 16 points"
            in capsys.readouterr().err)
    assert not out.exists()
    assert main(argv + ["--count", "16"]) == 0
    assert out.exists()


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    for argv in (["classical-demo", "--seed", "4"], ["gen-channel", "--n", "1"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_measures_the_protocol_it_builds(tmp_path, seed):
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert list(checks) == [
        "choi_matches_kraus", "measure_prepare_nonsignalling", "output_crossing_detected",
        "repair_distance_bound", "protocol_cptp", "protocol_nonsignalling",
        "classical_mixture_risk_equality", "definetti_k0_identity"]
    for name in ("protocol_cptp", "protocol_nonsignalling"):
        assert checks[name]["ok"], name
        assert 0.0 <= checks[name]["lhs"] <= 1e-12, name
        assert checks[name]["rhs"] == 1e-8


def test_verify_fails_a_protocol_that_is_not_trace_preserving(monkeypatch, tmp_path):
    # mixing every preparation with ε of |0><0| ⊗ 1/2 moves its input
    # marginal by ε/2 = 8e-8, which the constructor's 1e-7 lets through, and
    # the protocol's trace-preservation defect by about ε/8 = 2e-8, which
    # verify's 1e-8 does not
    from dataclasses import replace

    import numpy as np

    from nslocc import cli
    build, eps = cli.build_locc_protocol, 1.6e-7
    skew = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)

    def skewed(q, grid):
        proto = build(q, grid)
        return replace(proto, chois=(1 - eps) * proto.chois + eps * skew)

    monkeypatch.setattr(cli, "build_locc_protocol", skewed)
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    check, = [c for c in report["checks"] if c["name"] == "protocol_cptp"]
    assert not report["passed"] and not check["ok"]
    assert 1e-8 < check["lhs"] < 1e-7


@pytest.mark.parametrize("argv, config, message", [
    (["risk-gap", "--grid", ""], None, "error: bad grid name ''"),
    (["risk-gap"], {"grid": ""}, "error: bad grid name ''"),
    (["risk-gap", "--out", ""], None, "error: bad config: --out names no file"),
    (["verify"], {"out": ""}, "error: bad config: --out names no file"),
    (["verify", "--config", ""], None, "error: bad config: [Errno 2] No such file"),
], ids=["grid-flag", "grid-config", "out-flag", "out-config", "config-flag"])
def test_empty_flag_exits_2(tmp_path, capsys, argv, config, message):
    # an empty value is not the flag's default: no default grid, no stdout,
    # no run without the config
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--n", "1"] * (argv[0] == "risk-gap")) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_risk_gap_far_over_the_budget_exits_2_before_purifying(tmp_path):
    # at n = 24 the purification factor has 2^26 columns; the refusal comes
    # from the column counts, before any of its arrays is built.  The child's
    # address space is capped, so a purification that allocates first fails
    # with a MemoryError instead of taking the machine's memory
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "gap.csv"
    run = subprocess.run(
        [sys.executable, "-m", "nslocc.cli", "risk-gap", "--n", "24",
         "--grid", "haar:0:10", "--out", str(out)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert "error: purify_product_mixture needs a dense" in run.stderr
    assert not out.exists()
