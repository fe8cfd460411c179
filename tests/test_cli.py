import json
import warnings

import pytest

from nslocc import tensor_core
from nslocc.cli import main


def test_no_command_prints_help(capsys):
    assert main([]) == 2
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


def test_gen_channel_emits_valid_choi(tmp_path):
    out = tmp_path / "q.json"
    code = main(["gen-channel", "--seed", "9", "--n", "2",
                 "--d-a", "2", "--d-x", "2", "--d-y", "2",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["cptp"]["psd_violation"] <= 1e-8
    assert blob["cptp"]["tp_violation"] <= 1e-8
    assert blob["ns_residual"] <= 1e-6
    assert blob["omega"]["labels"][0] == "A"


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
    assert "design | haar:SEED:COUNT" in capsys.readouterr().err
    assert not out.exists()


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
    [cmd, "--grid", "design"] for cmd in
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
], ids=["count-null", "seed-list", "overlap-null", "n-bool", "n-list-null",
        "count-fraction", "inject-signalling-number", "n-range-of-three", "out-int"])
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


def test_subspace_residual_gram_blocks_fit_the_budget(monkeypatch, tmp_path):
    # a budget of side 8 holds 64 complex entries: a 16-point grid takes its
    # Gram matrix four rows at a time, not as a 16 x 16 block
    from nslocc import definetti
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    sizes = []
    int_power = definetti.int_power

    def recording(x, n):
        sizes.append(x.size)
        return int_power(x, n)

    monkeypatch.setattr(definetti, "int_power", recording)
    out = tmp_path / "out.csv"
    assert main(["definetti", "--n", "16", "--count", "16", "--k", "0",
                 "--out", str(out)]) == 0
    assert sizes and max(sizes) <= 64


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
    assert main(["classical-demo", "--seed", "4", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
