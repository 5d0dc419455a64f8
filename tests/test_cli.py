"""Command-line behavior: parsing, exit codes, artifacts, reproducibility."""

import csv
import json
import time

import pytest

from irs_cache_dof.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VERIFICATION, main

EXAMPLE_FLAGS = [
    "--k-t", "3", "--k-r", "4", "--n-files", "12", "--f-packets", "12",
    "--mu-t", "1", "--mu-r", "1", "--q-elements", "6",
]


def test_simulate_worked_example(tmp_path):
    out = tmp_path / "episode.json"
    code = main(["simulate", *EXAMPLE_FLAGS, "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["sum_dof"] == [4, 1]
    assert payload["per_user_dof"] == [1, 1]
    assert payload["all_passed"] is True
    assert payload["h_blocks"] == 9


def test_simulate_block_csv(tmp_path):
    out = tmp_path / "episode.json"
    rows_path = tmp_path / "blocks.csv"
    code = main(
        ["simulate", *EXAMPLE_FLAGS, "--seed", "7", "--out", str(out), "--block-csv", str(rows_path)]
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(rows_path.open()))
    assert len(rows) == 9
    assert all(r["irs_status"] == "exact" for r in rows)
    assert all(r["delivered"] == "4" for r in rows)


def test_simulate_strict_q_infeasible_exit(tmp_path):
    out = tmp_path / "episode.json"
    code = main(
        [
            "simulate", "--k-t", "4", "--k-r", "4", "--n-files", "4", "--mu-t", "2",
            "--mu-r", "1", "--q-elements", "2", "--regime", "thm2-partition",
            "--strict-q", "--out", str(out),
        ]
    )
    assert code == EXIT_INFEASIBLE
    payload = json.loads(out.read_text())
    assert payload["infeasible_blocks"] == payload["h_blocks"]


def test_invalid_group_split_rejected(capsys):
    code = main(["simulate", "--k-t", "5", "--k-r", "4", "--n-files", "4", "--mu-t", "2", "--mu-r", "1"])
    assert code == EXIT_CONFIG
    assert "M*mu_t" in capsys.readouterr().err


def test_small_library_rejected(capsys):
    code = main(["simulate", "--k-t", "3", "--k-r", "4", "--n-files", "2", "--mu-t", "1", "--mu-r", "1"])
    assert code == EXIT_CONFIG
    assert "n_files" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "k_t": 3, "k_r": 4, "n_files": 12, "f_packets": 12,
        "mu_t": 1, "mu_r": 1, "q_elements": 6, "seed": 3,
    }))
    out = tmp_path / "episode.json"
    code = main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 9


@pytest.mark.parametrize(
    "command,settings,key",
    [
        ("simulate", {"k_t": 3, "k_r": 4, "n_files": 12, "f_packets": 12, "mu_t": 1, "mu_r": 1, "q_elments": 6}, "q_elments"),
        ("partition-find", {"m": 2, "design_mu_t": 3, "budget": 1}, "budget"),
    ],
)
def test_config_file_unknown_key_rejected(tmp_path, capsys, command, settings, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(capsys):
    code = main(["simulate", "--config", "/nonexistent/run.json"])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_schedule_verify_example(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["schedule-verify", *EXAMPLE_FLAGS, "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["partition"]["ok"] is True
    assert payload["cache_budgets"]["ok"] is True
    assert payload["schedule"]["h_blocks"] == 9


def test_partition_find_examples(tmp_path):
    out = tmp_path / "design.json"
    code = main(["partition-find", "--m", "2", "--design-mu-t", "2", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["found"] and payload["valid"]
    assert payload["num_classes"] == 3
    assert payload["classes"][0] == [[1, 2], [3, 4]]


@pytest.mark.parametrize("m,mu_t", [("0", "3"), ("2", "1"), ("5", "13")])
def test_partition_find_out_of_range_is_config_error(m, mu_t, capsys):
    # one case per bound: m < 1, mu_t < 2, m*mu_t > 64
    code = main(["partition-find", "--m", m, "--design-mu-t", mu_t])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["partition-find", "--m", "2", "--design-mu-t", "9"],
        ["schedule-verify", "--k-t", "18", "--k-r", "11", "--n-files", "11", "--mu-t", "9", "--mu-r", "1",
         "--sufficient-q"],
        ["simulate", "--k-t", "18", "--k-r", "11", "--n-files", "11", "--mu-t", "9", "--mu-r", "1",
         "--sufficient-q"],
    ],
)
def test_design_past_the_guard_is_config_error(argv, capsys):
    # (m, mu_t) = (2, 9) needs 24,310 parallel classes, past the design guard
    start = time.monotonic()
    assert main(argv) == EXIT_CONFIG
    assert time.monotonic() - start < 1.0
    assert "guard" in capsys.readouterr().err


def test_thm2_partition_three_groups_of_three(tmp_path):
    from irs_cache_dof.analytics import SUFFICIENT_Q, dof_theorem2
    from irs_cache_dof.params import SystemParams
    from irs_cache_dof.simulator import SimOptions, run_episode

    # K_T = 9 splits into m = 3 groups of mu_t = 3, a design Baranyai's construction builds
    out = tmp_path / "verify.json"
    code = main(
        ["schedule-verify", "--k-t", "9", "--k-r", "5", "--n-files", "5", "--mu-t", "3",
         "--mu-r", "1", "--q-elements", "6", "--sufficient-q", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["partition"]["ok"] is True
    assert payload["cache_budgets"]["ok"] is True
    params = SystemParams(k_t=9, k_r=5, n_files=5, f_packets=1, mu_t=3, mu_r=1, q_elements=6)
    ep = run_episode(params, "thm2-partition", seed=3, options=SimOptions(strictness=SUFFICIENT_Q))
    assert ep.all_passed
    assert ep.sum_dof == dof_theorem2(params, ep.l_size).sum_dof


def test_dof_sweep_preset_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["dof-sweep", "--preset", "fig2", "--out", str(out1)]) == EXIT_OK
    assert main(["dof-sweep", "--preset", "fig2", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_dof_sweep_custom_axis(tmp_path):
    out = tmp_path / "custom.csv"
    code = main(
        [
            "dof-sweep", "--k-t", "6", "--k-r", "6", "--mu-t", "1", "--mu-r", "2",
            "--axis", "q", "--axis-start", "0", "--axis-stop", "12", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 13 * 3
    assert {r["scheme"] for r in rows} == {"thm1", "bench_oneshot", "bench_ndt"}


def test_dof_sweep_needs_axis(capsys):
    code = main(["dof-sweep", "--k-t", "6", "--k-r", "6", "--mu-t", "1", "--mu-r", "2"])
    assert code == EXIT_CONFIG
    assert "axis" in capsys.readouterr().err


def test_negative_seed_rejected(capsys):
    code = main(["simulate", *EXAMPLE_FLAGS, "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_seed_past_64_bits_rejected(tmp_path, capsys):
    out = tmp_path / "episode.json"
    code = main(["simulate", *EXAMPLE_FLAGS, "--seed", str(2**64), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seed")
    assert not out.exists()


@pytest.mark.parametrize("variance", ["-1", "nan", "inf"])
def test_noise_variance_not_finite_and_nonnegative_rejected(tmp_path, capsys, variance):
    out = tmp_path / "episode.json"
    code = main(["simulate", *EXAMPLE_FLAGS, "--noise-variance", variance, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: noise variance")
    assert not out.exists()


def test_default_regime_follows_cache_overlap(tmp_path):
    out = tmp_path / "ep.json"
    code = main(
        ["simulate", "--k-t", "4", "--k-r", "4", "--n-files", "4", "--mu-t", "2",
         "--mu-r", "1", "--q-elements", "4", "--sufficient-q", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["regime"] == "thm2-partition"


def test_explicit_regime_contradiction_rejected(capsys):
    code = main(
        ["simulate", "--k-t", "4", "--k-r", "4", "--n-files", "4", "--mu-t", "2",
         "--mu-r", "1", "--regime", "thm1"]
    )
    assert code == EXIT_CONFIG
    assert "mu_t" in capsys.readouterr().err


def test_presets_encode_figure_parameters():
    from irs_cache_dof.cli import PRESETS

    assert set(PRESETS) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
    assert (PRESETS["fig2"]["k_t"], PRESETS["fig2"]["k_r"]) == (26, 26)
    assert (PRESETS["fig2"]["mu_t"], PRESETS["fig2"]["mu_r"]) == (1, 5)
    assert (PRESETS["fig3"]["mu_t"], PRESETS["fig3"]["mu_r"]) == (2, 12)
    assert PRESETS["fig4"]["k_t"] == PRESETS["fig5"]["k_t"] == 20
    assert (PRESETS["fig4"]["mu_t"], PRESETS["fig5"]["mu_t"]) == (1, 2)
    assert PRESETS["fig4"]["mu_r"] == PRESETS["fig5"]["mu_r"] == 5
    assert PRESETS["fig6"]["k_t"] == PRESETS["fig6"]["k_r"] == 16
    assert (PRESETS["fig6"]["mu_t"], PRESETS["fig7"]["mu_t"]) == (1, 2)
    assert PRESETS["fig4"]["axis"] == PRESETS["fig5"]["axis"] == "k_r"
    assert PRESETS["fig6"]["axis"] == PRESETS["fig7"]["axis"] == "mu_r"
    assert PRESETS["fig6"]["values"] == list(range(1, 16))


def test_simulate_artifacts_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        rows = tmp_path / f"{name}.csv"
        code = main(
            ["simulate", *EXAMPLE_FLAGS, "--seed", "11", "--out", str(out), "--block-csv", str(rows)]
        )
        assert code == EXIT_OK
        outs.append((out.read_bytes(), rows.read_bytes()))
    assert outs[0] == outs[1]


EXAMPLE_SETTINGS = {"k_t": 3, "k_r": 4, "n_files": 12, "f_packets": 12, "mu_t": 1, "mu_r": 1, "q_elements": 6}


@pytest.mark.parametrize(
    "key, value",
    [
        ("l_size", "1"),
        ("k_t", "3"),
        ("mu_r", 1.5),
        ("k_r", 4.0),
        ("seed", True),
        ("disable_irs", "false"),
        ("disable_irs", 0),
        ("noise_variance", "1e-3"),
        ("noise_variance", False),
        ("regime", 1),
        ("out", 5),
    ],
)
def test_config_file_setting_of_the_wrong_json_type_rejected(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**EXAMPLE_SETTINGS, key: value}))
    out = tmp_path / "episode.json"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err
    assert not out.exists()


def test_config_file_typed_settings_accepted(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**EXAMPLE_SETTINGS, "disable_irs": False, "noise_variance": 0, "regime": "thm1"}))
    out = tmp_path / "episode.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["noise_variance"] == 0.0


def test_surface_switch_and_noise_variance_from_flags_and_config_run(tmp_path):
    """``--disable-irs`` and ``--noise-variance`` reach the episode as a bool
    and a float, from the command line and from a config file alike."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**EXAMPLE_SETTINGS, "disable_irs": True, "noise_variance": 1}))
    runs = {
        "flags": ["simulate", *EXAMPLE_FLAGS, "--seed", "7", "--disable-irs", "--noise-variance", "1"],
        "config": ["simulate", "--config", str(cfg), "--seed", "7"],
    }
    artifacts = []
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == EXIT_VERIFICATION
        artifacts.append(json.loads(out.read_text()))
    assert artifacts[0] == artifacts[1]
    assert artifacts[0]["noise_variance"] == 1.0 and artifacts[0]["max_irs_residual"] == 0.0


@pytest.mark.parametrize(
    "settings, name",
    [
        ({"preset": "fig9"}, "fig9"),
        ({"axis": "q_size", "k_t": 6, "k_r": 6, "mu_t": 1, "mu_r": 2, "axis_start": 0, "axis_stop": 3}, "q_size"),
    ],
    ids=["preset", "axis"],
)
def test_config_file_unknown_sweep_name_rejected(tmp_path, capsys, settings, name):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    assert main(["dof-sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "flags, regime, label, tx_mode",
    [
        (EXAMPLE_FLAGS, "thm1", "T1-I", "subset"),
        (["--k-t", "3", "--k-r", "4", "--mu-t", "1", "--mu-r", "1", "--q-elements", "2"], "thm1", "T1-II", "subset"),
        (["--k-t", "4", "--k-r", "4", "--mu-t", "2", "--mu-r", "1", "--q-elements", "4"],
         "thm2-partition", "T2-IA", "subset"),
        (["--k-t", "4", "--k-r", "5", "--mu-t", "2", "--mu-r", "1", "--q-elements", "4", "--regime", "thm2-partition"],
         "thm2-partition", "T2-II", "subset"),
        (["--k-t", "4", "--k-r", "4", "--mu-t", "2", "--mu-r", "1", "--q-elements", "4", "--regime", "thm2-ordered"],
         "thm2-ordered", "T2-IB", "ordered"),
        (["--k-t", "4", "--k-r", "5", "--mu-t", "2", "--mu-r", "1", "--q-elements", "4", "--regime", "thm2-ordered"],
         "thm2-ordered", "T2-II", "ordered"),
    ],
)
def test_design_names_in_artifacts(tmp_path, capsys, flags, regime, label, tx_mode):
    """The design and its paper label reach every artifact as the plain
    strings the command line and the paper use."""
    episode, rows, verify = tmp_path / "episode.json", tmp_path / "blocks.csv", tmp_path / "verify.json"
    flags = [*flags, "--sufficient-q"]
    assert main(["simulate", *flags, "--out", str(episode), "--block-csv", str(rows)]) == EXIT_OK
    assert main(["schedule-verify", *flags, "--out", str(verify)]) == EXIT_OK
    simulated, verified = json.loads(episode.read_text()), json.loads(verify.read_text())
    assert (simulated["regime"], simulated["schedule_regime"]) == (regime, label)
    assert (verified["schedule"]["regime"], verified["schedule"]["tx_mode"]) == (label, tx_mode)
    outputs = [episode.read_text(), rows.read_text(), verify.read_text(), *capsys.readouterr()]
    assert not any("Design." in text for text in outputs)
