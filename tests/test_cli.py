"""Config parsing, experiment dispatch, caching and reproducibility."""

import os
import time

import numpy as np
import pytest

from impactlab import cli
from impactlab.cli import (
    ConfigError,
    ExperimentConfig,
    convergence_table,
    main,
    run_experiment,
)


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """
[market]
sigma = 1.0
depth = 1.0
resilience = 0.5

[payoff]
kind = call
strike = 0.0

[run]
n_list = 2 3
study_id = unit
seed = 42

[dp]
n_x = 41
n_zeta = 48

[dual]
nu_values = 1.0 1.2

[hjb]
n_space = 201
nu_sq_max = 4.0
"""


def test_config_rejects_unknown_key(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("depth = 1.0", "depth = 1.0\nbogus = 1"))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.load(cfg)


def test_config_rejects_unknown_section(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        ExperimentConfig.load(cfg)


def test_config_rejects_bad_value(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("sigma = 1.0", "sigma = much"))
    with pytest.raises(ConfigError, match="sigma"):
        ExperimentConfig.load(cfg)


def test_config_rejects_invalid_market(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("resilience = 0.5", "resilience = 1.5"))
    with pytest.raises(ConfigError, match="resilience"):
        ExperimentConfig.load(cfg)


def test_digest_depends_on_values_and_seed(tmp_path):
    a = ExperimentConfig.load(write_cfg(tmp_path, BASE, "a.cfg"))
    b = ExperimentConfig.load(write_cfg(tmp_path, BASE.replace("depth = 1.0", "depth = 2.0"), "b.cfg"))
    c = ExperimentConfig.load(write_cfg(tmp_path, BASE, "c.cfg"), seed_override=7)
    assert a.digest() != b.digest()
    assert a.digest() != c.digest()


def test_identity_suite_passes(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    code, rows = run_experiment(cfg, mode="identity_suite", out_dir=str(tmp_path / "out"))
    assert code == 0
    assert {r.label for r in rows} == {"spread", "kappa", "wealth", "walk_square"}
    assert all(r.flag == "" for r in rows)


def test_primal_frictionless_call_row(tmp_path):
    body = BASE.replace("n_list = 2 3", "n_list = 2").replace(
        "sigma = 1.0", "sigma = 1.4142135623730951"
    )
    body = body.replace("n_zeta = 48", "n_zeta = 48\nfrictionless = true")
    cfg = write_cfg(tmp_path, body)
    code, rows = run_experiment(cfg, mode="primal_dp", out_dir=str(tmp_path / "out"))
    assert code == 0
    assert rows[0].value == pytest.approx(0.5, abs=1e-3)


def test_study_rows_and_table(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "out")
    code, rows = run_experiment(cfg, mode="convergence_study", out_dir=out)
    modes = {r.mode for r in rows}
    assert modes == {"primal_dp", "dual_bound", "limit_hjb"}
    text, records = convergence_table(os.path.join(out, "results.csv"), "unit")
    assert len(records) == 2
    for rec in records:
        assert np.isfinite(rec["gap"]) and rec["gap"] > 0
        assert rec["lower_bound"] <= rec["price"] + 1e-9
    assert "price" in text.splitlines()[0]


def test_cache_serves_identical_rows(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = str(tmp_path / "out")
    code1, rows1 = run_experiment(cfg, mode="primal_dp", out_dir=out)
    code2, rows2 = run_experiment(cfg, mode="primal_dp", out_dir=out)
    assert code1 == code2
    assert [r.key_fields() for r in rows2] == [r.key_fields() for r in rows1]
    store = os.path.join(out, "results.csv")
    n_lines = len(open(store).read().splitlines())
    code3, rows3 = run_experiment(cfg, mode="primal_dp", out_dir=out, no_cache=True)
    assert [r.key_fields() for r in rows3] == [r.key_fields() for r in rows1]
    assert len(open(store).read().splitlines()) == 2 * n_lines - 1  # re-appended


def test_cache_recomputes_rows_of_another_solver_revision(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = str(tmp_path / "out")
    _, old = run_experiment(cfg, mode="primal_dp", out_dir=out)
    monkeypatch.setattr(cli, "SOLVER_REVISION", cli.SOLVER_REVISION + 1)
    _, new = run_experiment(cfg, mode="primal_dp", out_dir=out)
    assert new[0].digest != old[0].digest
    # recomputed and appended, not served from the old revision's rows
    digests = [r.digest for r in cli._store_read(os.path.join(out, "results.csv"))]
    assert digests == [old[0].digest, new[0].digest]


def test_wall_ms_is_per_row(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    t0 = time.perf_counter()
    _, rows = run_experiment(cfg, mode="convergence_study", out_dir=str(tmp_path / "out"), no_cache=True)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert len(rows) > 1
    assert sum(r.wall_ms for r in rows) <= elapsed_ms


def test_reproducibility_bit_for_bit(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rows_a = run_experiment(cfg, mode="dual_bound", out_dir=str(tmp_path / "a"))[1]
    rows_b = run_experiment(cfg, mode="dual_bound", out_dir=str(tmp_path / "b"))[1]
    assert [r.key_fields() for r in rows_a] == [r.key_fields() for r in rows_b]


def test_mode_mismatch_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("study_id = unit", "study_id = unit\nmode = limit_hjb"))
    with pytest.raises(ConfigError, match="mode"):
        run_experiment(cfg, mode="primal_dp", out_dir=str(tmp_path / "out"))


def test_main_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert main(["price", "--config", cfg, "--out", out]) == 0
    bad = write_cfg(tmp_path, BASE.replace("depth = 1.0", "depth = 1.0\nbogus = 1"), "bad.cfg")
    assert main(["price", "--config", bad, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "bogus" in captured.err


def test_main_study_emits_plot_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "study_unit.csv"))
    assert "gap" in open(os.path.join(out, "study_unit.csv")).read()
