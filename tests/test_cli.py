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


def test_convergence_table_never_mixes_configs(tmp_path):
    # two configs share a study_id and differ only in depth
    deep = write_cfg(tmp_path, BASE.replace("depth = 1.0", "depth = 2.0"), "deep.cfg")
    base = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "out")
    store = os.path.join(out, "results.csv")
    _, rows = run_experiment(base, mode="convergence_study", out_dir=out)
    _, deep_rows = run_experiment(deep, mode="convergence_study", out_dir=out)

    def expected(rows):
        duals = {}
        for r in rows:
            if r.mode == "dual_bound":
                duals[r.n] = max(duals.get(r.n, -np.inf), r.value)
        prices = {r.n: r.value for r in rows if r.mode == "primal_dp"}
        limit = [r.value for r in rows if r.mode == "limit_hjb"][-1]
        return [(n, prices[n], duals[n], limit) for n in sorted(prices)]

    def tabulated(records):
        return [(rec["n"], rec["price"], rec["lower_bound"], rec["limit"]) for rec in records]

    assert expected(deep_rows) != expected(rows)
    # by default the most recently stored config
    assert tabulated(convergence_table(store, "unit")[1]) == expected(deep_rows)
    # a re-run served from the store appends nothing; its digest selects it
    assert tabulated(convergence_table(store, "unit", rows[0].digest)[1]) == expected(rows)


def test_leftover_lock_file_does_not_block(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = tmp_path / "out"
    out.mkdir()
    store = out / "results.csv"
    # what a run killed while holding the lock leaves behind
    (out / "results.csv.lock").write_text("")
    code, rows = run_experiment(cfg, mode="primal_dp", out_dir=str(out))
    assert code == 0 and len(cli._store_read(str(store))) == len(rows)
    # a live holder still excludes other writers
    with cli._StoreLock(str(store)):
        with pytest.raises(ConfigError, match="locked"):
            with cli._StoreLock(str(store)):
                pass
    with cli._StoreLock(str(store)):
        pass


def test_torn_last_row_is_reported(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = tmp_path / "out"
    assert main(["price", "--config", cfg, "--out", str(out)]) == 0
    store = out / "results.csv"
    # an append cut off in the middle of the value field; a value that does not parse
    header, row = store.read_bytes().decode().splitlines()
    value_at = row.index(']",') + 3  # the value follows the quoted label
    for torn in (row[: value_at + 4], row[:value_at] + "1.0x" + row[value_at + 4 :]):
        store.write_bytes(f"{header}\r\n{torn}".encode())
        capsys.readouterr()
        assert main(["price", "--config", cfg, "--out", str(out)]) == 1
        assert f"{store} line 2" in capsys.readouterr().err


def test_append_refuses_store_without_final_newline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = tmp_path / "out"
    assert main(["price", "--config", cfg, "--out", str(out)]) == 0
    store = out / "results.csv"
    torn = store.read_bytes().rstrip(b"\r\n")
    store.write_bytes(torn)
    capsys.readouterr()
    assert main(["price", "--config", cfg, "--no-cache", "--out", str(out)]) == 1
    assert "torn row" in capsys.readouterr().err
    assert store.read_bytes() == torn  # nothing was fused onto the last row
    # the complete rows are still served
    assert main(["price", "--config", cfg, "--out", str(out)]) == 0


def test_torn_store_fails_before_the_body_runs(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2"))
    out = tmp_path / "out"
    run_experiment(cfg, mode="primal_dp", out_dir=str(out))
    store = out / "results.csv"
    store.write_bytes(store.read_bytes().rstrip(b"\r\n"))
    calls = []
    monkeypatch.setitem(cli._BODIES, "primal_dp", lambda cfg, emit: calls.append(cfg))
    with pytest.raises(ConfigError, match="torn row"):
        run_experiment(cfg, mode="primal_dp", no_cache=True, out_dir=str(out))
    assert calls == []
