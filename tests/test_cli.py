"""Config parsing, experiment dispatch, caching and reproducibility."""

import configparser
import os
import re
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
from impactlab.pricing import DPGrids, PriceResult


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
    # [dp] augmentation, x_max, refine and frictionless, [market] xi0, [run]
    # mode, [mc] family and [dual] exact_max_n and mc_paths (every bound is
    # now exact) were keys once: a config naming them stops
    for after, line, key in (
        ("depth = 1.0", "bogus = 1", "bogus"),
        ("n_x = 41", "augmentation = auto", "augmentation"),
        ("n_x = 41", "x_max = 4", "x_max"),
        ("n_x = 41", "refine = true", "refine"),
        ("n_x = 41", "frictionless = true", "frictionless"),
        ("depth = 1.0", "xi0 = 1.0", "xi0"),
        ("seed = 42", "mode = limit_mc", "mode"),
        ("nu_sq_max = 4.0", "[mc]\nfamily = constant", "family"),
        ("nu_values = 1.0 1.2", "exact_max_n = 12", "exact_max_n"),
        ("nu_values = 1.0 1.2", "mc_paths = 20000", "mc_paths"),
    ):
        cfg = write_cfg(tmp_path, BASE.replace(after, f"{after}\n{line}"))
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.load(cfg)


def _with_key(section, key, value):
    """BASE with `key = value` in [section], replacing the key if set."""
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", BASE, re.M):
        return re.sub(rf"^{key} = .*$", line, BASE, flags=re.M)
    if f"[{section}]" in BASE:
        return BASE.replace(f"[{section}]", f"[{section}]\n{line}")
    return BASE + f"\n[{section}]\n{line}\n"


@pytest.mark.parametrize(
    "section, key, least",
    [("dp", "n_x", 1), ("dp", "n_zeta", 1), ("mc", "n_steps", 2), ("mc", "paths", 1),
     ("hjb", "n_space", 3), ("hjb", "nu_sq_max", 1.0), ("run", "seed", 0)],
)
def test_config_rejects_count_below_its_least(tmp_path, section, key, least):
    # below these a run crashes (n_steps = 1, n_zeta = 0, nu_sq_max = 0,
    # seed = -1 on a Monte Carlo limit) or stores NaN rows with no flag
    # (paths = 0)
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        ExperimentConfig.load(write_cfg(tmp_path, _with_key(section, key, least - 1)))
    cfg = ExperimentConfig.load(write_cfg(tmp_path, _with_key(section, key, least)))
    assert cfg.get(section, key) == least


def test_config_rejects_p_halfwidth_not_positive(tmp_path):
    # p_halfwidth = 0 once died in hjb_value with an OverflowError
    for value in (0.0, -1.0):
        with pytest.raises(ConfigError, match=r"\[hjb\] p_halfwidth"):
            ExperimentConfig.load(write_cfg(tmp_path, _with_key("hjb", "p_halfwidth", value)))
    cfg = ExperimentConfig.load(write_cfg(tmp_path, _with_key("hjb", "p_halfwidth", 1e-3)))
    assert cfg.get("hjb", "p_halfwidth") == 1e-3


@pytest.mark.parametrize(
    "section, key, value",
    [("market", "sigma", "nan"), ("market", "depth", "inf"), ("payoff", "strike", "inf"),
     ("payoff", "strike", "-inf"), ("hjb", "p_halfwidth", "inf"), ("hjb", "cap_fraction_max", "nan")],
)
def test_config_rejects_non_finite_float(tmp_path, section, key, value):
    # sigma = nan once stored a nan price row, and strike = inf printed a
    # limit of 0 as [ok]
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be finite"):
        ExperimentConfig.load(write_cfg(tmp_path, _with_key(section, key, value)))


def test_negative_seed_option_is_a_config_error(tmp_path, capsys):
    # numpy rejected a negative seed only once a Monte Carlo estimate ran
    body = BASE.replace("kind = call", "kind = lookback_max") + "\n[mc]\npaths = 50\nn_steps = 4\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["limit", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--seed" in err
    assert not os.path.exists(tmp_path / "out" / "results.csv")
    assert main(["limit", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "out")]) == 0


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs", "call_study.cfg")


def test_shipped_config_loads():
    cfg = ExperimentConfig.load(SHIPPED)
    assert cfg.get("run", "study_id") == "call-base"
    assert cfg.dp_grids() == DPGrids()


def test_shipped_config_names_every_key_at_its_default():
    # the annotated config is complete, and names no key the loader dropped
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(SHIPPED)
    assert {s: set(parser[s]) for s in parser.sections()} == {s: set(keys) for s, keys in cli._DEFAULTS.items()}
    cfg = ExperimentConfig.load(SHIPPED)
    differ = {k for k, v in cfg.values.items() if v != cli._DEFAULTS[k[0]][k[1]]}
    assert differ <= {("run", "n_list"), ("run", "study_id"), ("run", "seed")}


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


def test_digest_ignores_list_key_spelling(tmp_path):
    # list keys are typed at load, so equal values share a digest
    a = ExperimentConfig.load(write_cfg(tmp_path, BASE, "a.cfg"))
    b = ExperimentConfig.load(
        write_cfg(tmp_path, BASE.replace("n_list = 2 3", "n_list = 2   3").replace("1.0 1.2", "1 1.20"), "b.cfg")
    )
    assert b.get("run", "n_list") == (2, 3) and b.get("dual", "nu_values") == (1.0, 1.2)
    assert a.digest() == b.digest()


@pytest.mark.parametrize("command", ["price", "bound", "limit", "study", "verify"])
@pytest.mark.parametrize("n_list", ["2 x", "2.5", "0 2", ""])
def test_malformed_n_list_fails_at_load(tmp_path, capsys, command, n_list):
    # verify never reads n_list, and once ran on such a config
    cfg = write_cfg(tmp_path, BASE.replace("n_list = 2 3", f"n_list = {n_list}"))
    with pytest.raises(ConfigError, match=r"\[run\] n_list"):
        ExperimentConfig.load(cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "n_list" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "results.csv")


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("n_list = 2 3", "n_list = 4 4", "n_list"),
        ("n_list = 2 3", "n_list = 2 3 2", "n_list"),
        ("nu_values = 1.0 1.2", "nu_values = 1.0 1", "nu_values"),
        ("[hjb]", "[mc]\nthetas = 0.8 0.8\n\n[hjb]", "thetas"),
    ],
)
def test_list_key_rejects_a_repeated_value(tmp_path, old, new, key):
    # `n_list = 4 4` once computed and stored every N=4 row twice
    with pytest.raises(ConfigError, match=rf"\] {key} repeats a value"):
        ExperimentConfig.load(write_cfg(tmp_path, BASE.replace(old, new)))


def test_identity_suite_passes(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    code, rows = run_experiment(cfg, mode="identity_suite", out_dir=str(tmp_path / "out"))
    assert code == 0
    assert {r.label for r in rows} == {"spread", "potential", "kappa", "wealth", "walk_square"}
    assert all(r.flag == "" for r in rows)


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


def test_study_computes_only_what_the_store_lacks(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "out")
    _, priced = run_experiment(cfg, mode="primal_dp", out_dir=out)
    calls = []
    monkeypatch.setitem(cli._BODIES, "primal_dp", lambda cfg, emit: calls.append(cfg))
    code, rows = run_experiment(cfg, mode="convergence_study", out_dir=out)
    assert calls == []  # the stored primal rows are served, not recomputed
    order = ("primal_dp", "dual_bound", "limit_hjb")
    assert [r.mode for r in rows] == sorted((r.mode for r in rows), key=order.index)
    assert {r.mode for r in rows} == set(order)
    assert [r.key_fields() for r in rows if r.mode == "primal_dp"] == [r.key_fields() for r in priced]
    _, records = convergence_table(os.path.join(out, "results.csv"), "unit")
    for rec in records:
        assert all(np.isfinite(rec[k]) for k in ("price", "lower_bound", "limit", "gap"))
    # now complete, the study is served whole from the store
    _, again = run_experiment(cfg, mode="convergence_study", out_dir=out)
    assert [r.key_fields() for r in again] == [r.key_fields() for r in rows]
    assert calls == []


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


def test_main_study_loads_the_config_once(tmp_path, capsys, monkeypatch):
    # the table comes from the study's own rows, not a second parse and a
    # re-read of the store
    cfg = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "out")
    loads = []
    load = ExperimentConfig.load.__func__
    monkeypatch.setattr(ExperimentConfig, "load", classmethod(lambda cls, *a, **kw: loads.append(a) or load(cls, *a, **kw)))
    assert main(["study", "--config", cfg, "--out", out]) == 0
    assert len(loads) == 1
    text, records = convergence_table(os.path.join(out, "results.csv"), "unit")
    assert capsys.readouterr().out.endswith("\n" + text + "\n")
    with open(os.path.join(out, "study_unit.csv")) as fh:
        assert fh.read().splitlines()[1:] == [
            ",".join(str(rec[k]) for k in ("n", "price", "lower_bound", "limit", "gap")) for rec in records
        ]


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
    # the most recently stored config
    assert tabulated(convergence_table(store, "unit")[1]) == expected(deep_rows)


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


def test_asian_bound_runs_past_the_running_sum_lattice(tmp_path, capsys):
    # the bounds group the asian's states by Z, so no horizon cap is left:
    # the bounds at N = 32 are exact and certified
    body = BASE.replace("kind = call", "kind = asian_mean").replace("nu_values = 1.0 1.2", "nu_values = 0.8 1.0 1.2")
    cfg = write_cfg(tmp_path, body.replace("n_list = 2 3", "n_list = 8 32"))
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "bound")]) == 0
    rows = cli._store_read(str(tmp_path / "bound" / "results.csv"))
    assert sorted(r.n for r in rows) == [8, 8, 8, 32, 32, 32] and all(r.flag == "" and r.err == 0.0 for r in rows)


def test_asian_price_runs_past_the_running_sum_lattice(tmp_path, capsys, monkeypatch):
    # the DP groups the asian's states by Z, so the price at N = 25 is not
    # refused (the DP is stubbed, the solve is slow)
    calls = []

    def stub(params, spec, grids):
        calls.append(params.n_steps)
        return PriceResult(1.0, {"n_x": 41, "n_zeta": 48, "max_interp_residual": 0.0, "flagged": False})

    monkeypatch.setattr(cli, "superreplication_cost", stub)
    body = BASE.replace("kind = call", "kind = asian_mean")
    cfg = write_cfg(tmp_path, body.replace("n_list = 2 3", "n_list = 4 25"))
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "price")]) == 0
    assert calls == [4, 25]


def test_two_node_spread_axis_prints_warn(tmp_path, capsys):
    # the residual needs three spread nodes, so a two-node axis is flagged
    cfg = write_cfg(tmp_path, BASE.replace("n_zeta = 48", "n_zeta = 2"))
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    lines = [line for line in capsys.readouterr().out.splitlines() if "cost[" in line]
    assert len(lines) == 2 and all(line.split()[0] == "[WARN]" for line in lines)


def test_shipped_config_bounds_are_exact_and_certified(tmp_path, capsys):
    # the README's lower column: the best of nu = 0.8, 1.0, 1.2 at each N,
    # each exact (no standard error) and certified
    assert main(["bound", "--config", SHIPPED, "--out", str(tmp_path)]) == 0
    rows = cli._store_read(str(tmp_path / "results.csv"))
    assert len(rows) == 9 and all(r.flag == "" and r.err == 0.0 for r in rows)
    best = {n: max(r.value for r in rows if r.n == n) for n in (8, 16, 32)}
    assert [round(best[n], 6) for n in (8, 16, 32)] == [0.452836, 0.461709, 0.466177]


def test_clipped_bound_prints_warn(tmp_path, capsys):
    # nu = 2000 sigma clips the tilted walk's probabilities: the bound is
    # reported, flagged and not certified
    cfg = write_cfg(tmp_path, BASE.replace("nu_values = 1.0 1.2", "nu_values = 1.0 2000"))
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if "nu=2000" in line] == ["[WARN]", "[WARN]"]
    assert [line.split()[0] for line in lines if "nu=1:" in line] == ["[ok]", "[ok]"]


SMOKE = BASE.replace("n_space = 201", "n_space = 101") + "\n[mc]\npaths = 200\nn_steps = 16\n"


@pytest.mark.parametrize("kind", ["call", "put", "lookback_max", "asian_mean"])
@pytest.mark.parametrize("command", ["price", "bound", "limit", "study", "verify"])
def test_cli_smoke_matrix(tmp_path, capsys, command, kind):
    # Every subcommand on every advertised payoff ends in an exit code, never
    # a traceback.  `limit` picks the solver the payoff admits; the study's
    # HJB limit refuses path-dependent payoffs by name.
    cfg = write_cfg(tmp_path, SMOKE.replace("kind = call", f"kind = {kind}"))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    path_dependent = kind in ("lookback_max", "asian_mean")
    if command == "study" and path_dependent:
        assert code == 1
        assert err.startswith("config error:") and kind in err and "impactlab limit" in err
    else:
        assert code in (0, 2), err
    if command == "limit":
        solver = "limit_mc" if path_dependent else "limit_hjb"
        assert [line.split()[1] for line in out.splitlines()] == [solver]


def test_lookback_ignores_the_configured_strike(tmp_path):
    # the config's strike reaches every payoff; the lookback reads none, so
    # its rows are those of strike 0 (only the digest, which covers every
    # config value, differs)
    def rows(strike):
        body = SMOKE.replace("kind = call", "kind = lookback_max").replace("strike = 0.0", f"strike = {strike}")
        cfg = write_cfg(tmp_path, body, name=f"lookback-{strike}.cfg")
        assert ExperimentConfig.load(cfg).payoff().strike == strike
        out = []
        for mode in ("primal_dp", "dual_bound", "limit"):
            _, got = run_experiment(cfg, mode=mode, out_dir=str(tmp_path / "out"))
            out += [(r.mode, r.n, r.label, repr(r.value), repr(r.err), r.flag) for r in got]
        return out

    base = rows(0.0)
    assert {row[0] for row in base} == {"primal_dp", "dual_bound", "limit_mc"}
    assert rows(0.3) == base


@pytest.mark.parametrize(
    "command, section, line, key",
    [
        ("study", "dual", "nu_values = 0.8 abc", "nu_values"),
        ("study", "dual", "nu_values = -1", "nu_values"),
        ("bound", "dual", "nu_values = 0", "nu_values"),
        ("limit", "mc", "thetas = 1.0 x", "thetas"),
        ("limit", "mc", "family = bogus", "family"),  # no longer a key
    ],
)
def test_malformed_list_keys_fail_before_any_body(tmp_path, capsys, monkeypatch, command, section, line, key):
    # A bad value is a config error naming its key, raised at load: no body
    # computes rows that could then not be stored.
    calls = []
    for mode in cli._BODIES:
        monkeypatch.setitem(cli._BODIES, mode, lambda cfg, emit, mode=mode: calls.append(mode))
    if section == "dual":
        body = BASE.replace("nu_values = 1.0 1.2", line)
    else:
        body = BASE + f"\n[mc]\n{line}\n"
    cfg = write_cfg(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert calls == []
