"""Experiment harness: config files, result store, and the command line.

Configs are flat INI-style key-value files with sections; unknown sections
or keys are rejected with the offending name.  Results append to a CSV
store keyed by a digest of the canonicalized config, the seed, the code
version and the solver revision; re-runs with the same digest are served
from the store unless --no-cache.
Numerical flags raised by the solvers (grid coarseness, position-bound
hits, variance-cap binding) turn into WARN rows and exit status 2.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import fcntl
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import SOLVER_REVISION, __version__
from .dual import kusuoka_lower_bound
from .limits import (
    HJBGrid,
    MCConfig,
    constant_family,
    hjb_value,
    limit_from_market,
    limit_value_mc,
)
from .market import (
    MarketParams,
    fundamental_path,
    iterate_cash,
    liquidity_cost,
    spread_closed_form,
    spread_cost,
    spread_step,
    terminal_wealth,
)
from .payoffs import PayoffSpec
from .pricing import DPGrids, superreplication_cost

__all__ = ["ExperimentConfig", "ResultRow", "run_experiment", "convergence_table", "main"]


class ConfigError(Exception):
    pass


# Every config key with its default; a key's type is its default's type,
# and a tuple's items take the type of its first item.
_DEFAULTS = {
    "market": {
        "p0": 0.0,
        "sigma": 1.0,
        "depth": 1.0,
        "resilience": 0.5,
        "perm_impact": 0.0,
        "x0": 0.0,
        "zeta0": 0.0,
    },
    "payoff": {"kind": "call", "strike": 0.0},
    "run": {"n_list": (8, 16, 32), "study_id": "default", "seed": 0},
    "dp": {"n_x": 81, "n_zeta": 48},
    "dual": {"nu_values": (0.8, 1.0, 1.2)},
    "hjb": {
        "n_space": 601,
        "p_halfwidth": 8.0,
        "nu_sq_max": 16.0,  # multiple of sigma^2
        "cap_fraction_max": 0.3,
    },
    "mc": {"paths": 20000, "n_steps": 128, "thetas": (0.8, 1.0, 1.2)},
    "output": {"results": "results.csv"},
}

# Keys with the least value each admits (each item's, for a list).
_MINIMUM = {
    ("run", "n_list"): 1,
    ("dp", "n_x"): 1,
    ("dp", "n_zeta"): 1,
    ("hjb", "nu_sq_max"): 1.0,  # the variance cap is at least sigma^2
    ("mc", "paths"): 1,
    ("mc", "n_steps"): 2,  # the step-halving check runs n_steps // 2 steps
    ("run", "seed"): 0,
}


def _parse(raw: str, default):
    """`raw` as a value of the default's type; ValueError if it is not one."""
    if isinstance(default, tuple):
        items = tuple(map(type(default[0]), raw.split()))
        if not items:
            raise ValueError("needs at least one value")
        return items
    return type(default)(raw)


@dataclass
class ExperimentConfig:
    """Validated experiment description: every value has its final type."""

    values: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def load(cls, path, seed_override=None) -> "ExperimentConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        values = {(section, key): v for section, keys in _DEFAULTS.items() for key, v in keys.items()}
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                default = _DEFAULTS[section][key]
                try:
                    value = values[(section, key)] = _parse(raw, default)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
                if isinstance(default, (float, tuple)) and not all(map(math.isfinite, np.atleast_1d(value))):
                    raise ConfigError(f"[{section}] {key} must be finite")
                if isinstance(default, tuple) and len(set(value)) < len(value):
                    raise ConfigError(f"[{section}] {key} repeats a value")
        for (section, key), least in _MINIMUM.items():
            if min(np.atleast_1d(values[(section, key)])) < least:
                raise ConfigError(f"[{section}] {key} must be >= {least:g}")
        if min(values[("dual", "nu_values")]) <= 0:
            raise ConfigError("[dual] nu_values must be > 0")
        seed = int(seed_override) if seed_override is not None else values[("run", "seed")]
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got --seed {seed}")
        cfg = cls(values=values, seed=seed)
        # surface invalid values before any experiment body runs
        cfg.market()
        cfg.payoff()
        cfg.hjb_grid()
        return cfg

    def get(self, section, key):
        return self.values[(section, key)]

    def digest(self) -> str:
        blob = "\n".join(
            f"{s}.{k}={self.values[(s, k)]!r}" for (s, k) in sorted(self.values)
        )
        blob += f"\nseed={self.seed}\nversion={__version__}\nsolver={SOLVER_REVISION}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def market(self, n_steps: int = 1) -> MarketParams:
        g = self.get
        try:
            return MarketParams(
                p0=g("market", "p0"),
                sigma=g("market", "sigma"),
                n_steps=n_steps,
                depth=g("market", "depth"),
                resilience=g("market", "resilience"),
                perm_impact=g("market", "perm_impact"),
                x0=g("market", "x0"),
                zeta0=g("market", "zeta0"),
            )
        except ValueError as exc:
            raise ConfigError(f"[market] {exc}") from exc

    def payoff(self) -> PayoffSpec:
        try:
            return PayoffSpec(self.get("payoff", "kind"), strike=self.get("payoff", "strike"))
        except ValueError as exc:
            raise ConfigError(f"[payoff] {exc}") from exc

    def hjb_grid(self) -> HJBGrid:
        try:
            return HJBGrid(
                p_halfwidth=self.get("hjb", "p_halfwidth"),
                n_space=self.get("hjb", "n_space"),
                cap_flag_fraction=self.get("hjb", "cap_fraction_max"),
            )
        except ValueError as exc:
            raise ConfigError(f"[hjb] {exc}") from exc

    def dp_grids(self) -> DPGrids:
        g = self.get
        return DPGrids(n_x=g("dp", "n_x"), n_zeta=g("dp", "n_zeta"))


@dataclass
class ResultRow:
    """One persisted record; wall time (since the previous row, or since the
    run started for the first) is informational only."""

    digest: str
    study_id: str
    mode: str
    n: int
    label: str
    value: float
    err: float
    flag: str
    wall_ms: float

    HEADER = ("digest", "study_id", "mode", "n", "label", "value", "err", "flag", "wall_ms")

    def as_list(self):
        return [
            self.digest,
            self.study_id,
            self.mode,
            str(self.n),
            self.label,
            repr(self.value),
            repr(self.err),
            self.flag,
            f"{self.wall_ms:.1f}",
        ]

    def key_fields(self):
        """Everything that must reproduce bit-for-bit under a fixed seed."""
        return (self.digest, self.study_id, self.mode, self.n, self.label, repr(self.value), repr(self.err), self.flag)


def _check_store_tail(store_path):
    """ConfigError if the store's last row lacks its newline: appending
    would fuse the new row with the torn one."""
    if os.path.exists(store_path) and os.path.getsize(store_path) > 0:
        with open(store_path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise ConfigError(f"results store {store_path} ends in a torn row (no final newline)")


def _store_append(store_path, rows):
    _check_store_tail(store_path)
    new = not os.path.exists(store_path) or os.path.getsize(store_path) == 0
    with open(store_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(ResultRow.HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def _store_read(store_path):
    """Rows of the store; a torn or malformed row is a ConfigError naming
    its line."""
    if not os.path.exists(store_path):
        return []
    out = []
    with open(store_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header
        for rec in reader:
            where = f"results store {store_path} line {reader.line_num}"
            if len(rec) != len(ResultRow.HEADER):
                raise ConfigError(f"{where}: {len(rec)} fields, expected {len(ResultRow.HEADER)} (torn row?)")
            digest, study_id, mode, n, label, value, err, flag, wall_ms = rec
            try:
                row = ResultRow(digest, study_id, mode, int(n), label, float(value), float(err), flag, float(wall_ms))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            out.append(row)
    return out


class _StoreLock:
    """Advisory one-writer lock: `flock` on a file next to the results store.

    The lock belongs to the open file, so it is released when the holding
    process exits, killed or not; a lock file left behind blocks nobody.
    """

    def __init__(self, store_path):
        self.path = str(store_path) + ".lock"
        self.fd = None

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise ConfigError(f"results store is locked by another run: {self.path}")
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # closing the last descriptor releases the lock
        return False


# ---------------------------------------------------------------------------
# experiment bodies


def _identity_rows(cfg: ExperimentConfig, emit) -> list:
    """Randomized dynamics-identity batteries; values are worst violations."""
    rng = np.random.default_rng(cfg.seed)
    trials = 1000
    worst = {"spread": 0.0, "potential": 0.0, "kappa": 0.0, "wealth": 0.0, "walk_square": 0.0}
    for _ in range(trials):
        n = int(rng.integers(1, 33))
        p = MarketParams(
            p0=float(rng.normal()),
            sigma=float(rng.uniform(0.5, 2.0)),
            n_steps=n,
            depth=float(rng.uniform(0.2, 5.0)),
            resilience=float(rng.uniform(0.05, 1.0)),
            perm_impact=float(rng.uniform(0.0, 0.5)),
            x0=float(rng.normal()),
            zeta0=float(rng.uniform(0.0, 1.0)),
            xi0=float(rng.normal()),
        )
        trades = rng.normal(size=n)
        z = p.zeta0
        for m, dx in enumerate(trades, start=1):
            # a trade's spread cost is the depth times half the rise of the
            # squared spread from its decayed value u to the new one
            cost, u = spread_cost(z, dx, p), (1.0 - p.resilience) * z
            z = spread_step(z, dx, p)
            potential = 0.5 * p.depth * (z * z - u * u)
            worst["potential"] = max(worst["potential"], abs(cost - potential) / max(1.0, abs(cost)))
            ref = spread_closed_form(trades, p, m)
            scale = max(1.0, abs(ref))
            worst["spread"] = max(worst["spread"], abs(z - ref) / scale)
        direct, viaspread = liquidity_cost(trades, p, n)
        worst["kappa"] = max(worst["kappa"], abs(direct - viaspread) / max(1.0, abs(direct)))
        shocks = rng.choice([-1, 1], size=n)
        pos = np.cumsum(trades) + p.x0
        worst["wealth"] = max(
            worst["wealth"], abs(terminal_wealth(pos, shocks, p) - iterate_cash(pos, shocks, p))
        )
        vals = fundamental_path(shocks, p)
        l, m_hi = sorted(rng.choice(np.arange(n + 1), size=2, replace=False)) if n >= 1 else (0, 0)
        lhs = float(np.dot(vals[l:m_hi], np.diff(vals[l : m_hi + 1])))
        rhs = 0.5 * (vals[m_hi] ** 2 - vals[l] ** 2 - p.sigma**2 * (m_hi - l) / n)
        worst["walk_square"] = max(worst["walk_square"], abs(lhs - rhs))
    tol = {"spread": 1e-12, "potential": 1e-10, "kappa": 1e-10, "wealth": 1e-9, "walk_square": 1e-9}
    rows = []
    for name, violation in worst.items():
        rows.append(emit("identity_suite", 0, name, violation, tol[name], violation > tol[name]))
    return rows


def _primal_rows(cfg: ExperimentConfig, emit) -> list:
    spec = cfg.payoff()
    grids = cfg.dp_grids()
    rows = []
    for n in cfg.get("run", "n_list"):
        res = superreplication_cost(cfg.market(n), spec, grids)
        rows.append(
            emit(
                "primal_dp",
                n,
                f"cost[nx={res.report['n_x']},nz={res.report['n_zeta']}]",
                res.cost,
                res.report["max_interp_residual"],
                res.report["flagged"],
            )
        )
    return rows


def _dual_rows(cfg: ExperimentConfig, emit) -> list:
    spec = cfg.payoff()
    n_list = cfg.get("run", "n_list")
    rows = []
    for nu in cfg.get("dual", "nu_values"):
        # exact at every horizon: one pass over the price lattice
        recs = kusuoka_lower_bound(nu, spec, cfg.market(max(n_list)), n_list=n_list, exact_max_n=max(n_list))
        for rec in recs:
            rows.append(
                emit(
                    "dual_bound",
                    rec["n"],
                    f"nu={nu:g}",
                    rec["bound"],
                    rec["std_error"],
                    not rec["certified"],
                )
            )
    return rows


def _limit_problem(cfg: ExperimentConfig):
    params = cfg.market(max(cfg.get("run", "n_list")))
    return limit_from_market(params, cfg.payoff(), nu_sq_max=cfg.get("hjb", "nu_sq_max") * params.sigma**2)


def _hjb_rows(cfg: ExperimentConfig, emit) -> list:
    problem, grid = _limit_problem(cfg), cfg.hjb_grid()
    res = hjb_value(problem, grid)
    fine = hjb_value(problem, replace(grid, n_space=2 * grid.n_space - 1))
    refinement_change = abs(fine.value - res.value)
    return [
        emit(
            "limit_hjb",
            0,
            "limit",
            fine.value,
            refinement_change,
            res.flagged or fine.flagged,
        )
    ]


def _mc_rows(cfg: ExperimentConfig, emit) -> list:
    out = limit_value_mc(
        _limit_problem(cfg),
        constant_family(cfg.get("mc", "thetas")),
        MCConfig(n_paths=cfg.get("mc", "paths"), n_steps=cfg.get("mc", "n_steps"), seed=cfg.seed),
    )
    return [emit("limit_mc", 0, f"theta={out['theta']:g}", out["value"], out["std_error"], False)]


_BODIES = {
    "identity_suite": _identity_rows,
    "primal_dp": _primal_rows,
    "dual_bound": _dual_rows,
    "limit_hjb": _hjb_rows,
    "limit_mc": _mc_rows,
}
# a study's rows are the rows of these modes, in this order
_STUDY_MODES = ("primal_dp", "dual_bound", "limit_hjb")


def run_experiment(config_path, mode, seed=None, no_cache=False, out_dir=".") -> tuple[int, list]:
    """Run (or serve from cache) the experiment described by a config file.

    `mode` names a row kind (a key of `_BODIES`), "convergence_study", or
    "limit": the HJB limit for a terminal-value payoff, the Monte Carlo
    estimate for a path-dependent one.
    Returns (exit_code, rows): 0 fine, 2 if any numerical flag fired.
    Config problems raise ConfigError (the CLI maps them to exit 1).
    """
    cfg = ExperimentConfig.load(config_path, seed_override=seed)
    spec = cfg.payoff()
    if mode == "limit":
        mode = "limit_mc" if spec.path_dependent else "limit_hjb"
    if mode not in _BODIES and mode != "convergence_study":
        raise ConfigError(f"unknown mode {mode!r}")
    if mode in ("limit_hjb", "convergence_study") and spec.path_dependent:
        raise ConfigError(
            f"mode {mode!r} needs the HJB limit, which takes terminal-value payoffs only; "
            f"payoff {spec.kind!r} is path-dependent: `impactlab limit` gives its Monte Carlo limit"
        )

    store = os.path.join(out_dir, cfg.get("output", "results"))
    digest = cfg.digest()

    # served from the store only when every row mode is there; a study
    # stored in part (say after `impactlab price`) computes the rest
    modes = _STUDY_MODES if mode == "convergence_study" else (mode,)
    cached = [] if no_cache else [r for r in _store_read(store) if r.digest == digest and r.mode in modes]
    missing = [m for m in modes if m not in {r.mode for r in cached}]
    if not missing:
        return (2 if any(r.flag == "WARN" for r in cached) else 0), cached

    rows = []

    def emit(kind, n, label, value, err, flagged):
        nonlocal t_prev
        now = time.perf_counter()
        row = ResultRow(
            digest=digest,
            study_id=str(cfg.get("run", "study_id")),
            mode=kind,
            n=int(n),
            label=label,
            value=float(value),
            err=float(err),
            flag="WARN" if flagged else "",
            wall_ms=(now - t_prev) * 1e3,
        )
        t_prev = now
        rows.append(row)
        return row

    os.makedirs(out_dir, exist_ok=True)
    _check_store_tail(store)  # fail before the body computes rows it could not store
    t_prev = time.perf_counter()
    for m in missing:
        _BODIES[m](cfg, emit)
    with _StoreLock(store):
        _store_append(store, rows)
    rows = sorted(cached + rows, key=lambda r: modes.index(r.mode))  # stable: each mode keeps its order
    return (2 if any(r.flag == "WARN" for r in rows) else 0), rows


def convergence_table(store_path, study_id) -> tuple[str, list[dict]]:
    """Tabulate a study: price, best lower bound, limit value and gap per N.

    Only the rows of one config are used: those with the digest of the
    study's most recently stored row.  Configs that share a study_id never
    mix.
    """
    rows = [r for r in _store_read(store_path) if r.study_id == study_id]
    if rows:
        digest = rows[-1].digest
        rows = [r for r in rows if r.digest == digest]
    if not any(r.mode == "primal_dp" for r in rows):
        raise ConfigError(f"no primal rows for study {study_id!r} in {store_path}")
    return _tabulate(rows)


def _tabulate(rows) -> tuple[str, list[dict]]:
    """The study table of one config's rows, with one record per N."""
    primal = {r.n: r.value for r in rows if r.mode == "primal_dp"}
    duals: dict[int, float] = {}
    for r in rows:
        if r.mode == "dual_bound":
            duals[r.n] = max(duals.get(r.n, -np.inf), r.value)
    limits = [r.value for r in rows if r.mode == "limit_hjb"]
    limit = limits[-1] if limits else float("nan")

    records = []
    for n in sorted(primal):
        records.append(
            {
                "n": n,
                "price": primal[n],
                "lower_bound": duals.get(n, float("nan")),
                "limit": limit,
                "gap": abs(primal[n] - limit),
            }
        )
    header = f"{'N':>6} {'price':>12} {'lower':>12} {'limit':>12} {'gap':>12}"
    lines = [header]
    for rec in records:
        lines.append(
            f"{rec['n']:>6d} {rec['price']:>12.6f} {rec['lower_bound']:>12.6f} "
            f"{rec['limit']:>12.6f} {rec['gap']:>12.6f}"
        )
    return "\n".join(lines), records


def _write_plot_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "price", "lower_bound", "limit", "gap"])
        for rec in records:
            writer.writerow([rec["n"], rec["price"], rec["lower_bound"], rec["limit"], rec["gap"]])


_SUBCOMMAND_MODE = {
    "price": "primal_dp",
    "bound": "dual_bound",
    "limit": "limit",  # run_experiment picks the solver the payoff admits
    "study": "convergence_study",
    "verify": "identity_suite",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="impactlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_MODE:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--no-cache", action="store_true")
        cmd.add_argument("--out", default="results")
    args = parser.parse_args(argv)

    try:
        code, rows = run_experiment(
            args.config, _SUBCOMMAND_MODE[args.command], args.seed, no_cache=args.no_cache, out_dir=args.out
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        status = row.flag or "ok"
        print(f"[{status}] {row.mode} N={row.n} {row.label}: {row.value:.8g} (err {row.err:.3g})")
    if args.command == "study":
        # a study's rows hold a primal row per N, so the table is never empty
        text, records = _tabulate(rows)
        print(text)
        _write_plot_csv(records, os.path.join(args.out, f"study_{rows[0].study_id}.csv"))
    return code


if __name__ == "__main__":
    sys.exit(main())
