"""Experiment runner: config parsing, subcommand dispatch, reproducible output.

Config files are flat ``key=value`` text (``#`` comments allowed); any key
can be overridden on the command line as ``--key value``, and ``--help``
lists the keys.  Each ``run_<subcommand>`` only computes and returns its
artifacts; ``run`` makes the output directory and writes them, then the
manifest, once the handler has returned, so a run that exits 2 or 3 makes
no output directory, and a run that exits non-zero writes no manifest
(exit 4 may leave what it wrote).
Floats are serialized with 17 significant digits and every reduction runs
in a fixed order, so identical configs produce byte-identical CSV/JSON output.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import coupling as coupling_mod
from . import decomp as decomp_mod
from . import stats as stats_mod
from . import tower as tower_mod
from . import transfer as transfer_mod
from .maps import get_observable
from .omega import make_sequence
from .util import fit_loglinear, fit_loglog, fmt17, sha256_of, write_csv, write_json

# same-cell pairs sampled for the distortion diagnostics in partition.json
DISTORTION_PAIRS = 64


class ConfigError(Exception):
    pass


class NumericError(Exception):
    pass


@dataclass
class ExperimentConfig:
    family: str = "lsv"
    alpha_min: float = 0.05
    alpha_max: float = 0.15
    seed: int = 1
    n_seeds: int = 1
    n_bins: int = 4096
    depth: int = 32
    k_trunc: int = 16
    subsamples: int = 64
    n_steps: int = 4096
    n_samples: int = 10000
    observable: str = "cos2pi"
    gamma: float = 0.5
    sampling: str = "equivariant"
    n_max: int = 64
    samples: int = 100000
    cap: int = 1000000
    depth_cap: int = 32
    refine_tol: float = 1e-12
    mass_floor: float = 0.01
    l0: int = 1
    alpha_exp: float = 0.1
    pairs: int = 1000
    window_lo: float = 0.0      # 0 means per-subcommand default
    window_hi: float = 0.0
    functional: str = "sup"
    p: float = math.inf
    D: float = 10.0
    exponential: bool = False

    def seeds(self) -> list[int]:
        return [self.seed + i for i in range(self.n_seeds)]

    def sequence(self):
        return make_sequence(self.seed, self.family, (self.alpha_min, self.alpha_max))

    def phi(self):
        return get_observable(self.observable, self.gamma)

    def bounds(self) -> tuple[float, float]:
        return (self.alpha_min, self.alpha_max)

    def validate(self):
        try:
            self.sequence()
            self.phi()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        positive_ints = ("n_seeds", "n_bins", "depth_cap", "n_steps", "n_samples",
                         "samples", "cap", "l0", "pairs", "subsamples")
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.depth < 0 or self.k_trunc < 0:
            raise ConfigError("depth and k_trunc must be >= 0")
        if not (0.0 < self.alpha_exp < 1.0):
            raise ConfigError("alpha_exp must be in (0, 1)")
        if self.sampling not in ("equivariant", "lebesgue"):
            raise ConfigError("sampling must be equivariant or lebesgue")
        if self.functional not in ("sup", "sup_abs", "terminal"):
            raise ConfigError("functional must be sup, sup_abs or terminal")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")
        if self.n_max < 2:
            raise ConfigError("n_max must be >= 2")
        for name in ("refine_tol", "window_lo", "window_hi"):
            if not 0.0 <= getattr(self, name) < math.inf:   # NaN fails too
                raise ConfigError(f"{name} must be finite and >= 0")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = fmt17(v) if isinstance(v, float) else v
        return out


def _parse_value(name: str, raw: str):
    proto = ExperimentConfig.__dataclass_fields__.get(name)
    if proto is None:
        raise ConfigError(f"unknown config key {name!r}")
    kind = proto.type
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)   # accepts "inf"
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc


def load_config(path: str | None, overrides: list[tuple[str, str]]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            setattr(cfg, key, _parse_value(key, raw))
    for key, raw in overrides:
        setattr(cfg, key, _parse_value(key, raw))
    cfg.validate()
    return cfg


def _default_window(cfg: ExperimentConfig, lo: float, hi: float) -> tuple[float, float]:
    wl = cfg.window_lo if cfg.window_lo > 0 else lo
    wh = cfg.window_hi if cfg.window_hi > 0 else hi
    return (wl, wh)


def run_tail(cfg: ExperimentConfig) -> dict:
    tc = tower_mod.tail_curve(cfg.family, cfg.bounds(), cfg.seeds(),
                              cfg.n_max, cfg.samples, cfg.cap)
    fit = fit_loglog(tc.n, tc.tail, _default_window(cfg, 2, cfg.n_max))
    fit["warnings"] = tc.warnings
    fit["capped_fraction"] = tc.capped_fraction
    return {"tail.csv": (["n", "tail_estimate", "std_err", "n_eff"],
                         [tc.n, tc.tail, tc.std_err, np.full(tc.n.size, tc.n_eff)]),
            "tail_fit.json": fit}


def run_partition(cfg: ExperimentConfig) -> dict:
    seq = cfg.sequence()
    part = tower_mod.build_partition(seq, cfg.depth_cap, cfg.refine_tol)
    info = {"residual_mass": part.residual_mass, "depth_cap": part.depth_cap,
            "gcd": tower_mod.gcd_check(part, cfg.mass_floor),
            "n_cells": part.R.size,
            "distortion": tower_mod.distortion_check(seq, part, DISTORTION_PAIRS,
                                                     rng_seed=cfg.seed)}
    return {"partition.csv": (["lo", "hi", "R", "image_ok"],
                              [part.lo, part.hi, part.R, part.image_ok.astype(int)]),
            "partition.json": info}


def run_density(cfg: ExperimentConfig) -> dict:
    seq = cfg.sequence()
    h = transfer_mod.equivariant_density(seq, cfg.n_bins, cfg.depth)
    resid = transfer_mod.equivariance_residual(seq, cfg.n_bins, cfg.depth)
    return {"density.csv": (["bin", "mass", "density"],
                            [np.arange(cfg.n_bins), h, h * cfg.n_bins]),
            "density.json": {"equivariance_residual_l1": resid, "depth": cfg.depth,
                             "n_bins": cfg.n_bins}}


def run_decay(cfg: ExperimentConfig) -> dict:
    dc = transfer_mod.decay_curve(cfg.family, cfg.bounds(), cfg.seeds(), cfg.phi(),
                                  cfg.n_max, cfg.n_bins, cfg.depth, cfg.subsamples)
    return {"decay.csv": (["n", "decay_estimate", "std_err"], [dc.n, dc.decay, dc.std_err]),
            "decay_fit.json": fit_loglog(dc.n, dc.decay, _default_window(cfg, 1, cfg.n_max))}


def run_decompose(cfg: ExperimentConfig) -> dict:
    s2, se, decomps = decomp_mod.sigma_squared(cfg.family, cfg.bounds(), cfg.seeds(),
                                               cfg.phi(), cfg.k_trunc, cfg.n_bins,
                                               cfg.depth, cfg.subsamples)
    d = decomps[0]   # seeds()[0] is cfg.seed, the sequence the artifacts describe
    rep = d.report()
    rep.update({"sigma2": s2, "sigma2_se": se, "warnings": d.warnings})
    return {"decompose.csv": (["bin", "g", "g_next", "psi"],
                              [np.arange(cfg.n_bins), d.g, d.g_next, d.psi]),
            "decompose.json": rep}


def run_couple(cfg: ExperimentConfig) -> dict:
    ct = coupling_mod.coupling_tail(cfg.family, cfg.bounds(), cfg.seeds(), cfg.l0,
                                    cfg.alpha_exp, cfg.n_max, cfg.pairs, cfg.cap)
    fit = fit_loglinear(ct.n, ct.tail, _default_window(cfg, 1, cfg.n_max))
    fit["l0_estimate"] = coupling_mod.estimate_l0(cfg.family, cfg.bounds(), cfg.seeds(),
                                                  l_max=cfg.n_max, samples=cfg.pairs)
    return {"couple.csv": (["n", "tail_estimate", "std_err", "capped_fraction"],
                           [ct.n, ct.tail, ct.std_err,
                            np.full(ct.n.size, ct.capped_fraction)]),
            "couple_fit.json": fit}


def _ensemble_and_sigma(cfg: ExperimentConfig):
    s2, se, _ = decomp_mod.sigma_squared(cfg.family, cfg.bounds(), cfg.seeds(),
                                         cfg.phi(), cfg.k_trunc, cfg.n_bins,
                                         cfg.depth, cfg.subsamples)
    ens = stats_mod.birkhoff_ensemble(cfg.sequence(), cfg.phi(), cfg.n_steps,
                                      cfg.n_samples, cfg.sampling, cfg.n_bins,
                                      cfg.depth, cfg.subsamples)
    return ens, s2, se


def run_clt(cfg: ExperimentConfig) -> dict:
    ens, s2, se = _ensemble_and_sigma(cfg)
    if s2 <= 0:
        raise NumericError("sigma2 estimate is not positive; use the coboundary route")
    vg = stats_mod.variance_growth(ens)
    res = stats_mod.qclt_test(ens, s2)
    res.update({"sigma2": s2, "sigma2_se": se})
    return {"clt.csv": (["n", "var_over_n", "ci_lo", "ci_hi"],
                        [vg["n"], vg["var_over_n"], vg["ci_lo"], vg["ci_hi"]]),
            "clt.json": res}


def run_lil(cfg: ExperimentConfig) -> dict:
    ens, s2, se = _ensemble_and_sigma(cfg)
    env = stats_mod.qlil_envelope(ens, s2)
    env["sigma2_se"] = se
    return {"lil.csv": (["sample", "max_c1", "min_c1", "max_c2", "min_c2"],
                        [np.arange(ens.n_samples), ens.lil_max_c1, ens.lil_min_c1,
                         ens.lil_max_c2, ens.lil_min_c2]),
            "lil.json": env}


def run_fclt(cfg: ExperimentConfig) -> dict:
    ens, s2, se = _ensemble_and_sigma(cfg)
    if s2 <= 0:
        raise NumericError("sigma2 estimate is not positive; use the coboundary route")
    res = stats_mod.qfclt_paths(ens, s2, cfg.functional)
    res.update({"sigma2": s2, "sigma2_se": se})
    if cfg.functional == "sup":
        res["brownian_self_test"] = stats_mod.brownian_oracle_self_test(
            n_paths=min(10 ** 5, 10 * cfg.n_samples))
    emp = stats_mod.empirical_functional(ens, s2, cfg.functional)
    return {"fclt.csv": (["sample", "functional_value"], [np.arange(ens.n_samples), emp]),
            "fclt.json": res}


def run_rate(cfg: ExperimentConfig) -> dict:
    # an inadmissible (p, D) raises ValueError, which run reports as a config error
    params = stats_mod.RateParams(cfg.p, cfg.D, cfg.exponential)
    return {"rate.json": stats_mod.asip_rate(params)}


# each handler returns {file name: (header, columns) for .csv, a dict for .json}
HANDLERS = {
    "tail": run_tail, "partition": run_partition, "density": run_density,
    "decay": run_decay, "decompose": run_decompose, "couple": run_couple,
    "clt": run_clt, "lil": run_lil, "fclt": run_fclt, "rate": run_rate,
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir: str | Path) -> int:
    """Execute one subcommand; returns the process exit status."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    try:
        artifacts = HANDLERS[subcommand](cfg)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                write_json(out / name, content)
        manifest = {
            "subcommand": subcommand,
            "config": cfg.as_dict(),
            "version": __version__,
            "wall_time_s": time.perf_counter() - t0,
            "files": {name: sha256_of(out / name) for name in artifacts},
        }
        write_json(out / "manifest.json", manifest)
        return 0
    except (ConfigError, ValueError) as exc:
        # library ValueErrors (an empty fit window, ...) reject the config too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, RuntimeError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


class _Parser(argparse.ArgumentParser):
    # argparse reports every bad command line, a missing subcommand or --out
    # included, through error(), which exits; raising instead lets main
    # return 2 to an in-process caller
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a mistyped key such as --n_ma must not become --n_max
    parser = _Parser(
        prog="quenched-limits", allow_abbrev=False,
        description="Quenched limit-law experiments for random interval maps. "
                    "CSV columns per subcommand are documented in docs/formats.md.")
    parser.add_argument("subcommand", choices=HANDLERS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", required=True, help="output directory")
    keys = parser.add_argument_group("config keys (override the config file)")
    for f in fields(ExperimentConfig):
        keys.add_argument(f"--{f.name}", default=argparse.SUPPRESS, metavar=f.type.upper(),
                          help=f"default {f.default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = [(f.name, getattr(args, f.name)) for f in fields(ExperimentConfig)
                     if hasattr(args, f.name)]
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
