"""Seeded workload generator.

Each workload is a fixed list of slots.  A slot fixes what sets the cost
of an experiment (experiment type, dimension, grid size, box width over
Gaussian width, number of time samples, width of the exponent support);
its variants differ only in values that leave that cost alone (the
Gaussian's variance with box and times scaled to match, weight shapes,
constants, the time window).  The seed picks one variant
per slot and the order of the batch, so every seed gives new inputs with
the same amount of work.  The 11 configs shipped in ``configs/`` are frozen
copies in ``perfbench/shipped/`` and are fixed members of the workload that
matches their dominant layer.

Reference artifacts for every variant of every slot live in
``perfbench/refs/`` (see ``record.py``), which is why variants come from a
finite menu and are not drawn from a continuous distribution.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep-1d", "spectral", "small-batch")

# One line each; BENCHMARK.json carries the same text.
WHY = {
    "sweep-1d": "d=1 functional sweeps and rate reports on 8k-64k grids with 0-99% underflowed nodes: "
                "the moment profile does most of the work",
    "spectral": "d=2/3 witnesses and moment laws up to 128^3 with degenerate or L_inf exponents: "
                "the FFT propagator does most of the work",
    "small-batch": "many small configs plus expected rejections: config parsing, CSV/JSON writing "
                   "and the scalar loops in spaces dominate",
}

# Untimed warm-up experiment run once per process before timing starts.
WARMUP = {
    "sweep-1d": "shipped/witness_sp",
    "spectral": "shipped/witness_sr",
    "small-batch": "shipped/norms_gaussian",
}

SHIPPED = {
    "sweep-1d": ("functional_sweep_sp", "functional_sweep_sr", "rate_report",
                 "witness_sp", "witness_sp_fractional"),
    "spectral": ("moment_law", "witness_sr"),
    "small-batch": ("fundamental_zeta", "mixed_norm", "norms_gaussian", "propagate_heat"),
}

SIGMA2 = (0.5, 1.0, 2.0, 4.0)  # Gaussian variances of the variants


@dataclass(frozen=True)
class Experiment:
    """One config of a batch.  ``expect_rc`` is the exit code cli.run must give."""

    id: str
    config: dict
    expect_rc: int = 0


@dataclass(frozen=True)
class Slot:
    name: str
    variants: tuple
    expect_rc: int = 0


# ------------------------------------------------------------------ helpers


def _zeta(a, b, alpha, beta):
    return {"variant": "zeta", "a": a, "b": b, "alpha": alpha, "beta": beta}


def _geo(start, stop, count):
    return {"start": round(start, 6), "stop": round(stop, 6), "count": count}


def _geo_list(start, stop, count):
    step = (stop / start) ** (1.0 / (count - 1))
    return [round(start * step ** k, 6) for k in range(count)]


def _grid(L, N):
    return {"L": round(L, 6), "N": N}


def _shifted(lo, hi, i):
    """Variant i's time window: a slightly narrower (lo, hi)."""
    return lo * (1.0 + 0.02 * i), hi * (1.0 - 0.02 * i)


# Weights of the variants.  Supports are fixed: the moment profile is taken
# on every exponent of the support, and the cost of |f|^p depends on p (large
# p sends more samples into the subnormal range), so only the shape
# parameters alpha and beta change from variant to variant.
SHAPES = ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 0.5))


def _weights(x_support, y_support):
    return tuple((_zeta(*x_support, *ab), _zeta(*y_support, *ba))
                 for ab, ba in zip(SHAPES, reversed(SHAPES)))


SP_XY = _weights((1.0, 2.0), (3.0, 6.0))
SR_XY = _weights((1.2, 2.0), (2.5, 6.0))
RR_XY = tuple((_zeta(1.0, 2.5, 0.0, beta), _zeta(3.0, 6.0, 0.0, 1.0 + beta))
              for beta in (1.0, 0.5, 2.0, 1.5))


# ------------------------------------------------------------------ sweep-1d
#
# Variant i starts from the Gaussian of variance SIGMA2[i] on a box of
# ratio * sigma and samples times tau * sigma^e (e = 2 for heat and
# Schroedinger, alpha for the fractional flow).  By scaling, every variant
# of a slot then has the same moment profiles up to a constant factor: the
# same nodes underflow to 0 and the same work is done.


def _tau_window(ratio, flow, alpha, cap):
    """(tau_lo, tau_hi): t = tau * sigma^e stays in (2, 0.9 * safe bound] for every variant."""
    e = alpha if flow == "fractional" else 2.0
    smallest = math.sqrt(SIGMA2[0]) ** e
    w = ratio / 6.0  # box over 6 widths, at sigma = 1
    if flow == "heat":
        bound = w * w - 1.0
    elif flow == "schrodinger":
        bound = math.sqrt(w * w - 1.0)
    else:
        bound = (w * w - 1.0) / 2.0 if alpha == 2.0 else w ** alpha
    lo, hi = 2.2 / smallest, min(0.9 * bound, cap)
    if not lo < hi:
        raise ValueError(f"box ratio {ratio} leaves no time window for {flow}")
    return lo, hi, e


def _sp_slot(name, n, ratio, t_count, alpha=None):
    flow = "fractional" if alpha else "heat"
    lo, hi, e = _tau_window(ratio, flow, alpha, 48.0)
    out = []
    for i, s2 in enumerate(SIGMA2):
        scale = math.sqrt(s2) ** e
        X, Y = SP_XY[i]
        cfg = {"experiment": "functional-sweep", "functional": "SP", "d": 1,
               "grid": _grid(ratio * math.sqrt(s2), n),
               "initial": {"type": "gaussian", "sigma2": s2}, "X": X, "Y": Y,
               "t_grid": _geo(lo * scale, hi * scale, t_count)}
        if alpha:
            cfg["kind"] = {"name": "fractional", "alpha": alpha}
        if i % 2:
            cfg["K1"], cfg["K2"] = 0.5 + i, 2.0
        out.append(cfg)
    return Slot(name, tuple(out))


def _sr_slot(name, n, ratio, t_count, excluded_first=False):
    lo, hi, _ = _tau_window(ratio, "schrodinger", None, 96.0)
    out = []
    for i, s2 in enumerate(SIGMA2):
        X, Y = SR_XY[i]
        cfg = {"experiment": "functional-sweep", "functional": "SR", "d": 1,
               "grid": _grid(ratio * math.sqrt(s2), n),
               "initial": {"type": "gaussian", "sigma2": s2}, "X": X, "Y": Y}
        if excluded_first:
            # t <= 2 lies outside the functional's domain: the sweep records
            # it as an exclusion and carries on.
            cfg["t_grid"] = [1.5] + _geo_list(lo * s2, hi * s2, t_count - 1)
        else:
            cfg["t_grid"] = _geo(lo * s2, hi * s2, t_count)
        if i % 2:
            cfg["K"] = 0.5 * (i + 1)
        if i == 3:
            cfg["sr_normalization"] = "proof"
        out.append(cfg)
    return Slot(name, tuple(out))


def _indicator_slot(name, n, L, t_count):
    """SP heat sweep from a box indicator of n/8 nodes (7/8 of the nodes are 0).

    The box grows with L and the times with L^2, so the profiles scale."""
    out = []
    for i in range(4):
        scale = 1.0 + 0.25 * i
        out.append({"experiment": "functional-sweep", "functional": "SP", "d": 1,
                    "grid": _grid(L * scale, n),
                    "initial": {"type": "indicator", "nodes_per_axis": n // 8},
                    "X": SP_XY[i][0], "Y": SP_XY[i][1],
                    "t_grid": _geo(2.5 * scale ** 2, 40.0 * scale ** 2, t_count)})
    return Slot(name, tuple(out))


def _rate_slot(name, n, ratio, t_count):
    lo, hi, _ = _tau_window(ratio, "heat", None, 192.0)
    out = []
    for i, s2 in enumerate(SIGMA2):
        X, Y = RR_XY[i]
        cfg = {"experiment": "rate-report", "d": 1, "grid": _grid(ratio * math.sqrt(s2), n),
               "initial": {"type": "gaussian", "sigma2": s2}, "X": X, "Y": Y,
               "t_grid": _geo(lo * s2, hi * s2, t_count),
               "predicted": {"source": "parabolic-zeta", "d": 1, "a1": X["a"], "a2": Y["a"],
                             "alpha1": X["alpha"], "alpha2": Y["alpha"]}}
        if i == 1:
            cfg["with_log"] = False
        out.append(cfg)
    return Slot(name, tuple(out))


def _sweep_1d():
    # Box width over Gaussian width (ratio) runs from 16 (no node underflows)
    # to 4096 (99% of nodes are exactly 0), so both the dense and the
    # zero-dominated cost of the moment profile (ROADMAP fix 1) are present.
    # Every SP/SR sweep recomputes the X norm at each time (ROADMAP fix 2).
    return [
        _sp_slot("sp-heat-tight", 8192, 16.0, 2),
        _sp_slot("sp-heat-tight-16k", 16384, 24.0, 1),
        _sp_slot("sp-heat-mid", 8192, 64.0, 1),
        _sp_slot("sp-heat-mid-16k", 16384, 128.0, 1),
        _sp_slot("sp-heat-wide", 16384, 1024.0, 1),
        _sp_slot("sp-heat-wide-8k", 8192, 2048.0, 1),
        _sp_slot("sp-heat-widest", 32768, 4096.0, 1),
        _sp_slot("sp-frac-mid", 8192, 48.0, 1, alpha=1.5),
        _sp_slot("sp-frac-wide", 8192, 512.0, 1, alpha=1.0),
        _sp_slot("sp-frac-half", 16384, 256.0, 1, alpha=0.5),
        _indicator_slot("sp-indicator", 8192, 64.0, 1),
        _indicator_slot("sp-indicator-16k", 16384, 128.0, 1),
        _sr_slot("sr-tight", 8192, 40.0, 1),
        _sr_slot("sr-mid", 8192, 64.0, 1),
        _sr_slot("sr-wide", 16384, 512.0, 1),
        _sr_slot("sr-widest", 32768, 4096.0, 1),
        _sr_slot("sr-excluded", 8192, 256.0, 3, excluded_first=True),
        _rate_slot("rate-tight", 8192, 24.0, 4),
        _rate_slot("rate-mid", 8192, 128.0, 4),
        _rate_slot("rate-wide", 16384, 1024.0, 4),
    ]


# ------------------------------------------------------------------ spectral
#
# All spectral experiments start from the unit Gaussian, so a slot fixes the
# grid (and with it the initial data) and its variants move the time window.
# The Schroedinger multiplier has modulus 1 whatever t is; heat times stay
# below the point where exp(-t |xi|^2 / 2) starts to underflow on the grid,
# since subnormal numbers would make the cost depend on t.  Grid spacing
# stays <= 0.5625, so the grid channel agrees with the closed form to GAP_TOL.


def _witness_sr_slot(name, d, n, L, t_count):
    hi = min(0.9 * math.sqrt((L / 6.0) ** 2 - 1.0), 30.0)
    return Slot(name, tuple(
        {"experiment": "witness-sr", "d": d, "grid": _grid(L, n),
         "t_grid": _geo(*_shifted(2.1, hi, i), t_count)} for i in range(4)))


def _moment_law_slot(name, d, n, L, r_list, t_count):
    hi = min(0.9 * math.sqrt((L / 6.0) ** 2 - 1.0), 30.0)
    return Slot(name, tuple(
        {"experiment": "moment-law", "d": d, "grid": _grid(L, n), "r_list": r_list,
         "t_grid": _geo(*_shifted(2.1, hi, i), t_count)} for i in range(4)))


def _witness_sp_slot(name, d, n, L, s, t_count, fractional=False):
    """Degenerate nu: one exponent per moment profile, so propagate dominates."""
    xi2_max = d * (math.pi * n / (2.0 * L)) ** 2
    if fractional:  # exp(-t |xi|^2): the heat flow at time 2t
        hi = min(0.9 * ((L / 6.0) ** 2 - 1.0) / 2.0, 600.0 / xi2_max)
    else:
        hi = min(0.9 * ((L / 6.0) ** 2 - 1.0), 1200.0 / xi2_max)
    out = []
    for i in range(4):
        cfg = {"experiment": "witness-sp", "d": d, "grid": _grid(L, n),
               "nu": {"variant": "degenerate", "s": s},
               "t_grid": _geo_list(*_shifted(2.2, hi, i), t_count)}
        if fractional:
            cfg["kind"] = {"name": "fractional", "alpha": 2.0}
        out.append(cfg)
    return Slot(name, tuple(out))


def _spectral():
    # The 128^3 slot is the largest array the workload touches (peak memory).
    return [
        _witness_sr_slot("wsr-3d-128", 3, 128, 28.8, 4),
        _witness_sr_slot("wsr-3d-64", 3, 64, 18.0, 4),
        _witness_sr_slot("wsr-2d-1024", 2, 1024, 200.0, 4),
        _witness_sr_slot("wsr-2d-512", 2, 512, 100.0, 5),
        _witness_sr_slot("wsr-2d-256", 2, 256, 50.0, 6),
        _moment_law_slot("ml-3d-64", 3, 64, 18.0, [2, 4, "inf"], 5),
        _moment_law_slot("ml-2d-512", 2, 512, 100.0, [2, "inf"], 5),
        _moment_law_slot("ml-2d-256", 2, 256, 50.0, [4, "inf"], 6),
        _witness_sp_slot("wsp-3d-64", 3, 64, 24.0, 2.0, 5),
        _witness_sp_slot("wsp-3d-32", 3, 32, 14.0, 4.0, 6),
        _witness_sp_slot("wsp-2d-512", 2, 512, 200.0, "inf", 5),
        _witness_sp_slot("wsp-2d-512-s2", 2, 512, 180.0, 2.0, 5),
        _witness_sp_slot("wsp-2d-256", 2, 256, 100.0, 3.0, 6, fractional=True),
    ]


# ------------------------------------------------------------------ small-batch


def _fund_finite_slot(name, width):
    out = []
    psis = ((1.0, 1.0, 1.0), (1.5, 0.5, 1.0), (2.0, 1.0, 0.5), (1.2, 2.0, 1.0))
    for i, (a, alpha, beta) in enumerate(psis):  # twelve deltas each: equal cost
        cfg = {"experiment": "fundamental", "psi": _zeta(a, a + width, alpha, beta),
               "deltas": [10.0 ** -(2.5 + (0.5 + 0.1 * i) * k) for k in range(12)]}
        if i != 3:
            cfg["regime"] = "small"
        out.append(cfg)
    return Slot(name, tuple(out))


def _fundamental_slots():
    small, large = [], []
    for i, beta in enumerate((-1.0, -0.5, -2.0, -1.5)):
        psi = _zeta(1.0 + 0.5 * i, "inf", 1.0, beta)
        # |log delta| < 11 keeps the exponent cap, and so the grid, fixed
        small.append({"experiment": "fundamental", "psi": psi, "regime": "small",
                      "deltas": [10.0 ** -(1.0 + (0.3 + 0.05 * i) * k) for k in range(10)]})
        large.append({"experiment": "fundamental", "psi": psi, "regime": "large",
                      "deltas": [10.0 ** (1.0 + (0.3 + 0.05 * i) * k) for k in range(10)]})
    table = []
    for i in range(4):
        pts = {str(1.0 + 0.25 * k): 1.0 + 0.1 * i * k for k in range(6)}
        table.append({"experiment": "fundamental", "psi": {"variant": "table", "points": pts},
                      "deltas": [10.0 ** -k for k in range(2 + i, 10 + i)]})
    return [_fund_finite_slot("fund-finite-b", 1.0), _fund_finite_slot("fund-finite-b-wide", 2.0),
            Slot("fund-infinite-b-small", tuple(small)),
            Slot("fund-infinite-b-large", tuple(large)), Slot("fund-table", tuple(table))]


def _mixed_norm_slots():
    degenerate = tuple(
        {"experiment": "mixed-norm", "theta": {"variant": "degenerate", "s": s},
         "curve": {"power": -0.25, "coef": 1.0 + i, "t_max": 1.0 + i}}
        for i, s in enumerate((2.0, 3.0, 1.5, 2.5)))
    zeta = tuple(
        {"experiment": "mixed-norm", "theta": _zeta(1.0, 3.0, *ab),
         "curve": {"power": -0.2, "t_max": 1.0 + i, "count": 512}}
        for i, ab in enumerate(((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 0.5))))
    table = tuple(
        {"experiment": "mixed-norm",
         "theta": {"variant": "table", "points": {"1.5": 1.0, str(2.5 + 0.25 * i): 2.0, "4.0": 1.0}},
         "curve": {"power": -0.2, "t_max": 2.0 + i}}
        for i in range(4))
    return [Slot("mixed-norm-degenerate", degenerate), Slot("mixed-norm-zeta", zeta),
            Slot("mixed-norm-table", table)]


def _norms_slot(name, d, n, ratio, exponent_grid=False):
    out = []
    for i, s2 in enumerate(SIGMA2):
        cfg = {"experiment": "norms", "d": d, "grid": _grid(ratio * math.sqrt(s2), n)}
        if s2 != 1.0:  # the default initial data is the unit Gaussian
            cfg["initial"] = {"type": "gaussian", "sigma2": s2}
        if exponent_grid:
            cfg["p_grid"] = {"a": 1.0, "b": 3.0}
        else:
            cfg["p_grid"] = [1, 1.5, 2, 3, 4, 8, "inf"]
        out.append(cfg)
    return Slot(name, tuple(out))


def _norms_indicator_slot(name, d, n):
    return Slot(name, tuple(
        {"experiment": "norms", "d": d, "grid": _grid(16.0 + 4.0 * i, n),
         "initial": {"type": "indicator", "nodes_per_axis": n // 4},
         "p_grid": [1, 2, 3.5, "inf"]} for i in range(4)))


def _propagate_slot(name, d, n, ratio, kind):
    out = []
    for i, s2 in enumerate(SIGMA2):
        cfg = {"experiment": "propagate", "d": d, "grid": _grid(ratio * math.sqrt(s2), n),
               "initial": {"type": "gaussian", "sigma2": s2}, "t": round(1.5 * s2, 6)}
        if kind != "heat":
            cfg["kind"] = kind
        out.append(cfg)
    return Slot(name, tuple(out))


def _small_witness_slots():
    sp, sp2, sr = [], [], []
    for i in range(4):
        sp.append({"experiment": "witness-sp", "d": 1, "grid": _grid(40.0, 512),
                   "nu": {"variant": "table",
                          "points": {"2.0": 1.0, "3.5": 1.0 + 0.25 * i}},
                   "t_grid": [4, 8, 16, 24 + 2 * i]})
        sp2.append({"experiment": "witness-sp", "d": 2, "grid": _grid(24.0, 64),
                    "nu": {"variant": "table",
                           "points": {"2.0": 2.0 - 0.25 * i, "3.5": 1.0}},
                    "t_grid": [3, 5, 8, 10 + i]})
        sr.append({"experiment": "witness-sr", "d": 1, "grid": _grid(64.0, 1024),
                   "t_grid": _geo(3.0, 7.0 + i, 5)})
    return [Slot("witness-sp-small", tuple(sp)), Slot("witness-sp-small-2d", tuple(sp2)),
            Slot("witness-sr-small", tuple(sr))]


def _rejection_slots():
    """Configs cli.run already rejects with exit 1; they must keep doing so."""
    missing = (
        {"experiment": "norms", "d": 1, "grid": {"L": 32.0}, "p_grid": [1, 2]},
        {"experiment": "fundamental", "deltas": [1e-3]},
        {"experiment": "witness-sp", "d": 2, "grid": {"L": 32.0, "N": 64}, "t_grid": [3, 4, 5, 6]},
        {"experiment": "mixed-norm", "theta": {"variant": "degenerate", "s": 2.0},
         "curve": {"power": -0.25}},
    )
    unsafe = (
        {"experiment": "witness-sr", "d": 1, "grid": {"L": 24.0, "N": 512},
         "t_grid": [3, 4, 5, 50]},
        {"experiment": "witness-sp", "d": 2, "grid": {"L": 24.0, "N": 64},
         "nu": {"variant": "degenerate", "s": 2.0}, "t_grid": [3, 6, 9, 40]},
        {"experiment": "functional-sweep", "functional": "SP", "d": 1,
         "grid": {"L": 32.0, "N": 1024}, "X": SP_XY[0][0], "Y": SP_XY[0][1],
         "t_grid": [4, 8, 100]},
        {"experiment": "moment-law", "d": 3, "grid": {"L": 16.0, "N": 32},
         "r_list": [2, "inf"], "t_grid": [3, 4, 5, 6]},
    )
    return [Slot("reject-missing-field", missing, expect_rc=1),
            Slot("reject-unsafe-window", unsafe, expect_rc=1)]


def _small_batch():
    # Each experiment takes milliseconds, so parsing, validation, artifact
    # writing and the Python loops in spaces (fundamental function, GLS sup)
    # are the cost; the propagate slots write N^d CSV rows.  25 slots: the
    # median and the 90th percentile then fall inside one cluster of equal
    # cost (the propagate slots, fund-table) instead of between two.
    return (_fundamental_slots() + _mixed_norm_slots()
            + [_norms_slot("norms-2d", 2, 64, 16.0), _norms_slot("norms-3d", 3, 16, 12.0),
               _norms_slot("norms-grid-2d", 2, 64, 16.0, exponent_grid=True),
               _norms_slot("norms-grid-3d", 3, 16, 12.0, exponent_grid=True),
               _norms_indicator_slot("norms-indicator-2d", 2, 64)]
            + [_propagate_slot("propagate-1d-heat", 1, 1024, 24.0, "heat"),
               _propagate_slot("propagate-2d-schrodinger", 2, 32, 12.0, "schrodinger"),
               _propagate_slot("propagate-1d-fractional", 1, 1024, 24.0,
                               {"name": "fractional", "alpha": 1.5})]
            + _small_witness_slots() + _rejection_slots())


# ------------------------------------------------------------------ public API


def pool(workload: str) -> list:
    """All slots of a workload; shipped configs are one-variant slots."""
    builders = {"sweep-1d": _sweep_1d, "spectral": _spectral, "small-batch": _small_batch}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    slots = [Slot(f"shipped/{name}", (_shipped(name),)) for name in SHIPPED[workload]]
    return slots + builders[workload]()


def _shipped(name: str) -> dict:
    with open(HERE / "shipped" / f"{name}.json") as fh:
        return json.load(fh)


def all_variants(workload: str) -> list:
    """Every (id, config, expect_rc) a seed can draw; refs cover exactly these."""
    out = []
    for slot in pool(workload):
        for i, cfg in enumerate(slot.variants):
            out.append(Experiment(_variant_id(slot, i), _with_prefix(slot, cfg), slot.expect_rc))
    return out


def _variant_id(slot: Slot, i: int) -> str:
    return slot.name if len(slot.variants) == 1 else f"{slot.name}#{i}"


def _with_prefix(slot: Slot, cfg: dict) -> dict:
    if "out_prefix" in cfg or slot.name.startswith("shipped/"):
        return cfg
    return {**cfg, "out_prefix": slot.name.replace("-", "_")}


def generate(workload: str, seed: int) -> list:
    """The batch for one seed: one variant per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    batch = []
    for slot in pool(workload):
        i = rng.randrange(len(slot.variants))
        batch.append(Experiment(_variant_id(slot, i), _with_prefix(slot, slot.variants[i]),
                                slot.expect_rc))
    rng.shuffle(batch)
    return batch


def warmup(workload: str) -> Experiment:
    name = WARMUP[workload]
    return Experiment(name, _shipped(name.split("/", 1)[1]))


def describe(config: dict) -> dict:
    """Input properties of one config: d, N, nodes, exponents per profile
    evaluation, time samples and the share of initial-data nodes that are 0."""
    import numpy as np
    from strichartz_gls import functionals, grid_field, spaces

    exp = config["experiment"]
    t = config.get("t_grid")
    props = {"experiment": exp, "d": 0, "N": 0, "nodes": 0, "exponents": 0,
             "time_samples": len(t) if isinstance(t, list) else (t or {}).get("count", 0),
             "zero_node_share": 0.0}
    if "grid" not in config or "N" not in config["grid"]:
        return props
    d, L, N = config["d"], float(config["grid"]["L"]), config["grid"]["N"]
    props.update(d=d, N=N, nodes=N ** d)

    def count(psi):
        if psi["variant"] == "degenerate":
            return 1
        if psi["variant"] == "table":
            a, b = min(map(float, psi["points"])), max(map(float, psi["points"]))
        else:
            a, b = float(psi["a"]), float(psi["b"])
        return spaces.exponent_grid(a, b, per_decade=64,
                                    min_offset=functionals.PROFILE_MIN_OFFSET).size

    if exp in ("functional-sweep", "rate-report"):
        props["exponents"] = count(config["X"]) + count(config["Y"])
    elif exp == "witness-sp" and "nu" in config:
        props["exponents"] = count(config["nu"])
    elif exp in ("witness-sr", "propagate"):
        props["exponents"] = 1 if exp == "witness-sr" else 0
    elif exp == "moment-law":
        props["exponents"] = len(config["r_list"])
    elif exp == "norms":
        pg = config["p_grid"]
        props["exponents"] = len(pg) if isinstance(pg, list) else spaces.exponent_grid(
            float(pg["a"]), float(pg["b"])).size
    if exp == "propagate":
        props["time_samples"] = 1
    try:
        grid = grid_field.make_grid(d, L, N)
        init = config.get("initial", {"type": "gaussian", "sigma2": 1.0})
        if init["type"] == "indicator":
            f = grid_field.box_indicator(grid, init["nodes_per_axis"])
        else:
            f = grid_field.gaussian_sample(grid, grid_field.GaussianSpec(init.get("sigma2", 1.0), d))
    except ValueError:  # a config that cli.run rejects has no initial data
        return props
    props["zero_node_share"] = 1.0 - np.count_nonzero(f.values) / f.values.size
    return props


def summarize(props: list) -> dict:
    """Workload-level input properties from the per-config ones."""
    grid = [p for p in props if p["nodes"]]
    zero = [p["zero_node_share"] for p in grid]
    return {
        "experiments": len(props),
        "d": sorted({p["d"] for p in grid}),
        "N": [min((p["N"] for p in grid), default=0), max((p["N"] for p in grid), default=0)],
        "nodes": sum(p["nodes"] for p in grid),
        "exponents": sum(p["exponents"] for p in grid),
        "time_samples": sum(p["time_samples"] for p in props),
        "zero_node_share": [min(zero, default=0.0), max(zero, default=0.0)],
    }
