"""Experiment orchestration: config, seed fan-out, parallel trials, CSV/JSON.

Every experiment is a pure function of (config, base_seed): trial i always
runs with seed derive_seed(base_seed, i), and ``seeds.map_trials`` spreads
the trials of ``localscan``, ``deloc``, ``identities``, ``covariance`` and
``tail`` over ``workers`` processes and returns them in trial order, so the
written CSV is byte-identical for any worker count.  Output goes to
out_dir/<experiment>/<label>/ as records.csv + summary.json + config.json,
renamed into place as one directory; the label defaults to a hash of the
config fields other than out_dir and label.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import TailEnvelope, WeightedFrame, empirical_tail, quadratic_deviation
from .covariance import (
    covariance_schur_residual,
    gram_triplets,
    mp_self_consistency_residual,
    pv_mp,
    singular_identities,
    singular_triplets,
    singular_vec_inf_norms,
)
from .delocalization import eigvec_inf_norms, entry_identity, interlacing_identity
from .ensembles import DistSpec, ParameterError, sample_rect, sample_vector, sample_wigner
from .locallaw import law_deviation, schur_identity_residual, threshold_scan
from .seeds import derive_seed, map_trials
from .spectral import eig_decompose, mp_edges, pv_semicircle, pv_semicircle_numeric

EXPERIMENTS = ("tail", "localscan", "deloc", "identities", "covariance", "pv")
COLLISION_GAP = 1e-8  # identity checks with a collision gap at most this are skipped


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated experiment description; unknown keys are rejected at load.

    Defaults: rademacher entries, n = 1000 (identities ignore n and run
    ``trials`` instances with sizes cycling over [3, 16]), 5 trials,
    delta = 0.2, eps = 0.1, eta_multiple = 10, scales in multiples of
    log n / n, single worker.
    """

    experiment: str
    dist: DistSpec = field(default_factory=lambda: DistSpec("rademacher"))
    n: int = 1000
    p: int | None = None
    n_grid: list[int] | None = None
    trials: int | None = None
    base_seed: int = 0
    delta: float = 0.2
    eps: float = 0.1
    eta_multiple: float = 10.0
    scales: list[float] = field(default_factory=lambda: [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    t_grid: list[float] | None = None
    envelopes: list[str] = field(default_factory=list)
    statistic: str = "quadratic"
    matrix: str = "gaussian_symmetric"
    d: int = 64
    workers: int = 1
    out_dir: str = "out"
    label: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if isinstance(self.dist, dict):
            try:
                self.dist = DistSpec.from_dict(self.dist)
            except ParameterError as exc:
                raise ConfigError(f"field 'dist': {exc}") from exc
        if self.trials is None:
            self.trials = 200 if self.experiment == "identities" else 5
        for name in ("n", "trials", "workers", "d"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"field {name!r} must be a positive integer")
        if self.experiment in ("localscan", "deloc", "covariance") and min([self.n, *(self.n_grid or [])]) < 2:
            raise ConfigError("n and every n_grid entry must be at least 2: scales use log n")
        if self.p is not None and not 1 <= self.p <= self.n:
            raise ConfigError("field 'p' must satisfy 1 <= p <= n")
        if self.delta <= 0 or self.eps <= 0 or self.eta_multiple <= 0:
            raise ConfigError("delta, eps and eta_multiple must be positive")
        if any(s <= 0 for s in self.scales) or any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ConfigError("scales must be positive and strictly ascending")
        if self.statistic not in ("quadratic", "projection"):
            raise ConfigError("statistic must be 'quadratic' or 'projection'")
        if self.matrix not in ("identity", "gaussian_symmetric"):
            raise ConfigError("matrix must be 'identity' or 'gaussian_symmetric'")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be a nonnegative 64-bit integer")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dist"] = self.dist.to_dict()
        return d

    def config_hash(self) -> str:
        """Hash of the fields that fix the numbers; out_dir and label only say where they go."""
        fields = self.to_dict()
        del fields["out_dir"], fields["label"]
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def load_config(path) -> ExperimentConfig:
    """Load a JSON config file, validating fields and rejecting unknown keys."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("field 'experiment' is required")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: list[str]
    records: list[tuple]
    summary: dict
    wall_time: float
    out_path: Path | None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_files(report: ExperimentReport, out: Path) -> None:
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        for row in report.records:
            writer.writerow([_fmt(v) for v in row])
    (out / "config.json").write_text(json.dumps(report.config.to_dict(), indent=2, sort_keys=True) + "\n")
    summary = dict(report.summary)
    summary["version"] = f"{__version__}+{report.config.config_hash()}"
    summary["wall_time_s"] = report.wall_time
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _write_outputs(report: ExperimentReport, out_root: Path) -> Path:
    """Put the run's files in place as one directory, so it holds a whole run or none.

    The files are built in a sibling temp directory that is renamed into
    place; a previous run's directory is moved aside first and deleted after.
    """
    label = report.config.label or report.config.config_hash()
    out = out_root / report.config.experiment / label
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.parent / f".{out.name}.{uuid.uuid4().hex}.tmp"
    tmp.mkdir()
    try:
        _write_files(report, tmp)
    except BaseException:
        shutil.rmtree(tmp)
        raise
    aside = tmp.with_suffix(".old")
    if out.exists():
        os.replace(out, aside)
    os.replace(tmp, out)
    if aside.exists():
        shutil.rmtree(aside)
    return out


# --- tail experiment --------------------------------------------------------


def _tail_matrix(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.matrix == "identity":
        return np.eye(cfg.n)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.base_seed, 1 << 48)))
    g = rng.standard_normal((cfg.n, cfg.n))
    return (g + g.T) / math.sqrt(2.0)

def _run_tail(cfg: ExperimentConfig):
    if cfg.statistic == "projection":
        basis = np.eye(cfg.n)[:, : cfg.d]
        frame = WeightedFrame(basis=basis, weights=np.ones(cfg.d))
        matrix = None
        frob = math.sqrt(cfg.d)  # unused by the projection envelope
    else:
        frame = None
        matrix = _tail_matrix(cfg)
        frob = float(np.linalg.norm(matrix))
    t_grid = cfg.t_grid or list(np.linspace(0.0, 8.0 * max(1.0, frob), 33))
    k = cfg.dist.bound if math.isfinite(cfg.dist.bound) else 1.0
    tail = empirical_tail(
        cfg.statistic,
        cfg.dist,
        np.asarray(t_grid),
        cfg.trials,
        cfg.base_seed,
        frame=frame,
        matrix=matrix,
        workers=cfg.workers,
    )
    # spectral norms cost an SVD each: taken only for an envelope that reads them
    spec = babs = frob
    if matrix is not None:
        reads_spec = bool({"vw1", "vw2", "subexp", "hkz"} & set(cfg.envelopes))
        spec = float(np.linalg.norm(matrix, 2)) if reads_spec else None
        babs = float(np.linalg.norm(np.abs(matrix), 2)) if "hw" in cfg.envelopes else None
    envs = {}
    for kind in cfg.envelopes:
        kwargs = dict(kind=kind, K=k, n=cfg.n, frobenius=frob, spectral=spec)
        if kind == "hw":
            kwargs["spectral_abs"] = babs
        if kind in ("subexp", "esy2"):
            kwargs["alpha"] = cfg.dist.alpha
        envs[kind] = TailEnvelope(**kwargs)
    columns = ["t", "survival", "stderr", "trials"] + [f"envelope_{k}" for k in cfg.envelopes]
    records = []
    for i, t in enumerate(tail.t_grid):
        row = [float(t), float(tail.survival[i]), float(tail.stderr[i]), tail.trials]
        row += [envs[k](float(t)) for k in cfg.envelopes]
        records.append(tuple(row))
    ok = bool(tail.survival[-1] <= min((e(float(tail.t_grid[-1])) for e in envs.values()), default=1.0))
    summary = {"ok": ok, "statistic": cfg.statistic, "max_t_survival": float(tail.survival[-1])}
    return columns, records, summary


# --- localscan experiment ---------------------------------------------------


def _run_localscan(cfg: ExperimentConfig):
    unit = math.log(cfg.n) / cfg.n
    scales = [s * unit for s in cfg.scales]
    bulk = (-1.8, 1.8)
    est = threshold_scan(cfg.dist, cfg.n, scales, cfg.delta, cfg.trials, bulk, cfg.base_seed, workers=cfg.workers)
    records = [
        (scale, trial, *window)
        for trial, devs in enumerate(est.per_trial)
        for scale, dev in zip(est.scales.tolist(), devs)
        for window in dev.windows
    ]
    columns = ["scale", "trial", "window_lo", "window_hi", "N_I", "expected_mass", "rel_dev"]
    summary = {
        "ok": est.threshold_scale is not None,
        "delta": cfg.delta,
        "scale_multiples": list(cfg.scales),
        "max_rel_dev": [float(v) for v in est.max_rel_dev],
        "threshold_scale": est.threshold_scale,
    }
    return columns, records, summary


# --- deloc experiment -------------------------------------------------------


def _deloc_trial(args):
    dist, n, eps, trial, seed = args
    w = sample_wigner(dist, n, seed, normalize=True)
    recs = eigvec_inf_norms(eig_decompose(w), n, seed, eps)
    return [
        (r.n, r.seed, r.index, r.lam, r.region, r.inf_norm, r.scaled_bulk, r.scaled_edge)
        for r in recs
    ]


def _run_deloc(cfg: ExperimentConfig):
    n_values = cfg.n_grid or [cfg.n]
    jobs = []
    idx = 0
    for n in n_values:
        for t in range(cfg.trials):
            jobs.append((cfg.dist, n, cfg.eps, t, derive_seed(cfg.base_seed, idx)))
            idx += 1
    records = [row for rows in map_trials(_deloc_trial, jobs, cfg.workers) for row in rows]
    columns = ["n", "seed", "index", "lambda", "region", "inf_norm", "scaled_bulk", "scaled_edge"]
    bulk_max = max((r[6] for r in records if r[4] == "bulk"), default=float("nan"))
    summary = {"ok": bool(bulk_max <= 4.0), "max_scaled_bulk": float(bulk_max)}
    return columns, records, summary


# --- identities experiment --------------------------------------------------


def _rel_err(lhs: np.ndarray, rhs: np.ndarray, floor: float) -> np.ndarray:
    return np.abs(lhs - rhs) / np.maximum(np.abs(rhs), floor)


def _add_guarded(rows: list, instance: int, dim: int, p: int, checks: list) -> int:
    """Append rows for (name, rel_err, collision_gap) families, interleaved per index.

    Returns how many checks the COLLISION_GAP mask left out.
    """
    skipped = 0
    for i in range(len(checks[0][1])):
        for name, err, gap in checks:
            if gap[i] > COLLISION_GAP:
                rows.append((instance, name, dim, p, float(err[i])))
            else:
                skipped += 1
    return skipped


def _identity_instance(job) -> tuple[list, int]:
    """Exact-identity checks on one small random instance (dist, instance, seed): (rows, skipped)."""
    dist, instance, seed = job
    rng_sizes_n = list(range(3, 17))
    n = rng_sizes_n[instance % len(rng_sizes_n)]
    p = 2 + instance % 9
    pn = max(p, 3 + instance % 14)
    z = 0.3 + 0.7j
    rows = []

    w = sample_wigner(dist, n, seed, normalize=True)
    lhs, rhs, gap = entry_identity(w)
    skipped = _add_guarded(rows, instance, n, 0, [("entry", _rel_err(lhs, rhs, 1e-30), gap)])
    lhs, rhs, gap = interlacing_identity(w)
    skipped += _add_guarded(rows, instance, n, 0, [("interlacing", _rel_err(lhs, rhs, 1.0), gap)])
    rows.append((instance, "schur_sum", n, 0, schur_identity_residual(math.sqrt(n) * w, z)))

    # spectral identity of the quadratic form against the eigenbasis frame
    x = sample_vector(dist, n, derive_seed(seed, 1))
    a = sample_wigner(DistSpec("gaussian"), n, derive_seed(seed, 2), normalize=False)
    vals, vecs = np.linalg.eigh(a)
    lhs_q = quadratic_deviation(x, a)
    rhs_q = complex(np.sum(vals * (np.abs(np.conj(vecs).T @ x) ** 2 - 1.0)))
    rows.append((instance, "spectral_form", n, 0, abs(lhs_q - rhs_q) / max(abs(lhs_q), 1.0)))

    m = sample_rect(dist, p, pn, derive_seed(seed, 3))
    trip = singular_triplets(m)
    scale = max(float(trip.sigma[-1] ** 2), 1.0)
    entries, interlacings = [], []
    for side in ("right", "left"):
        entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = singular_identities(m, trip, side)
        entries.append((f"singular_entry_{side}", _rel_err(entry_lhs, entry_rhs, 1e-30), gap))
        interlacings.append((f"singular_interlacing_{side}", np.abs(inter_lhs - inter_rhs) / scale, gap))
    skipped += _add_guarded(rows, instance, pn, p, entries)
    skipped += _add_guarded(rows, instance, pn, p, interlacings)
    rows.append((instance, "cov_schur_sum", pn, p, covariance_schur_residual(m, z)))
    return rows, skipped


def _run_identities(cfg: ExperimentConfig):
    jobs = [(cfg.dist, i, derive_seed(cfg.base_seed, i)) for i in range(cfg.trials)]
    results = map_trials(_identity_instance, jobs, cfg.workers)
    records = [row for rows, _ in results for row in rows]
    skipped = sum(skips for _, skips in results)
    columns = ["instance", "check", "n", "p", "rel_err"]
    failures = [r for r in records if r[4] > 1e-8]
    summary = {
        "ok": not failures,
        "checks": len(records),
        "failures": len(failures),
        "skipped": skipped,
        "max_rel_err": max((r[4] for r in records), default=0.0),
    }
    return columns, records, summary


# --- covariance experiment --------------------------------------------------


def _covariance_trial(args):
    dist, p, n, eps, scale_mult, eta_multiple, trial, seed = args
    y = p / n
    trip = gram_triplets(sample_rect(dist, p, n, seed))
    gram_eigs = trip.sigma**2 / n  # the eigenvalues of MM*/n, ascending
    a, b = mp_edges(y)
    unit = math.log(n) / n
    dev = law_deviation(gram_eigs, ("mp", y), scale_mult * unit, (a + 2 * eps, b - 2 * eps))
    eta = eta_multiple * unit
    sc_res = max(
        mp_self_consistency_residual(gram_eigs, x + 1j * eta, y)
        for x in np.linspace(a + 2 * eps, b - 2 * eps, 25)
    )
    recs = singular_vec_inf_norms(trip, eps, seed)
    rows = [
        (trial, r.side, r.n, r.index, r.lam, r.region, r.inf_norm, r.scaled_bulk, r.scaled_edge)
        for r in recs
    ]
    return rows, dev.max_rel_dev, sc_res


def _run_covariance(cfg: ExperimentConfig):
    p = cfg.p or cfg.n // 2
    scale_mult = cfg.scales[-2] if len(cfg.scales) >= 2 else cfg.scales[-1]
    jobs = [
        (cfg.dist, p, cfg.n, cfg.eps, scale_mult, cfg.eta_multiple, t, derive_seed(cfg.base_seed, t))
        for t in range(cfg.trials)
    ]
    results = map_trials(_covariance_trial, jobs, cfg.workers)
    records = [row for rows, _, _ in results for row in rows]
    max_dev = max(d for _, d, _ in results)
    max_res = max(r for _, _, r in results)
    columns = ["trial", "side", "dim", "index", "lambda", "region", "inf_norm", "scaled_bulk", "scaled_edge"]
    summary = {
        "ok": bool(max_dev <= 0.25),
        "y": p / cfg.n,
        "max_mp_rel_dev": float(max_dev),
        "max_self_consistency_residual": float(max_res),
    }
    return columns, records, summary


# --- pv experiment ----------------------------------------------------------


def _run_pv(cfg: ExperimentConfig):
    records = []
    worst = 0.0
    for lam in (0.0, 1.0, -1.0, 1.9, -1.9, 3.0, -3.0):
        closed = pv_semicircle(lam)
        numeric = pv_semicircle_numeric(lam)
        err = abs(closed - numeric)
        worst = max(worst, err)
        records.append(("semicircle", lam, closed, numeric, err))
    y = 0.5
    a, b = mp_edges(y)
    for lam, limit in ((a, math.sqrt(y)), (b, -math.sqrt(y))):
        numeric = pv_mp(lam, y)
        err = abs(numeric - limit)
        records.append((f"mp_y={y}", lam, limit, numeric, err))
        worst = max(worst, err)
    columns = ["family", "lambda", "reference", "numeric", "abs_err"]
    summary = {"ok": bool(worst <= 0.05), "max_abs_err": float(worst)}
    return columns, records, summary


_RUNNERS = {
    "tail": _run_tail,
    "localscan": _run_localscan,
    "deloc": _run_deloc,
    "identities": _run_identities,
    "covariance": _run_covariance,
    "pv": _run_pv,
}


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute the configured experiment and (optionally) persist its outputs."""
    start = time.perf_counter()
    columns, records, summary = _RUNNERS[cfg.experiment](cfg)
    report = ExperimentReport(
        config=cfg,
        columns=columns,
        records=records,
        summary=summary,
        wall_time=time.perf_counter() - start,
        out_path=None,
    )
    if write:
        report.out_path = _write_outputs(report, Path(cfg.out_dir))
    return report


__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "config_from_dict",
    "derive_seed",
    "load_config",
    "run_experiment",
]
