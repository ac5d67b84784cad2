"""Experiment orchestration: config, trial runners over ``seeds.map_trials``, CSV/JSON.

Every experiment is a pure function of (config, base_seed).  Each runner but
``pv`` hands ``seeds.map_trials`` a closure of (trial index, seed) over its
config; ``map_trials`` runs trial i with seed derive_seed(base_seed, i) on up
to ``workers`` threads and returns the trials in index order, so the written
CSV is byte-identical for any worker count.  A ``tail`` run's trials are its
blocks of TAIL_BLOCK draws (``concentration.empirical_tail``).  Each runner
returns its records as columns, a dict of CSV column name -> 1-D array, and
the writer formats each distinct value of a column once, as text (object
or str cells, quoted as needed) or as numbers (``np.unique``, never quoted),
and joins the rows itself, in the bytes of ``csv.writer``'s excel dialect.
``localscan`` and ``covariance`` reduce their trials' spectra in this
process with ``locallaw.threshold_scan``, handing it the law's mass
function: this module maps each config name (the statistic, the
experiment's law) to the object the library takes, once.  ``identities`` draws each instance's matrices
through ``map_trials``, then, in this thread, calls each identity kernel
once per shape group (one Wigner size, or one factor shape) on a plain
``np.stack``, each matrix keeping the bits of a lone call wherever it sits,
as no sum there is a BLAS vector product; ``concat_columns`` joins the
groups' rows, and one stable sort by instance orders them.  Output goes to
out_dir/<experiment>/<label>/ as records.csv + summary.json + config.json,
renamed into place as one directory.  ``EXPERIMENTS`` names each runner and
the config fields it reads: only those are settable, written to
config.json and, but for workers, hashed into the default label.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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
from .concentration import (
    ENVELOPE_INPUTS,
    ENVELOPE_KINDS,
    TAIL_MIN_TRIALS,
    TailEnvelope,
    WeightedFrame,
    empirical_tail,
)
from .covariance import (
    covariance_schur_residual,
    gram_triplets,
    mp_self_consistency_residual,
    pv_mp,
    singular_identities,
    singular_triplets,
    singular_vec_inf_norms,
)
from .delocalization import _overlaps, eigvec_inf_norms, wigner_identities
from .ensembles import DistSpec, ParameterError, _rng, sample_rect, sample_vector, sample_wigner
from .locallaw import SCAN_WINDOWS_PER_N, ThresholdEstimate, least_scale, schur_identity_residual, threshold_scan
from .seeds import MASK64, concat_columns, derive_seed, map_trials
from .spectral import (
    _eigh_owned,
    check_hermitian,
    eig_decompose,
    mp_edges,
    mp_interval_mass,
    pv_semicircle,
    pv_semicircle_numeric,
    sc_interval_mass,
)

COLLISION_GAP = 1e-8  # identity checks with a collision gap at most this are skipped
LABEL_BYTES = 255 - len("..") - 32 - len(".tmp")  # so the writer's .{label}.{32 hex}.tmp fits a 255-byte name
LOCALSCAN_BULK = (-1.8, 1.8)  # the semicircle bulk that localscan's windows slide across


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _finite(value) -> bool:
    """True for a finite int or float; bools are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ExperimentConfig:
    """Validated experiment description; a key the experiment does not read fails at load.

    Defaults: rademacher entries, n = 1000, 2000 trials for tail, 200
    identity instances (sizes cycling over [3, 16]), 5 trials elsewhere,
    delta = 0.2, eps = 0.1, eta_multiple = 10, scales in multiples of
    log n / n, single worker.  dist is a JSON object with a 'kind'; n_grid,
    when given, is a nonempty list, and envelopes is a list.  Counts (but a
    null p or trials, their default), n_grid entries and base_seed must be
    ints (not bools), base_seed below 2^64, and envelopes known kinds that
    fit the statistic: ``projection`` for the projection statistic, the
    quadratic-form kinds (those that read ||A||_F) for the quadratic one.
    A tail run needs n >= 2 for an envelope that reads n (log n), and
    d <= n for the projection statistic.
    delta, eps, eta_multiple and the scales (strictly ascending) are finite
    positive numbers, not bools; a given t_grid is a nonempty ascending list
    of finite nonnegative numbers; all are stored as floats.  eps is below 2
    for deloc, and for covariance leaves a bulk a + 2 eps < b - 2 eps inside
    the MP edges a, b (eps below about sqrt(p/n)).  In localscan and
    covariance, the smallest scale is at least ``locallaw.least_scale`` of
    its bulk and of the eigenvalues it scans (n, or the Gram matrix's p), the
    rule ``law_deviation`` applies.  A tail run needs at least
    TAIL_MIN_TRIALS trials.  A label is one plain path
    component: no '/' or '\\', and no leading '.', so it can name neither
    the experiment directory nor the writer's temporaries, and at most
    LABEL_BYTES bytes, so that a temporary's name fits a file name.  out_dir
    is a string, and it and the label encode as file names (``os.fsencode``;
    a lone surrogate does not).
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
    d: int = 64
    workers: int = 1
    out_dir: str = "out"
    label: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.dist, DistSpec):
            try:
                self.dist = DistSpec.from_dict(self.dist)
            except ParameterError as exc:
                raise ConfigError(f"field 'dist': {exc}") from exc
        if self.trials is None:
            self.trials = {"tail": 2000, "identities": 200}.get(self.experiment, 5)
        for name, value in (("n_grid", [] if self.n_grid is None else self.n_grid), ("envelopes", self.envelopes)):
            if not isinstance(value, list):
                raise ConfigError(f"field {name!r} must be a list, not {value!r}")
        if self.n_grid == []:
            raise ConfigError("field 'n_grid' must list at least one size; leave it out to run n alone")
        counts = [(name, getattr(self, name)) for name in ("n", "p", "trials", "workers", "d", "base_seed")]
        for name, value in counts + [("n_grid", v) for v in self.n_grid or []]:
            if (isinstance(value, bool) or not isinstance(value, int)) and not (name == "p" and value is None):
                raise ConfigError(f"field {name!r} must be an integer, not {value!r}")
        for name in ("n", "trials", "workers", "d"):
            if getattr(self, name) < 1:
                raise ConfigError(f"field {name!r} must be a positive integer")
        if self.experiment in ("localscan", "deloc", "covariance") and min([self.n, *(self.n_grid or [])]) < 2:
            raise ConfigError("n and every n_grid entry must be at least 2: scales use log n")
        if self.p is not None and not 1 <= self.p <= self.n:
            raise ConfigError("field 'p' must satisfy 1 <= p <= n")
        if self.experiment == "tail" and self.trials < TAIL_MIN_TRIALS:
            raise ConfigError(f"the tail estimate needs at least {TAIL_MIN_TRIALS} trials, not {self.trials}")
        for name in ("delta", "eps", "eta_multiple"):
            value = getattr(self, name)
            if not _finite(value) or value <= 0:
                raise ConfigError(f"field {name!r} must be a finite positive number, not {value!r}")
            setattr(self, name, float(value))
        if self.experiment == "deloc" and self.eps >= 2:
            raise ConfigError(f"field 'eps' must be below 2, not {self.eps!r}: the bulk is |lambda| <= 2 - eps")
        # a scan sees the n Wigner eigenvalues in the semicircle bulk, or the p of the Gram matrix in the MP one
        eigs, (lo, hi) = self.n, LOCALSCAN_BULK
        if self.experiment == "covariance":
            eigs, (lo, hi) = _covariance_shape(self.n, self.p, self.eps)
            if not lo < hi:
                raise ConfigError(f"field 'eps' = {self.eps!r} leaves no MP bulk: a + 2 eps >= b - 2 eps")
        s = self.scales
        if not isinstance(s, list) or not s or not all(_finite(v) for v in s):
            raise ConfigError(f"field 'scales' must be a nonempty list of finite numbers, not {s!r}")
        if any(v <= 0 for v in s) or any(b <= a for a, b in zip(s, s[1:])):
            raise ConfigError("scales must be positive and strictly ascending")
        self.scales = [float(v) for v in s]
        if self.experiment in ("localscan", "covariance"):  # the window grid of the smallest scale must fit
            unit = math.log(self.n) / self.n
            least = least_scale(eigs, (lo, hi))
            if self.scales[0] * unit < least:  # the scale the runner hands law_deviation
                raise ConfigError(
                    f"field 'scales': at n = {self.n} each scale must be at least {least / unit:.3g} log n / n, so"
                    f" that its windows over the bulk ({lo:g}, {hi:g}) number at most {SCAN_WINDOWS_PER_N} for each"
                    f" of the {eigs} eigenvalues scanned"
                )
        if self.t_grid is not None:
            t = self.t_grid
            if not isinstance(t, list) or not t or not all(_finite(v) for v in t):
                raise ConfigError(f"field 't_grid' must be a nonempty list of finite numbers, not {t!r}")
            if any(v < 0 for v in t) or any(b < a for a, b in zip(t, t[1:])):
                raise ConfigError("t_grid entries must be nonnegative and ascending")
            self.t_grid = [float(v) for v in t]
        unknown = [kind for kind in self.envelopes if kind not in ENVELOPE_KINDS]
        if unknown:
            raise ConfigError(f"unknown envelope kinds {unknown}; known: {', '.join(ENVELOPE_KINDS)}")
        if len(set(self.envelopes)) < len(self.envelopes):
            raise ConfigError("envelopes must not repeat: each names one records.csv column")
        if self.statistic not in ("quadratic", "projection"):
            raise ConfigError("statistic must be 'quadratic' or 'projection'")
        quadratic = self.statistic == "quadratic"
        unfit = [kind for kind in self.envelopes if ("frobenius" in ENVELOPE_INPUTS[kind]) != quadratic]
        if unfit:
            raise ConfigError(f"envelope kinds {unfit} do not bound the {self.statistic} statistic")
        if self.experiment == "tail":
            reads_n = [kind for kind in self.envelopes if "n" in ENVELOPE_INPUTS[kind]]
            if reads_n and self.n < 2:
                raise ConfigError(f"envelope kinds {reads_n} need n >= 2: they read log n")
            if not quadratic and self.d > self.n:
                raise ConfigError(f"field 'd' must be at most n = {self.n}: the frame has d orthonormal columns")
        if not 0 <= self.base_seed <= MASK64:
            raise ConfigError("base_seed must be a nonnegative 64-bit integer")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"field 'out_dir' must be a string, not {self.out_dir!r}")
        label = self.label
        if label is not None and (
            not isinstance(label, str) or not label or label.startswith(".") or any(c in label for c in "/\\\0")
        ):
            raise ConfigError(f"label must be one plain path component, not starting with '.': {label!r}")
        for name, path in (("out_dir", self.out_dir), ("label", label or "")):
            try:
                os.fsencode(path)
            except UnicodeEncodeError as exc:
                raise ConfigError(f"field {name!r} cannot name a file: {exc.reason} in {path!r}") from exc
        if label is not None and len(os.fsencode(label)) > LABEL_BYTES:
            raise ConfigError(f"field 'label' must be at most {LABEL_BYTES} UTF-8 bytes, not {len(os.fsencode(label))}")

    def to_dict(self) -> dict:
        """The experiment and the fields it reads: the text of config.json."""
        d = asdict(self)
        d["dist"] = self.dist.to_dict()
        return {name: d[name] for name in ("experiment", *EXPERIMENTS[self.experiment][1])}

    def config_hash(self) -> str:
        """Hash of the fields that fix the numbers; the worker count never moves one."""
        fields = self.to_dict()
        fields.pop("workers", None)
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def read_config(path):
    """Parse a JSON config file without validating it (``config_from_dict`` does that)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {str(path)!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc.strerror}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("field 'experiment' is required")
    experiment = raw["experiment"]
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    reads = EXPERIMENTS[experiment][1]
    unread = set(raw) - {"experiment", "out_dir", "label", *reads}
    if unread:
        raise ConfigError(f"{experiment} reads no keys {sorted(unread)}; it reads {', '.join(reads) or 'none'}")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: dict  # CSV column name -> 1-D array, in column order; all of one length
    summary: dict
    wall_time: float
    out_path: Path | None


def _csv_field(text: str) -> str:
    """``text`` as an excel-dialect CSV field: quoted, quotes doubled, if it holds a comma, quote or line end."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_fields(column: np.ndarray) -> list[str]:
    """The CSV field of each cell, repr for floats and str otherwise, each distinct value formatted once."""
    kind = column.dtype.kind
    if kind not in "fiub":  # text (object or str cells): each distinct text quoted once
        texts = list(map(str, column.tolist()))
        fields = {text: _csv_field(text) for text in set(texts)}
        return list(map(fields.__getitem__, texts))
    # numbers, never quoted; floats keyed by bit pattern, so -0.0 and 0.0 (equal as floats) keep their own text
    keys = column.view(f"u{column.itemsize}") if kind == "f" else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    fields = map(repr if kind == "f" else str, distinct.view(column.dtype).tolist())
    return np.array(list(fields), dtype=object)[inverse].tolist()


def _records_text(records: dict) -> str:
    """records.csv as ``csv.writer`` writes it in the excel dialect: a header, then one line per row."""
    lines = [",".join(map(_csv_field, records)), *map(",".join, zip(*map(_column_fields, records.values())))]
    if len(records) == 1:  # a lone empty field is quoted, so that it does not read back as a blank line
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n"


def _write_files(report: ExperimentReport, out: Path) -> None:
    with open(out / "records.csv", "w", newline="") as fh:
        fh.write(_records_text(report.records))
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


def _symmetric_frobenius(a: np.ndarray) -> float:
    """||A||_F of a real matrix equal to its own transpose bit for bit, correctly rounded, with no BLAS.

    One ``math.fsum`` over the upper triangle, row by row: the diagonal
    squares and the strict-upper squares doubled.  Doubling is exact, so the
    exact sum, and the result, equal those of the full ``math.fsum``.
    """

    def row_squares(i):
        row = a[i, i:] * a[i, i:]
        row[1:] *= 2.0
        return row.tolist()

    return math.sqrt(math.fsum(itertools.chain.from_iterable(map(row_squares, range(a.shape[0])))))


def _run_tail(cfg: ExperimentConfig):
    if cfg.statistic == "projection":
        target = WeightedFrame(basis=np.eye(cfg.n)[:, : cfg.d], weights=np.ones(cfg.d))
        frob = math.sqrt(cfg.d)  # scales the default t-grid; the projection envelope reads no norm
    else:
        g = _rng(derive_seed(cfg.base_seed, 1 << 48)).standard_normal((cfg.n, cfg.n))
        target = (g + g.T) / math.sqrt(2.0)
        frob = _symmetric_frobenius(target)
    t_grid = cfg.t_grid or list(np.linspace(0.0, 8.0 * max(1.0, frob), 33))
    k = cfg.dist.bound if math.isfinite(cfg.dist.bound) else 1.0
    tail = empirical_tail(target, cfg.dist, np.asarray(t_grid), cfg.trials, cfg.base_seed, cfg.workers)
    # the kinds but subexp are sub-Gaussian, alpha = 1/2
    inputs = dict(K=k, n=cfg.n, frobenius=frob, alpha=cfg.dist.alpha if cfg.dist.kind == "subexp" else 0.5)
    # spectral norms cost an SVD each: taken only for an envelope that reads them (a quadratic one)
    reads = {name for kind in cfg.envelopes for name in ENVELOPE_INPUTS[kind]}
    if "spectral" in reads:
        inputs["spectral"] = float(np.linalg.norm(target, 2))
    if "spectral_abs" in reads:
        inputs["spectral_abs"] = float(np.linalg.norm(np.abs(target), 2))
    envs = {kind: TailEnvelope(kind=kind, **inputs) for kind in cfg.envelopes}
    records = {
        "t": tail.t_grid,
        "survival": tail.survival,
        "stderr": tail.stderr,
        "trials": np.full(tail.t_grid.size, tail.trials),
    }
    for kind, env in envs.items():
        records[f"envelope_{kind}"] = np.array([env(t) for t in tail.t_grid.tolist()])
    ok = bool(tail.survival[-1] <= min((e(float(tail.t_grid[-1])) for e in envs.values()), default=1.0))
    summary = {"ok": ok, "statistic": cfg.statistic, "max_t_survival": float(tail.survival[-1])}
    return records, summary


# --- localscan experiment ---------------------------------------------------


def _scan_summary(est: ThresholdEstimate, delta: float, multiples: list[float]) -> dict:
    """The local-law curve of a summary: the worst deviation per scale multiple and the threshold scale."""
    curve = [float(v) for v in est.max_rel_dev]
    return dict(delta=delta, scale_multiples=list(multiples), max_rel_dev=curve, threshold_scale=est.threshold_scale)


def _run_localscan(cfg: ExperimentConfig):
    unit = math.log(cfg.n) / cfg.n
    scales = [s * unit for s in cfg.scales]

    def spectrum(_, seed):
        return _eigh_owned(sample_wigner(cfg.dist, cfg.n, seed, normalize=True), vectors=False)

    spectra = map_trials(spectrum, cfg.trials, cfg.base_seed, cfg.workers)
    est = threshold_scan(spectra, sc_interval_mass, scales, cfg.delta, LOCALSCAN_BULK)
    windows = np.concatenate([dev.windows for devs in est.per_trial for dev in devs])
    runs = [dev.windows.size for devs in est.per_trial for dev in devs]  # windows per (trial, scale)
    records = {
        "scale": np.repeat(np.tile(est.scales, cfg.trials), runs),
        "trial": np.repeat(np.repeat(np.arange(cfg.trials), est.scales.size), runs),
        **{name: windows[name] for name in windows.dtype.names},
    }
    summary = {"ok": est.threshold_scale is not None, **_scan_summary(est, cfg.delta, cfg.scales)}
    return records, summary


# --- deloc experiment -------------------------------------------------------


def _run_deloc(cfg: ExperimentConfig):
    sizes = [n for n in cfg.n_grid or [cfg.n] for _ in range(cfg.trials)]  # trial i draws a size-sizes[i] matrix

    def trial(i, seed):
        w = sample_wigner(cfg.dist, sizes[i], seed, normalize=True)
        check_hermitian(w)
        return eigvec_inf_norms(_eigh_owned(w), seed, cfg.eps)

    records = concat_columns(map_trials(trial, len(sizes), cfg.base_seed, cfg.workers))
    bulk = records["scaled_bulk"][records["region"] == "bulk"]
    bulk_max = bulk.max() if bulk.size else float("nan")
    summary = {"ok": bool(bulk_max <= 4.0), "max_scaled_bulk": float(bulk_max)}
    return records, summary


# --- identities experiment --------------------------------------------------


def _rel_err(lhs: np.ndarray, rhs: np.ndarray, floor: float) -> np.ndarray:
    return np.abs(lhs - rhs) / np.maximum(np.abs(rhs), floor)


IDENTITY_Z = 0.3 + 0.7j  # the spectral parameter of both Schur expansions


def _identity_shape(instance: int) -> tuple[int, int, int]:
    """(n, p, pn) of an instance: its Wigner size, cycling over [3, 16], and the shape p x pn of its factor."""
    n = 3 + instance % 14
    p = 2 + instance % 9
    return n, p, max(p, n)


def _identity_draws(dist: DistSpec, instance: int, seed: int) -> tuple:
    """The matrices of one instance: Wigner W, vector x, quadratic form A (gaussian) and factor M."""
    n, p, pn = _identity_shape(instance)
    return (
        sample_wigner(dist, n, seed, normalize=True),
        sample_vector(dist, n, derive_seed(seed, 1)),
        sample_wigner(DistSpec("gaussian"), n, derive_seed(seed, 2), normalize=False),
        sample_rect(dist, p, pn, derive_seed(seed, 3)),
    )


def _check_columns(batch: np.ndarray, n: int, p: int, blocks: list) -> dict:
    """The record columns of a shape group's rows, n and p in each, plus a "gap" column of collision gaps.

    The rows run instance after instance, each instance's blocks in order.  A block is a list of families
    (check, rel_err, collision gap) of k x m arrays, interleaved per index; a gap of None marks a check that
    needs no guard.
    """
    errs, gaps, checks = [], [], []
    for families in blocks:
        errs.append(np.stack([err for _, err, _ in families], axis=-1).reshape(len(batch), -1))
        gaps.append(np.stack([np.full(err.shape, np.inf) if gap is None else gap for _, err, gap in families], -1))
        checks += [name for name, _, _ in families] * families[0][1].shape[-1]
    rows = len(batch) * len(checks)
    return {
        "instance": np.repeat(batch, len(checks)),
        # object cells share the few name strings; a fixed-width unicode column would take 100 bytes a row
        "check": np.tile(np.array(checks, dtype=object), len(batch)),
        "n": np.full(rows, n),
        "p": np.full(rows, p),
        "rel_err": np.concatenate(errs, axis=1).ravel(),
        "gap": np.concatenate([gap.reshape(len(batch), -1) for gap in gaps], axis=1).ravel(),
    }


def _wigner_checks(batch: np.ndarray, draws: list) -> dict:
    """The Wigner rows of a batch of instances of one size n: entry, interlacing, Schur sum, quadratic form."""
    w, x, a = (np.stack([draw[j] for draw in draws]) for j in range(3))
    n = w.shape[-1]
    decomp = eig_decompose(w)
    entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = wigner_identities(w, decomp)
    schur = schur_identity_residual(math.sqrt(n) * w, IDENTITY_Z, decomp.eigenvalues)
    # spectral identity of the quadratic form against the eigenbasis frame
    vals, vecs = np.linalg.eigh(a)
    ax = np.sum(a * x[..., None, :], axis=-1)
    lhs = np.sum(np.conj(x) * ax, axis=-1) - np.trace(a, axis1=-2, axis2=-1)  # X*AX - tr A
    spectral = np.abs(lhs - np.sum(vals * (_overlaps(vecs, x) - 1.0), axis=-1)) / np.maximum(np.abs(lhs), 1.0)
    blocks = [
        [("entry", _rel_err(entry_lhs, entry_rhs, 1e-30), gap)],
        [("interlacing", _rel_err(inter_lhs, inter_rhs, 1.0), gap)],
        [("schur_sum", np.reshape(schur, (-1, 1)), None)],
        [("spectral_form", np.reshape(spectral, (-1, 1)), None)],
    ]
    return _check_columns(batch, n, 0, blocks)


def _factor_checks(batch: np.ndarray, draws: list) -> dict:
    """The factor rows of a batch of instances of one shape p x pn: singular entry and interlacing, Schur sum."""
    m = np.stack([draw[3] for draw in draws])
    p, pn = m.shape[-2:]
    trip = singular_triplets(m)
    scale = np.maximum(trip.sigma[:, -1:] ** 2, 1.0)
    entries, interlacings = [], []  # the right and left families interleave per index i
    for side in ("right", "left"):
        entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = singular_identities(m, trip, side)
        entries.append((f"singular_entry_{side}", _rel_err(entry_lhs, entry_rhs, 1e-30), gap))
        interlacings.append((f"singular_interlacing_{side}", np.abs(inter_lhs - inter_rhs) / scale, gap))
    cov_schur = np.reshape(covariance_schur_residual(m, IDENTITY_Z, trip.sigma**2 / pn), (-1, 1))
    return _check_columns(batch, pn, p, [entries, interlacings, [("cov_schur_sum", cov_schur, None)]])


def _run_identities(cfg: ExperimentConfig):
    draws = map_trials(functools.partial(_identity_draws, cfg.dist), cfg.trials, cfg.base_seed, cfg.workers)
    groups = {}  # (checks, Wigner size or factor shape) -> its instances
    for checks, shape in ((_wigner_checks, slice(0, 1)), (_factor_checks, slice(1, 3))):
        for i in range(cfg.trials):
            groups.setdefault((checks, _identity_shape(i)[shape]), []).append(i)
    # the Wigner groups are inserted, so joined, first: the stable sort puts each instance's Wigner rows first
    rows = concat_columns([checks(np.array(batch), [draws[i] for i in batch]) for (checks, _), batch in groups.items()])
    order = np.argsort(rows["instance"], kind="stable")
    keep = rows["gap"][order] > COLLISION_GAP
    records = {name: rows[name][order[keep]] for name in ("instance", "check", "n", "p", "rel_err")}
    rel_err = records["rel_err"]
    failures = int(np.count_nonzero(rel_err > 1e-8))
    summary = {
        "ok": not failures,
        "checks": rel_err.size,
        "failures": failures,
        "skipped": int(keep.size - rel_err.size),
        "max_rel_err": float(np.max(rel_err, initial=0.0)),
    }
    return records, summary


# --- covariance experiment --------------------------------------------------


MP_GATE = 0.25  # the covariance gate on the MP count deviation, and the target of its threshold scan


def _covariance_shape(n: int, p: int | None, eps: float) -> tuple[int, tuple[float, float]]:
    """(p, bulk) of a covariance run: p defaults to n // 2, the bulk is the MP support less 2 eps at each end."""
    p = p or n // 2
    a, b = mp_edges(p / n)
    return p, (a + 2 * eps, b - 2 * eps)


def _run_covariance(cfg: ExperimentConfig):
    p, bulk = _covariance_shape(cfg.n, cfg.p, cfg.eps)
    y = p / cfg.n
    unit = math.log(cfg.n) / cfg.n
    eta = cfg.eta_multiple * unit

    def trial(t, seed):
        columns = singular_vec_inf_norms(gram_triplets(sample_rect(cfg.dist, p, cfg.n, seed)), cfg.eps)
        gram_eigs = columns["lambda"][::2]  # sigma_i^2/n of the left rows: the eigenvalues of MM*/n, ascending
        sc_res = max(mp_self_consistency_residual(gram_eigs, x + 1j * eta, y) for x in np.linspace(*bulk, 25))
        return {"trial": np.full(2 * p, t), **columns}, gram_eigs, sc_res

    results = map_trials(trial, cfg.trials, cfg.base_seed, cfg.workers)
    records = concat_columns([columns for columns, _, _ in results])
    mass = functools.partial(mp_interval_mass, y=y)
    est = threshold_scan([eigs for _, eigs, _ in results], mass, [s * unit for s in cfg.scales], MP_GATE, bulk)
    max_dev = est.max_rel_dev[max(len(cfg.scales) - 2, 0)]  # the gated scale: the next to last, or the only one
    max_res = max(r for _, _, r in results)
    summary = {
        "ok": bool(max_dev <= MP_GATE),
        "y": y,
        "max_mp_rel_dev": float(max_dev),
        "max_self_consistency_residual": float(max_res),
        **_scan_summary(est, MP_GATE, cfg.scales),
    }
    return records, summary


# --- pv experiment ----------------------------------------------------------


def _run_pv(cfg: ExperimentConfig):
    lams = [0.0, 1.0, -1.0, 1.9, -1.9, 3.0, -3.0]
    reference = [pv_semicircle(lam) for lam in lams]
    numeric = [pv_semicircle_numeric(lam) for lam in lams]
    y = 0.5
    a, b = mp_edges(y)
    # the MP principal value equals +sqrt(y) at the lower edge and -sqrt(y) at the upper
    reference += [math.sqrt(y), -math.sqrt(y)]
    numeric += [pv_mp(a, y), pv_mp(b, y)]
    records = {
        "family": np.array(["semicircle"] * len(lams) + [f"mp_y={y}"] * 2),
        "lambda": np.array(lams + [a, b]),
        "reference": np.array(reference),
        "numeric": np.array(numeric),
    }
    records["abs_err"] = np.abs(records["reference"] - records["numeric"])
    worst = float(records["abs_err"].max())
    summary = {"ok": bool(worst <= 0.05), "max_abs_err": worst}
    return records, summary


# experiment -> (runner, the config fields it reads besides experiment, out_dir and label)
EXPERIMENTS = {
    "tail": (_run_tail, ("dist", "n", "trials", "base_seed", "workers", "t_grid", "envelopes", "statistic", "d")),
    "localscan": (_run_localscan, ("dist", "n", "trials", "base_seed", "workers", "delta", "scales")),
    "deloc": (_run_deloc, ("dist", "n", "n_grid", "trials", "base_seed", "workers", "eps")),
    "identities": (_run_identities, ("dist", "trials", "base_seed", "workers")),
    "covariance": (_run_covariance, ("dist", "n", "p", "trials", "base_seed", "workers", "eps", "eta_multiple", "scales")),
    "pv": (_run_pv, ()),
}


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute the configured experiment and (optionally) persist its outputs."""
    start = time.perf_counter()
    records, summary = EXPERIMENTS[cfg.experiment][0](cfg)
    report = ExperimentReport(
        config=cfg,
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
    "read_config",
    "run_experiment",
]
