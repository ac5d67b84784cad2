"""The checks each pass's outputs must meet.

A check reads the files a pass wrote and returns the operations attempted
and failed, any problems found and the SHA-256 of each ``records.csv``.  It
compares against ``oracles``, never against rmtlab itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import linalg

import oracles
from configs import GUARDED_CHECKS, IDENTITY_GATE


@dataclass
class Outcome:
    """What one pass's outputs showed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _outputs(part: dict, out: Outcome) -> tuple[dict, list, list]:
    """(summary, header, rows) of one experiment's output directory."""
    path = Path(part["out_path"])
    out.expect((path / "config.json").is_file(), f"{part['experiment']}: config.json missing")
    out.expect(not (path / "INCOMPLETE").exists(), f"{part['experiment']}: INCOMPLETE marker left behind")
    out.hashes[part["experiment"]] = oracles.sha256(path / "records.csv")
    summary = json.loads((path / "summary.json").read_text())
    header, rows = oracles.read_csv(path / "records.csv")
    out.notes[f"{part['experiment']}.summary_ok"] = summary.get("ok")
    return summary, header, rows


def check_localscan(part: dict, cfg: dict, pass_index: int, out: Outcome) -> None:
    summary, header, rows = _outputs(part, out)
    out.attempted += cfg["trials"]
    out.expect(
        header == ["scale", "trial", "window_lo", "window_hi", "N_I", "expected_mass", "rel_dev"],
        f"localscan header {header}",
    )
    scale, trial, lo, hi, count, mass, rel = (oracles.column(rows, i) for i in range(7))
    out.expect(set(trial.astype(int)) == set(range(cfg["trials"])), "localscan: trials missing from records")
    n = cfg["n"]
    ref_mass = n * (oracles.sc_cdf(hi) - oracles.sc_cdf(lo))
    out.expect(
        np.all(np.abs(mass - ref_mass) <= 1e-9 * ref_mass), "localscan: expected_mass off the semicircle"
    )
    out.expect(
        np.all(np.abs(rel - np.abs(count - mass) / mass) <= 1e-12 * np.maximum(rel, 1e-300)),
        "localscan: rel_dev differs from |N_I - mass| / mass",
    )
    scales = list(dict.fromkeys(scale.tolist()))
    worst = [float(np.max(rel[scale == s])) for s in scales]
    out.expect(worst == summary["max_rel_dev"], "localscan: per-scale maxima differ from summary.max_rel_dev")
    unit = math.log(n) / n
    out.expect(
        np.allclose(scales, [m * unit for m in summary["scale_multiples"]], rtol=1e-12, atol=0),
        "localscan: window scales are not the configured multiples of log n / n",
    )
    # recount one trial's windows from an independent eigensolve; an
    # eigenvalue within 1e-9 of a window end may fall either way
    t = pass_index % cfg["trials"]
    eigs = linalg.eigvalsh(oracles.rademacher_wigner(n, oracles.derive_seed(cfg["base_seed"], t)))
    mine = trial == t
    tol = 1e-9
    fewest = np.searchsorted(eigs, hi[mine] - tol) - np.searchsorted(eigs, lo[mine] + tol)
    most = np.searchsorted(eigs, hi[mine] + tol) - np.searchsorted(eigs, lo[mine] - tol)
    out.expect(
        np.all((fewest <= count[mine]) & (count[mine] <= most)),
        f"localscan: N_I of trial {t} disagrees with an independent eigvalsh",
    )


def check_covariance(part: dict, cfg: dict, pass_index: int, out: Outcome) -> None:
    summary, header, rows = _outputs(part, out)
    trials, n, p = cfg["trials"], cfg["n"], cfg["p"]
    out.attempted += trials
    out.expect(
        header
        == ["trial", "side", "dim", "index", "lambda", "region", "inf_norm", "scaled_bulk", "scaled_edge"],
        f"covariance header {header}",
    )
    out.expect(len(rows) == trials * 2 * p, f"covariance: {len(rows)} records, expected {trials * 2 * p}")
    trial = np.array([int(r[0]) for r in rows])
    side = np.array([r[1] for r in rows])
    dim = np.array([int(r[2]) for r in rows])
    lam = oracles.column(rows, 4)
    inf_norm = oracles.column(rows, 6)
    out.expect(np.all(inf_norm >= 1.0 / np.sqrt(dim) - 1e-12), "covariance: inf_norm below 1/sqrt(dim)")
    out.expect(np.all(inf_norm <= 1.0 + 1e-12), "covariance: inf_norm above 1")
    y = p / n
    a, b = oracles.mp_edges(y)
    unit = math.log(n) / n
    bulk = (a + 2 * cfg["eps"], b - 2 * cfg["eps"])
    scale = cfg["scales"][-2] * unit
    eta = cfg["eta_multiple"] * unit

    def mass(w_lo, w_hi):
        return oracles.mp_cdf(w_hi, y) - oracles.mp_cdf(w_lo, y)

    devs = []
    residuals = []
    for t in range(trials):
        for s in ("left", "right"):
            total = lam[(trial == t) & (side == s)].sum()
            # ||M||_F^2 = p n exactly for +-1 entries, so sigma^2 / n sums to p
            out.expect(
                abs(total - p) <= 1e-9 * p, f"covariance: trial {t} {s} eigenvalues sum to {total}, not {p}"
            )
        eigs = lam[(trial == t) & (side == "left")]
        devs.append(oracles.max_window_rel_dev(eigs, *bulk, scale, mass))
        for x in np.linspace(*bulk, 25):
            z = x + 1j * eta
            s_n = np.mean(1.0 / (eigs - z))
            residuals.append(abs(s_n + 1.0 / (y + z - 1.0 + y * z * s_n)))
    out.expect(
        oracles.close(summary["max_mp_rel_dev"], max(devs), 1e-8),
        f"covariance: max_mp_rel_dev {summary['max_mp_rel_dev']} against independent {max(devs)}",
    )
    out.expect(
        oracles.close(summary["max_self_consistency_residual"], max(residuals), 1e-8),
        "covariance: max_self_consistency_residual differs from an independent evaluation",
    )


def check_identities(part: dict, cfg: dict, pass_index: int, out: Outcome) -> None:
    summary, header, rows = _outputs(part, out)
    out.expect(header == ["instance", "check", "n", "p", "rel_err"], f"identities header {header}")
    rel_err = oracles.column(rows, 4)
    out.expect(np.all(np.isfinite(rel_err) & (rel_err >= 0)), "identities: rel_err not finite and nonnegative")
    failing = rel_err > IDENTITY_GATE
    out.attempted += len(rows)
    out.failed += int(failing.sum())
    families = {rows[i][1] for i in np.flatnonzero(failing)}
    unguarded = sorted(families - GUARDED_CHECKS)
    out.expect(not unguarded, f"identities: unguarded checks failed: {unguarded}")
    out.expect(summary["checks"] == len(rows), "identities: summary.checks differs from the record count")
    out.expect(
        summary["failures"] == int(failing.sum()), "identities: summary.failures differs from the records"
    )
    instances = {int(r[0]) for r in rows}
    out.expect(instances == set(range(cfg["trials"])), "identities: instances missing from records")


def check_tail(part: dict, cfg: dict, pass_index: int, out: Outcome) -> None:
    summary, header, rows = _outputs(part, out)
    draws = cfg["trials"]
    out.attempted += draws
    out.expect(header[:4] == ["t", "survival", "stderr", "trials"], f"tail header {header}")
    t, surv, err, count = (oracles.column(rows, i) for i in range(4))
    out.expect(np.all(count == draws), "tail: trials column differs from the configured draws")
    out.expect(np.all((surv >= 0) & (surv <= 1)), "tail: survival outside [0, 1]")
    out.expect(np.all(np.diff(surv) <= 0), "tail: survival increases")
    out.expect(t[0] == 0 and surv[0] == 1, "tail: survival at t = 0 is not 1")
    out.expect(
        np.allclose(err, np.sqrt(surv * (1 - surv) / draws), rtol=1e-12, atol=0),
        "tail: stderr is not sqrt(s (1 - s) / T)",
    )
    a = oracles.gaussian_symmetric(cfg["n"], oracles.derive_seed(cfg["base_seed"], 1 << 48))
    frob = float(np.sqrt(np.sum(a * a)))
    # the default t-grid ends at 8 ||A||_F: this is the matrix the program drew
    out.expect(
        oracles.close(t[-1], 8.0 * max(1.0, frob), 1e-9), "tail: rebuilt matrix differs from the program's"
    )
    # Var(x*Ax - tr A) = 2 sum_{i != j} a_ij^2 for +-1 entries; Chebyshev
    variance = 2.0 * (frob**2 - float(np.sum(np.diag(a) ** 2)))
    pos = t > 0
    out.expect(
        np.all(surv[pos] <= variance / t[pos] ** 2 + 3.0 * err[pos]),
        "tail: survival above the Chebyshev bound plus three standard errors",
    )


CHECKS = {
    "localscan": check_localscan,
    "covariance": check_covariance,
    "identities": check_identities,
    "tail": check_tail,
}


def check_pass(parts: list[dict], experiments: list[dict], pass_index: int) -> Outcome:
    out = Outcome()
    for part, cfg in zip(parts, experiments):
        CHECKS[cfg["experiment"]](part, cfg, pass_index, out)
    return out
