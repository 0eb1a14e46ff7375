"""Independent references and pass/fail predicates for the benchmark.

Nothing here calls into ``unravelings``: references are built from numpy
alone, files are parsed with the standard library, and every predicate
returns a list of human-readable failures (empty when the check holds).
"""

import json
import re
from pathlib import Path

import numpy as np

# --- references ----------------------------------------------------------------


def spin_closed_form_rho(psi0, nu, lam, times):
    """rho(t) of H = hbar nu sigma_z, L = sigma_z: populations fixed and
    rho_ud(t) = rho_ud(0) exp(-2 (lam + i nu) t)."""
    psi0 = np.asarray(psi0, dtype=complex)
    rho0 = np.outer(psi0, psi0.conj())
    t = np.asarray(times, dtype=float)
    out = np.empty((t.size, 2, 2), dtype=complex)
    out[:, 0, 0] = rho0[0, 0]
    out[:, 1, 1] = rho0[1, 1]
    out[:, 0, 1] = rho0[0, 1] * np.exp(-2.0 * (lam + 1j * nu) * t)
    out[:, 1, 0] = out[:, 0, 1].conj()
    return out


def liouvillian(H, L, lam, hbar=1.0):
    """Generator of the master equation on column-stacked vec(rho).

    Uses vec(A X B) = (B^T kron A) vec(X) with Fortran (column) order, so it
    shares no code path or vectorisation convention with the library.
    """
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    LL = L @ L
    M = (-1j / hbar) * (np.kron(eye, H) - np.kron(H.T, eye))
    M -= 0.5 * lam * (np.kron(eye, LL) + np.kron(LL.T, eye) - 2.0 * np.kron(L.T, L))
    return M


def dense_reference_rho(H, L, lam, psi0, times, hbar=1.0):
    """Exact rho(t) from an eigendecomposition of the Liouvillian."""
    psi0 = np.asarray(psi0, dtype=complex)
    d = psi0.size
    w, V = np.linalg.eig(liouvillian(np.asarray(H, complex), np.asarray(L, complex),
                                     lam, hbar))
    c = np.linalg.solve(V, np.outer(psi0, psi0.conj()).reshape(-1, order="F"))
    out = np.empty((len(times), d, d), dtype=complex)
    for i, t in enumerate(times):
        out[i] = (V @ (np.exp(w * t) * c)).reshape(d, d, order="F")
    return out


def euler_free_isometry(n_steps, dt, lam, hbar, mass):
    """E[x_n^2] of the Euler centroid chain of the free phase-noise member.

    The scheme gives x_n = -(hbar sqrt(lam)/m) dt sum_i (n-1-i) dW_i, hence
    lam hbar^2/m^2 dt^3 (n-1) n (2n-1)/6; it tends to lam hbar^2 t^3/(3 m^2).
    """
    n = np.asarray(n_steps, dtype=float)
    return lam * hbar ** 2 / mass ** 2 * dt ** 3 * (n - 1.0) * n * (2.0 * n - 1.0) / 6.0


# --- file readers (standard library only) -----------------------------------------


def read_csv_series(path):
    """Columns of a series file written as '# {json}', header, rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}: no metadata line")
    keys = lines[1].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return {k: rows[:, j] for j, k in enumerate(keys)}


def read_json_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))["report"]


_CREATED_AT = re.compile(rb'"created_at": "[^"]*"')


def strip_created_at(data: bytes) -> bytes:
    return _CREATED_AT.sub(b'"created_at": ""', data)


# --- predicates ----------------------------------------------------------------------


def max_abs_within(name, got, want, tol):
    """Elementwise max |got - want| <= tol."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not dev <= tol:
        return [f"{name}: max deviation {dev:.3e} > {tol:.3e}"]
    return []


def rel_within(name, got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    dev = float(np.max(np.abs(got / want - 1.0)))
    if not dev <= tol:
        return [f"{name}: max relative deviation {dev:.3e} > {tol:.3e}"]
    return []


def in_range(name, value, lo, hi):
    if not lo <= value <= hi:
        return [f"{name}: {value!r} outside [{lo}, {hi}]"]
    return []


def is_true(name, value):
    return [] if value is True else [f"{name}: {value!r} is not True"]


def normalized(name, states, tol=1e-12):
    dev = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return [] if dev <= tol else [f"{name}: norm defect {dev:.3e} > {tol:.0e}"]


def binomial_fraction(name, count, n, p, n_se):
    """count/n within n_se binomial standard errors of p."""
    se = np.sqrt(p * (1.0 - p) / n)
    dev = abs(count / n - p)
    if not dev <= n_se * se:
        return [f"{name}: |{count}/{n} - {p:.4f}| = {dev:.4f} > {n_se} SE = {n_se * se:.4f}"]
    return []


def spread_under_collapse_bound(name, z, times, lam, n_se=4.0):
    """Mean of 1 - <sz>^2 below s0/(1 + 4 lam s0 t) + n_se SE at every snapshot.

    ``z`` is the (n_snap, n_traj) array of conditional means; the first row
    is the initial state, shared by every trajectory.
    """
    s = 1.0 - np.asarray(z) ** 2
    mean = s.mean(axis=1)
    se = s.std(axis=1, ddof=1) / np.sqrt(s.shape[1])
    s0 = mean[0]
    bound = s0 / (1.0 + 4.0 * lam * s0 * np.asarray(times))
    excess = mean - bound - n_se * se
    if np.any(excess > 1e-15):
        i = int(np.argmax(excess))
        return [f"{name}: mean spread {mean[i]:.5f} at t = {times[i]} exceeds "
                f"bound {bound[i]:.5f} + {n_se} SE"]
    return []


def files_match_but_timestamp(name, path_a, path_b):
    """Byte equality of two output files once created_at is blanked."""
    a = strip_created_at(Path(path_a).read_bytes())
    b = strip_created_at(Path(path_b).read_bytes())
    if a != b:
        i = next(k for k in range(min(len(a), len(b)) + 1)
                 if k == min(len(a), len(b)) or a[k] != b[k])
        return [f"{name}: files differ at byte {i} (created_at excluded)"]
    return []


# --- acceptance-criterion observations --------------------------------------------

def criterion_observations(index, observed):
    """Read a criterion's observed values against the orders the method has."""
    o = observed
    if index == 4:
        return (in_range("c4 initial_rel_dev", o["initial_rel_dev"], 0.0, 1e-12)
                + in_range("c4 plateau_rel_dev", o["plateau_rel_dev"], 0.0, 1e-3)
                + in_range("c4 identity_rel_err", o["identity_rel_err"], 0.0, 1e-10)
                + is_true("c4 ordering_ok", o["ordering_ok"]))
    if index == 5:
        return (in_range("c5 width_max_rel_err", o["width_max_rel_err"], 0.0, 1e-4)
                + in_range("c5 mc_worst_se", o["mc_worst_se"], 0.0, 4.0))
    if index == 6:
        errs = []
        for key, flow in o.items():
            if not (flow["ratio"] >= 3.5 or flow["max_fine"] <= flow["rounding_floor"]):
                errs.append(f"c6 {key}: ratio {flow['ratio']:.3f} < 3.5 above the "
                            f"rounding floor")
        return errs if len(o) == 6 else errs + [f"c6: {len(o)} flows, expected 6"]
    if index == 7:
        worst = max(o["rate_rel"], o["asymptote_rel"], o["spread_rel"])
        return in_range("c7 worst relative deviation", worst, 0.0, 1e-5)
    if index == 8:
        errs = []
        for i, r in enumerate(o["order_ratios"]):
            errs += in_range(f"c8 Kraus/substepped RMS ratio {i}", r,
                             2.0 ** 1.5 - 0.5, 2.0 ** 1.5 + 0.5)
        errs += in_range("c8 channel defect ratio (O(dt^2))",
                         o["channel_defect_ratio"], 3.0, 5.0)
        errs += in_range("c8 povm_defect", o["povm_defect"], 0.0, 1e-6)
        return errs
    if index == 9:
        errs = []
        for i, r in enumerate(o["weak_ratios"]):
            errs += in_range(f"c9 weak ratio {i}", r, 1.6, 2.4)
        return errs
    raise ValueError(f"no observation check for criterion {index}")
