"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a single ``ACCEPTANCE <i> <label>: PASS|FAIL`` line before
asserting, so a scan of the captured output gives the full scorecard.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
from conftest import (
    box_parameters,
    cube_parameters,
    family_to_dict,
    line_min_norm,
    null_basis,
    random_unit,
    triangular_unit_rows,
)

from transversal import familyio
from transversal.polytope import Box, box_projection_volume, mc_shadow_volume
from transversal.prevalence import (
    McConfig,
    det_slab_coefficient,
    mc_bad_set_measure,
    mc_inverse_bound,
    translation_experiment,
)
from transversal.separator import (
    BOX_CONSTANT,
    LINE_CONSTANT,
    SubspaceFamily,
    common_complement,
    is_well_separating,
    random_subspace_family,
    sample_box_separator,
)


def report(index, label, ok):
    print(f"ACCEPTANCE {index} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_cli(*args):
    cmd = [sys.executable, "-m", "transversal", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, TRANSVERSAL_LOG="quiet"))


def test_acceptance_1_shadow_volumes():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    ok = True
    for i in range(100):
        n = int(rng.integers(2, 5))
        box = Box(rng.uniform(0.3, 2.0, size=n))
        v = random_unit(rng, n)
        exact = box_projection_volume(box, v)
        mc = mc_shadow_volume(box, v, samples=1_000_000, seed=1000 + i)
        ok &= abs(mc.estimate - exact) <= 0.01 * exact
    ok &= time.monotonic() - t0 <= 60.0
    report(1, "projection volumes vs mc", ok)


def test_acceptance_2_cube_separator():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    ok = True
    attempted = accepted = 0
    for i in range(1000):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 51))
        normals = np.vstack([random_unit(rng, n) for _ in range(k)])
        x, deltas, stats = sample_box_separator(normals, *cube_parameters(k, n),
                                                key=(2000 + i,))
        ok &= abs(np.linalg.norm(x) - 1.0) <= 1e-12
        ok &= np.all(deltas >= 0.5 / (k * n) - 1e-15)
        ok &= np.all(np.abs(normals @ x) >= deltas)
        attempted += stats.attempted
        accepted += stats.accepted
    rate = accepted / attempted
    se = np.sqrt(0.25 / attempted)
    ok &= rate >= 0.5 - 3 * se
    ok &= time.monotonic() - t0 <= 60.0
    report(2, "cube separator guarantees", ok)


def test_acceptance_3_box_separator():
    rng = np.random.default_rng(801)
    ok = True
    attempted = accepted = 0
    for i in range(1000):
        m = int(rng.integers(1, 16))
        V = triangular_unit_rows(rng, m)
        x, deltas, stats = sample_box_separator(V, *box_parameters(m), key=(3000 + i,))
        j = np.arange(1, m + 1, dtype=float)
        floor = BOX_CONSTANT * j**-5.0
        ok &= abs(np.linalg.norm(x) - 1.0) <= 1e-12
        ok &= np.all(deltas >= floor - 1e-15)
        ok &= np.all(np.abs(V @ x) >= floor)
        attempted += stats.attempted
        accepted += stats.accepted
    rate = accepted / attempted
    se = np.sqrt(0.25 / attempted)
    ok &= rate >= 0.5 - 3 * se
    report(3, "box separator profile", ok)


def test_acceptance_4_recursive_complements():
    rng = np.random.default_rng(707)
    ok = True
    for i in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 41))
        J = int(rng.integers(1, min(20, n - k) + 1))
        fam = random_subspace_family(4000 + i, n, k, J)
        res = common_complement(fam, 5000 + i)
        j = np.arange(1, J + 1, dtype=float)
        expected = LINE_CONSTANT ** (k - 1) * (BOX_CONSTANT * j**-5.0) ** k
        ok &= np.allclose(res.certified, expected, rtol=1e-12, atol=0.0)
        ok &= np.all(res.measured >= res.certified - 1e-9)
        B = res.complement.vectors
        for N in fam.normals:
            stack = np.vstack([B, null_basis(N)])
            ok &= np.linalg.matrix_rank(stack, tol=1e-9) == n
        if J >= 3:
            ok &= is_well_separating(res.measured, 5 * k + 1)[0]
    report(4, "recursive complement certificates", ok)


def test_acceptance_5_two_line_minimum():
    ok = True
    for mu1, mu2 in [(0.3, 0.7), (0.9, 0.2), (1.0, 1.0), (0.05, 0.95),
                     (0.5, 0.5), (0.01, 0.01)]:
        x1 = np.array([mu1, 0.0])
        x2 = np.array([-np.sqrt(1.0 - mu2**2), mu2])
        exact = mu1 * mu2 / np.sqrt(mu2**2 + (np.sqrt(1.0 - mu2**2) + mu1) ** 2)
        ok &= abs(line_min_norm(x1, x2) - exact) <= 1e-12
    rng = np.random.default_rng(550)
    checked = 0
    while checked < 10_000:
        dim = int(rng.integers(2, 6))
        x1 = rng.uniform(0.05, 1.0) * random_unit(rng, dim)
        x2 = rng.uniform(0.05, 1.0) * random_unit(rng, dim)
        mu1 = np.linalg.norm(x1)
        mu2 = np.linalg.norm(x2 - np.dot(x2, x1) / np.dot(x1, x1) * x1)
        if mu2 < 1e-12:
            continue
        ok &= line_min_norm(x1, x2) >= mu1 * mu2 / np.sqrt(5.0) - 1e-12
        checked += 1
    report(5, "pair-of-lines minimum bounds", ok)


def test_acceptance_6_badset_linearity():
    t0 = time.monotonic()
    ok = True
    eps_grid = (1e-1, 1e-2, 1e-3)
    for n in range(2, 7):
        fam = random_subspace_family(900 + n, n, 1, 50)
        estimates, errs = [], []
        for t, eps in enumerate(eps_grid):
            cfg = McConfig(samples=20_000, seed=2700 + 10 * n + t,
                           epsilon_grid=(1e-1, 1e-2, 1e-3))
            rep = mc_bad_set_measure(fam, cfg)[t]
            ok &= rep.estimate <= rep.analytic_bound + 3 * rep.stderr
            ok &= bool(rep.verdict)
            estimates.append(rep.estimate)
            errs.append(rep.stderr)
        coeffs, cov = np.polyfit(np.array(eps_grid), np.array(estimates), 1,
                                 w=1.0 / np.array(errs), cov="unscaled")
        ok &= abs(coeffs[1]) <= 3.0 * np.sqrt(cov[1, 1])
    ok &= time.monotonic() - t0 <= 120.0
    report(6, "bad-set measure linear in epsilon", ok)


def test_acceptance_7_det_slab_coefficient():
    c_hat, _, _ = det_slab_coefficient(np.zeros((1, 1)),
                                       np.geomspace(1e-3, 1e-1, 5),
                                       samples=100_000, seed=7001)
    ok = abs(c_hat - 2.0) <= 0.05
    _, r_squared, _ = det_slab_coefficient(np.zeros((2, 2)),
                                           np.geomspace(1e-4, 1e-2, 6),
                                           samples=1_000_000, seed=7002)
    ok &= r_squared >= 0.99
    report(7, "determinant slab coefficient", ok)


def test_acceptance_8_inverse_bound():
    rng = np.random.default_rng(881)
    ok = True
    for _ in range(500):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d))
        s = float(np.linalg.svd(M, compute_uv=False)[-1])
        if s <= 1e-8:
            continue
        ok &= abs(s * np.linalg.norm(np.linalg.inv(M), 2) - 1.0) <= 1e-9
    J, k = 30, 2
    delta = 1.0 / np.arange(1, J + 1, dtype=float)
    A_list = []
    for j in range(J):
        G = rng.standard_normal((k, k))
        A_list.append(G / np.linalg.norm(G, 2) * 0.9 / delta[j])
    rep, eps_hat = mc_inverse_bound(A_list, delta,
                                    McConfig(samples=10_000, seed=8001,
                                             epsilon_grid=(1e-1, 1e-2, 1e-3)))
    ok &= rep.estimate >= 0.99
    ok &= float(np.mean(eps_hat > 0)) == rep.estimate
    report(8, "perturbed inverse lower bound", ok)


def test_acceptance_9_translation_stability():
    normals = []
    for j in range(1, 4):
        v = np.array([0.05 * j, 1.0])
        normals.append((v / np.linalg.norm(v))[None, :])
    fam = SubspaceFamily.from_normals(normals)
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=42, epsilon_grid=(0.1,))
    rep, certs = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg,
                                        radius=1.0, max_exponent=7.0)
    ok = rep.estimate >= 0.99
    ok &= bool(rep.verdict)
    ok &= rep.metadata["exponent_max"] <= 7.0 + 0.5
    ok &= all(c is not None for c in certs)
    report(9, "translated complement stability", ok)


def test_acceptance_10_roundtrip_determinism(tmp_path):
    ok = True
    fam = random_subspace_family(91, 12, 2, 8)
    res = common_complement(fam, 17)
    fpath = tmp_path / "fam.json"
    with open(fpath, "w") as fh:
        fh.write(familyio.dump_json(family_to_dict(fam)))
    fam2, _ = familyio.load_family(fpath)
    for a, b in zip(fam.normals, fam2.normals):
        ok &= float(np.max(np.abs(a - b))) <= 1e-12
    cpath = tmp_path / "comp.json"
    familyio.save_complement(cpath, res)
    span, certified = familyio.load_complement(cpath)
    measured = json.loads(cpath.read_text())["measured"]["deltas"]
    ok &= float(np.max(np.abs(span.vectors - res.complement.vectors))) <= 1e-12
    ok &= float(np.max(np.abs(measured - res.measured))) <= 1e-12
    ok &= float(np.max(np.abs(certified - res.certified))) <= 1e-12

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        cp = run_cli("construct", "--family", fpath, "--seed", 13, "--out", out)
        ok &= cp.returncode == 0
    ok &= out_a.read_bytes() == out_b.read_bytes()
    cert_a = run_cli("certify", "--family", fpath, "--complement", out_a)
    cert_b = run_cli("certify", "--family", fpath, "--complement", out_a)
    ok &= cert_a.returncode == 0 and cert_a.stdout == cert_b.stdout
    rows = [ln.split(",") for ln in cert_a.stdout.strip().splitlines()[1:-1]]
    csv_measured = np.array([float(r[1]) for r in rows])
    saved = json.loads(out_a.read_text())["measured"]["deltas"]
    ok &= float(np.max(np.abs(csv_measured - saved))) <= 1e-12
    report(10, "round trips and determinism", ok)
