"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them)."""
import math
import pathlib

import numpy as np
import pytest

import layerscatter as ls
from layerscatter import (
    Barrier,
    LayeredStructure,
    PeriodicLattice,
    all_barrier_amplitudes,
    band_scan,
    bloch_phase,
    closed_form_prefix,
    compare_with_pipeline,
    compute_wavenumbers,
    embed_in_media,
    evaluate_psi,
    interface_amplitudes,
    prefix_by_matrix,
    prefix_by_recurrence,
    reflection_probability,
    solve_structure,
    transmission_probability,
)
from layerscatter.scenarios import SCENARIO_ENERGIES, build_scenario
from layerscatter.wavefunction import psi_one_sided

from conftest import criterion_1_cases, recurrence_prefixes

LAT = PeriodicLattice(3.0, 1.0, 2.0)
KN_NUDGE = 1e-9  # documented workaround for energies exactly at a barrier height


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def lattice_structure(count):
    return PeriodicLattice(3.0, 1.0, 2.0, count=count).to_structure()


def embedded_for(s, e):
    w = compute_wavenumbers(s, e)
    emb = embed_in_media(
        prefix_by_recurrence(all_barrier_amplitudes(w, s)), interface_amplitudes(w, s)
    )
    return w, emb


def test_criterion_1_oracle_equivalence():
    worst_ok, worst_relaxed = 0.0, 0.0
    relaxed = 0
    for s, e in criterion_1_cases():
        disc, cond, _ = compare_with_pipeline(s, e)
        if cond > 1e8:
            relaxed += 1
            worst_relaxed = max(worst_relaxed, disc)
        else:
            worst_ok = max(worst_ok, disc)
    ok = worst_ok < 1e-9 and worst_relaxed < 1e-6
    assert report(
        "criterion 1: oracle equivalence over 200 random structures",
        ok,
        f"worst {worst_ok:.2e} (well-conditioned), {worst_relaxed:.2e} "
        f"({relaxed} ill-conditioned cases)",
    )


def test_criterion_2_flux_conservation():
    s = lattice_structure(8)
    energies = np.linspace(0.05, 8.0, 10000)
    worst = 0.0
    for e in energies:
        e = float(e)
        if abs(e - 3.0) < 1e-9:
            e += KN_NUDGE
        w, emb = embedded_for(s, e)
        flux = (w.k_right.real / w.k_left.real) * abs(emb.t_full) ** 2 \
            + abs(emb.r_full) ** 2
        worst = max(worst, abs(flux - 1.0))
    # full reflection: V2 > eps > V1
    s2 = LayeredStructure(0.0, 10.0, s.span, s.barriers)
    worst_r = 0.0
    for e in np.linspace(0.05, 8.0, 500):
        e = float(e)
        if abs(e - 3.0) < 1e-9:
            e += KN_NUDGE
        _, emb = embedded_for(s2, e)
        worst_r = max(worst_r, abs(abs(emb.r_full) - 1.0))
    ok = worst < 1e-12 and worst_r < 1e-12
    assert report(
        "criterion 2: flux conservation over 10,000-point sweep",
        ok,
        f"worst flux defect {worst:.2e}, worst |R|-1 {worst_r:.2e}",
    )


def test_criterion_3_triple_agreement():
    rng = np.random.default_rng(7)
    energies = []
    while len(energies) < 50:
        e = float(rng.uniform(0.2, 8.0))
        if abs(e - 3.0) < 1e-3:
            continue
        if abs(abs(bloch_phase(LAT, e, edge_tol=0.0).cos_beta) - 1.0) < 0.02:
            continue
        energies.append(e)
    s = lattice_structure(100)
    worst = 0.0
    for e in energies:
        w = compute_wavenumbers(s, e)
        amps = all_barrier_amplitudes(w, s)
        pa = recurrence_prefixes(amps)
        pb = prefix_by_matrix(amps)
        for n in range(1, 101):
            inv_t, r_over_t = closed_form_prefix(LAT, e, n)
            t_c = 1.0 / inv_t
            r_c = r_over_t * t_c
            for t, r in ((pa[0][n], pa[1][n]), (pb[0][n], pb[1][n])):
                worst = max(worst, abs(t - t_c) / abs(t_c))
                worst = max(worst, abs(r - r_c) / max(abs(r_c), 1.0))
    ok = worst < 1e-10
    assert report(
        "criterion 3: recurrence/matrix/closed-form agreement, n <= 100",
        ok,
        f"worst relative difference {worst:.2e}",
    )


def test_criterion_4_forbidden_band_suppression():
    results = {}
    for eps, threshold_n in ((4.6, 6), (3.0 + KN_NUDGE, 4)):
        probs = []
        for count in (2, 4, 6, 8):
            w, emb = embedded_for(lattice_structure(count), eps)
            probs.append(transmission_probability(emb, w))
        decreasing = all(a > b for a, b in zip(probs, probs[1:]))
        sol = solve_structure(lattice_structure(threshold_n), eps)
        span = sol.structure.span
        tail = max(
            abs(evaluate_psi(sol, float(x))) ** 2
            for x in np.linspace(span, span + 20.0, 500)
        )
        results[eps] = (decreasing, tail)
    ok = all(dec and tail < 0.01 for dec, tail in results.values())
    detail = ", ".join(
        f"eps={e:.1f}: monotone={dec}, transmitted density {tail:.4f}"
        for e, (dec, tail) in results.items()
    )
    assert report("criterion 4: forbidden-band suppression thresholds", ok, detail)


def test_criterion_5_band_edge_bracketing():
    t1 = band_scan(LAT, 0.01, 8.0, 0.01)
    t2 = band_scan(LAT, 0.01, 8.0, 0.005)

    def label_at(table, e):
        for lo, hi, label in table.intervals:
            if lo <= e <= hi:
                return label
        return None

    layout = (
        label_at(t1, 3.0) == "forbidden"
        and label_at(t1, 4.6) == "forbidden"
        and label_at(t1, 2.0) == "allowed"
        and label_at(t1, 4.9) == "allowed"
    )
    stable = len(t1.edges) == len(t2.edges) and all(
        abs(a - b) < 1e-9 for a, b in zip(t1.edges, t2.edges)
    )
    ok = layout and stable
    assert report(
        "criterion 5: band-edge bracketing and stability",
        ok,
        f"edges {[round(e, 6) for e in t1.edges]}",
    )


def test_criterion_6_forbidden_decay_rate():
    gamma = bloch_phase(LAT, 4.6).beta.imag
    ns = np.arange(20, 61)
    ln_t = []
    for count in ns:
        w, emb = embedded_for(lattice_structure(int(count)), 4.6)
        ln_t.append(math.log(transmission_probability(emb, w)))
    slope = float(np.polyfit(ns, ln_t, 1)[0])
    rel = abs(slope + 2.0 * gamma) / (2.0 * gamma)
    ok = rel < 0.01
    assert report(
        "criterion 6: forbidden-band decay rate vs Bloch phase",
        ok,
        f"fitted {slope:.6f}, expected {-2 * gamma:.6f}, rel err {rel:.2e}",
    )


def _modulation_lag(eps):
    sol = solve_structure(lattice_structure(100), eps)
    maxima = []
    for n in range(100):
        xs = np.linspace(2.0 * n, 2.0 * (n + 1), 60, endpoint=False)
        maxima.append(max(abs(evaluate_psi(sol, float(x))) ** 2 for x in xs))
    m = np.array(maxima) - np.mean(maxima)
    ac = np.correlate(m, m, "full")[len(m) - 1:]
    for lag in range(1, len(ac) - 1):
        if ac[lag] > ac[lag - 1] and ac[lag] >= ac[lag + 1]:
            return lag
    return None


def test_criterion_7_allowed_band_modulation():
    hi = _modulation_lag(4.9)
    lo = _modulation_lag(2.0)
    ok = hi is not None and lo is not None and hi > lo
    assert report(
        "criterion 7: modulation period grows with energy",
        ok,
        f"autocorrelation peak lag {hi} periods at eps=4.9 vs {lo} at eps=2.0",
    )


def test_criterion_8_graded_chain_scenarios():
    continuity_ok = True
    flux_ok = True
    for name, eps in SCENARIO_ENERGIES.items():
        s = build_scenario(name)
        sol = solve_structure(s, eps)
        worst = 0.0
        for i in range(2 * s.n_barriers + 2):
            (pl, dl), (pr, dr) = psi_one_sided(sol, i)
            worst = max(
                worst,
                abs(pl - pr) / max(1.0, abs(pl)),
                abs(dl - dr) / max(1.0, abs(dl)),
            )
        continuity_ok &= worst < 1e-9
        w = sol.wavenumbers
        flux = (w.k_right.real / w.k_left.real) * abs(sol.embedded.t_full) ** 2 \
            + abs(sol.embedded.r_full) ** 2
        flux_ok &= abs(flux - 1.0) < 1e-12

    # localization window: below the tallest barrier the chains are opaque
    # apart from isolated resonances
    fractions = {}
    for name in ("graded-linear", "graded-quadratic", "graded-product"):
        s = build_scenario(name)
        lo = s.v_left + 0.01
        hi = max(b.height for b in s.barriers)
        exceed = 0
        es = np.linspace(lo, hi, 1001)
        for e in es:
            e = float(e)
            if any(abs(e - b.height) < 1e-9 for b in s.barriers):
                e += KN_NUDGE
            w, emb = embedded_for(s, e)
            if transmission_probability(emb, w) > 0.05:
                exceed += 1
        fractions[name] = exceed / len(es)
    measure_ok = all(f < 0.10 for f in fractions.values())
    ok = continuity_ok and flux_ok and measure_ok
    assert report(
        "criterion 8: graded-chain scenarios",
        ok,
        f"continuity={continuity_ok}, flux={flux_ok}, "
        f"opaque-window exceedance {fractions}",
    )


def test_criterion_9_phase_convention_documented():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    documented = "reflection phase" in text.lower() or "phase convention" in text.lower()
    # the shipped convention must survive the dense-solve cross-check
    disc, _, _ = compare_with_pipeline(
        LayeredStructure(
            1.0, -0.5, 6.0, (Barrier(4.0, 1.0, 1.0), Barrier(-2.0, 1.5, 3.5)),
        ),
        3.7,
    )
    ok = documented and disc < 1e-9
    assert report(
        "criterion 9: phase convention arbitrated and documented",
        ok,
        f"README documented={documented}, reference discrepancy {disc:.2e}",
    )
