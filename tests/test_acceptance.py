"""End-to-end acceptance gate.

Each check prints one scoreboard line of the form
``[acceptance N] <label>: <measured values> -> PASS|FAIL`` and asserts the
same bound it reports, so a run with ``-s`` reads as a seven-line report
card for the whole pipeline.
"""

import math
import time

import numpy as np
import pytest

from tractfield import (
    PhantomSpec,
    PolyField,
    Tract,
    completion_rate,
    distance_transform,
    domain_from_mask,
    extract_centerline,
    fit_bundle_field,
    generate,
    hausdorff,
    load_descriptor,
    load_mask,
    load_tract,
    rk4_step,
    sample_direction,
    save_phantom_spec,
    spatial_overlap,
    synthetic_prior,
    voxelize,
)
from tractfield.cli import main

from conftest import (
    brute_force_distance,
    brute_force_hausdorff,
    make_mask,
    random_divfree_field,
    random_mask,
)

HELIX_FLAGS = ["--seed-count", "2", "--rng-seed", "42"]


def report(num, label, ok, detail):
    line = f"[acceptance {num}] {label}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def recovered_fields():
    """Twenty random divergence-free targets refit from a full-cube prior."""
    rng = np.random.default_rng(2020)
    mask = make_mask(np.ones((20, 20, 20), dtype=np.uint8))
    offset, scale = domain_from_mask(mask)
    runs = []
    for _ in range(20):
        order = int(rng.integers(1, 5))
        target = random_divfree_field(order, rng, offset, scale)
        prior = synthetic_prior(mask, target.evaluate_many)
        t0 = time.perf_counter()
        fitted = fit_bundle_field(prior, mask, order=4, ridge=0.0)
        seconds = time.perf_counter() - t0
        points, _ = prior.samples()
        runs.append((target, fitted, points, seconds))
    return offset, scale, runs


@pytest.fixture(scope="module")
def helix_run(tmp_path_factory):
    """Noisy helix with distractor peaks, run through the full pipeline."""
    base = tmp_path_factory.mktemp("helix")
    spec = PhantomSpec(
        kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0, turns=1.0,
        noise_deg=10.0, distractor_amp=0.8,
    )
    spec_path = base / "helix.spec"
    save_phantom_spec(spec, spec_path)
    out = base / "run"
    t0 = time.perf_counter()
    code = main(["pipeline", "--spec", str(spec_path), "--out", str(out)]
                + HELIX_FLAGS)
    seconds = time.perf_counter() - t0
    assert code == 0
    return {"spec": str(spec_path), "out": out, "seconds": seconds}


def test_1_constrained_fit_recovers_random_fields(recovered_fields):
    _, _, runs = recovered_fields
    max_err = 0.0
    worst_time = 0.0
    for target, fitted, points, seconds in runs:
        err = float(
            np.abs(fitted.evaluate_many(points) - target.evaluate_many(points)).max()
        )
        max_err = max(max_err, err)
        worst_time = max(worst_time, seconds)
    ok = max_err <= 1e-8 and worst_time <= 5.0
    report(
        1,
        "constrained-fit exactness",
        ok,
        f"20 random fields on a 20^3 mask, max_err={max_err:.2e} (<=1e-8), "
        f"worst_fit={worst_time:.2f}s (<=5s)",
    )


def test_2_fitted_fields_are_divergence_free(recovered_fields):
    offset, scale, runs = recovered_fields
    rng = np.random.default_rng(22)
    worst = 0.0
    for _, fitted, _, _ in runs:
        points = rng.uniform(offset - scale, offset + scale, size=(1000, 3))
        worst = max(worst, float(np.abs(fitted.divergence_many(points)).max()))
    ok = worst <= 1e-6
    report(
        2,
        "divergence residual",
        ok,
        f"20 fits x 1000 random in-domain points, max |div|={worst:.2e} (<=1e-6)",
    )


def test_3_rk4_endpoint_convergence_is_fourth_order():
    coeffs = np.zeros((3, 4))
    coeffs[0, 2] = -1.0
    coeffs[1, 3] = 1.0
    field = PolyField(1, coeffs)
    radius = 12.0
    arc = 16.0
    angle = arc / radius
    exact = radius * np.array([math.cos(angle), math.sin(angle), 0.0])
    errors = []
    for lam in (0.4, 0.2, 0.1, 0.05):
        p = np.array([radius, 0.0, 0.0])
        d = sample_direction([field.evaluate(p)], None, 0.0, None)[0][0]
        for _ in range(round(arc / lam)):
            p = rk4_step(field, p, d, lam)
            d = sample_direction([field.evaluate(p)], [d], 0.0, None)[0][0]
        errors.append(float(np.linalg.norm(p - exact)))
    slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok = min(slopes) >= 3.8
    report(
        3,
        "RK4 convergence order",
        ok,
        "slopes between step lengths {0.4,0.2,0.1,0.05}: "
        + ", ".join(f"{s:.2f}" for s in slopes)
        + " (each >=3.8)",
    )


def test_4_distance_and_hausdorff_match_oracles():
    rng = np.random.default_rng(4)
    masks_exact = 0
    for _ in range(10):
        dims = rng.integers(8, 21, size=3)
        mask = random_mask(rng, dims)
        if np.array_equal(distance_transform(mask).data,
                          brute_force_distance(mask)):
            masks_exact += 1
    pairs_exact = 0
    for _ in range(10):
        a = Tract([rng.uniform(0.0, 10.0, (200, 3))], step=20.0)
        b = Tract([rng.uniform(0.0, 10.0, (200, 3))], step=20.0)
        oracle = brute_force_hausdorff(a.streamlines[0], b.streamlines[0])
        if hausdorff(a, b) == oracle:
            pairs_exact += 1
    ok = masks_exact == 10 and pairs_exact == 10
    report(
        4,
        "oracle equivalence",
        ok,
        f"distance transform exact on {masks_exact}/10 masks, "
        f"hausdorff exact on {pairs_exact}/10 tract pairs",
    )


def test_5_centerline_tracks_analytic_axis():
    specs = {
        "straight": PhantomSpec(kind="straight-tube", radius=3.0, length=20.0),
        "torus": PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0),
    }
    details = []
    ok = True
    for name, spec in specs.items():
        phantom = generate(spec)
        cl = extract_centerline(phantom.mask, phantom.p1, phantom.p2)
        pts = cl.points
        if name == "straight":
            dev = float(np.hypot(pts[:, 1], pts[:, 2]).max())
        else:
            ring = np.hypot(pts[:, 0], pts[:, 1]) - spec.major_radius
            dev = float(np.hypot(ring, pts[:, 2]).max())
        length = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
        analytic = phantom.field.axis_length
        len_err = abs(length - analytic) / analytic
        ok = ok and dev <= 1.0 and len_err <= 0.05
        details.append(f"{name}: dev={dev:.2f}vox (<=1), len_err={100 * len_err:.1f}% (<=5%)")
    report(5, "centerline accuracy", ok, "; ".join(details))


def test_6_helix_benchmark_beats_baseline(helix_run):
    out = helix_run["out"]
    mask = load_mask(out / "mask.rvf")
    tract = load_tract(out / "streamlines.tract")
    baseline = load_tract(out / "baseline.tract")
    desc = load_descriptor(out / "descriptor.txt")
    dice = spatial_overlap(voxelize(tract, mask), mask)
    done = completion_rate(tract, desc)
    done_base = completion_rate(baseline, desc)
    seconds = helix_run["seconds"]
    ok = dice >= 90.0 and done > done_base and seconds <= 60.0
    report(
        6,
        "helix benchmark",
        ok,
        f"dice={dice:.2f}% (>=90), completion field={done:.3f} > "
        f"baseline={done_base:.3f}, pipeline={seconds:.1f}s (<=60s)",
    )


def test_7_pipeline_is_bytewise_reproducible(helix_run, tmp_path):
    out2 = tmp_path / "again"
    code = main(["pipeline", "--spec", helix_run["spec"], "--out", str(out2)]
                + HELIX_FLAGS)
    assert code == 0
    identical = []
    for name in ("streamlines.tract", "baseline.tract"):
        a = (helix_run["out"] / name).read_bytes()
        b = (out2 / name).read_bytes()
        identical.append(a == b)
    ok = all(identical)
    report(
        7,
        "determinism",
        ok,
        "streamlines.tract and baseline.tract byte-identical across reruns "
        "with the same rng seed",
    )
