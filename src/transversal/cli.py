"""Command-line interface.

Subcommands
-----------
construct   build a certified common complement for a family file
certify     measure a complement against a family, emit a CSV profile
mc          run a Monte Carlo suite: badset | det | inverse | translation
volume      box shadow volumes and slab bounds, optionally cross-checked

Exit codes: 0 success (including a false certify verdict), 2 invalid
input, 3 algorithmic failure (e.g. sampler exhaustion).  Diagnostics go to
stderr and are controlled by TRANSVERSAL_LOG in {quiet, info, debug}; the
stdout data stream stays machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import familyio
from .geometry import ConstructionError, ValidationError
from .polytope import Box, box_projection_volume, mc_shadow_volume, slab_measure_bound
from .prevalence import (
    McConfig,
    mc_bad_set_measure,
    mc_det_lower_bound,
    mc_inverse_bound,
    translation_experiment,
)
from .separator import (
    certify,
    common_complement,
    decay_fit_prefixes,
    derive_seeds,
    is_well_separating,
    random_subspace_family,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ALGORITHM = 3

LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

logger = logging.getLogger("transversal")


def _setup_logging() -> None:
    name = os.environ.get("TRANSVERSAL_LOG", "quiet")
    if name not in LOG_LEVELS:
        raise ValidationError(
            f"TRANSVERSAL_LOG must be one of {sorted(LOG_LEVELS)}, got {name!r}"
        )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.handlers[:] = [handler]
    logger.setLevel(LOG_LEVELS[name])


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what}: {exc}") from exc
    if not values:
        raise ValidationError(f"{what} is empty")
    return np.asarray(values, dtype=float)


def _parse_vectors(text: str, what: str) -> np.ndarray:
    rows = [_parse_floats(part, what) for part in text.split(";") if part.strip()]
    if not rows:
        raise ValidationError(f"{what} is empty")
    lengths = {row.size for row in rows}
    if len(lengths) != 1:
        raise ValidationError(f"{what} rows have inconsistent lengths")
    return np.vstack(rows)


def cmd_construct(args) -> int:
    family, labels = familyio.load_family(args.family)
    logger.info("family: %d members, n=%d, k=%d",
                len(family), family.ambient_dim, family.codim)
    result = common_complement(family, args.seed)
    logger.info("construction took %d draws (%d accepted)",
                result.rejection_stats.attempted, result.rejection_stats.accepted)
    logger.debug("certified profile: %s", result.certificate.deltas.tolist())
    familyio.save_complement(args.out, result)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    family, _ = familyio.load_family(args.family)
    doc = familyio.load_complement(args.complement)
    span = doc.span
    measured = certify(span, family)
    certified = doc.certified
    if certified is not None and certified.size != measured.size:
        raise ValidationError("stored certificate length does not match the family")
    max_exponent = args.max_exponent
    if max_exponent is None:
        max_exponent = 5.0 * family.codim + 1.0

    lines = ["j,delta_measured,delta_certified,fit_exponent,fit_scale"]
    exponents, scales = decay_fit_prefixes(measured.deltas)
    for j in range(measured.size):
        cert_field = ""
        if certified is not None:
            cert_field = repr(float(certified.deltas[j]))
        lines.append(",".join([
            str(j + 1),
            repr(float(measured.deltas[j])),
            cert_field,
            repr(float(exponents[j])),
            repr(float(scales[j])),
        ]))
    if not measured.positive:
        logger.info("candidate misses at least one member (zero measured delta)")
    verdict, _ = is_well_separating(measured.deltas, max_exponent)
    lines.append(f"verdict,{str(verdict).lower()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_mc(args) -> int:
    for name in ("k", "members", "dim"):
        if getattr(args, name) < 1:
            raise ValidationError(f"--{name} must be at least 1, got {getattr(args, name)}")
    grid = tuple(float(e) for e in _parse_floats(args.epsilon_grid, "epsilon grid"))
    config = McConfig(samples=args.samples, seed=args.seed, epsilon_grid=grid)
    out: dict
    if args.suite == "badset":
        if args.family:
            family, _ = familyio.load_family(args.family)
        else:
            family_seed = derive_seeds(args.seed, 3)[2]
            family = random_subspace_family(family_seed, args.dim, 1, args.members)
        reports = mc_bad_set_measure(family, config)
        out = {"suite": "badset", "reports": [r.to_dict() for r in reports]}
        overall = all(r.verdict for r in reports)
    elif args.suite == "det":
        k = args.k
        if args.zero_shifts:
            shifts = np.zeros((args.members, k, k))
        else:
            shifts = _random_shifts(args.seed, args.members, k)
        report, _ = mc_det_lower_bound(shifts, config)
        out = {"suite": "det", "reports": [report.to_dict()]}
        overall = report.verdict
    elif args.suite == "inverse":
        k = args.k
        j = np.arange(1, args.members + 1, dtype=float)
        deltas = j ** -float(args.delta_exponent)
        shifts = _random_shifts(args.seed, args.members, k)
        # rescale each shift into the allowed spectral ball of radius 1/delta
        norms = np.linalg.norm(shifts, ord=2, axis=(1, 2))
        cap = 1.0 / deltas
        scale = np.minimum(1.0, cap / np.maximum(norms, 1e-300))
        shifts = shifts * scale[:, None, None]
        report, _ = mc_inverse_bound(shifts, deltas, config)
        out = {"suite": "inverse", "reports": [report.to_dict()]}
        overall = report.verdict
    else:  # translation
        if args.family:
            family, _ = familyio.load_family(args.family)
        else:
            family_seed = derive_seeds(args.seed, 3)[2]
            family = random_subspace_family(family_seed, args.dim, args.k,
                                            args.members)
        base = common_complement(family, derive_seeds(args.seed, 2)[0])
        if args.translation:
            translation = _parse_vectors(args.translation, "translation")
        else:
            translation = np.eye(family.codim, family.ambient_dim)
        max_exponent = args.max_exponent
        if max_exponent is None:
            max_exponent = 5.0 * family.codim ** 2 + 2.0
        report, _ = translation_experiment(
            base, family, translation, config,
            radius=args.radius, max_exponent=max_exponent)
        out = {"suite": "translation", "reports": [report.to_dict()]}
        overall = report.verdict
    out["verdict"] = bool(overall)
    sys.stdout.write(familyio.dump_json(out))
    return EXIT_OK


def _random_shifts(seed: int, count: int, k: int) -> np.ndarray:
    """Random shift matrices with spectral norm at most 1."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    shifts = rng.standard_normal((count, k, k))
    norms = np.linalg.norm(shifts, ord=2, axis=(1, 2))
    return shifts / np.maximum(norms, 1e-300)[:, None, None]


def cmd_volume(args) -> int:
    halfwidths = _parse_floats(args.halfwidths, "halfwidths")
    normal = _parse_floats(args.normal, "normal")
    norm = float(np.linalg.norm(normal))
    if norm == 0.0:
        raise ValidationError("normal vector must be nonzero")
    normal = normal / norm
    box = Box(halfwidths)
    exact = box_projection_volume(box, normal)
    lines = [f"projection_volume {exact!r}"]
    if args.delta is not None:
        lines.append(f"slab_bound {slab_measure_bound(box, normal, args.delta)!r}")
    if args.mc:
        est = mc_shadow_volume(box, normal, samples=args.samples, seed=args.seed)
        ref, check = exact, est
        if not 0.0 < exact < math.inf:
            # the shadow leaves float64's range, so the agreement is judged on
            # the box scaled by a power of two to a largest halfwidth in
            # [1/2, 1), never as inf <= inf; a halfwidth that underflows there
            # is taken at the smallest subnormal
            scaled = np.ldexp(halfwidths, -int(np.frexp(halfwidths.max())[1]))
            unit = Box(np.maximum(scaled, np.finfo(float).smallest_subnormal))
            ref = box_projection_volume(unit, normal)
            check = mc_shadow_volume(unit, normal, samples=args.samples, seed=args.seed)
        rel = abs(check.estimate - ref) / ref if ref > 0 else math.inf
        agree = rel < math.inf and abs(check.estimate - ref) <= 0.01 * ref + 3.0 * check.stderr
        lines += [f"mc_estimate {est.estimate!r}",
                  f"mc_stderr {est.stderr!r}",
                  f"mc_rel_error {rel!r}",
                  f"mc_agreement {'ok' if agree else 'mismatch'}"]
    # printed only once every value exists, so a rejected input prints nothing
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversal",
        description="certified common complements for subspace families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certified common complement")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output complement JSON file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="measure a complement against a family (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--complement", required=True)
    p.add_argument("--max-exponent", type=float, default=None,
                   help="decay ceiling for the verdict (default 5k + 1)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("mc", help="run a Monte Carlo suite")
    p.add_argument("suite", choices=["badset", "det", "inverse", "translation"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--epsilon-grid", default="0.1,0.01,0.001",
                   help="decreasing comma list; doubles as the det eta-grid")
    p.add_argument("--members", type=int, default=50, help="family/shift count J")
    p.add_argument("--dim", type=int, default=6, help="ambient dimension n")
    p.add_argument("--k", type=int, default=1, help="codim / matrix size")
    p.add_argument("--family", default=None, help="family JSON (badset, translation)")
    p.add_argument("--zero-shifts", action="store_true",
                   help="det: use zero shift matrices")
    p.add_argument("--delta-exponent", type=float, default=2.0,
                   help="inverse: delta_j = j^-q")
    p.add_argument("--radius", type=float, default=1.0,
                   help="translation: coefficient ball radius")
    p.add_argument("--max-exponent", type=float, default=None,
                   help="translation: decay ceiling (default 5k^2 + 2)")
    p.add_argument("--translation", default=None,
                   help="translation vectors 'a,b,...;c,d,...' (default e_1..e_k)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("volume", help="box shadow volume and slab bounds")
    p.add_argument("--halfwidths", required=True, help="comma list of h_i > 0")
    p.add_argument("--normal", required=True, help="comma list, normalized on load")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--mc", action="store_true", help="cross-check with the MC oracle")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_volume)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (ValidationError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        logger.debug("input failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError as exc:
        logger.debug("construction failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM


if __name__ == "__main__":
    raise SystemExit(main())
