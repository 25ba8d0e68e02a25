"""Command-line interface.

Subcommands
-----------
construct   build a certified common complement for a family file
certify     measure a complement against a family, emit a CSV profile
mc SUITE    run a Monte Carlo suite; each takes --seed, --samples and
            --epsilon-grid, plus only the flags it reads:
              badset       --family, or --dim and --members
              det          --members, --k, --zero-shifts
              inverse      --members, --k, --delta-exponent
              translation  --family, or --dim, --members and --k;
                           --radius, --max-exponent, --translation
volume      box shadow volumes and slab bounds, optionally cross-checked

Exit codes: 0 success (including a false certify verdict), 2 invalid
input (including a flag the suite does not read, or a shape flag beside
the --family file that fixes the shape), 3 algorithmic failure (e.g.
sampler exhaustion).  Diagnostics go to stderr and are controlled by
TRANSVERSAL_LOG in {quiet, info, debug}; the stdout data stream stays
machine-parseable.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys

import numpy as np

from . import familyio
from .geometry import ConstructionError, ValidationError, _keyed_rng
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
    family, _ = familyio.load_family(args.family)
    logger.info("family: %d members, n=%d, k=%d",
                len(family), family.ambient_dim, family.codim)
    result = common_complement(family, args.seed)
    logger.info("construction took %d draws (%d accepted)",
                result.rejection_stats.attempted, result.rejection_stats.accepted)
    logger.debug("certified profile: %s", result.certified.tolist())
    familyio.save_complement(args.out, result)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    family, _ = familyio.load_family(args.family)
    span, certified = familyio.load_complement(args.complement)
    measured = certify(span, family)
    if certified is not None and certified.size != measured.size:
        raise ValidationError("stored certificate length does not match the family")
    max_exponent = args.max_exponent
    if max_exponent is None:
        max_exponent = 5.0 * family.codim + 1.0

    lines = ["j,delta_measured,delta_certified,fit_exponent,fit_scale"]
    exponents, scales = decay_fit_prefixes(measured)
    for j in range(measured.size):
        cert_field = "" if certified is None else repr(float(certified[j]))
        lines.append(",".join([
            str(j + 1),
            repr(float(measured[j])),
            cert_field,
            repr(float(exponents[j])),
            repr(float(scales[j])),
        ]))
    if not np.all(measured > 0):
        logger.info("candidate misses at least one member (zero measured delta)")
    verdict, _ = is_well_separating(measured, max_exponent)
    lines.append(f"verdict,{str(verdict).lower()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


#: The random family's or shift stack's shape when no --family file fixes it.
_SHAPE_DEFAULTS = {"k": 1, "members": 50, "dim": 6}


def cmd_mc_badset(args) -> int:
    config = _mc_config(args)
    return _write_reports(args, mc_bad_set_measure(_mc_family(args, 1), config))


def cmd_mc_det(args) -> int:
    config = _mc_config(args)
    if args.zero_shifts:
        shifts = np.zeros((args.members, args.k, args.k))
    else:
        shifts = _random_shifts(args.seed, args.members, args.k)
    return _write_reports(args, [mc_det_lower_bound(shifts, config)[0]])


def cmd_mc_inverse(args) -> int:
    config = _mc_config(args)
    j = np.arange(1, args.members + 1, dtype=float)
    deltas = j ** -float(args.delta_exponent)
    shifts = _random_shifts(args.seed, args.members, args.k)
    # rescale each shift into the allowed spectral ball of radius 1/delta
    norms = np.linalg.norm(shifts, ord=2, axis=(1, 2))
    cap = 1.0 / deltas
    scale = np.minimum(1.0, cap / np.maximum(norms, 1e-300))
    shifts = shifts * scale[:, None, None]
    return _write_reports(args, [mc_inverse_bound(shifts, deltas, config)[0]])


def cmd_mc_translation(args) -> int:
    config = _mc_config(args)
    family = _mc_family(args, args.k)
    base = common_complement(family, args.seed)
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
    return _write_reports(args, [report])


def _mc_config(args) -> McConfig:
    """The suite's McConfig, once its shape flags are settled: a shape flag
    left out takes its default, and one given must be at least 1 and may
    not come with a --family file, which fixes the shape."""
    family = getattr(args, "family", None)
    for name, default in _SHAPE_DEFAULTS.items():
        if not hasattr(args, name):
            continue
        value = getattr(args, name)
        if value is None:
            setattr(args, name, default)
        elif family:
            raise ValidationError(f"--family fixes the shape, so --{name} cannot be given")
        elif value < 1:
            raise ValidationError(f"--{name} must be at least 1, got {value}")
    grid = tuple(float(e) for e in _parse_floats(args.epsilon_grid, "epsilon grid"))
    return McConfig(samples=args.samples, seed=args.seed, epsilon_grid=grid)


def _write_reports(args, reports) -> int:
    """Print the suite's reports and their joint verdict as one JSON document."""
    sys.stdout.write(familyio.dump_json({
        "suite": args.suite,
        "reports": [r.to_dict() for r in reports],
        "verdict": all(r.verdict for r in reports),
    }))
    return EXIT_OK


def _mc_family(args, codim: int):
    """The --family file, else a random codim-``codim`` family from --seed."""
    if args.family:
        return familyio.load_family(args.family)[0]
    return random_subspace_family(args.seed, args.dim, codim, args.members)


def _random_shifts(seed: int, count: int, k: int) -> np.ndarray:
    """Random shift matrices with spectral norm at most 1."""
    shifts = _keyed_rng(seed, 7).standard_normal((count, k, k))
    norms = np.linalg.norm(shifts, ord=2, axis=(1, 2))
    return shifts / np.maximum(norms, 1e-300)[:, None, None]


def cmd_volume(args) -> int:
    halfwidths = _parse_floats(args.halfwidths, "halfwidths")
    normal = _parse_floats(args.normal, "normal")
    if not np.any(normal):
        raise ValidationError("normal vector must be nonzero")
    # a power of two scales exactly, so the norm neither over- nor underflows
    normal = np.ldexp(normal, -int(np.frexp(np.abs(normal).max())[1]))
    normal = normal / np.linalg.norm(normal)
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


#: Each command's help line and flags; mc's flags belong to its suites.
_COMMANDS = {
    "construct": ("build a certified common complement", {
        "--family": dict(required=True, help="family JSON file"),
        "--seed": dict(type=int, default=0),
        "--out": dict(required=True, help="output complement JSON file"),
    }),
    "certify": ("measure a complement against a family (CSV)", {
        "--family": dict(required=True),
        "--complement": dict(required=True),
        "--max-exponent": dict(type=float, default=None,
                               help="decay ceiling for the verdict (default 5k + 1)"),
        "--out": dict(default=None, help="CSV output path (default stdout)"),
    }),
    "mc": ("run a Monte Carlo suite", {}),
    "volume": ("box shadow volume and slab bounds", {
        "--halfwidths": dict(required=True, help="comma list of h_i > 0"),
        "--normal": dict(required=True, help="comma list, normalized on load"),
        "--delta": dict(type=float, default=None),
        "--mc": dict(action="store_true", help="cross-check with the MC oracle"),
        "--samples": dict(type=int, default=1_000_000),
        "--seed": dict(type=int, default=0),
    }),
}

#: The flags every mc suite takes.
_MC_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=10_000),
    "--epsilon-grid": dict(default="0.1,0.01,0.001",
                           help="decreasing comma list; doubles as the det eta-grid"),
}

#: The suite-specific mc flags; each suite parser takes the ones it reads.
_MC_FLAGS = {
    "--family": dict(default=None, help="family JSON file, which fixes the shape"),
    "--dim": dict(type=int, help=f"ambient dimension n (default {_SHAPE_DEFAULTS['dim']})"),
    "--members": dict(type=int,
                      help=f"family/shift count J (default {_SHAPE_DEFAULTS['members']})"),
    "--k": dict(type=int, help=f"codim / matrix size (default {_SHAPE_DEFAULTS['k']})"),
    "--zero-shifts": dict(action="store_true", help="use zero shift matrices"),
    "--delta-exponent": dict(type=float, default=2.0, help="delta_j = j^-q"),
    "--radius": dict(type=float, default=1.0, help="coefficient ball radius"),
    "--max-exponent": dict(type=float, default=None,
                           help="decay ceiling (default 5k^2 + 2)"),
    "--translation": dict(default=None,
                          help="translation vectors 'a,b,...;c,d,...' (default e_1..e_k)"),
}

#: Each mc suite's help line and the suite-specific flags it reads.
_MC_SUITES = {
    "badset": ("measure of the bad set of a hyperplane family",
               ("--family", "--dim", "--members")),
    "det": ("determinant slab bound of shifted matrices",
            ("--members", "--k", "--zero-shifts")),
    "inverse": ("inverse floors of shifted matrices",
                ("--members", "--k", "--delta-exponent")),
    "translation": ("translated perturbed complements",
                    ("--family", "--dim", "--members", "--k", "--radius",
                     "--max-exponent", "--translation")),
}


def build_parser(argv) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser for ``argv``, and the innermost parser it names.

    Every command has its sub-parser and help line, and so has every mc
    suite once ``argv`` names ``mc``, so usage lines and help listings are
    whole.  But only the parsers ``argv`` names get arguments, ``-h``
    included: its command, and for ``mc`` its suite.  Building every
    command's flags cost 1.2 ms per call, a fifth of a short ``mc
    translation``.  The handlers are looked up per call, so a traced run's
    wrappers of them are the ones called.
    """
    parser = argparse.ArgumentParser(
        prog="transversal",
        description="certified common complements for subspace families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text, add_help=False)
                for name, (text, _) in _COMMANDS.items()}
    handlers = {"construct": cmd_construct, "certify": cmd_certify, "volume": cmd_volume,
                "badset": cmd_mc_badset, "det": cmd_mc_det, "inverse": cmd_mc_inverse,
                "translation": cmd_mc_translation}
    command, rest = _named(argv, commands)
    if command is None:
        return parser, parser
    p = _add_flags(commands[command], _COMMANDS[command][1])
    if command != "mc":
        p.set_defaults(func=handlers[command])
        return parser, p
    suite_sub = p.add_subparsers(dest="suite", required=True)
    suites = {name: suite_sub.add_parser(name, help=text, add_help=False)
              for name, (text, _) in _MC_SUITES.items()}
    suite, _ = _named(rest, suites)
    if suite is None:
        return parser, p
    flags = {flag: _MC_FLAGS[flag] for flag in _MC_SUITES[suite][1]}
    p = _add_flags(suites[suite], _MC_SHARED_FLAGS | flags)
    p.set_defaults(func=handlers[suite])
    return parser, p


def _named(tokens, parsers: dict):
    """The name among ``parsers`` that argparse hands ``tokens`` to, or None,
    and the tokens after it.  The parsers above a sub-parser take no option
    but ``-h``, which exits, so argparse hands the tokens to the sub-parser
    their first non-option token names, if it names one."""
    for i, token in enumerate(tokens):
        if not token.startswith("-"):
            return token if token in parsers else None, tokens[i + 1:]
    return None, []


def _add_flags(parser: argparse.ArgumentParser, flags: dict) -> argparse.ArgumentParser:
    """Give a sub-parser made without arguments its -h and ``flags``."""
    parser.add_argument("-h", "--help", action="help",
                        help="show this help message and exit")
    for flag, spec in flags.items():
        parser.add_argument(flag, **spec)
    return parser


#: Flags whose value is a vector, and may so start with a minus sign.
_VECTOR_FLAGS = ("--normal", "--translation")


def _attach_vector_values(argv) -> list[str]:
    """``argv`` with each vector flag's value that starts like a negative
    number ("-1,1", "-.5,1") attached to its flag, as "--normal=-1,1".
    argparse reads a separate "-1,1" as an option, not as a value, since it
    is not one negative number.  A flag may be abbreviated, as argparse
    allows."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (re.match(r"-\.?\d", token) and len(flag) > 2 and "=" not in flag
                and any(name.startswith(flag) for name in _VECTOR_FLAGS)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    argv = _attach_vector_values(sys.argv[1:] if argv is None else argv)
    parser, innermost = build_parser(argv)
    args, extras = parser.parse_known_args(argv)
    if extras:
        innermost.error(f"unrecognized arguments: {' '.join(extras)}")
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
