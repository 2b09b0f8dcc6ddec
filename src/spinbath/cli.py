"""Command-line interface.

Subcommands: bath, coherence, sweep, library, mle, yield, validate.
Units at the boundary: densities in ppm, thicknesses/radii in nm, field in
Gauss, measured T2* in microseconds (one per line, # comments allowed);
internal times are ms.  All randomness derives from --seed, so identical
invocations produce byte-identical outputs: `bath` and a one-configuration
`coherence` run seed their bath with it directly, and every Monte-Carlo
run draws configuration i of grid cell c from SeedSequence(seed,
spawn_key=(c, i)) (cce.spawn_seed).
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import __version__
from .bath import BathGeometry, default_lateral_radius, generate_bath, \
    read_bath, write_bath
from .cce import CCEConfig, cce_coherence, ensemble_coherence, \
    sequence_by_name, write_curve
from .constants import DEFAULTS, FieldConfig
from .fitting import distribution_stats, run_sweep, write_sweep
from .mle import build_library, estimate_density, likelihood_surface, \
    read_library, write_library
from .validation import ALL_CHECKS, run_validation
from .yields import visibility_ratio_2d3d, write_yield_report, yield_sweep


def parse_axis(spec, default_count=10):
    """Parse an axis spec: comma list, 'lo:hi' / 'lo:hi:log' (log-spaced,
    10 points), 'lo:hi:logN' or 'lo:hi:linN' for N >= 1 points."""
    spec = str(spec)
    if ":" in spec:
        parts = spec.split(":")
        lo, hi = float(parts[0]), float(parts[1])
        scale, count = "log", default_count
        if len(parts) > 2:
            tag = parts[2]
            if tag.startswith("log"):
                scale = "log"
                count = int(tag[3:]) if len(tag) > 3 else default_count
            elif tag.startswith("lin"):
                scale = "lin"
                count = int(tag[3:]) if len(tag) > 3 else default_count
            else:
                raise ValueError(f"unknown axis scale in {spec!r}")
        if count < 1:
            raise ValueError(f"axis {spec!r} has fewer than one point")
        if scale == "log":
            return np.geomspace(lo, hi, count)
        return np.linspace(lo, hi, count)
    return np.array([float(v) for v in spec.split(",")])


def read_measurements(path):
    """One T2* in microseconds per line; '#' starts a comment."""
    t2_us = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path} line {lineno}: not a number: "
                                 f"{line!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path} line {lineno}: T2* must be finite, "
                                 f"got {line!r}")
            t2_us.append(value)
    if not t2_us:
        raise ValueError(f"no measurements in {path}")
    arr = np.array(t2_us)
    if np.any(arr <= 0):
        raise ValueError("T2* values must be positive")
    return arr


def _geometry(args, target_spins):
    radius = getattr(args, "radius", None)
    if radius is None:
        radius = default_lateral_radius(args.density, args.thickness,
                                        target_spins)
    return BathGeometry(density_ppm=args.density, thickness=args.thickness,
                        lateral_radius=float(radius),
                        placement_mode=args.placement)


def _open_out(args):
    if args.out in (None, "-"):
        return sys.stdout, False
    return open(args.out, "w"), True


def _write(args, writer):
    fh, close = _open_out(args)
    try:
        writer(fh)
    finally:
        if close:
            fh.close()


def cmd_bath(args):
    geom = _geometry(args, args.target_spins)
    cfg = generate_bath(geom, args.seed)
    _write(args, lambda fh: write_bath(cfg, fh))
    return 0


def _time_grid(args):
    if args.log_grid:
        return np.concatenate([[0.0], np.geomspace(args.tmax * 3e-4,
                                                   args.tmax, args.npoints)])
    return np.linspace(0.0, args.tmax, args.npoints + 1)


# coherence options that describe generated baths, with their defaults; a
# --bath file fixes the bath, so none of them may be given with it
_GENERATED_BATH_OPTIONS = {"density": None, "thickness": None, "radius": None,
                           "target_spins": 36, "placement": "lattice-site",
                           "nconfigs": 1}


def cmd_coherence(args):
    """One curve whose metadata holds every option that changes its bytes
    (for a --bath run, the path and SHA-256 of the bath file in place of
    the geometry), so the file records how to regenerate it."""
    if args.bath is not None:
        given = [f"--{name.replace('_', '-')}" for name in
                 _GENERATED_BATH_OPTIONS if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--bath fixes the bath; {', '.join(given)} "
                             f"cannot be given with it")
    elif args.density is None or args.thickness is None:
        raise ValueError("need --bath or both --density and --thickness")
    for name, default in _GENERATED_BATH_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    field = FieldConfig(B_z=args.field)
    p1 = DEFAULTS.p1(args.isotope)
    sequence = sequence_by_name(args.kind)
    cce = CCEConfig(order=args.order, dipole_radius=args.dipole_radius,
                    n_bath_states=args.nstates, time_grid=_time_grid(args),
                    mode=args.mode, bath_state_mode=args.bath_state_mode)
    if args.bath is not None:
        with open(args.bath, "rb") as fh:
            source = {"bath": args.bath,
                      "bath_sha256": hashlib.sha256(fh.read()).hexdigest()}
        with open(args.bath) as fh:
            cfg = read_bath(fh)
        curve = cce_coherence(cfg, cce, sequence, field=field,
                              seed=args.seed, p1=p1)
    else:
        geom = _geometry(args, args.target_spins)
        source = {"density_ppm": geom.density_ppm,
                  "thickness_nm": geom.thickness,
                  "lateral_radius_nm": geom.lateral_radius,
                  "target_spins": args.target_spins,
                  "placement_mode": geom.placement_mode}
        if args.nconfigs != 1:
            curve = ensemble_coherence(geom, args.nconfigs, cce, sequence,
                                       args.seed, field=field, p1=p1)
        else:
            cfg = generate_bath(geom, args.seed,
                                nuclear_projections=p1.nuclear_projections)
            curve = cce_coherence(cfg, cce, sequence, field=field,
                                  seed=args.seed, p1=p1)
    curve.metadata.update(
        source, tool_version=__version__, isotope=args.isotope,
        field_G=args.field, dipole_radius_nm=args.dipole_radius,
        tmax_ms=args.tmax, npoints=args.npoints, log_grid=args.log_grid)
    _write(args, lambda fh: write_curve(curve, fh))
    return 0


def cmd_sweep(args):
    grid = run_sweep(parse_axis(args.thicknesses), parse_axis(args.densities),
                     args.nconfigs, args.seed, target_spins=args.target_spins,
                     placement_mode=args.placement)
    # every stat before the output opens, so a failing one writes nothing
    stats = ["# stats thickness_nm density_ppm mu_ms sigma_log10 n n_excluded\n"]
    for (i, j), samples in sorted(grid.cells.items()):
        st = distribution_stats(samples)
        stats.append(f"# stat {float(grid.thicknesses[i])!r} "
                     f"{float(grid.densities[j])!r} "
                     f"{st.mu!r} {st.sigma!r} {st.n_samples} {st.n_excluded}\n")

    def writer(fh):
        write_sweep(grid, fh)
        fh.writelines(stats)

    _write(args, writer)
    return 0


def cmd_library(args):
    lib = build_library(parse_axis(args.thicknesses),
                        parse_axis(args.densities),
                        args.nsamples, args.seed,
                        placement_mode=args.placement)
    _write(args, lambda fh: write_library(lib, fh))
    return 0


def cmd_mle(args):
    with open(args.library) as fh:
        lib = read_library(fh)
    t2_us = read_measurements(args.data)
    rates = 1.0 / (t2_us * 1e-3)  # ms^-1
    surface = likelihood_surface(rates, lib)
    est = estimate_density(surface, args.thickness)

    def writer(fh):
        fh.write("# spinbath mle-report v1\n")
        fh.write(f"# meta tool_version {__version__}\n")
        fh.write(f"# meta library {args.library}\n")
        fh.write(f"# meta n_measurements {len(rates)}\n")
        fh.write(f"rho_mle_ppm {est.rho_mle!r}\n")
        fh.write(f"rho_sigma_ppm {est.rho_sigma!r}\n")
        fh.write(f"fixed_thickness_nm {est.fixed_thickness!r}\n")
        i = int(np.argmin(np.abs(surface.thicknesses - args.thickness)))
        fh.write("# linecut density_ppm log_likelihood\n")
        for rho, ll in zip(surface.densities, surface.log_likelihood[i]):
            fh.write(f"linecut {float(rho)!r} {float(ll)!r}\n")

    _write(args, writer)
    return 0


def cmd_yield(args):
    report = yield_sweep(parse_axis(args.densities),
                         parse_axis(args.thicknesses),
                         args.nconfigs, args.seed,
                         placement_mode=args.placement)

    def writer(fh):
        write_yield_report(report, fh)
        if args.ratio:
            ratio, det = visibility_ratio_2d3d(
                float(report.densities[0]), float(report.thicknesses.min()),
                float(report.thicknesses.max()), args.nconfigs, args.seed)
            fh.write(f"# visibility_ratio_2d3d {ratio!r} "
                     f"mean_nu_2d {det['mean_nu_2d']!r} "
                     f"mean_nu_3d {det['mean_nu_3d']!r}\n")

    _write(args, writer)
    return 0


def cmd_validate(args):
    names = {fn.__name__.replace("check_", "").replace("_", "-"): fn
             for fn in ALL_CHECKS}
    if args.only:
        wanted = args.only.split(",")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            print(f"unknown checks: {unknown}; available: {sorted(names)}",
                  file=sys.stderr)
            return 2
        results = [names[w]() for w in wanted]
        for res in results:
            print(res)
    else:
        results = run_validation(quick=args.quick, progress=print)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin-qubit coherence toolkit for dilute electron baths")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, density=True, thickness=True):
        if density:
            sp.add_argument("--density", type=float, required=True,
                            help="defect density (ppm)")
        if thickness:
            sp.add_argument("--thickness", type=float, required=True,
                            help="slab thickness (nm)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--placement", default="lattice-site",
                        choices=["lattice-site", "continuum-poisson"])

    sp = sub.add_parser("bath", help="generate one bath configuration")
    common(sp)
    sp.add_argument("--radius", type=float, default=None,
                    help="lateral radius (nm); default sized for --target-spins")
    sp.add_argument("--target-spins", type=int, default=36)
    sp.set_defaults(func=cmd_bath)

    sp = sub.add_parser("coherence", help="simulate one coherence curve")
    sp.add_argument("--kind", default="hahn", choices=["ramsey", "hahn"])
    sp.add_argument("--bath", default=None,
                    help="bath file; excludes --density, --thickness, "
                    "--radius, --target-spins, --placement and --nconfigs")
    sp.add_argument("--density", type=float, default=None)
    sp.add_argument("--thickness", type=float, default=None)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--target-spins", type=int, default=None,
                    help="default 36")
    sp.add_argument("--field", type=float, default=DEFAULTS.field.B_z,
                    help="magnetic field along the quantization axis (G)")
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--nstates", type=int, default=1,
                    help="sampled bath states per configuration")
    sp.add_argument("--nconfigs", type=int, default=None,
                    help=">1 averages |L| over random configurations "
                    "(default 1)")
    sp.add_argument("--dipole-radius", type=float, default=1e9)
    sp.add_argument("--mode", default="secular", choices=["secular", "full"])
    sp.add_argument("--bath-state-mode", default="sample",
                    choices=["sample", "exact"])
    sp.add_argument("--tmax", type=float, default=0.05, help="ms")
    sp.add_argument("--npoints", type=int, default=100)
    sp.add_argument("--log-grid", action="store_true")
    sp.add_argument("--isotope", default="n15", choices=["n14", "n15"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--placement", default=None,
                    choices=["lattice-site", "continuum-poisson"],
                    help="default lattice-site")
    sp.set_defaults(func=cmd_coherence)

    sp = sub.add_parser("sweep", help="grid sweep of T2* samples")
    sp.add_argument("--densities", required=True,
                    help="ppm axis: list '1,5,9' or range 'lo:hi[:logN|:linN]'")
    sp.add_argument("--thicknesses", required=True, help="nm axis, same syntax")
    sp.add_argument("--nconfigs", type=int, default=100)
    sp.add_argument("--target-spins", type=int, default=36)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--placement", default="lattice-site",
                    choices=["lattice-site", "continuum-poisson"])
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("library", help="build a dephasing-rate library")
    sp.add_argument("--densities", required=True)
    sp.add_argument("--thicknesses", required=True)
    sp.add_argument("--nsamples", type=int, default=500,
                    help="samples per grid cell")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--placement", default="continuum-poisson",
                    choices=["lattice-site", "continuum-poisson"])
    sp.set_defaults(func=cmd_library)

    sp = sub.add_parser("mle", help="estimate bath density from T2* data")
    sp.add_argument("--library", required=True)
    sp.add_argument("--data", required=True,
                    help="text file, one T2* (us) per line, # comments")
    sp.add_argument("--thickness", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_mle)

    sp = sub.add_parser("yield", help="strong-coupling yield vs thickness")
    sp.add_argument("--densities", required=True)
    sp.add_argument("--thicknesses", required=True)
    sp.add_argument("--nconfigs", "--configs", dest="nconfigs",
                    type=int, default=1000)
    sp.add_argument("--ratio", action="store_true",
                    help="append the 2D/3D visibility ratio")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--placement", default="lattice-site",
                    choices=["lattice-site", "continuum-poisson"])
    sp.set_defaults(func=cmd_yield)

    sp = sub.add_parser("validate", help="run the validation suite")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--only", default=None,
                    help="comma-separated check names")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
