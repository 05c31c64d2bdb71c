#!/usr/bin/env python3
"""Regenerate the standard --out set from the checked-in configs.

Writes 16 files into the output directory: `price`, `simulate --seed 3`
and `validate --paths 50000` on the four figure configs, `price --mc
--paths 20000` on fig2, `surface` on both fig5 configs, and `bench`.
Rerunning reproduces every file byte for byte.

With --compare OTHER_DIR, each file is then checked against the file of
the same name in OTHER_DIR (say, the set written by another version of
the package): the report says "identical", or how many numbers moved and
the largest relative move. The exit code is 1 when any file differs.

Usage:
    python scripts/reproduce_figures.py --outdir out/figures
    python scripts/reproduce_figures.py --outdir out/new --compare out/old
"""

import argparse
import pathlib
import re
import sys

from levyrates.cli import main as cli_main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

FIGURES = ["fig1_gbm", "fig2_jd", "fig3_gamma", "fig4_vg"]

# (output file, command, config or None, extra arguments)
JOBS = (
    [(f"{fig}_price.json", "price", fig, []) for fig in FIGURES]
    + [(f"{fig}_path.csv", "simulate", fig, ["--seed", "3"]) for fig in FIGURES]
    + [(f"{fig}_validate.txt", "validate", fig, ["--paths", "50000"]) for fig in FIGURES]
    + [
        ("fig2_jd_price_mc.json", "price", "fig2_jd", ["--mc", "--paths", "20000"]),
        ("fig5_jd_surface.csv", "surface", "fig5_jd_surface", []),
        ("fig5_vg_surface.csv", "surface", "fig5_vg_surface", []),
        ("bench.csv", "bench", None, []),
    ]
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def compare(path: pathlib.Path, other: pathlib.Path) -> str:
    """Say "identical", or how many numbers moved and the largest relative move."""
    if not other.exists():
        return f"missing in {other.parent}"
    a, b = path.read_text(), other.read_text()
    if a == b:
        return "identical"
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "text differs beyond its numbers"
    moved, worst = 0, 0.0
    for sx, sy in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if sx != sy:
            moved += 1
            x, y = float(sx), float(sy)
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return f"{moved} numbers moved, largest relative move {worst:.3g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out/figures")
    ap.add_argument("--compare", metavar="OTHER_DIR", help="directory holding a set to compare with")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, command, config, extra in JOBS:
        target = outdir / filename
        argv = [command, "--out", str(target)] + extra
        if config is not None:
            argv += ["--config", str(CONFIG_DIR / f"{config}.json")]
        rc = cli_main(argv)
        if rc != 0:
            print(f"{command} on {config} failed with exit code {rc}", file=sys.stderr)
            return rc
        print(f"wrote {target}")

    if args.compare is None:
        return 0
    differ = 0
    for filename, *_ in JOBS:
        verdict = compare(outdir / filename, pathlib.Path(args.compare) / filename)
        differ += verdict != "identical"
        print(f"{filename}: {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
