"""Source lines per module of src/gsplab, in one checkout or two.

Usage:
    python scripts/src_lines.py CHECKOUT
    python scripts/src_lines.py BEFORE_CHECKOUT AFTER_CHECKOUT

A line counts when it is not blank and, stripped of its indentation, does
not start with ``#``; docstrings count.  With two checkouts each module
gets a ``before -> after`` column, a module missing from one side reading
0 there, and the last row is the total.
"""

import argparse
from pathlib import Path

PACKAGE = Path("src") / "gsplab"


def count_lines(path):
    """The counted lines of one source file."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.lstrip().startswith("#"))


def module_counts(checkout):
    """{module file name: counted lines} of the checkout's package."""
    package = Path(checkout) / PACKAGE
    if not package.is_dir():
        raise SystemExit(f"error: {package} not found")
    return {p.name: count_lines(p) for p in sorted(package.glob("*.py"))}


def table(*sides):
    """The printed rows, one per module and the total, for one or two
    {module: lines} mappings."""
    names = sorted(set().union(*sides))
    rows = [(name, *(side.get(name, 0) for side in sides)) for name in names]
    rows.append(("total", *(sum(side.values()) for side in sides)))
    width = max(len(row[0]) for row in rows)
    if len(sides) == 1:
        return [f"{name:<{width}}  {n:>5}" for name, n in rows]
    return [f"{name:<{width}}  {before:>5} -> {after:>5}  {after - before:+d}"
            for name, before, after in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                        help="one checkout, or the before and after ones")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    for row in table(*(module_counts(c) for c in args.checkouts)):
        print(row)


if __name__ == "__main__":
    main()
