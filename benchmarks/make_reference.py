"""Write the frozen accuracy reference used by ``benchmarks/run.py``.

Every family value is computed with mpmath at 30 significant digits from
polylogarithms and the Legendre chi function
chi_s(z) = (Li_s(z) - Li_s(-z)) / 2, which share no code with the
package's Hurwitz-zeta' closed forms:

    T1 =  Im Li_2m(e^ix)          T2 =  Re Li_2m-1(e^ix)
    T3 = -Im Li_2m(-e^ix)         T4 = -Re Li_2m-1(-e^ix)
    T5 =  Im chi_2m(e^ix)         T6 =  Re chi_2m-1(e^ix)
    T7 = -Re chi_2m-1(i e^ix)     T8 =  Im chi_2m(i e^ix)

The grids are every grid a benchmark seed can select (see run.py), each
computed here with its own copy of the CLI grid rule.  Before writing,
the sign conventions are checked against the package's brute-force
``direct_sum`` oracle on a few points of every (family, m) pair.

Run from the repository root (takes about 20 seconds):

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference.json"
DPS = 30

# Grid counts a seed can select; must match run.py.
SWEEP_COUNTS = (31, 35)
SWEEP_WEIGHTS = range(1, 9)
COMPARE_COUNTS = (127, 131)
COMPARE_WEIGHTS = (1,)

INTERVALS = {
    "T1": (0.0, 2.0 * math.pi),
    "T2": (0.0, 2.0 * math.pi),
    "T3": (-math.pi, math.pi),
    "T4": (-math.pi, math.pi),
    "T5": (0.0, math.pi),
    "T6": (0.0, math.pi),
    "T7": (-0.5 * math.pi, 0.5 * math.pi),
    "T8": (-0.5 * math.pi, 0.5 * math.pi),
}


def grid(family: str, count: int) -> list[float]:
    """count points spanning 5%..95% of the family's open interval."""
    lo, hi = INTERVALS[family]
    return [lo + (0.05 + 0.9 * i / (count - 1)) * (hi - lo) for i in range(count)]


def _chi(s: int, z):
    return (mp.polylog(s, z) - mp.polylog(s, -z)) / 2


def family_value(family: str, m: int, x: float) -> float:
    e = mp.expj(mp.mpf(x))  # mpf(x) is exact for a binary float
    if family == "T1":
        v = mp.im(mp.polylog(2 * m, e))
    elif family == "T2":
        v = mp.re(mp.polylog(2 * m - 1, e))
    elif family == "T3":
        v = -mp.im(mp.polylog(2 * m, -e))
    elif family == "T4":
        v = -mp.re(mp.polylog(2 * m - 1, -e))
    elif family == "T5":
        v = mp.im(_chi(2 * m, e))
    elif family == "T6":
        v = mp.re(_chi(2 * m - 1, e))
    elif family == "T7":
        v = -mp.re(_chi(2 * m - 1, 1j * e))
    else:
        v = mp.im(_chi(2 * m, 1j * e))
    return float(v)


def check_signs() -> None:
    """Compare against direct summation; any sign or offset slip is O(1)."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from trigzeta.closedforms import SeriesSpec
    from trigzeta.oracles import direct_sum

    for family in INTERVALS:
        xs = grid(family, 9)
        for m in SWEEP_WEIGHTS:
            spec = SeriesSpec.from_family(family, m)
            for x in (xs[0], xs[3], xs[-1]):
                ref = family_value(family, m, x)
                got = direct_sum(spec, x, 1e-10).value
                if abs(got - ref) > 1e-9 * (1.0 + abs(ref)):
                    raise SystemExit(
                        f"sign check failed: {family} m={m} x={x!r}: "
                        f"reference {ref!r}, direct_sum {got!r}"
                    )


def main() -> int:
    mp.mp.dps = DPS
    check_signs()
    grids = {}
    for counts, weights in ((SWEEP_COUNTS, SWEEP_WEIGHTS), (COMPARE_COUNTS, COMPARE_WEIGHTS)):
        for family in INTERVALS:
            for count in counts:
                xs = grid(family, count)
                entry = {"x": xs}
                for m in weights:
                    entry[str(m)] = [family_value(family, m, x) for x in xs]
                grids[f"{family}/{count}"] = entry
    doc = {
        "about": "family values on every benchmark grid, mpmath polylog / "
        "Legendre chi, rounded to float64",
        "mpmath": mp.__version__,
        "dps": DPS,
        "grids": grids,
    }
    OUT.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}: {len(grids)} grids")
    return 0


if __name__ == "__main__":
    sys.exit(main())
