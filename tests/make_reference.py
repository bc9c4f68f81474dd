"""Write ``tests/reference.json``, the frozen high-precision test fixture.

Two tables, both from the installed mpmath at 30 significant digits and
rounded to float64, so the tests need no mpmath at run time:

* ``closed_form``: every family value for all 64 (family, m) pairs on the
  CLI's 9-point grid (``grid_points(family, 9)``) plus two points near each
  end of the open interval, at 1e-6 and 1e-3 of its length.  The values
  come from polylogarithms and the Legendre chi function, through
  ``family_value`` of ``benchmarks/make_reference.py``, whose sign
  conventions are checked against the package's ``direct_sum`` first.
* ``zeta_sderiv``: d/ds zeta(s, a) at s = -n for n = 0..15 and a few
  offsets that cover each recentring branch of the Taylor route.

Run from the repository root (takes a few seconds):

    python3 tests/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "reference.json"
DPS = 30

END_OFFSETS = (1e-6, 1e-3)
ORDERS = range(16)
OFFSETS = (1e-3, 0.05, 0.3, 0.5, 0.9, 1.0, 1.49, 1.6, 2.4)


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.make_reference import check_signs, family_value
    from trigzeta.cli import FAMILIES, grid_points
    from trigzeta.closedforms import SeriesSpec

    mp.mp.dps = DPS
    check_signs()
    closed_form = {}
    for family in FAMILIES:
        lo, hi = SeriesSpec.from_family(family, 1).interval
        ends = [lo + f * (hi - lo) for f in END_OFFSETS] + [hi - f * (hi - lo) for f in END_OFFSETS]
        xs = sorted(grid_points(family, 9) + ends)
        closed_form[family] = {"x": xs}
        for m in range(1, 9):
            closed_form[family][str(m)] = [family_value(family, m, x) for x in xs]
    zeta_sderiv = {"a": list(OFFSETS)}
    for n in ORDERS:
        zeta_sderiv[str(n)] = [float(mp.zeta(-n, mp.mpf(a), 1)) for a in OFFSETS]
    doc = {
        "about": "frozen mpmath values for the closed-form and zeta' accuracy tests",
        "mpmath": mp.__version__,
        "dps": DPS,
        "closed_form": closed_form,
        "zeta_sderiv": zeta_sderiv,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {8 * len(closed_form)} (family, m) pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
