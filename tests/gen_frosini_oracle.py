"""Regenerate the frozen Frosini limit-law oracle table
(tests/data/frosini_asymptotic_oracle.csv).

30 equispaced abscissae on [0.05, 2.5]; values of the CDF of the L1 norm of
the Brownian bridge from the 20-digit mpmath series. Run from the repository
root:

    python tests/gen_frosini_oracle.py
"""

from pathlib import Path

import mpmath as mp
import numpy as np

from oracles import frosini_asymptotic_cdf_mp


def main() -> None:
    xs = np.linspace(0.05, 2.5, 30)
    out = Path(__file__).parent / "data" / "frosini_asymptotic_oracle.csv"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("x,cdf\n")
        for x in xs:
            val = frosini_asymptotic_cdf_mp(float(x), dps=20)
            handle.write(f"{float(x)!r},{mp.nstr(val, 20)}\n")
    print(f"wrote {xs.size} oracle values to {out}")


if __name__ == "__main__":
    main()
