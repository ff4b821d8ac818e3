#!/usr/bin/env python3
"""Chamber census for admissibility over the semisimple factor of K.

For each Hermitian form, walks every chamber whose compact part is that of
the holomorphic system (across noncompact walls, see
``rootsystems.chambers``), each held as its sign vector, and reports how many
of them carry discrete series with admissible restriction to K_ss.  Tube
domains lose the holomorphic and antiholomorphic chambers (and usually more);
non-tube forms keep them.

Run from the repository root:  python scripts/hermitian_chamber_scan.py
"""

from branchkit.rootsystems import chambers
from branchkit.specialcases import hermitian_data, kss_admissible_system

FORMS = ["su_pq:2,2", "su_pq:2,3", "su_pq:2,4", "sp_n_R:2", "sp_n_R:3",
         "so_star:4", "so_star:5", "e6_m14", "e7_m25"]


def main():
    print(f"{'form':>12s} {'tube':>5s} {'chambers':>9s} {'admissible':>11s}")
    for label in FORMS:
        hd = hermitian_data(label)
        signs = [psi.signs for psi in chambers(hd.rd)]
        good = sum(kss_admissible_system(hd, chamber) for chamber in signs)
        print(f"{label:>12s} {str(hd.tube):>5s} {len(signs):>9d} {good:>11d}")


if __name__ == "__main__":
    main()
