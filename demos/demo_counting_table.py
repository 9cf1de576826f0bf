"""Regenerate the exact count table for infinite star trees and eyeball growth.

P(delta, gamma, n) counts sweep-covers of size n on the infinite tree of
delta-stars joined by gamma-edge linear paths.  The delta = 2, gamma = 0 row
is the Catalan sequence shifted by one.
"""

from sweepcover import catalan, growth_report, p_table, raney_bound_report


def main():
    table = p_table((2, 9), (1, 8), gamma=0)
    print("P(delta, 0, n) for delta = 2..9, n = 1..8")
    for delta, row in table.items():
        print(f"  delta={delta}: {row}")

    print("\ndelta=2 row vs Catalan numbers:")
    print("  row:    ", table[2])
    print("  catalan:", [catalan(k) for k in range(8)])

    print("\ngrowth diagnostics for delta=3, gamma=0:")
    for r in growth_report(3, 0, 8):
        ratio = "-" if r.ratio is None else f"{r.ratio:.3f}"
        print(f"  n={r.n}  P={r.p_value:<8}  ratio={ratio:<8}  root={r.nth_root:.3f}")

    print("\ncount vs Raney value C(delta,1)(n+1) (observational only):")
    for r in raney_bound_report(2, 0, (1, 6)):
        print(f"  n={r.n}  P={r.p_value}  raney={r.raney_value}  holds={r.inequality_holds}")


if __name__ == "__main__":
    main()
