"""Human-readable polynomials for the demos' printouts."""

_NAMES = {"real": ("y1", "y2", "x1", "x2"),
          "complex": ("z1", "z2", "zb1", "zb2")}


def pretty(p) -> str:
    """p as a sum of coefficient*monomial terms in graded lexicographic
    order, e.g. ``1/2*y1^2 + (0+1/3i)*z1*zb2``."""
    if p.is_zero():
        return "0"
    names, fmt = _NAMES[p.chart], p.field.format_elem
    parts = []
    for e, c in p.coeffs.items():
        mono = "*".join(f"{names[i]}^{e[i]}" if e[i] > 1 else names[i]
                        for i in range(4) if e[i] > 0)
        cs = fmt(c.re) if c.is_real() else f"({fmt(c.re)}+{fmt(c.im)}i)"
        parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts)
