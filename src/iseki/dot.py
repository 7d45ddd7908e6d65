"""Graphviz export of the specialization order of a spectrum.

Points are ordered by ideal inclusion; the emitted digraph is the Hasse
diagram (an edge x -> y means x is properly contained in y with nothing
in between).  Node order follows the spectrum's point order, so output
is deterministic.
"""

from .ideals import mask_members


def export_dot(spec):
    """The upper covers of point i are the minimal points of up[i] - {i}:
    the j in it whose down-set meets it in j alone.  The points below
    point j are those that hold no element outside it, so its down-set
    is the complement of the columns of those elements.  A proper
    superset has a larger mask, so each edge runs to a larger index."""
    down = []
    for p in spec.points:
        outside = 0
        for x, column in enumerate(spec.columns):
            if not (p >> x) & 1:
                outside |= column
        down.append(spec.full & ~outside)
    lines = ["digraph specialization {"]
    for i, p in enumerate(spec.points):
        label = "{" + ",".join(map(str, mask_members(spec.semiring, p))) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i, u in enumerate(spec.up):
        above = rest = u & ~(1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if down[j] & above == low:
                lines.append(f"  p{i} -> p{j};")
            rest ^= low
    lines.append("}")
    return "\n".join(lines) + "\n"
